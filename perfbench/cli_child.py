"""Run one ``privexp.cli`` command with the benchmark's probes installed.

    python3 perfbench/cli_child.py SPANS_JSON CLI_ARGS...

The package source must be on PYTHONPATH. The command's output goes to
stdout and stderr as usual; the recorded spans, the package import among
them, go to SPANS_JSON. Exits with the command's exit code.
"""

import json
import sys

from tracing import IMPORT, Tracer, traced


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span(IMPORT):
        import privexp.cli
    with traced(tracer):
        code = privexp.cli.main(argv)
    with open(out, "w") as fh:
        json.dump([s.to_dict() for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
