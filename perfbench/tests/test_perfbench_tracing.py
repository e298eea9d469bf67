"""Span arithmetic, probe installation and the per-layer roll-up."""

import sys
import types

import pytest

import tracing
from tracing import Probe, Span, Tracer


def span(sid, name, start, end, parent=None, phase="pass0", **attrs):
    return Span(name=name, sid=sid, parent=parent, phase=phase, item=None,
                start=start, end=end, attrs=attrs)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == pytest.approx(5.0)
    assert tracing.covered([(-2, 1), (9, 12)], 0.0, 10.0) == pytest.approx(2.0)
    assert tracing.covered([(4, 6)], 5.0, 5.5) == pytest.approx(0.5)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "outer", 0.0, 10.0),
        span(1, "child", 1.0, 3.0, parent=0),
        span(2, "child", 2.0, 5.0, parent=0),  # overlaps its sibling
        span(3, "grandchild", 2.5, 2.9, parent=1),
        span(4, "child", 7.0, 8.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(2.0 - 0.4)
    assert own[3] == pytest.approx(0.4)
    assert own[4] == pytest.approx(1.0)


def test_busy_counts_recursion_once():
    spans = [
        span(0, "f", 0.0, 4.0),
        span(1, "f", 1.0, 2.0, parent=0),
        span(2, "g", 2.0, 3.0, parent=0),
        span(3, "f", 5.0, 6.0),
    ]
    assert tracing.busy(spans, "f") == pytest.approx(5.0)
    assert tracing.busy(spans, "g") == pytest.approx(1.0)


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")
    mod.square = lambda x: x * x

    def fail():
        raise ValueError("boom")

    mod.fail = fail
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_traced_records_and_restores(fake_module):
    originals = (fake_module.square, fake_module.fail)
    probes = (
        Probe("perfbench_fake", "square", "fake.square"),
        Probe("perfbench_fake", "fail", "fake.fail"),
        Probe("perfbench_fake", "absent", "fake.absent"),
    )
    tracer = Tracer()
    with tracing.traced(tracer, probes) as missing:
        assert fake_module.square is not originals[0]
        assert fake_module.square(3) == 9
        with pytest.raises(ValueError):
            fake_module.fail()
    assert [p.attr for p in missing] == ["absent"]
    assert (fake_module.square, fake_module.fail) == originals
    assert not hasattr(fake_module, "absent")
    assert [s.name for s in tracer.spans] == ["fake.square", "fake.fail"]
    assert tracer.spans[1].attrs == {"error": "ValueError"}
    assert all(s.end >= s.start for s in tracer.spans)


def test_traced_restores_after_an_error(fake_module):
    original = fake_module.square
    with pytest.raises(RuntimeError):
        with tracing.traced(Tracer(), (Probe("perfbench_fake", "square", "sq"),)):
            raise RuntimeError
    assert fake_module.square is original


def test_package_probes_are_restored():
    import privexp.cli
    import privexp.exponents
    import privexp.simkit

    before = {(p.module, p.attr): getattr(sys.modules[p.module], p.attr)
              for p in tracing.PROBES}
    with tracing.traced(Tracer()) as missing:
        assert missing == []
        assert privexp.exponents.i_project is not before[("privexp.exponents", "i_project")]
    after = {(p.module, p.attr): getattr(sys.modules[p.module], p.attr)
             for p in tracing.PROBES}
    assert after == before


def test_nested_calls_get_parents():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner, (), {}, None) + 1

    assert tracer.call("outer", outer, (), {}, None) == 2
    outer_span, inner_span = tracer.spans
    assert outer_span.parent is None and inner_span.parent == outer_span.sid


def test_merge_renumbers_foreign_spans():
    tracer = Tracer()
    with tracer.span("local"):
        pass
    tracer.phase, tracer.item = "pass0", "x"
    tracer.merge([span(0, "a", 0, 2, phase="setup").to_dict(),
                  span(1, "b", 0, 1, parent=0, phase="setup").to_dict()])
    a, b = tracer.spans[1:]
    assert (a.sid, b.sid, b.parent) == (1, 2, 1)
    assert a.phase == b.phase == "pass0" and a.item == "x"


def test_pass_metrics_ratios():
    spans = [
        span(0, tracing.THM1, 0.0, 10.0),
        span(1, tracing.IPROJ, 1.0, 2.0, parent=0, sweeps=30),
        span(2, tracing.IPROJ, 3.0, 4.0, parent=0, sweeps=10),
        span(3, tracing.IPROJ, 5.0, 5.5, parent=0, error="Infeasible"),
        span(4, tracing.MEMLESS, 11.0, 12.0, trials=1000, encoder_failures=100,
             receiver_rejects=300, observer_escapes=0),
        span(5, tracing.GAUSS, 12.0, 12.5),
    ]
    m = tracing.pass_metrics(spans, wall_s=20.0)
    assert m["iproject.i_project.calls"] == 3
    assert m["iproject.i_project.sweeps"] == 40
    assert m["iproject.i_project.sweeps_per_call"] == pytest.approx(20.0)
    assert m["iproject.i_project.failed_frac"] == pytest.approx(1 / 3)
    assert m["iproject.i_project.busy_s"] == pytest.approx(2.5)
    assert m["exponents.theorem1_lower_bound.self_s"] == pytest.approx(7.5)
    assert m["simkit.run_memoryless_scheme.us_per_trial"] == pytest.approx(1000.0)
    assert m["simkit.encoder_fail_frac"] == pytest.approx(0.1)
    assert m["simkit.receiver_reject_frac"] == pytest.approx(0.3)
    assert m["gaussian.share"] == pytest.approx(0.025)


def test_layer_metrics_cold_calls_and_overhead():
    spans = [
        span(0, tracing.TAI, 0.0, 8.0, phase="setup", cold=True),
        span(1, tracing.TAI, 10.0, 11.0, phase="pass0", cold=False),
        span(2, tracing.TAI, 11.0, 14.0, phase="pass0", cold=False),
        span(3, tracing.TAI, 20.0, 22.0, phase="pass1", cold=False),
    ]
    m = tracing.layer_metrics(spans, traced_walls=[4.5, 2.5], untraced_walls=[3.0, 3.2])
    assert m["exponents.tai_exponent.cold_s"] == pytest.approx(8.0)
    assert m["exponents.tai_exponent.warm_p50_s"] == pytest.approx(2.0)
    assert m["exponents.tai_exponent.self_s"] == pytest.approx(3.0)  # median of 4 and 2
    assert m["trace.overhead_s"] == pytest.approx(3.5 - 3.1)
