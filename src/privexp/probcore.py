"""Finite-alphabet probability primitives.

All information quantities are in bits (base-2 logarithms). Conventions:

* ``0 * log 0 = 0`` everywhere.
* ``p * log(p/0) = +inf``; divergences return ``math.inf`` rather than
  raising, and report writers render that as a distinguished flag.
* Total variation carries the 1/2 factor: ``tv(P, Q) = 0.5 * sum |P - Q|``.
* Typicality balls are closed: a type exactly on the boundary is typical.

Distribution containers validate on construction (entries nonnegative, mass
1 within 1e-12). Nothing renormalizes silently; callers that hold raw
weights go through the explicit ``normalized`` constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.special import xlogy

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidDistribution,
    InvariantViolation,
    LengthMismatch,
)

__all__ = [
    "MASS_ATOL",
    "Pmf",
    "JointPmf",
    "Channel",
    "entropy",
    "kl_divergence",
    "mutual_information",
    "binary_entropy",
    "binary_entropy_inv",
    "star",
    "total_variation",
    "empirical_type",
    "is_typical",
    "compose",
    "marginalize",
    "chain_joint",
    "from_dict",
    "load_json",
    "dump_json",
]

MASS_ATOL = 1e-12

_LOG2E = math.log2(math.e)


def _check_weights(w: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(w)):
        raise InvalidDistribution(f"{what}: non-finite entry")
    if np.any(w < 0):
        raise InvalidDistribution(f"{what}: negative entry {w.min()!r}")
    total = float(w.sum())
    if abs(total - 1.0) > MASS_ATOL:
        raise InvalidDistribution(f"{what}: total mass {total!r} not 1 within {MASS_ATOL}")


def check_budgets(rate: float, leak: float, *, finite: bool = False) -> None:
    """Refuse a negative or NaN rate or leak budget, naming it.

    ``inf`` passes unless ``finite`` is set: the exact exponents saturate at
    infinite budgets, the small-budget approximations do not.
    """
    for name, value in (("rate", rate), ("leak", leak)):
        # written so that NaN fails
        if not (0.0 <= value < math.inf if finite else value >= 0.0):
            kind = "finite and nonnegative" if finite else "nonnegative"
            raise DomainError(f"{name} {value!r} must be {kind}")


def _default_labels(k: int) -> tuple[int, ...]:
    return tuple(range(k))


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray
    alphabet: tuple = ()

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1:
            raise DimensionMismatch(f"Pmf expects a vector, got shape {p.shape}")
        object.__setattr__(self, "probs", p)
        if not self.alphabet:
            object.__setattr__(self, "alphabet", _default_labels(p.size))
        elif len(self.alphabet) != p.size:
            raise LengthMismatch(
                f"alphabet has {len(self.alphabet)} labels for {p.size} probabilities"
            )
        else:
            object.__setattr__(self, "alphabet", tuple(self.alphabet))
        _check_weights(p, "Pmf")

    @property
    def size(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, k: int, alphabet: tuple = ()) -> "Pmf":
        return cls(np.full(k, 1.0 / k), alphabet)

    @classmethod
    def binary(cls, p_one: float) -> "Pmf":
        return cls(np.array([1.0 - p_one, p_one]))

    @classmethod
    def normalized(cls, weights: Iterable[float], alphabet: tuple = ()) -> "Pmf":
        """Build from nonnegative weights, dividing by their sum explicitly."""
        w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                       dtype=float)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidDistribution("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise InvalidDistribution("weights sum to zero")
        return cls(w / total, alphabet)

    def allclose(self, other: "Pmf", atol: float = 1e-12) -> bool:
        return self.alphabet == other.alphabet and bool(
            np.allclose(self.probs, other.probs, atol=atol, rtol=0.0)
        )

    def to_dict(self) -> dict:
        return {"kind": "pmf", "alphabet": list(self.alphabet), "probs": self.probs.tolist()}


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint distribution over named axes, stored as a dense tensor."""

    probs: np.ndarray
    axes: tuple[str, ...] = ()
    alphabets: tuple = ()

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim < 2:
            raise DimensionMismatch(f"JointPmf expects >= 2 axes, got shape {p.shape}")
        object.__setattr__(self, "probs", p)
        axes = self.axes or tuple(f"V{i}" for i in range(p.ndim))
        if len(axes) != p.ndim:
            raise DimensionMismatch(f"{len(axes)} axis names for a rank-{p.ndim} tensor")
        if len(set(axes)) != len(axes):
            raise DimensionMismatch(f"duplicate axis names in {axes}")
        object.__setattr__(self, "axes", tuple(axes))
        alphas = self.alphabets or tuple(_default_labels(k) for k in p.shape)
        if len(alphas) != p.ndim or any(len(a) != k for a, k in zip(alphas, p.shape)):
            raise LengthMismatch("alphabets do not match tensor shape")
        object.__setattr__(self, "alphabets", tuple(tuple(a) for a in alphas))
        _check_weights(p, "JointPmf")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def axis_index(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise DimensionMismatch(f"no axis named {name!r} in {self.axes}") from None

    def marginal(self, *names: str) -> "JointPmf | Pmf":
        """Marginal over the named axes, in the order given."""
        keep = [self.axis_index(n) for n in names]
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        m = self.probs.sum(axis=drop)
        m = np.moveaxis(m, [sorted(keep).index(i) for i in keep], range(len(keep)))
        if len(keep) == 1:
            return Pmf(m, self.alphabets[keep[0]])
        return JointPmf(m, tuple(names), tuple(self.alphabets[i] for i in keep))

    def allclose(self, other: "JointPmf", atol: float = 1e-12) -> bool:
        return (
            self.axes == other.axes
            and self.shape == other.shape
            and bool(np.allclose(self.probs, other.probs, atol=atol, rtol=0.0))
        )

    def to_dict(self) -> dict:
        return {
            "kind": "joint",
            "axes": list(self.axes),
            "alphabet": [list(a) for a in self.alphabets],
            "probs": self.probs.reshape(-1).tolist(),
            "shape": list(self.shape),
        }


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic transition matrix ``rows[x] = P(output | input=x)``."""

    matrix: np.ndarray
    input_alphabet: tuple = ()
    output_alphabet: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatch(f"Channel expects a matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        ia = self.input_alphabet or _default_labels(m.shape[0])
        oa = self.output_alphabet or _default_labels(m.shape[1])
        if len(ia) != m.shape[0] or len(oa) != m.shape[1]:
            raise LengthMismatch("channel alphabets do not match matrix shape")
        object.__setattr__(self, "input_alphabet", tuple(ia))
        object.__setattr__(self, "output_alphabet", tuple(oa))
        for i, row in enumerate(m):
            try:
                _check_weights(row, f"Channel row {i}")
            except InvalidDistribution as e:
                raise InvalidDistribution(str(e)) from None

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @classmethod
    def bsc(cls, crossover: float) -> "Channel":
        if not 0.0 <= crossover <= 1.0:
            raise DomainError(f"crossover {crossover!r} outside [0, 1]")
        e = float(crossover)
        return cls(np.array([[1.0 - e, e], [e, 1.0 - e]]))

    @classmethod
    def identity(cls, k: int) -> "Channel":
        return cls(np.eye(k))

    def cascade(self, then: "Channel") -> "Channel":
        """Feed this channel's output into ``then``."""
        if self.shape[1] != then.shape[0]:
            raise DimensionMismatch(
                f"cascade mismatch: {self.shape[1]} outputs into {then.shape[0]} inputs"
            )
        return Channel(self.matrix @ then.matrix, self.input_alphabet, then.output_alphabet)

    def to_dict(self) -> dict:
        return {
            "kind": "channel",
            "alphabet": list(self.input_alphabet),
            "output_alphabet": list(self.output_alphabet),
            "probs": self.matrix.reshape(-1).tolist(),
            "shape": list(self.shape),
        }


# ---------------------------------------------------------------------------
# information measures


def _entropy_bits(p: np.ndarray) -> float:
    return float(-xlogy(p, p).sum() * _LOG2E)


def entropy(p: Pmf | JointPmf) -> float:
    """Shannon entropy in bits."""
    return _entropy_bits(np.asarray(p.probs))


def _kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float((p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))).sum())


def kl_divergence(p: Pmf | JointPmf, q: Pmf | JointPmf) -> float:
    """Relative entropy D(p || q) in bits.

    Returns +inf when p puts mass outside the support of q (absolute
    continuity violated); never raises for that case.
    """
    pa, qa = np.asarray(p.probs), np.asarray(q.probs)
    if pa.shape != qa.shape:
        raise DimensionMismatch(f"shape mismatch {pa.shape} vs {qa.shape}")
    return _kl_bits(pa.reshape(-1), qa.reshape(-1))


def _mi_batch(joint: np.ndarray) -> np.ndarray:
    """MI in bits between the last two axes of a (..., a, b) batch of joints."""
    r = joint.sum(axis=-1, keepdims=True)
    c = joint.sum(axis=-2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (r * c), 1.0)
        out = xlogy(joint, ratio).sum(axis=(-2, -1)) * _LOG2E
    return np.maximum(out, 0.0)


def _mi_bits(joint: np.ndarray) -> float:
    """Mutual information between axis 0 and the rest, in bits."""
    return float(_mi_batch(joint.reshape(joint.shape[0], -1)))


def mutual_information(joint: JointPmf, axis: str | None = None) -> float:
    """I(first axis ; remaining axes) in bits, or pick the left axis by name."""
    p = joint.probs
    if axis is not None:
        p = np.moveaxis(p, joint.axis_index(axis), 0)
    return _mi_bits(p)


def binary_entropy(p: float) -> float:
    """h_b(p) in bits."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy argument {p!r} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def binary_entropy_inv(h: float) -> float:
    """Inverse of h_b on [0, 1/2], accurate to 1e-10 in the argument."""
    if not 0.0 <= h <= 1.0:
        raise DomainError(f"binary_entropy_inv argument {h!r} outside [0, 1]")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    from scipy.optimize import brentq

    return float(brentq(lambda p: binary_entropy(p) - h, 0.0, 0.5, xtol=1e-13))


def star(a: float, b: float) -> float:
    """Binary convolution a*b = a(1-b) + (1-a)b."""
    for v in (a, b):
        if not 0.0 <= v <= 1.0:  # NaN fails the comparison too
            raise DomainError(f"star argument {v!r} outside [0, 1]")
    return a * (1.0 - b) + (1.0 - a) * b


def total_variation(p: Pmf | JointPmf | np.ndarray, q: Pmf | JointPmf | np.ndarray) -> float:
    """Total variation distance, 0.5 * sum of absolute differences."""
    pa = np.asarray(p.probs if hasattr(p, "probs") else p, dtype=float)
    qa = np.asarray(q.probs if hasattr(q, "probs") else q, dtype=float)
    if pa.shape != qa.shape:
        raise DimensionMismatch(f"shape mismatch {pa.shape} vs {qa.shape}")
    return float(0.5 * np.abs(pa - qa).sum())


# ---------------------------------------------------------------------------
# types (empirical distributions) and typicality


def _symbols(seq) -> np.ndarray:
    """A symbol sequence as int64, refusing values that are not integers.

    A cast alone would truncate 1.9 to 1; integral floats such as 2.0 pass.
    """
    a = np.asarray(seq)
    if a.dtype.kind in "iu":
        return a.astype(np.int64)
    if a.dtype.kind == "f":
        bad = a[~np.isfinite(a) | (a != np.round(a))]
        if bad.size == 0:
            return a.astype(np.int64)
        raise DomainError(f"symbol {float(bad.flat[0])!r} is not an integer")
    raise DomainError(f"symbols must be integers, got {a.dtype} values")


def empirical_type(
    *seqs: Sequence[int],
    alphabet_sizes: Sequence[int] | None = None,
    axes: Sequence[str] | None = None,
) -> JointPmf:
    """Joint type of parallel symbol sequences.

    Symbols are nonnegative integer indices. ``alphabet_sizes`` fixes the
    tensor shape so that unseen symbols keep explicit zero cells; when
    omitted, sizes are inferred from the largest symbol present.
    """
    if len(seqs) < 1:
        raise LengthMismatch("need at least one sequence")
    arrs = [_symbols(s) for s in seqs]
    n = arrs[0].size
    if n == 0:
        raise LengthMismatch("sequences are empty")
    if any(a.ndim != 1 or a.size != n for a in arrs):
        raise LengthMismatch(f"sequences must share length {n}")
    for a in arrs:
        if a.min() < 0:
            raise DomainError(f"symbol {int(a.min())} is negative")
    if alphabet_sizes is None:
        sizes = [int(a.max()) + 1 for a in arrs]
    else:
        sizes = [int(k) for k in alphabet_sizes]
        if len(sizes) != len(arrs):
            raise LengthMismatch("one alphabet size per sequence required")
        for a, k in zip(arrs, sizes):
            if a.max() >= k:
                raise DomainError(f"symbol {int(a.max())} outside declared alphabet of size {k}")
    flat = np.zeros(int(np.prod(sizes)), dtype=np.int64)
    idx = arrs[0].copy()
    for a, k in zip(arrs[1:], sizes[1:]):
        idx = idx * k + a
    np.add.at(flat, idx, 1)
    probs = flat.reshape(sizes) / n
    if len(arrs) == 1:
        probs = probs.reshape(sizes[0], 1)
        return JointPmf(probs, ("X", "_"), (tuple(range(sizes[0])), (0,)))
    names = tuple(axes) if axes is not None else tuple(f"V{i}" for i in range(len(arrs)))
    return JointPmf(probs, names)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total.

    Rows come in lexicographic order; divided by ``total`` they are the types
    of ``total`` samples over ``parts`` symbols.
    """
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for c in range(total + 1):
        tail = _compositions(total - c, parts - 1)
        head = np.full((tail.shape[0], 1), c, dtype=np.int64)
        rows.append(np.hstack([head, tail]))
    return np.vstack(rows)


def is_typical(observed: JointPmf | Pmf | np.ndarray, target: JointPmf | Pmf | np.ndarray,
               mu: float) -> bool:
    """Closed typicality ball: true iff tv(observed, target) <= mu."""
    if not mu >= 0.0:  # written so that NaN fails
        raise DomainError(f"typicality radius {mu!r} must be nonnegative")
    return total_variation(observed, target) <= mu


# ---------------------------------------------------------------------------
# composition plumbing


def compose(channel: Channel, p: Pmf) -> JointPmf:
    """Joint law of (input, output) when ``p`` feeds ``channel``."""
    if channel.shape[0] != p.size:
        raise DimensionMismatch(
            f"channel has {channel.shape[0]} inputs, pmf has {p.size} symbols"
        )
    joint = p.probs[:, None] * channel.matrix
    return JointPmf(joint, ("X", "Y"), (p.alphabet, channel.output_alphabet))


def marginalize(joint: JointPmf, axis: str | int) -> Pmf:
    """Single-axis marginal as a Pmf."""
    name = joint.axes[axis] if isinstance(axis, int) else axis
    out = joint.marginal(name)
    if not isinstance(out, Pmf):
        raise InvariantViolation(f"single-axis marginal of {name!r} is not a Pmf")
    return out


def chain_joint(p_xy: JointPmf, mechanism: Channel, quantizer: Channel) -> JointPmf:
    """Joint law over (U, Xh, X, Y) for the Markov chain U - Xh - X - Y.

    ``mechanism`` maps X to Xh and ``quantizer`` maps Xh to U; (X, Y) keep
    the law ``p_xy``.
    """
    kx, ky = p_xy.shape
    if mechanism.shape[0] != kx:
        raise DimensionMismatch("mechanism input alphabet does not match X")
    if quantizer.shape[0] != mechanism.shape[1]:
        raise DimensionMismatch("quantizer input alphabet does not match Xh")
    tensor = np.einsum("hu,xh,xy->uhxy", quantizer.matrix, mechanism.matrix, p_xy.probs)
    return JointPmf(
        tensor,
        ("U", "Xh", "X", "Y"),
        (
            quantizer.output_alphabet,
            mechanism.output_alphabet,
            p_xy.alphabets[0],
            p_xy.alphabets[1],
        ),
    )


def _pair_joints(p_xy: np.ndarray, mech: np.ndarray, quant: np.ndarray):
    """(X, Xh), (U, Xh) and (U, Y) joints of the chain U - Xh - X - Y.

    ``mech`` (..., X, Xh) and ``quant`` (..., Xh, U) broadcast over their
    leading axes, so one call serves a single pair or a block of a grid,
    and a pair gets the same bits either way.
    """
    p_x = p_xy.sum(axis=1)
    p_xh = p_x @ mech
    j_uxh = np.swapaxes(p_xh[..., :, None] * quant, -1, -2)
    j_uy = np.einsum("xy,...xu->...uy", p_xy, mech @ quant)
    return p_x[:, None] * mech, j_uxh, j_uy


# ---------------------------------------------------------------------------
# JSON schema
#
# Pmf:     {"kind": "pmf", "alphabet": [...], "probs": [...]}
# Joint:   {"kind": "joint", "axes": [...], "alphabet": [[...], ...],
#           "shape": [...], "probs": [row-major flat]}
# Channel: {"kind": "channel", "alphabet": [inputs], "output_alphabet": [...],
#           "shape": [rows, cols], "probs": [row-major flat]}


_JSON_NAMES = {list: "an array", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}


def _json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else a ``DomainError`` naming its JSON type."""
    if not isinstance(value, dict):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise DomainError(f"{what} must be a JSON object, got {got}")
    return value


def from_dict(d: dict) -> Pmf | JointPmf | Channel:
    kind = _json_object(d, "a law").get("kind", "pmf")
    if kind not in ("pmf", "joint", "channel"):
        raise DomainError(f"unknown kind {kind!r}")
    if kind == "joint" and "shape" not in d and "alphabet" in d:
        d = {**d, "shape": [len(a) for a in d["alphabet"]]}
    for key in ("probs",) if kind == "pmf" else ("probs", "shape"):
        if key not in d:
            raise DomainError(f"{kind} has no {key!r} field")
    probs = np.asarray(d["probs"], dtype=float)
    if kind == "pmf":
        return Pmf(probs, tuple(d.get("alphabet", ())))
    tensor = probs.reshape(tuple(d["shape"]))
    if kind == "joint":
        alphas = tuple(tuple(a) for a in d.get("alphabet", ()))
        return JointPmf(tensor, tuple(d.get("axes", ())), alphas)
    return Channel(tensor, tuple(d.get("alphabet", ())), tuple(d.get("output_alphabet", ())))


def load_json(path) -> Pmf | JointPmf | Channel:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(json.load(fh))


def dump_json(obj: Pmf | JointPmf | Channel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
