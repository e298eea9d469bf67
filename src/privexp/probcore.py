"""Finite-alphabet probability primitives.

All information quantities are in bits (base-2 logarithms). Conventions:

* ``0 * log 0 = 0`` everywhere.
* ``p * log(p/0) = +inf``; divergences return ``math.inf`` rather than
  raising, and report writers render that as a distinguished flag.
* Total variation carries the 1/2 factor: ``tv(P, Q) = 0.5 * sum |P - Q|``.
* Typicality balls are closed: a type exactly on the boundary is typical.
  Every typicality test, here and in the simulator, allows ``TYPICAL_SLACK``
  (1e-12) in total variation, since a boundary type's distance carries
  round-off: tv([19/40, 21/40], [1/2, 1/2]) computes to 0.025000000000000022.

Distribution containers validate on construction (entries nonnegative, mass
1 within 1e-12). Nothing renormalizes silently; callers that hold raw
weights go through the explicit ``normalized`` constructors.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from ._kernels import _brentq, xlogy
from .errors import (
    AlphabetMismatch,
    DimensionMismatch,
    DomainError,
    InvalidDistribution,
    InvariantViolation,
    LengthMismatch,
)

__all__ = [
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
    with np.errstate(over="ignore"):  # entries near the float maximum sum to inf
        total = float(w.sum())
    if abs(total - 1.0) > MASS_ATOL:
        raise InvalidDistribution(f"{what}: total mass {total!r} not 1 within {MASS_ATOL}")


def _shown(value) -> str:
    """``repr(value)``, or for an integer too long for Python to print
    (``sys.get_int_max_str_digits()``, 4,300 digits by default), its digit count."""
    try:
        return repr(value)
    except ValueError:
        n = abs(value)
        digits = int(math.log10(n)) + 1  # the float log may round across a power of 10
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        return f"<{digits:,}-digit integer>"


def _number(value, what: str, lo=None, hi=None, *, lo_open: bool = False,
            hi_open: bool = False) -> float:
    """``value`` as a float, or a ``DomainError`` naming ``what``.

    A bool, str, None, list or array is not a number, nor is an integer that
    has no float. A bound left None is not tested, and NaN falls outside
    every interval.
    """
    if type(value) is float:  # the common case, and the hot paths'
        x = value
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} {value!r} must be a number")
    else:
        try:
            x = float(value)
        except OverflowError:
            raise DomainError(f"{what} is too large for a float") from None
    if ((lo is not None and not (lo < x if lo_open else lo <= x))
            or (hi is not None and not (x < hi if hi_open else x <= hi))):
        raise DomainError(f"{what} {_shown(value)} outside {'(' if lo_open else '['}"
                          f"{-math.inf if lo is None else lo}, {math.inf if hi is None else hi}"
                          f"{')' if hi_open else ']'}")
    return x


def _count(value, what: str, lo=None, hi=None) -> int:
    """``value`` as an int, or a ``DomainError``: ``_number``'s rule for
    integers, whose bounds are compared exactly. A count past the float range
    passes, so a cap after it refuses it; a size or count that is computed
    with takes ``sys.maxsize``, numpy's largest array length, as ``hi``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} {value!r} must be an integer")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise DomainError(f"{what} {_shown(value)} outside [{-math.inf if lo is None else lo}, "
                          f"{math.inf if hi is None else hi}]")
    return int(value)


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array, or a ``DomainError`` naming ``what`` when
    numpy cannot read it as numbers (a str, a ragged list)."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be an array of numbers") from None


def check_budgets(rate: float, leak: float, *, finite: bool = False) -> None:
    """Refuse a rate or leak budget that is not a nonnegative number, naming it.

    ``inf`` passes unless ``finite`` is set: the exact exponents saturate at
    infinite budgets, the small-budget approximations do not.
    """
    _number(rate, "rate", 0, math.inf, hi_open=finite)
    _number(leak, "leak", 0, math.inf, hi_open=finite)


def _default_labels(k: int) -> tuple[int, ...]:
    return tuple(range(k))


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite alphabet."""

    probs: np.ndarray
    alphabet: tuple = ()

    def __post_init__(self):
        p = _floats(self.probs, "Pmf probs")
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
        k = _count(k, "uniform size", 1, sys.maxsize)
        return cls(np.full(k, 1.0 / k), alphabet)

    @classmethod
    def binary(cls, p_one: float) -> "Pmf":
        p_one = _number(p_one, "p_one", 0, 1)
        return cls(np.array([1.0 - p_one, p_one]))

    @classmethod
    def normalized(cls, weights: Iterable[float], alphabet: tuple = ()) -> "Pmf":
        """Build from nonnegative weights, dividing by their sum explicitly."""
        if isinstance(weights, Iterable) and not isinstance(weights, np.ndarray):
            weights = list(weights)  # a generator, say
        w = _floats(weights, "weights")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidDistribution("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise InvalidDistribution("weights sum to zero")
        return cls(w / total, alphabet)

    def to_dict(self) -> dict:
        return {"kind": "pmf", "alphabet": list(self.alphabet), "probs": self.probs.tolist()}


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint distribution over named axes, stored as a dense tensor."""

    probs: np.ndarray
    axes: tuple[str, ...] = ()
    alphabets: tuple = ()

    def __post_init__(self):
        p = _floats(self.probs, "JointPmf probs")
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
        if len(set(names)) != len(names):
            raise DimensionMismatch(f"repeated axis names in {names}")
        keep = [self.axis_index(n) for n in names]
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        m = self.probs.sum(axis=drop)
        m = np.moveaxis(m, [sorted(keep).index(i) for i in keep], range(len(keep)))
        if len(keep) == 1:
            return Pmf(m, self.alphabets[keep[0]])
        return JointPmf(m, tuple(names), tuple(self.alphabets[i] for i in keep))

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
        m = _floats(self.matrix, "Channel matrix")
        if m.ndim != 2:
            raise DimensionMismatch(f"Channel expects a matrix, got shape {m.shape}")
        if 0 in m.shape:
            raise DimensionMismatch(f"Channel needs an input and an output, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        ia = self.input_alphabet or _default_labels(m.shape[0])
        oa = self.output_alphabet or _default_labels(m.shape[1])
        if len(ia) != m.shape[0] or len(oa) != m.shape[1]:
            raise LengthMismatch("channel alphabets do not match matrix shape")
        object.__setattr__(self, "input_alphabet", tuple(ia))
        object.__setattr__(self, "output_alphabet", tuple(oa))
        for i, row in enumerate(m):
            _check_weights(row, f"Channel row {i}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @classmethod
    def bsc(cls, crossover: float) -> "Channel":
        e = _number(crossover, "crossover", 0, 1)
        return cls(np.array([[1.0 - e, e], [e, 1.0 - e]]))

    @classmethod
    def identity(cls, k: int) -> "Channel":
        return cls(np.eye(_count(k, "identity size", 1, sys.maxsize)))

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
    return _entropy_bits(np.asarray(_law(p, (Pmf, JointPmf), "p").probs))


def _kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.count_nonzero(mask) < mask.size:  # no gather when every cell is positive
        p, q = p[mask], q[mask]
    if np.count_nonzero(q <= 0):
        return math.inf
    return float((p * (np.log2(p) - np.log2(q))).sum())


def kl_divergence(p: Pmf | JointPmf, q: Pmf | JointPmf) -> float:
    """Relative entropy D(p || q) in bits.

    Returns +inf when p puts mass outside the support of q (absolute
    continuity violated); never raises for that case.
    """
    pa = np.asarray(_law(p, (Pmf, JointPmf), "p").probs)
    qa = np.asarray(_law(q, (Pmf, JointPmf), "q").probs)
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


def _mi_cells(cells: np.ndarray, joints) -> tuple[np.ndarray, np.ndarray]:
    """``_mi_batch`` of each of ``joints``, whose cells lie back to back in
    ``cells``, with the same bits and one pass over all of them.

    ``joints`` are (..., a, b) C-ordered views of consecutive runs of the
    last axis of ``cells`` (..., n), the first at its start, as
    ``_joint_views`` cuts them. Their row and column sums go into one
    (..., m) buffer, joint after joint its a row sums then its b column
    sums (``_sum_index`` says where each cell's two sums are). Then one
    product of the two sums, one comparison, one division and one ``xlogy``
    run over all the cells, and one sum per joint runs over its own cells
    in C order, the order ``_mi_batch`` sums them in. A joint given to
    ``_mi_batch`` transposed, as ``_pair_joints`` makes the (U, Xh) one, has
    its terms come out C-ordered too, and its sums the same bits while both
    its sides are shorter than 8 cells (numpy sums 8 or more contiguous
    terms pairwise); |U| <= |X| + 2 <= 7 and |Xh| = |X| <= 5 keep them so,
    as the searches' cap on |X| (``exponents._MAX_X``) does. Every other
    step is elementwise. Returns the (..., k) values and the sums.

    A small batch pays per numpy call, so this is the polish's kernel. On a
    grid block of 2**16 cells the extra buffers cost more than the calls
    they save (the 121 x 784 grid of a 2 x 3 law built 12% slower through
    it), and the grid scores each joint with ``_mi_batch``.
    """
    shapes = tuple(j.shape[-2:] for j in joints)
    sums = np.empty((*cells.shape[:-1], sum(a + b for a, b in shapes)))
    lo = 0
    for joint, (a, b) in zip(joints, shapes):
        np.add.reduce(joint, axis=-1, out=sums[..., lo:lo + a])
        np.add.reduce(joint, axis=-2, out=sums[..., lo + a:lo + a + b])
        lo += a + b
    rows, cols = _sum_index(shapes)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = cells / (np.take(sums, rows, axis=-1) * np.take(sums, cols, axis=-1))
        terms = xlogy(cells, np.where(cells > 0, ratio, 1.0))
    info = np.empty((*cells.shape[:-1], len(shapes)))
    lo = 0
    for k, (a, b) in enumerate(shapes):
        np.add.reduce(terms[..., lo:lo + a * b], axis=-1, out=info[..., k])
        lo += a * b
    info *= _LOG2E
    return np.maximum(info, 0.0, out=info), sums


@functools.lru_cache(maxsize=64)
def _sum_index(shapes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """For joints of the (a, b) ``shapes`` laid back to back, the position
    of each cell's row sum and of its column sum in ``_mi_cells``'s sums."""
    rows, cols, lo = [], [], 0
    for a, b in shapes:
        rows.append(np.repeat(lo + np.arange(a), b))
        cols.append(np.tile(lo + a + np.arange(b), a))
        lo += a + b
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    rows.setflags(write=False)  # shared by every batch of these shapes
    cols.setflags(write=False)
    return rows, cols


def _joint_views(cells: np.ndarray, shapes) -> list:
    """The (..., a, b) C-ordered views of ``cells`` (..., n) for joints of
    the given (a, b) shapes, laid back to back from its start."""
    lead, views, lo = cells.shape[:-1], [], 0
    for a, b in shapes:
        views.append(cells[..., lo:lo + a * b].reshape(*lead, a, b))
        lo += a * b
    return views


def _mi_bits(joint: np.ndarray) -> float:
    """Mutual information between axis 0 and the rest, in bits."""
    return float(_mi_batch(joint.reshape(joint.shape[0], -1)))


def mutual_information(joint: JointPmf, axis: str | None = None) -> float:
    """I(first axis ; remaining axes) in bits, or pick the left axis by name."""
    p = _law(joint, JointPmf, "joint").probs
    if axis is not None:
        p = np.moveaxis(p, joint.axis_index(axis), 0)
    return _mi_bits(p)


def binary_entropy(p: float) -> float:
    """h_b(p) in bits."""
    p = _number(p, "binary_entropy argument", 0, 1)
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def binary_entropy_inv(h: float) -> float:
    """Inverse of h_b on [0, 1/2], accurate to 1e-10 in the argument."""
    h = _number(h, "binary_entropy_inv argument", 0, 1)
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5

    def gap(p: float) -> float:
        value = binary_entropy(p) - h
        if math.isnan(value):
            raise InvariantViolation(f"binary entropy gap is NaN at p = {p!r}")
        return value

    # the arguments of public scipy.optimize.brentq(gap, 0, 1/2, xtol=1e-13):
    # rtol = 4 eps, 100 iterations, no extra args, a bare root, raise on no convergence
    return float(_brentq(gap, 0.0, 0.5, 1e-13, 4 * np.finfo(float).eps, 100, (), False, True))


def star(a: float, b: float) -> float:
    """Binary convolution a*b = a(1-b) + (1-a)b."""
    a = _number(a, "star argument", 0, 1)
    b = _number(b, "star argument", 0, 1)
    return a * (1.0 - b) + (1.0 - a) * b


def total_variation(p: Pmf | JointPmf | np.ndarray, q: Pmf | JointPmf | np.ndarray) -> float:
    """Total variation distance, 0.5 * sum of absolute differences."""
    pa = _floats(p.probs if hasattr(p, "probs") else p, "p")
    qa = _floats(q.probs if hasattr(q, "probs") else q, "q")
    if pa.shape != qa.shape:
        raise DimensionMismatch(f"shape mismatch {pa.shape} vs {qa.shape}")
    return float(0.5 * np.abs(pa - qa).sum())


# ---------------------------------------------------------------------------
# types (empirical distributions) and typicality


def _symbols(seq, what: str = "symbol") -> np.ndarray:
    """A sequence of symbols (or of other ``what``) as int64, refusing values
    that are not integers.

    A cast alone would truncate 1.9 to 1; integral floats such as 2.0 pass.
    """
    a = np.asarray(seq)
    if a.dtype.kind in "iu":
        return a.astype(np.int64)
    if a.dtype.kind == "f":
        bad = a[~np.isfinite(a) | (a != np.round(a))]
        if bad.size == 0:
            return a.astype(np.int64)
        raise DomainError(f"{what} {float(bad.flat[0])!r} is not an integer")
    raise DomainError(f"{what}s must be integers, got {a.dtype} values")


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
        sizes = _symbols(alphabet_sizes, "alphabet size")
        if sizes.shape != (len(arrs),):
            raise LengthMismatch("one alphabet size per sequence required")
        sizes = sizes.tolist()
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
    of ``total`` samples over ``parts`` symbols. Built one part at a time:
    each row so far is followed by every count up to what it leaves, in
    increasing order, and the last part takes the rest.
    """
    heads = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        width = left + 1
        count = np.arange(int(width.sum()), dtype=np.int64) - np.repeat(np.cumsum(width) - width,
                                                                        width)
        heads = np.column_stack((np.repeat(heads, width, axis=0), count))
        left = np.repeat(left, width) - count
    return np.column_stack((heads, left))


# round-off allowance of every typicality test (see the module docstring)
TYPICAL_SLACK = 1e-12


def _in_ball(tv, radius: float):
    """Whether distances ``tv`` (a float or an array) lie in the closed ball."""
    return tv <= radius + TYPICAL_SLACK


def is_typical(observed: JointPmf | Pmf | np.ndarray, target: JointPmf | Pmf | np.ndarray,
               mu: float) -> bool:
    """Closed typicality ball: true iff tv(observed, target) <= mu, within ``TYPICAL_SLACK``."""
    _number(mu, "typicality radius", 0)
    return _in_ball(total_variation(observed, target), mu)


# ---------------------------------------------------------------------------
# composition plumbing


def compose(channel: Channel, p: Pmf) -> JointPmf:
    """Joint law of (input, output) when ``p`` feeds ``channel``."""
    _law(channel, Channel, "channel")
    _law(p, Pmf, "p")
    if channel.shape[0] != p.size:
        raise DimensionMismatch(
            f"channel has {channel.shape[0]} inputs, pmf has {p.size} symbols"
        )
    joint = p.probs[:, None] * channel.matrix
    return JointPmf(joint, ("X", "Y"), (p.alphabet, channel.output_alphabet))


def marginalize(joint: JointPmf, axis: str | int) -> Pmf:
    """Single-axis marginal as a Pmf."""
    _law(joint, JointPmf, "joint")
    if isinstance(axis, int) and not -len(joint.axes) <= axis < len(joint.axes):
        raise DimensionMismatch(f"no axis {axis} in a rank-{len(joint.axes)} joint")
    name = joint.axes[axis] if isinstance(axis, int) else axis
    out = joint.marginal(name)
    if not isinstance(out, Pmf):
        raise InvariantViolation(f"single-axis marginal of {name!r} is not a Pmf")
    return out


def _law(value, kind, what: str):
    """``value`` if it is a ``kind`` (a law class or a tuple of them), else a
    ``DimensionMismatch`` naming ``what`` and the type it has."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise DimensionMismatch(f"{what} must be a {names}, got {type(value).__name__}")
    return value


def _as_joint2(law) -> np.ndarray:
    """The probabilities of a two-axis ``JointPmf``; anything else is refused."""
    if not isinstance(law, JointPmf) or law.probs.ndim != 2:
        got = f"shape {law.shape}" if isinstance(law, JointPmf) else type(law).__name__
        raise DimensionMismatch(f"expected a two-axis joint law, got {got}")
    return law.probs


def _as_joint_pair(p_xy, q_xy) -> tuple[np.ndarray, np.ndarray]:
    """The probabilities of a null and an alternative two-axis law of one shape."""
    p, q = _as_joint2(p_xy), _as_joint2(q_xy)
    if p.shape != q.shape:
        raise AlphabetMismatch(f"joint shapes differ: {p.shape} vs {q.shape}")
    return p, q


def chain_joint(p_xy: JointPmf, mechanism: Channel, quantizer: Channel) -> JointPmf:
    """Joint law over (U, Xh, X, Y) for the Markov chain U - Xh - X - Y.

    ``mechanism`` maps X to Xh and ``quantizer`` maps Xh to U; (X, Y) keep
    the law ``p_xy``.
    """
    kx, ky = _as_joint2(p_xy).shape
    _law(mechanism, Channel, "mechanism")
    _law(quantizer, Channel, "quantizer")
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


def _pair_joints(p_xy: np.ndarray, mech: np.ndarray, quant: np.ndarray, uy: bool = True,
                 out=(None, None, None)):
    """(X, Xh), (U, Xh) and (U, Y) joints of the chain U - Xh - X - Y, or
    the first two alone when ``uy`` is false, and the Xh marginal.

    ``mech`` (..., X, Xh) and ``quant`` (..., Xh, U) broadcast over their
    leading axes, so one call serves a single pair or a block of a grid,
    and a pair gets the same bits either way. Each joint is written into
    its entry of ``out`` when one is given there (``_pair_cells``), else
    into a new array.
    """
    p_x = p_xy.sum(axis=1)
    p_xh = p_x @ mech
    joints = (np.multiply(p_x[:, None], mech, out=out[0]),
              np.multiply(p_xh[..., None, :], quant.mT, out=out[1]))
    if uy:
        joints += (np.einsum("xy,...xu->...uy", p_xy, mech @ quant, out=out[2]),)
    return joints, p_xh


def _pair_cells(p_xy: np.ndarray, mech: np.ndarray, quant: np.ndarray, uy: bool = True):
    """``_pair_joints`` written back to back into one buffer, for ``_mi_cells``.

    Returns the buffer (..., n) over the leading axes ``mech`` and ``quant``
    broadcast to, the joints as C-ordered views of it (``_joint_views``) and
    the Xh marginal.
    """
    (kx, kh), ku = mech.shape[-2:], quant.shape[-1]
    shapes = [(kx, kh), (ku, kh), (ku, p_xy.shape[1])][:3 if uy else 2]
    lead = np.broadcast(mech[..., 0, 0], quant[..., 0, 0]).shape
    cells = np.empty((*lead, sum(a * b for a, b in shapes)))
    joints, p_xh = _pair_joints(p_xy, mech, quant, uy, _joint_views(cells, shapes))
    return cells, joints, p_xh


# ---------------------------------------------------------------------------
# JSON schema
#
# Pmf:     {"kind": "pmf", "alphabet": [...], "probs": [...]}
# Joint:   {"kind": "joint", "axes": [...], "alphabet": [[...], ...],
#           "shape": [...], "probs": [row-major flat]}
# Channel: {"kind": "channel", "alphabet": [inputs], "output_alphabet": [...],
#           "shape": [rows, cols], "probs": [row-major flat]}


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _json_of(value, kind: type, what: str):
    """``value`` if it is of JSON type ``kind`` (dict, list or str), else a
    ``DomainError`` naming the JSON type it has."""
    if not isinstance(value, kind):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise DomainError(f"{what} must be a JSON {_JSON_NAMES[kind].split()[1]}, got {got}")
    return value


def _json_tuple(d: dict, key: str, kind: str, item: type | None = None) -> tuple:
    """Field ``key`` of a law, a JSON array (of ``item``s when given), as a
    tuple; () when the field is absent. Array items become tuples."""
    items = _json_of(d.get(key, []), list, f"{kind} {key!r}")
    if item is not None:
        items = [_json_of(x, item, f"an entry of {kind} {key!r}") for x in items]
    return tuple(tuple(x) if item is list else x for x in items)


def from_dict(d: dict) -> Pmf | JointPmf | Channel:
    """The law a JSON object describes (schema above); a malformed one is
    refused with a ``ToolkitError``."""
    kind = _json_of(d, dict, "a law").get("kind", "pmf")
    if kind not in ("pmf", "joint", "channel"):
        raise DomainError(f"unknown kind {kind!r}")
    if kind == "joint" and "shape" not in d and "alphabet" in d:
        d = {**d, "shape": [len(a) for a in _json_tuple(d, "alphabet", kind, list)]}
    for key in ("probs",) if kind == "pmf" else ("probs", "shape"):
        if key not in d:
            raise DomainError(f"{kind} has no {key!r} field")
    try:
        probs = np.asarray(_json_of(d["probs"], list, f"{kind} 'probs'"))
    except ValueError:  # ragged, or nested past numpy's axis limit
        probs = None
    if probs is None or probs.dtype.kind not in "iuf":  # strings, booleans, objects, null
        raise DomainError(f"{kind} 'probs' must be an array of numbers")
    probs = probs.astype(float)
    if kind == "pmf":
        return Pmf(probs, _json_tuple(d, "alphabet", kind))
    shape = _json_of(d["shape"], list, f"{kind} 'shape'")
    if not all(type(k) is int and k > 0 for k in shape):
        raise DomainError(f"{kind} 'shape' must hold positive integers, got {shape!r}")
    try:
        tensor = probs.reshape(shape)
    except ValueError as e:  # a size other than the shape's product, or too many axes
        raise DimensionMismatch(f"{kind} 'shape' {shape} does not fit its probs: {e}") from None
    if kind == "joint":
        return JointPmf(tensor, _json_tuple(d, "axes", kind, str),
                        _json_tuple(d, "alphabet", kind, list))
    return Channel(tensor, _json_tuple(d, "alphabet", kind),
                   _json_tuple(d, "output_alphabet", kind))


def _read_json(path):
    """The JSON value in the file at ``path``; a file that is not UTF-8 JSON
    is a ``DomainError`` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # bad UTF-8 and bad JSON are both ValueErrors; deep nesting recurses
        except (ValueError, RecursionError) as e:
            raise DomainError(f"{path} is not UTF-8 JSON: {e}") from None


def load_json(path) -> Pmf | JointPmf | Channel:
    return from_dict(_read_json(path))


def dump_json(obj: Pmf | JointPmf | Channel, path) -> None:
    _law(obj, (Pmf, JointPmf, Channel), "obj")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
