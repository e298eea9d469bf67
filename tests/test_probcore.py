"""Unit tests for the probability core: laws, divergences, types, channels."""

import ast
import json
import math
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privexp
from privexp import probcore
from privexp import (
    Channel,
    DimensionMismatch,
    DomainError,
    GaussianQuery,
    InvalidDistribution,
    JointPmf,
    LengthMismatch,
    MarginalConstraint,
    Pmf,
    SchemeConfig,
    ToolkitError,
    binary_entropy,
    binary_entropy_inv,
    binary_euclid_approx,
    binary_tai_exponent,
    brute_force_i_project,
    chain_joint,
    chi2_divergence_approx,
    compose,
    dump_json,
    empirical_privacy,
    empirical_type,
    entropy,
    from_dict,
    gaussian_achievable_at_beta,
    generate_codebook,
    i_project,
    is_typical,
    kl_divergence,
    load_json,
    marginalize,
    mutual_information,
    star,
    tai_exponent,
    total_variation,
    wilson_interval,
)

finite_probs = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


def pmf_strategy(k: int):
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)
        .map(lambda w: Pmf.normalized(w))
    )


# ---------------------------------------------------------------------------
# entropy and divergences


def test_entropy_bernoulli():
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert entropy(Pmf.binary(0.1)) == pytest.approx(expected, abs=1e-15)


def test_entropy_uniform_and_deterministic():
    assert entropy(Pmf.uniform(4)) == pytest.approx(2.0, abs=1e-12)
    assert entropy(Pmf(np.array([1.0, 0.0, 0.0]))) == 0.0


def test_entropy_of_joint_law():
    # H(X, Y) for the doubly symmetric pair = 1 + h_b(eps)
    eps = 0.1
    joint = JointPmf(
        np.array([[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]]), ("X", "Y")
    )
    assert entropy(joint) == pytest.approx(1.0 + binary_entropy(eps), abs=1e-12)


def test_kl_divergence_closed_form():
    expected = 0.5 * math.log2(0.5 / 0.25) + 0.5 * math.log2(0.5 / 0.75)
    got = kl_divergence(Pmf.binary(0.5), Pmf.binary(0.25))
    assert got == pytest.approx(expected, abs=1e-15)


def test_kl_divergence_identity_and_support():
    p = Pmf(np.array([0.3, 0.7]))
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(p, Pmf(np.array([1.0, 0.0]))) == math.inf
    with pytest.raises(DimensionMismatch):
        kl_divergence(p, Pmf.uniform(3))


def test_mutual_information_extremes():
    indep = JointPmf(np.outer([0.3, 0.7], [0.6, 0.4]), ("X", "Y"))
    assert mutual_information(indep) == pytest.approx(0.0, abs=1e-12)
    equal = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]), ("X", "Y"))
    assert mutual_information(equal) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_dsbs(dsbs01):
    assert mutual_information(dsbs01) == pytest.approx(
        1.0 - binary_entropy(0.1), abs=1e-12
    )


def test_mutual_information_axis_symmetry(dsbs01):
    skew = JointPmf(np.array([[0.4, 0.15], [0.05, 0.4]]), ("X", "Y"))
    for j in (dsbs01, skew):
        assert mutual_information(j, "X") == pytest.approx(
            mutual_information(j, "Y"), abs=1e-12
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_packed_joints_score_with_the_bits_of_each_joint_alone(seed):
    # up to four joints of up to 9 x 9 cells (numpy sums 8 or more contiguous
    # terms pairwise), some with zero cells or a zero row, over a batch of 1
    # to 13 members. Some are given transposed, as the (U, Xh) joint is, whose
    # sides have |U| <= |X| + 2 <= 7 and |Xh| = |X| <= 5 cells: the sums of a
    # transposed joint have the bits of a C-ordered one only below 8 cells
    rng = np.random.default_rng(seed)
    lead = (int(rng.integers(1, 14)),)
    joints = []
    for _ in range(int(rng.integers(1, 5))):
        transposed = bool(rng.integers(2))
        a, b = (int(k) for k in rng.integers(1, 8 if transposed else 10, size=2))
        j = rng.dirichlet(np.ones(a * b), size=lead).reshape(*lead, a, b)
        j[rng.random(j.shape) < rng.choice([0.0, 0.3])] = 0.0
        j[..., int(rng.integers(a)), :] *= rng.integers(2)
        joints.append(j.swapaxes(-1, -2).copy().swapaxes(-1, -2) if transposed else j)
    shapes = [j.shape[-2:] for j in joints]
    cells = np.empty((*lead, sum(a * b for a, b in shapes)))
    views = probcore._joint_views(cells, shapes)
    for view, j in zip(views, joints):
        view[...] = j
    info, sums = probcore._mi_cells(cells, views)
    lo = 0
    for k, j in enumerate(joints):
        assert info[..., k].tobytes() == probcore._mi_batch(j).tobytes()
        a, b = j.shape[-2:]
        assert sums[..., lo:lo + a].tobytes() == j.sum(axis=-1).tobytes()
        assert sums[..., lo + a:lo + a + b].tobytes() == j.sum(axis=-2).tobytes()
        lo += a + b
    rows, cols = probcore._sum_index(tuple(shapes))
    assert np.array_equal(sums[..., rows] * sums[..., cols],
                          np.concatenate([(j.sum(axis=-1, keepdims=True) * j.sum(
                              axis=-2, keepdims=True)).reshape(*lead, -1) for j in joints], -1))


# ---------------------------------------------------------------------------
# binary helpers


def test_binary_entropy_edges():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    with pytest.raises(DomainError):
        binary_entropy(1.2)


def test_binary_entropy_inverse_half():
    # independently computed root of h_b(p) = 1/2 on [0, 1/2]
    assert binary_entropy_inv(0.5) == pytest.approx(0.11002786443835955, abs=1e-10)
    assert binary_entropy_inv(0.0) == 0.0
    assert binary_entropy_inv(1.0) == 0.5
    with pytest.raises(DomainError):
        binary_entropy_inv(-0.1)


@given(st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_binary_entropy_roundtrip(h):
    assert binary_entropy(binary_entropy_inv(h)) == pytest.approx(h, abs=1e-9)


def test_star_values():
    assert star(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)
    assert star(0.3, 0.0) == 0.3
    assert star(0.3, 0.5) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("a, b", [(math.nan, 0.1), (0.1, math.nan), (2.0, 0.1), (0.1, -0.1),
                                  (math.inf, 0.1), (0.1, -math.inf)])
def test_star_refuses_arguments_outside_the_unit_interval(a, b):
    # once star(nan, 0.1) was nan and star(2.0, 0.1) was 1.7
    with pytest.raises(DomainError, match="^star argument"):
        star(a, b)


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
@settings(max_examples=50, deadline=None)
def test_star_commutative_and_bounded(a, b):
    assert star(a, b) == pytest.approx(star(b, a), abs=1e-15)
    assert max(a, b) - 1e-12 <= star(a, b) <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# total variation, types, typicality


def test_total_variation_values():
    assert total_variation(np.array([0.5, 0.5]), np.array([0.9, 0.1])) == pytest.approx(
        0.4, abs=1e-15
    )
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    p = Pmf(np.array([0.2, 0.8]))
    assert total_variation(p, p) == 0.0


def test_empirical_type_counts():
    t = empirical_type([0, 1, 1, 0], [1, 1, 0, 0], axes=("A", "B"))
    assert np.allclose(t.probs, np.array([[0.25, 0.25], [0.25, 0.25]]))
    wide = empirical_type([0, 0, 0], alphabet_sizes=[3])
    assert np.allclose(wide.probs[:, 0], [1.0, 0.0, 0.0])


def test_empirical_type_validation():
    with pytest.raises(LengthMismatch):
        empirical_type([0, 1], [0])
    with pytest.raises(LengthMismatch):
        empirical_type([])
    with pytest.raises(DomainError):
        empirical_type([0, 2], alphabet_sizes=[2])


def test_empirical_type_refuses_negative_symbols():
    # without declared sizes a negative index once wrapped around and
    # returned [[1.0]]
    with pytest.raises(DomainError, match="^symbol -1 is negative"):
        empirical_type([-1, 0, 0])


@pytest.mark.parametrize("seq, match", [
    ([0.7, 1.2, 1.9], "^symbol 0.7 is not an integer"),
    ([0.0, float("nan")], "^symbol nan is not an integer"),
    ([True, False], "^symbols must be integers, got bool values"),
], ids=["fractional", "nan", "bool"])
def test_empirical_type_refuses_non_integer_symbols(seq, match):
    # 0.7, 1.2, 1.9 were truncated to 0, 1, 1 and counted as [1/3, 2/3]
    with pytest.raises(DomainError, match=match):
        empirical_type(seq)


def test_empirical_type_accepts_integral_floats():
    assert np.array_equal(empirical_type([0.0, 1.0, 1.0]).probs,
                          empirical_type([0, 1, 1]).probs)


def test_typicality_ball_is_closed():
    # type [0.5, 0.5] against target [0.75, 0.25]: tv is exactly 0.25
    target = np.array([0.75, 0.25])
    observed = np.array([0.5, 0.5])
    assert is_typical(observed, target, 0.25)
    assert not is_typical(observed, target, 0.2499)
    for mu in (-0.1, math.nan):
        with pytest.raises(DomainError, match="typicality radius"):
            is_typical(observed, target, mu)


def test_boundary_type_with_round_off_is_typical():
    # tv computes to 0.025000000000000022, just past the radius 0.025
    observed = np.array([19 / 40, 21 / 40])
    target = np.array([0.5, 0.5])
    assert total_variation(observed, target) > 0.025
    assert is_typical(observed, target, 0.025)
    assert not is_typical(observed, target, 0.0249)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_typicality_monotone_in_radius(mu_small, mu_big):
    lo, hi = sorted((mu_small, mu_big))
    obs = np.array([0.6, 0.4])
    tgt = np.array([0.25, 0.75])
    if is_typical(obs, tgt, lo):
        assert is_typical(obs, tgt, hi)


# ---------------------------------------------------------------------------
# channels and composition


def test_channel_constructors():
    b = Channel.bsc(0.11)
    assert np.allclose(b.matrix, [[0.89, 0.11], [0.11, 0.89]])
    assert np.allclose(Channel.identity(3).matrix, np.eye(3))
    with pytest.raises(DomainError):
        Channel.bsc(1.5)
    with pytest.raises(InvalidDistribution):
        Channel(np.array([[0.5, 0.6], [0.5, 0.5]]))


@pytest.mark.parametrize("sizes, match", [
    ([2.5], "^alphabet size 2.5 is not an integer$"),
    (["3"], "^alphabet sizes must be integers, got <U1 values$"),
], ids=["fractional", "text"])
def test_empirical_type_refuses_non_integer_alphabet_sizes(sizes, match):
    # a size of 2.5 was truncated to 2
    with pytest.raises(DomainError, match=match):
        empirical_type([0, 1], alphabet_sizes=sizes)
    assert empirical_type([0, 1], alphabet_sizes=[3.0]).shape == (3, 1)


@pytest.mark.parametrize("build, match", [
    (lambda j: j.marginal("X", "X"), r"^repeated axis names in \('X', 'X'\)$"),
    (lambda j: marginalize(j, 5), "^no axis 5 in a rank-2 joint$"),
    (lambda j: marginalize(j, -3), "^no axis -3 in a rank-2 joint$"),
], ids=["repeated-name", "index-5", "index-minus-3"])
def test_marginals_refuse_axes_the_joint_does_not_have(build, match):
    # numpy's ValueError (repeated axis) and an IndexError leaked out before
    joint = compose(Channel.bsc(0.1), Pmf(np.array([0.7, 0.3])))
    with pytest.raises(DimensionMismatch, match=match):
        build(joint)
    assert np.array_equal(marginalize(joint, -1).probs, marginalize(joint, "Y").probs)


def test_cascade_of_symmetric_channels():
    a, b = 0.1, 0.2
    cascaded = Channel.bsc(a).cascade(Channel.bsc(b))
    assert np.allclose(cascaded.matrix, Channel.bsc(star(a, b)).matrix, atol=1e-15)
    with pytest.raises(DimensionMismatch):
        Channel.identity(2).cascade(Channel.identity(3))


def test_compose_and_marginalize():
    p = Pmf(np.array([0.7, 0.3]))
    joint = compose(Channel.bsc(0.1), p)
    assert np.allclose(marginalize(joint, "X").probs, p.probs)
    assert np.allclose(
        marginalize(joint, "Y").probs, [0.7 * 0.9 + 0.3 * 0.1, 0.7 * 0.1 + 0.3 * 0.9]
    )
    with pytest.raises(DimensionMismatch):
        compose(Channel.identity(3), p)


def test_chain_joint_preserves_source_and_contracts_information(dsbs01):
    mech = Channel.bsc(0.2)
    quant = Channel.bsc(0.15)
    chain = chain_joint(dsbs01, mech, quant)
    assert chain.axes == ("U", "Xh", "X", "Y")
    back = chain.marginal("X", "Y")
    assert np.allclose(back.probs, dsbs01.probs, atol=1e-14)
    # data processing along U - Xh - X - Y
    i_uy = mutual_information(chain.marginal("U", "Y"))
    i_ay = mutual_information(chain.marginal("Xh", "Y"))
    i_xy = mutual_information(dsbs01)
    assert i_uy <= i_ay + 1e-12 <= i_xy + 2e-12


def test_chain_joint_refuses_a_law_that_is_not_two_axis():
    # once a ValueError from unpacking the shape
    three = JointPmf(np.full((2, 2, 2), 0.125))
    with pytest.raises(DimensionMismatch, match=r"^expected a two-axis joint law, got shape"):
        chain_joint(three, Channel.identity(2), Channel.identity(2))


# ---------------------------------------------------------------------------
# validation and serialization


def test_pmf_validation_tolerance():
    Pmf(np.array([0.5, 0.5 + 5e-13]))  # inside the mass tolerance
    with pytest.raises(InvalidDistribution):
        Pmf(np.array([0.5, 0.5 + 5e-12]))
    with pytest.raises(InvalidDistribution):
        Pmf(np.array([-0.1, 1.1]))
    with pytest.raises(InvalidDistribution):
        Pmf.normalized([0.0, 0.0])


def test_joint_validation():
    with pytest.raises(DimensionMismatch):
        JointPmf(np.array([0.5, 0.5]), ("X",))
    with pytest.raises(DimensionMismatch):
        JointPmf(np.full((2, 2), 0.25), ("X", "X"))


@pytest.mark.parametrize(
    "obj",
    [
        Pmf(np.array([0.25, 0.75])),
        JointPmf(np.array([[0.4, 0.1], [0.2, 0.3]]), ("X", "Y")),
        Channel.bsc(0.3),
    ],
    ids=["pmf", "joint", "channel"],
)
def test_json_roundtrip(tmp_path, obj):
    path = tmp_path / "law.json"
    dump_json(obj, path)
    loaded = load_json(path)
    assert type(loaded) is type(obj)
    assert np.allclose(
        np.asarray(loaded.probs if not isinstance(obj, Channel) else loaded.matrix),
        np.asarray(obj.probs if not isinstance(obj, Channel) else obj.matrix),
    )


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(DomainError):
        from_dict({"kind": "mystery"})


@pytest.mark.parametrize("text, got", [
    ("[0.5, 0.5]", "an array"), ('"pmf"', "a string"), ("0.5", "a number"),
    ("true", "a boolean"), ("null", "null"),
], ids=["array", "string", "number", "boolean", "null"])
def test_load_json_refuses_a_non_object(tmp_path, text, got):
    path = tmp_path / "law.json"
    path.write_text(text)
    with pytest.raises(ToolkitError, match=f"^a law must be a JSON object, got {got}$"):
        load_json(path)


@pytest.mark.parametrize("d, match", [
    ({"kind": "pmf"}, "pmf has no 'probs' field"),
    ({"kind": "joint", "probs": [0.5, 0.5]}, "joint has no 'shape' field"),
    ({"kind": "channel", "probs": [1.0, 0.0, 0.0, 1.0]}, "channel has no 'shape' field"),
], ids=["pmf-probs", "joint-shape", "channel-shape"])
def test_from_dict_names_a_missing_field(d, match):
    # a joint without shape or alphabet once reported the bare KeyError 'alphabet'
    with pytest.raises(DomainError, match=match):
        from_dict(d)


@pytest.mark.parametrize("d, error, match", [
    ({"probs": ["0.5", "0.5"]}, DomainError, "^pmf 'probs' must be an array of numbers$"),
    ({"probs": [True, False]}, DomainError, "^pmf 'probs' must be an array of numbers$"),
    ({"probs": [{}, 1.0]}, DomainError, "^pmf 'probs' must be an array of numbers$"),
    ({"probs": "0.5"}, DomainError, "^pmf 'probs' must be a JSON array, got a string$"),
    ({"probs": [1e308, 1e308]}, InvalidDistribution, "^Pmf: total mass inf not 1"),
    ({"kind": "joint", "probs": [[0.5], [0.25, 0.25]], "shape": [3]}, DomainError,
     "^joint 'probs' must be an array of numbers$"),
    ({"kind": "joint", "probs": [0.5, 0.5], "shape": 5}, DomainError,
     "^joint 'shape' must be a JSON array, got a number$"),
    ({"kind": "joint", "probs": [0.25] * 4, "shape": ["2", "2"]}, DomainError,
     r"^joint 'shape' must hold positive integers, got \['2', '2'\]$"),
    ({"kind": "joint", "probs": [0.25] * 4, "shape": [-1, 2]}, DomainError,
     r"^joint 'shape' must hold positive integers, got \[-1, 2\]$"),
    ({"kind": "channel", "probs": [1.0], "shape": [1e20, 1]}, DomainError,
     r"^channel 'shape' must hold positive integers, got \[1e\+20, 1\]$"),
    ({"kind": "joint", "probs": [0.5, 0.25, 0.25], "shape": [2, 2]}, DimensionMismatch,
     r"^joint 'shape' \[2, 2\] does not fit its probs: cannot reshape array of size 3"),
    ({"kind": "joint", "probs": [1.0], "shape": [1] * 65}, DimensionMismatch,
     "^joint 'shape' .* does not fit its probs"),
    ({"probs": [0.5, 0.5], "alphabet": 2}, DomainError,
     "^pmf 'alphabet' must be a JSON array, got a number$"),
    ({"probs": [0.5, 0.5], "alphabet": "ab"}, DomainError,
     "^pmf 'alphabet' must be a JSON array, got a string$"),
    ({"kind": "joint", "probs": [0.25] * 4, "alphabet": ["ab", "cd"]}, DomainError,
     "^an entry of joint 'alphabet' must be a JSON array, got a string$"),
    ({"kind": "joint", "probs": [0.25] * 4, "shape": [2, 2], "axes": "XY"}, DomainError,
     "^joint 'axes' must be a JSON array, got a string$"),
    ({"kind": "joint", "probs": [0.25] * 4, "shape": [2, 2], "axes": [["X"], ["Y"]]},
     DomainError, "^an entry of joint 'axes' must be a JSON string, got an array$"),
    ({"kind": "channel", "probs": [1, 0, 0, 1], "shape": [2, 2], "output_alphabet": None},
     DomainError, "^channel 'output_alphabet' must be a JSON array, got null$"),
], ids=["string-probs", "boolean-probs", "object-probs", "probs-string", "huge-probs",
        "ragged-probs",
        "number-shape", "string-shape", "negative-shape", "float-shape", "shape-size",
        "too-many-axes", "number-alphabet", "string-alphabet", "string-joint-alphabet",
        "string-axes", "array-axis", "null-output-alphabet"])
def test_from_dict_refuses_malformed_fields(d, error, match):
    # each once raised a bare TypeError or ValueError (huge probs: an overflow
    # RuntimeWarning first), split a string into labels, or (a shape of
    # [-1, 2]) was accepted
    with pytest.raises(error, match=match):
        from_dict(d)


def test_integer_probs_and_nested_probs_are_numbers():
    assert from_dict({"probs": [0, 1]}).probs.tolist() == [0.0, 1.0]
    law = from_dict({"kind": "joint", "probs": [[0.5, 0], [0, 0.5]], "shape": [2, 2]})
    assert law.probs.tolist() == [[0.5, 0.0], [0.0, 0.5]]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 4) | st.text(max_size=3)
    | st.floats() | st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=12,
)
_LAWS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["pmf", "joint", "channel"]) | _JSON,
    "probs": st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=8) | _JSON,
    "shape": st.lists(st.integers(-1, 4), max_size=3) | _JSON,
    "alphabet": _JSON,
    "output_alphabet": _JSON,
    "axes": st.lists(st.sampled_from(["X", "Y", "Z"]), max_size=3) | _JSON,
})


@given(_LAWS | _JSON)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_from_dict_gives_a_law_or_a_toolkit_error(d):
    try:
        law = from_dict(d)
    except ToolkitError:
        return
    assert isinstance(law, (Pmf, JointPmf, Channel))


@pytest.mark.parametrize("data, match", [
    (b"{\"probs\": [0.5, 0.5]", "is not UTF-8 JSON: Expecting ',' delimiter"),
    (b"\xff\xfe{}", "is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100_000, "is not UTF-8 JSON: maximum recursion depth exceeded"),
], ids=["truncated", "not-utf8", "deep"])
def test_load_json_names_a_file_that_is_not_json(tmp_path, data, match):
    path = tmp_path / "law.json"
    path.write_bytes(data)
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))} {match}"):
        load_json(path)


# ---------------------------------------------------------------------------
# distribution-level properties


@given(pmf_strategy(4))
@settings(max_examples=50, deadline=None)
def test_entropy_bounds(p):
    h = entropy(p)
    assert -1e-12 <= h <= 2.0 + 1e-12


@given(pmf_strategy(3), pmf_strategy(3))
@settings(max_examples=50, deadline=None)
def test_kl_nonnegative(p, q):
    assert kl_divergence(p, q) >= -1e-12


@given(pmf_strategy(3), pmf_strategy(3))
@settings(max_examples=50, deadline=None)
def test_total_variation_bounds(p, q):
    tv = total_variation(p, q)
    assert -1e-12 <= tv <= 1.0 + 1e-12
    assert tv == pytest.approx(total_variation(q, p), abs=1e-15)


# ---------------------------------------------------------------------------
# package source


def test_library_has_no_assert_statements():
    # invariants must raise InvariantViolation; asserts vanish under python -O
    src = Path(privexp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_raises_no_bare_toolkit_error():
    # the CLI maps an error to its exit code by its class
    src = Path(privexp.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ToolkitError"
    ]
    assert found == []


def _import_time_nodes(tree: ast.Module):
    """The nodes of a module that run when it is imported: all but function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _import_time_scipy_imports(source: str, name: str) -> list[str]:
    """The lines of a module's source that import scipy when the module loads."""
    found = []
    for node in _import_time_nodes(ast.parse(source, name)):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(f"{name}:{node.lineno}")
    return found


def test_no_module_imports_scipy_when_the_package_loads():
    # a module-level scipy import runs a package __init__ (0.3 s for scipy.special
    # or scipy.optimize, about 8 ms for the root) on every import of privexp;
    # the kernel loader finds scipy's files without one, and function-local
    # imports, such as the brute-force oracle's linprog and null_space, stay
    # allowed
    src = Path(privexp.__file__).parent
    found = [line for path in sorted(src.glob("*.py"))
             for line in _import_time_scipy_imports(path.read_text(), path.name)]
    assert found == []
    # the scan sees an import at module level and under an if, so the check can fail
    assert sorted(_import_time_scipy_imports("import os\nif os:\n    from scipy import special\n"
                                             "def f():\n    import scipy\nimport scipy.optimize\n",
                                             "m.py")) == ["m.py:3", "m.py:6"]


def test_only_probcore_imports_numbers():
    # what counts as a number is decided once, by probcore's _number and
    # _count; a module that imports ``numbers`` is writing its own rule
    src = Path(privexp.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "numbers" or name.startswith("numbers.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert [f for f in found if not f.startswith("probcore.py:")] == []
    assert found  # probcore's own import is seen, so the check can fail


def test_simkit_draws_only_through_its_stream():
    # every report is reproducible from its seed only if each random number
    # comes from a stream that ``_stream`` opens: no default_rng, no legacy
    # global np.random state and no random module
    path = Path(privexp.simkit.__file__)
    tree = ast.parse(path.read_text(), str(path))
    stream = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_stream")
    inside = {id(node) for node in ast.walk(stream)}
    found, seen = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            (seen if id(node) in inside else found).append(f"np.random:{node.lineno}")
            continue
        else:
            continue
        found += [f"{name}:{node.lineno}" for name in names
                  if name.split(".")[0] == "random" or name.startswith("numpy.random")]
    assert found == []
    assert seen  # the stream's own use is seen, so the check can fail


def test_each_public_name_is_declared_by_one_module():
    # the package star-imports each module's __all__, where a name that two
    # modules declare would be shadowed without a word
    modules = [privexp.errors, privexp.probcore, privexp.iproject, privexp.exponents,
               privexp.euclid, privexp.gaussian, privexp.simkit]
    names = [name for m in modules for name in m.__all__]
    assert len(names) == len(set(names))
    assert privexp.__all__ == ["__version__", *names]
    for m in modules:
        for name in m.__all__:
            assert getattr(privexp, name) is getattr(m, name)


# the package in a fresh interpreter, this one having long since loaded every
# module; ``loaded()`` lists numpy and the package's modules that are loaded
_FRESH_PACKAGE = """
import json, sys
import privexp
loaded = lambda: sorted(m for m in sys.modules if m == "numpy" or m.startswith("privexp."))
"""


def _in_fresh_package(script: str):
    proc = subprocess.run([sys.executable, "-c", _FRESH_PACKAGE + script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(Path(privexp.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_an_unknown_name_of_the_package_is_an_attribute_error_that_loads_nothing():
    error, after = _in_fresh_package("""
try:
    privexp.no_such_name
except AttributeError as e:
    print(json.dumps([str(e), loaded()]))
""")
    assert error == "module 'privexp' has no attribute 'no_such_name'"
    assert after == []
    with pytest.raises(AttributeError):
        privexp.no_such_name


def test_dir_of_the_package_covers_all_before_any_module_loads():
    names, after = _in_fresh_package("print(json.dumps([dir(privexp), loaded()]))")
    assert set(privexp.__all__) <= set(names)
    assert after == []


def test_a_star_import_binds_exactly_all_and_loads_on_the_import():
    before, bound, same, after = _in_fresh_package("""
before = loaded()
namespace = {}
exec("from privexp import *", namespace)
bound = sorted(set(namespace) - {"__builtins__"})
print(json.dumps([before, bound, all(namespace[n] is getattr(privexp, n) for n in bound),
                  loaded()]))
""")
    assert before == []
    assert bound == sorted(privexp.__all__)
    assert same
    assert {f"privexp.{m}" for m in ("errors", "probcore", "iproject", "exponents", "euclid",
                                     "gaussian", "simkit")} <= set(after)


@pytest.mark.parametrize("total, parts", [(0, 1), (5, 1), (0, 3), (6, 2), (4, 3), (3, 5)])
def test_compositions_are_every_type_in_lexicographic_order(total, parts):
    expected = [r for r in product(range(total + 1), repeat=parts) if sum(r) == total]
    got = privexp.probcore._compositions(total, parts)
    assert got.dtype == np.int64
    assert got.tolist() == [list(r) for r in expected]


_DSBS = JointPmf(np.array([[0.45, 0.05], [0.05, 0.45]]), ("X", "Y"))
_HALF_ROWS = Channel(np.full((3, 2), 0.5))  # a channel with three inputs


@pytest.mark.parametrize("build, error, match", [
    (lambda: Pmf(np.full((2, 2), 0.25)), DimensionMismatch,
     r"Pmf expects a vector, got shape \(2, 2\)"),
    (lambda: Pmf(np.array([0.5, 0.5]), ("a",)), LengthMismatch,
     "alphabet has 1 labels for 2 probabilities"),
    (lambda: JointPmf(np.full((2, 2), 0.25), ("X",)), DimensionMismatch,
     "1 axis names for a rank-2 tensor"),
    (lambda: JointPmf(np.full((2, 2), 0.25), ("X", "Y"), (("a",), ("b", "c"))),
     LengthMismatch, "alphabets do not match tensor shape"),
    (lambda: _DSBS.axis_index("Z"), DimensionMismatch, "no axis named 'Z'"),
    (lambda: Channel(np.array([0.5, 0.5])), DimensionMismatch,
     r"Channel expects a matrix, got shape \(2,\)"),
    (lambda: Channel(np.eye(2), ("a",)), LengthMismatch,
     "channel alphabets do not match matrix shape"),
    (lambda: Channel(np.zeros((0, 2))), DimensionMismatch,
     r"Channel needs an input and an output, got shape \(0, 2\)"),
    (lambda: Channel(np.zeros((2, 0))), DimensionMismatch,
     r"Channel needs an input and an output, got shape \(2, 0\)"),
    (lambda: Channel.identity(0), DomainError, r"identity size 0 outside \[1, "),
    (lambda: Channel.identity(-1), DomainError, "identity size -1 outside"),
    (lambda: Channel.identity(2.5), DomainError, "identity size 2.5 must be"),
    (lambda: Pmf.uniform(0), DomainError, r"uniform size 0 outside \[1, "),
    (lambda: Pmf.uniform(-1), DomainError, "uniform size -1 outside"),
    (lambda: Pmf.uniform(2.5), DomainError, "uniform size 2.5 must be"),
    (lambda: Pmf.normalized([-1, 2]), InvalidDistribution,
     "weights must be finite and nonnegative"),
    (lambda: empirical_type(), LengthMismatch, "need at least one sequence"),
    (lambda: empirical_type([0, 1], [1, 0], alphabet_sizes=[2]), LengthMismatch,
     "one alphabet size per sequence required"),
    (lambda: empirical_type([0, 1], alphabet_sizes=2), LengthMismatch,
     "one alphabet size per sequence required"),
    (lambda: empirical_type([0, 1], alphabet_sizes=[[2, 2]]), LengthMismatch,
     "one alphabet size per sequence required"),
    (lambda: total_variation(np.full(2, 0.5), np.full(3, 1 / 3)), DimensionMismatch,
     r"shape mismatch \(2,\) vs \(3,\)"),
    (lambda: chain_joint(_DSBS, _HALF_ROWS, Channel.identity(2)), DimensionMismatch,
     "mechanism input alphabet does not match X"),
    (lambda: chain_joint(_DSBS, Channel.identity(2), _HALF_ROWS), DimensionMismatch,
     "quantizer input alphabet does not match Xh"),
    # arrays that are not numbers
    (lambda: Pmf("a"), DomainError, "Pmf probs must be an array of numbers$"),
    (lambda: JointPmf("ab"), DomainError, "JointPmf probs must be an array of numbers$"),
    (lambda: Channel("a"), DomainError, "Channel matrix must be an array of numbers$"),
    (lambda: MarginalConstraint(("X",), "a"), DomainError,
     "constraint target must be an array of numbers$"),
    (lambda: total_variation("a", np.full(2, 0.5)), DomainError,
     "p must be an array of numbers$"),
    (lambda: chi2_divergence_approx("a", np.full(2, 0.5)), DomainError,
     "p must be an array of numbers$"),
    (lambda: Pmf.normalized(None), InvalidDistribution, "weights must be finite"),
    (lambda: Pmf.normalized(["a", "b"]), DomainError, "weights must be an array of numbers$"),
    # laws of the wrong type
    (lambda: entropy(5), DimensionMismatch, "p must be a Pmf or JointPmf, got int$"),
    (lambda: kl_divergence(Pmf.uniform(2), [0.5, 0.5]), DimensionMismatch,
     "q must be a Pmf or JointPmf, got list$"),
    (lambda: mutual_information(np.full((2, 2), 0.25)), DimensionMismatch,
     "joint must be a JointPmf, got ndarray$"),
    (lambda: marginalize(Pmf.uniform(2), 0), DimensionMismatch,
     "joint must be a JointPmf, got Pmf$"),
    (lambda: compose(np.eye(2), Pmf.uniform(2)), DimensionMismatch,
     "channel must be a Channel, got ndarray$"),
    (lambda: compose(Channel.identity(2), [0.5, 0.5]), DimensionMismatch,
     "p must be a Pmf, got list$"),
    (lambda: chain_joint(_DSBS, np.eye(2), Channel.identity(2)), DimensionMismatch,
     "mechanism must be a Channel, got ndarray$"),
    (lambda: chain_joint(_DSBS, Channel.identity(2), None), DimensionMismatch,
     "quantizer must be a Channel, got NoneType$"),
    (lambda: i_project(_DSBS.probs, []), DimensionMismatch,
     "reference must be a JointPmf, got ndarray$"),
    (lambda: i_project(_DSBS, [("X", [0.5, 0.5])]), DimensionMismatch,
     "constraint must be a MarginalConstraint, got tuple$"),
    (lambda: i_project(_DSBS, 5), DimensionMismatch, "constraints must be a collection, got int$"),
    (lambda: brute_force_i_project(Pmf.uniform(2), []), DimensionMismatch,
     "reference must be a JointPmf, got Pmf$"),
    (lambda: brute_force_i_project(_DSBS, [None]), DimensionMismatch,
     "constraint must be a MarginalConstraint, got NoneType$"),
    (lambda: empirical_privacy(np.eye(2), [([0], [0])]), DimensionMismatch,
     "mechanism must be a Channel, got ndarray$"),
    (lambda: empirical_privacy(Channel.identity(2), 5), DimensionMismatch,
     r"samples must be a collection of \(raw, sanitized\) pairs, got int$"),
    (lambda: dump_json({"kind": "pmf"}, "unused.json"), DimensionMismatch,
     "obj must be a Pmf or JointPmf or Channel, got dict$"),
], ids=["pmf-matrix", "pmf-alphabet", "joint-axes", "joint-alphabets", "axis-index",
        "channel-vector", "channel-alphabets", "channel-no-inputs", "channel-no-outputs",
        "identity-zero", "identity-negative", "identity-fraction", "uniform-zero",
        "uniform-negative", "uniform-fraction", "normalized-negative",
        "type-no-sequence", "type-sizes", "type-size-scalar", "type-sizes-nested",
        "tv-shapes", "chain-mechanism", "chain-quantizer",
        "pmf-text", "joint-text", "channel-text", "target-text", "tv-text", "chi2-text",
        "normalized-none", "normalized-text",
        "entropy-int", "kl-list", "mi-array", "marginalize-pmf", "compose-array",
        "compose-list", "chain-array-mechanism", "chain-none-quantizer", "project-array",
        "project-tuple-constraint", "project-int-constraints", "oracle-pmf",
        "oracle-none-constraint", "privacy-array-mechanism", "privacy-int-samples",
        "dump-dict"])
def test_malformed_input_is_refused(build, error, match, tmp_path, monkeypatch):
    # an empty channel was once built, and taken by SchemeConfig as a mechanism;
    # identity(-1) and identity(2.5) leaked numpy's ValueError and TypeError,
    # and uniform(0), (-1) and (2.5) a ZeroDivisionError, ValueError and TypeError;
    # the text arrays were numpy's ValueError, normalized(None) a TypeError, and
    # each law of the wrong type an AttributeError or TypeError
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=f"^{match}"):
        build()
    assert list(tmp_path.iterdir()) == []  # dump_json opens no file for what it refuses


# one value of each kind that is not a number in a domain: text, None, a
# bool, NaN, an infinity, a list, an array, an integer that has no float and
# one too long for Python to print (over 4,300 digits), which a message shows
# by its digit count
_NOT_NUMBERS = {"str": "a", "none": None, "bool": True, "nan": math.nan, "minus-inf": -math.inf,
                "list": [0.1], "array": np.array([0.1, 0.2]), "huge-int": 10**400,
                "giant-int": 10**5000}
_RATE_ONLY = GaussianQuery(0.5, 0.5, 0.5)
_CONFIG = dict(n=12, mu=0.3, rate=1.0, seed=5, trials=6000, hypothesis="alt",
               mechanism=Channel.identity(2), quantizer=Channel.identity(2),
               scheme_kind="memoryless")
_SCALAR_ARGUMENTS = {
    "budgets-rate": lambda v: binary_tai_exponent(0.1, v, 0.5),
    "budgets-leak": lambda v: binary_tai_exponent(0.1, 0.5, v),
    "tai-rate": lambda v: tai_exponent(_DSBS, v, 0.5),
    "tai-noise": lambda v: binary_tai_exponent(v, 0.5, 0.5),
    "euclid-noise": lambda v: binary_euclid_approx(v, 0.5, 0.5),
    "euclid-rate": lambda v: binary_euclid_approx(0.1, v, 0.5),
    "euclid-leak": lambda v: binary_euclid_approx(0.1, 0.5, v),
    "binary-entropy": binary_entropy,
    "binary-entropy-inv": binary_entropy_inv,
    "star-a": lambda v: star(v, 0.1),
    "star-b": lambda v: star(0.1, v),
    "bsc": Channel.bsc,
    "identity": Channel.identity,
    "uniform": Pmf.uniform,
    "binary-pmf": Pmf.binary,
    "gaussian-rho": lambda v: GaussianQuery(v, 0.5, 0.5),
    "gaussian-rate": lambda v: GaussianQuery(0.5, v, 0.5),
    "gaussian-beta": lambda v: gaussian_achievable_at_beta(_RATE_ONLY, v),
    "typical-radius": lambda v: is_typical(np.full(2, 0.5), np.full(2, 0.5), v),
    "wilson-successes": lambda v: wilson_interval(v, 10),
    "wilson-trials": lambda v: wilson_interval(5, v),
    "wilson-z": lambda v: wilson_interval(5, 10, v),
    "project-tol": lambda v: i_project(_DSBS, [], tol=v),
    "project-max-iter": lambda v: i_project(_DSBS, [], max_iter=v),
    "oracle-grid-step": lambda v: brute_force_i_project(_DSBS, [], grid_step=v),
    "codebook-n": lambda v: generate_codebook(Pmf.uniform(2), v, 0.5, 1),
    "codebook-rate": lambda v: generate_codebook(Pmf.uniform(2), 4, v, 1),
    "codebook-seed": lambda v: generate_codebook(Pmf.uniform(2), 4, 0.5, v),
    **{f"config-{key}": lambda v, key=key: SchemeConfig(**{**_CONFIG, key: v})
       for key in ("n", "mu", "rate", "seed", "trials", "mu_prime")},
}


# the values of the pool that mean something there: the default radius, and
# integers past the float range where any integer will do (a seed, a sweep
# budget) or where a cap refuses it later (a config's blocklength, TooLarge
# when it runs)
_MEANINGFUL = {("config-mu_prime", "none"),
               *((site, big) for big in ("huge-int", "giant-int")
                 for site in ("config-seed", "codebook-seed", "project-max-iter", "config-n"))}


@pytest.mark.parametrize("value", _NOT_NUMBERS, ids=_NOT_NUMBERS)
@pytest.mark.parametrize("site", _SCALAR_ARGUMENTS, ids=_SCALAR_ARGUMENTS)
def test_scalar_arguments_refuse_what_is_not_in_their_domain(site, value):
    # each public scalar goes through probcore's _number or _count; before
    # them, binary_tai_exponent("a", ...) was a TypeError, star(True, 0.1)
    # returned 0.9 and a rate of 10**400 passed its check into an OverflowError
    call = _SCALAR_ARGUMENTS[site]
    if (site, value) in _MEANINGFUL:
        call(_NOT_NUMBERS[value])
    else:
        with pytest.raises(ToolkitError):
            call(_NOT_NUMBERS[value])


def test_identity_takes_a_numpy_integer_size():
    assert Channel.identity(np.int64(3)).matrix.tolist() == np.eye(3).tolist()
