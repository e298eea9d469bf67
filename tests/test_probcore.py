"""Unit tests for the probability core: laws, divergences, types, channels."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privexp
from privexp import (
    Channel,
    DimensionMismatch,
    DomainError,
    InvalidDistribution,
    JointPmf,
    LengthMismatch,
    Pmf,
    ToolkitError,
    binary_entropy,
    binary_entropy_inv,
    chain_joint,
    compose,
    dump_json,
    empirical_type,
    entropy,
    from_dict,
    is_typical,
    kl_divergence,
    load_json,
    marginalize,
    mutual_information,
    star,
    total_variation,
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
