"""I-projection: iterative scaling against the exhaustive grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privexp import (
    Channel,
    DimensionMismatch,
    DomainError,
    Infeasible,
    InvalidDistribution,
    InvariantViolation,
    IProjectionResult,
    JointPmf,
    MarginalConstraint,
    SupportMismatch,
    TooLarge,
    brute_force_i_project,
    chain_joint,
    i_project,
    kl_divergence,
)
from privexp.iproject import _i_project_batch

REF = np.array([[0.28, 0.42], [0.18, 0.12]])
UNIFORM_XY = [
    MarginalConstraint(("X",), np.array([0.5, 0.5]), "x"),
    MarginalConstraint(("Y",), np.array([0.5, 0.5]), "y"),
]


def joint(arr) -> JointPmf:
    return JointPmf(np.asarray(arr, dtype=float), ("X", "Y"))


def random_instance(rng, shape):
    """Reference plus feasible marginal targets drawn from a second law."""
    ref = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    other = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    constraints = [
        MarginalConstraint(("X",), other.sum(axis=1), "x"),
        MarginalConstraint(("Y",), other.sum(axis=0), "y"),
    ]
    return joint(ref), constraints


def test_uniform_marginals_closed_form():
    # stationarity on the one-parameter feasible family gives
    # argmin [[0.2, 0.3], [0.3, 0.2]] and value (1/2) log2(25/21)
    res = i_project(joint(REF), UNIFORM_XY)
    assert res.converged
    assert res.min_kl == pytest.approx(0.5 * math.log2(25.0 / 21.0), abs=1e-9)
    assert np.allclose(res.argmin.probs, [[0.2, 0.3], [0.3, 0.2]], atol=1e-8)
    assert res.residual <= 1e-9


def test_matches_brute_force_on_reference_instance():
    fast = i_project(joint(REF), UNIFORM_XY)
    slow = brute_force_i_project(joint(REF), UNIFORM_XY, grid_step=1e-3)
    assert abs(fast.min_kl - slow.min_kl) <= 1e-3


def test_matches_brute_force_randomized():
    rng = np.random.default_rng(7)
    for k in range(12):
        shape = (2, 2) if k % 2 == 0 else (2, 3)
        ref, constraints = random_instance(rng, shape)
        fast = i_project(ref, constraints)
        slow = brute_force_i_project(ref, constraints, grid_step=1e-3)
        assert fast.converged
        assert abs(fast.min_kl - slow.min_kl) <= 1e-3, f"instance {k}"


def test_dual_certificate_monotone_every_sweep():
    rng = np.random.default_rng(11)
    for k in range(10):
        ref, constraints = random_instance(rng, (2, 3))
        res = i_project(ref, constraints)
        trace = np.asarray(res.dual_trace)
        assert trace.size == res.iterations
        assert np.all(np.diff(trace) >= -1e-8), f"instance {k}"
        # the reported minimum is the primal value of the reported argmin
        assert kl_divergence(res.argmin, ref) == pytest.approx(res.min_kl, abs=1e-12)


def dual_scale(res, ref: JointPmf, constraints) -> np.ndarray:
    """exp of the duals summed over the reference axes."""
    total = np.zeros(ref.shape)
    for c, lam in zip(constraints, res.duals):
        ids = [ref.axis_index(a) for a in c.axes]
        order = np.argsort(ids)
        shape = [1] * len(ref.shape)
        for i in ids:
            shape[i] = ref.shape[i]
        total = total + np.transpose(lam, order).reshape(shape)
    return np.exp(total)


def dual_value_bits(res, constraints) -> float:
    return sum(float((c.target * np.where(c.target > 0, lam, 0.0)).sum())
               for c, lam in zip(constraints, res.duals)) * math.log2(math.e)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_duals_give_the_value_and_the_projection(seed):
    # the duals are the natural-log scaling factors, each in its own
    # constraint's layout: sum_c <t_c, lam_c> is min_kl and the last dual
    # trace entry, and ref * exp(sum of lam) is the argmin
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 4, size=3))
    axes = ("A", "B", "C")
    ref = JointPmf(rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape), axes)
    other = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    choices = [("A",), ("C", "A"), ("B", "C"), ("B",), ("C", "B", "A")]
    picked = rng.choice(len(choices), size=int(rng.integers(1, 4)), replace=False)
    constraints = []
    for i in sorted(picked):
        names = choices[i]
        ids = [axes.index(a) for a in names]
        marginal = other.sum(axis=tuple(k for k in range(3) if k not in ids))
        # the marginal's axes are ascending; reorder them to the names' order
        target = np.transpose(marginal, np.argsort(np.argsort(ids)))
        constraints.append(MarginalConstraint(names, target))
    res = i_project(ref, constraints)
    assert len(res.duals) == len(constraints)
    for c, lam in zip(constraints, res.duals):
        assert lam.shape == c.target.shape
    value = dual_value_bits(res, constraints)
    assert value == pytest.approx(res.min_kl, abs=1e-7)
    assert value == pytest.approx(res.dual_trace[-1], abs=1e-12)
    np.testing.assert_allclose(ref.probs * dual_scale(res, ref, constraints),
                               res.argmin.probs, atol=1e-12)


def test_zero_target_cells_have_dual_minus_infinity():
    ref = joint(REF)
    constraints = [MarginalConstraint(("Y", "X"), np.array([[0.5, 0.0], [0.2, 0.3]]), "yx")]
    res = i_project(ref, constraints)
    lam = res.duals[0]
    assert lam[0, 1] == -math.inf
    assert np.isfinite(np.delete(lam.reshape(-1), 1)).all()
    # the optimal scaling of a single full marginal is the target over the
    # reference marginal
    np.testing.assert_allclose(np.exp(lam), constraints[0].target / REF.T, atol=1e-12)
    assert dual_value_bits(res, constraints) == pytest.approx(res.min_kl, abs=1e-12)


def test_pythagorean_identity():
    # for any feasible q: D(q||ref) = D(q||p*) + D(p*||ref)
    res = i_project(joint(REF), UNIFORM_XY)
    q = joint(np.full((2, 2), 0.25))  # independence coupling of the targets
    lhs = kl_divergence(q, joint(REF))
    rhs = kl_divergence(q, res.argmin) + res.min_kl
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_reference_zeros_are_preserved():
    ref = joint([[0.5, 0.0], [0.25, 0.25]])
    constraints = [MarginalConstraint(("X",), np.array([0.4, 0.6]), "x")]
    res = i_project(ref, constraints)
    assert res.converged
    assert res.argmin.probs[0, 1] == 0.0
    assert math.isfinite(res.min_kl)


def test_no_constraints_returns_reference():
    res = i_project(joint(REF), [])
    assert isinstance(res, IProjectionResult)
    assert res.min_kl == 0.0
    assert res.iterations == 0
    assert res.duals == ()
    assert np.allclose(res.argmin.probs, REF)


def test_support_mismatch_raises():
    ref = joint([[0.5, 0.5], [0.0, 0.0]])
    bad = [MarginalConstraint(("X",), np.array([0.5, 0.5]), "x")]
    with pytest.raises(SupportMismatch):
        i_project(ref, bad)


def test_support_mismatch_on_four_axis_chain():
    # U = Xh = X, so the reference (U, Y) marginal is the alternative itself,
    # whose (1, 1) cell is empty while the null law needs mass there
    null = JointPmf(np.array([[0.45, 0.05], [0.05, 0.45]]), ("X", "Y"))
    alt = JointPmf(np.array([[0.3, 0.4], [0.3, 0.0]]), ("X", "Y"))
    ident = Channel.identity(2)
    ref = chain_joint(alt, ident, ident)
    target = chain_joint(null, ident, ident)
    constraints = [
        MarginalConstraint(("X",), null.probs.sum(axis=1), "x-marginal"),
        MarginalConstraint(("U", "Y"), target.marginal("U", "Y").probs, "uy"),
        MarginalConstraint(("U", "Xh"), target.marginal("U", "Xh").probs, "uxh"),
    ]
    assert ref.marginal("U", "Y").probs[1, 1] == 0.0
    with pytest.raises(SupportMismatch):
        i_project(ref, constraints)


def test_contradictory_constraints_raise_infeasible():
    clash = [
        MarginalConstraint(("X",), np.array([0.5, 0.5]), "a"),
        MarginalConstraint(("X",), np.array([0.7, 0.3]), "b"),
    ]
    with pytest.raises(Infeasible):
        i_project(joint(REF), clash)


def test_brute_force_refuses_high_dimension():
    ref = JointPmf(np.full((3, 3), 1.0 / 9.0), ("X", "Y"))
    with pytest.raises(TooLarge):
        brute_force_i_project(ref, [])


def test_brute_force_detects_empty_polytope():
    clash = [
        MarginalConstraint(("X",), np.array([0.5, 0.5]), "a"),
        MarginalConstraint(("X",), np.array([0.7, 0.3]), "b"),
    ]
    with pytest.raises(Infeasible):
        brute_force_i_project(joint(REF), clash)


@pytest.mark.parametrize("kwargs, match", [
    ({"tol": math.nan}, "^tol nan"),
    ({"tol": -1.0}, "^tol -1.0"),
    ({"max_iter": 0}, "^max_iter 0"),
], ids=["nan-tol", "negative-tol", "no-sweeps"])
def test_solver_settings_are_domain_errors(kwargs, match):
    # a NaN or negative tol once ran 101 sweeps and raised Infeasible, and
    # max_iter = 0 raised Infeasible after none
    with pytest.raises(DomainError, match=match):
        i_project(joint(REF), UNIFORM_XY, **kwargs)


@pytest.mark.parametrize("step", [0.0, math.nan])
def test_brute_force_refuses_a_bad_grid_step(step):
    # once a ZeroDivisionError, or a numpy ValueError for NaN
    with pytest.raises(DomainError, match="^grid_step"):
        brute_force_i_project(joint(REF), UNIFORM_XY, grid_step=step)


# ---------------------------------------------------------------------------
# batches


def one_at_a_time(refs, axes, constraints):
    """``i_project`` of each member, or the error it raised."""
    out = []
    for i, ref in enumerate(refs):
        cons = [MarginalConstraint(names, targets[i]) for names, targets in constraints]
        try:
            out.append(i_project(JointPmf(ref, axes), cons))
        except (Infeasible, SupportMismatch) as e:
            out.append(e)
    return out


def assert_same_outcomes(batch, single):
    assert len(batch) == len(single)
    for i, (a, b) in enumerate(zip(batch, single)):
        assert type(a) is type(b), f"member {i}"
        if isinstance(a, Exception):
            assert str(a) == str(b), f"member {i}"
            continue
        assert a.min_kl == b.min_kl, f"member {i}"
        assert np.array_equal(a.argmin.probs, b.argmin.probs), f"member {i}"
        assert (a.iterations, a.converged, a.residual) == (b.iterations, b.converged, b.residual)
        assert all(np.array_equal(x, y) for x, y in zip(a.duals, b.duals))
        np.testing.assert_allclose(a.dual_trace, b.dual_trace, rtol=0.0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batch_matches_one_projection_at_a_time(seed):
    # members differ in their references and targets but share the axes;
    # some targets have zero cells, and one reference lacks a slice the
    # targets need, so that member fails the support check
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 4, size=3))
    axes = ("A", "B", "C")
    layout = [("C", "A"), ("B",)] if seed % 2 else [("A",), ("B", "C"), ("C",)]
    refs, targets = [], [[] for _ in layout]
    for member in range(7):
        ref = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        other = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        if member % 3 == 1:
            other[:, :, 0] = 0.0
            other /= other.sum()
        if member == 5:
            ref[0] = 0.0
            ref /= ref.sum()
        refs.append(ref)
        for names, bucket in zip(layout, targets):
            ids = [axes.index(a) for a in names]
            marginal = other.sum(axis=tuple(k for k in range(3) if k not in ids))
            bucket.append(np.transpose(marginal, np.argsort(np.argsort(ids))))
    constraints = [(names, np.stack(bucket)) for names, bucket in zip(layout, targets)]
    batch = _i_project_batch(np.stack(refs), axes, (), constraints)
    single = one_at_a_time(refs, axes, constraints)
    assert_same_outcomes(batch, single)
    assert isinstance(batch[5], SupportMismatch)


def test_a_member_with_contradictory_targets_plateaus_alone():
    # two constraints on X: members 0 and 2 agree with themselves, member 1
    # asks for two different marginals and plateaus; the others converge
    refs = np.stack([REF, REF.T, np.full((2, 2), 0.25)])
    first = np.array([[0.5, 0.5], [0.5, 0.5], [0.3, 0.7]])
    second = np.array([[0.5, 0.5], [0.7, 0.3], [0.3, 0.7]])
    constraints = [(("X",), first), (("X",), second), (("Y",), first[::-1])]
    batch = _i_project_batch(refs, ("X", "Y"), (), constraints)
    assert isinstance(batch[1], Infeasible) and "plateaued" in str(batch[1])
    assert batch[0].converged and batch[2].converged
    assert_same_outcomes(batch, one_at_a_time(refs, ("X", "Y"), constraints))


@pytest.mark.parametrize("where, value, match", [
    ("ref", -0.1, "reference, batch member 1: negative entry"),
    ("ref", math.nan, "reference, batch member 1: non-finite entry"),
    ("target", 0.3, r"constraint target \('X',\), batch member 1: total mass"),
], ids=["negative-reference", "nan-reference", "target-mass"])
def test_a_bad_member_is_an_invalid_distribution(where, value, match):
    refs = np.stack([REF, REF, REF])
    targets = np.full((3, 2), 0.5)
    if where == "ref":
        refs[1, 0, 0] = value
    else:
        targets[1, 0] = value
    with pytest.raises(InvalidDistribution, match=match):
        _i_project_batch(refs, ("X", "Y"), (), [(("X",), targets)])


def test_a_falling_dual_raises_when_its_member_leaves(monkeypatch):
    # make every dual increment -1: the trace reads -2, -4, ... over two
    # constraints, and the first decrease is reported, alone or in a batch
    ref, constraints = random_instance(np.random.default_rng(7), (2, 3))
    assert i_project(ref, constraints).iterations > 2
    monkeypatch.setattr(np, "vecdot", lambda a, b: -np.ones(len(a)))
    with pytest.raises(InvariantViolation, match=r"decreased at sweep 2: -2.0 -> -4.0$"):
        i_project(ref, constraints)
    with pytest.raises(InvariantViolation, match=r"decreased at sweep 2: -2.0 -> -4.0$"):
        _i_project_batch(np.stack([ref.probs] * 2), ("X", "Y"), (),
                         [(c.axes, np.stack([c.target] * 2)) for c in constraints])


def test_batch_targets_must_stack_one_per_member():
    refs = np.stack([REF, REF, REF])
    with pytest.raises(DimensionMismatch, match="targets of shape"):
        _i_project_batch(refs, ("X", "Y"), (), [(("X",), np.full((2, 2), 0.5))])
