"""Relations the exponents must satisfy between queries, whatever their values.

Each law is one of the first three Dirichlet(1) draws of ``default_rng(11)``.
A miss here is a search defect: the tolerances sit above the round-off the
searches were seen to reach (1.45e-11 for relabelling, 3.06e-9 for
independence, 4.6e-13 for Theorem 1 above Corollary 2, 3e-16 for the
witness's informations recomputed) and are not to be widened to pass.
"""

import numpy as np
import pytest

from privexp import JointPmf, corollary2_bound, tai_exponent, theorem1_lower_bound
from privexp.exponents import FEAS_SLACK


def _laws() -> dict:
    rng = np.random.default_rng(11)
    return {f"{kx}x{ky}": rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
            for kx, ky in ((2, 2), (2, 3), (3, 2))}


LAWS = _laws()
POINTS = [(0.25, 0.25), (0.5, 0.5), (0.25, 1.0)]


def joint(p) -> JointPmf:
    return JointPmf(np.asarray(p, dtype=float), ("X", "Y"))


def mi_bits(p: np.ndarray) -> float:
    """I(A;B) in bits of a joint table p[a, b], written apart from the package's kernel."""
    product = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    mass = p > 0
    return float((p[mass] * np.log2(p[mass] / product[mass])).sum())


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_relabelling_both_alphabets_keeps_the_tai_exponent(law, rate, leak):
    p = LAWS[law]
    theta = tai_exponent(joint(p), rate, leak).theta
    relabelled = tai_exponent(joint(p[::-1, ::-1]), rate, leak).theta
    assert abs(relabelled - theta) <= 1e-9


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("law", ["2x3", "3x2"])
def test_relabelling_one_alphabet_keeps_the_tai_exponent(law, axis, rate, leak):
    # a swap on the binary alphabet, a 3-cycle on the ternary one
    p = LAWS[law]
    cycle = np.roll(np.arange(p.shape[axis]), -1)
    theta = tai_exponent(joint(p), rate, leak).theta
    relabelled = tai_exponent(joint(np.take(p, cycle, axis=axis)), rate, leak).theta
    assert abs(relabelled - theta) <= 1e-9


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_theorem1_against_the_product_of_marginals_is_the_tai_exponent(law, rate, leak):
    # testing against independence is Theorem 1 with Q = P_X x P_Y, where it is exact
    p = LAWS[law]
    product = np.outer(p.sum(axis=1), p.sum(axis=0))
    bound = theorem1_lower_bound(joint(p), joint(product), rate, leak).theta
    assert abs(bound - tai_exponent(joint(p), rate, leak).theta) <= 1e-8


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_corollary2_is_at_least_theorem1(law, rate, leak):
    # Corollary 2 is Theorem 1 with the leak budget lifted and the mechanism
    # pinned to the identity; the alternative is halfway between the law and
    # the product of its marginals
    p = LAWS[law]
    q = 0.5 * p + 0.5 * np.outer(p.sum(axis=1), p.sum(axis=0))
    bound = theorem1_lower_bound(joint(p), joint(q), rate, leak).theta
    assert corollary2_bound(joint(p), joint(q), rate).theta >= bound - 1e-9


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_the_returned_witness_obeys_data_processing(law, rate, leak):
    # Y - X - Xh - U through the returned mechanism and quantizer: its
    # informations are the reported ones, U learns no more of Y than of Xh,
    # and the budgets hold within the search's feasibility slack
    p = LAWS[law]
    res = tai_exponent(joint(p), rate, leak)
    mech, quant = res.mechanism.matrix, res.quantizer.matrix
    x_xh = p.sum(axis=1)[:, None] * mech
    i_xxh = mi_bits(x_xh)
    i_uxh = mi_bits(x_xh.sum(axis=0)[:, None] * quant)
    i_uy = mi_bits(quant.T @ mech.T @ p)
    assert abs(i_xxh - res.leak_mi) <= 1e-12
    assert abs(i_uxh - res.rate_mi) <= 1e-12
    assert abs(i_uy - res.theta) <= 1e-12
    assert i_uy <= i_uxh <= rate + FEAS_SLACK
    assert i_xxh <= leak + FEAS_SLACK
    assert i_uy <= mi_bits(p)
