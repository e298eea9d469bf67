"""Relations the exponents must satisfy between queries, whatever their values.

Each law is one of the first three Dirichlet(1) draws of ``default_rng(11)``.
A miss here is a search defect: the tolerances sit above the round-off the
searches were seen to reach (1.45e-11 for relabelling, 3.06e-9 for
independence) and are not to be widened to pass.
"""

import numpy as np
import pytest

from privexp import JointPmf, tai_exponent, theorem1_lower_bound


def _laws() -> dict:
    rng = np.random.default_rng(11)
    return {f"{kx}x{ky}": rng.dirichlet(np.ones(kx * ky)).reshape(kx, ky)
            for kx, ky in ((2, 2), (2, 3), (3, 2))}


LAWS = _laws()
POINTS = [(0.25, 0.25), (0.5, 0.5), (0.25, 1.0)]


def joint(p) -> JointPmf:
    return JointPmf(np.asarray(p, dtype=float), ("X", "Y"))


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_relabelling_both_alphabets_keeps_the_tai_exponent(law, rate, leak):
    p = LAWS[law]
    theta = tai_exponent(joint(p), rate, leak).theta
    relabelled = tai_exponent(joint(p[::-1, ::-1]), rate, leak).theta
    assert abs(relabelled - theta) <= 1e-9


@pytest.mark.parametrize("rate, leak", POINTS)
@pytest.mark.parametrize("law", sorted(LAWS))
def test_theorem1_against_the_product_of_marginals_is_the_tai_exponent(law, rate, leak):
    # testing against independence is Theorem 1 with Q = P_X x P_Y, where it is exact
    p = LAWS[law]
    product = np.outer(p.sum(axis=1), p.sum(axis=0))
    bound = theorem1_lower_bound(joint(p), joint(product), rate, leak).theta
    assert abs(bound - tai_exponent(joint(p), rate, leak).theta) <= 1e-8
