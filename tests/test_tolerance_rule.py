"""The tolerance rule: every threshold is TOL times the size of what it compares.

The spectral order survives every separately increasing map, positive
scalings among them, and it is unchanged by unitary conjugation and by a
common shift. With thresholds relative to the operands, the verdicts keep
these symmetries at any scale; an absolute floor in a threshold merges the
atoms of small spectra and flips verdicts there.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import fresh_rng, positive_ordered_pair, random_unitary, tuple_from_eigs
from specorder.errors import ParameterError
from specorder.linalg import Projection, is_psd, proj_leq
from specorder.measures import audit_iota_increasing
from specorder.order import (
    NormalOperator,
    bounded_vector_membership,
    distribution_order,
    infimum_probe,
    loewner_leq,
    olson_necessity_scan,
    scaled_monomial_check,
    spectral_leq,
    spectral_leq_componentwise,
)
from specorder.spectral import is_positive_tuple, joint_measure, validate_tuple

SCAN_DEPTH = 3


@st.composite
def integer_pairs(draw, low: int = 1):
    """(q_a, q_b, eigs_a, eigs_b, truth): kappa 1-2, n 1-6, integer levels
    low..low+3, eigenbases q_a and q_b.

    Half the pairs share one eigenbasis with b = a plus steps of 0 or 1, so
    truth = (a <= b, b <= a) = (True, no step taken); the other half take
    independent bases, with truth None.
    """
    kappa = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    rng = fresh_rng(draw(st.integers(0, 10_000)))
    eigs_a = rng.integers(low, low + 4, size=(kappa, n)).astype(np.float64)
    steps = rng.integers(0, 2, size=(kappa, n))
    q = random_unitary(rng, n)
    shared = draw(st.booleans())
    q_b = q if shared else random_unitary(rng, n)
    truth = (True, not steps.any()) if shared else None
    return q, q_b, eigs_a, eigs_a + steps, truth


def both_ways(q_a, q_b, eigs_a, eigs_b, c=1.0, shift=0.0, u=None):
    """The pair u (c (A + shift I)) u^H, u (c (B + shift I)) u^H, and its reverse.

    The map is applied to the eigenvalues and eigenbases, so the shifted
    operators are exact: a shift that zeroes a spectrum leaves exact zeros.
    A computed A - cI with A's spectrum all c would be pure roundoff, which
    a rule without an absolute floor cannot tell from a small operator that
    does not commute with the other components.
    """
    u = np.eye(q_a.shape[0]) if u is None else u
    a = tuple_from_eigs(u @ q_a, c * (eigs_a + shift))
    b = tuple_from_eigs(u @ q_b, c * (eigs_b + shift))
    return (a, b), (b, a)


def assert_point_scaled(got, want, c: float):
    got, want = np.asarray(got) / c, np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@given(pair=integer_pairs(), k=st.integers(-40, 40))
def test_power_of_two_scaling_keeps_verdicts(pair, k):
    c = 2.0 ** k
    for x, y in both_ways(*pair[:4]):
        # scaling by a power of two is exact, so the scaled operators are c x and c y
        sx, sy = (validate_tuple([c * m for m in t.matrices()]) for t in (x, y))
        want, got = spectral_leq(x, y), spectral_leq(sx, sy)
        assert got.holds == want.holds
        if not want.holds:
            assert_point_scaled(got.witness, want.witness, c)
        want, got = spectral_leq_componentwise(x, y), spectral_leq_componentwise(sx, sy)
        assert got.holds == want.holds
        if not want.holds:
            assert got.witness[0] == want.witness[0]
            assert_point_scaled(got.witness[1], want.witness[1], c)
        want = olson_necessity_scan(x, y, SCAN_DEPTH)
        got = olson_necessity_scan(sx, sy, SCAN_DEPTH)
        assert (got.holds, got.witness) == (want.holds, want.witness)


@given(pair=integer_pairs(low=0), k=st.integers(-40, 40), shift=st.integers(-8, 8),
       salt=st.integers(0, 10_000))
def test_conjugation_and_shift_keep_verdicts(pair, k, shift, salt):
    # integer spectra scaled by 2^k, shifted by an integer multiple of 2^k I
    # and conjugated by a unitary u
    truth = pair[4]
    u = random_unitary(fresh_rng(salt), pair[0].shape[0])
    plain = both_ways(*pair[:4])
    moved = both_ways(*pair[:4], c=2.0 ** k, shift=shift, u=u)
    for (x, y), (tx, ty), want in zip(plain, moved, truth or (None, None)):
        verdicts = {spectral_leq(tx, ty).holds, spectral_leq_componentwise(tx, ty).holds,
                    spectral_leq_componentwise(x, y).holds}
        assert verdicts == {spectral_leq(x, y).holds}
        if want is not None:
            assert verdicts == {want}


def test_scan_decides_relative_to_the_monomials():
    # b raises one eigenvalue of A_1, so a <= b and every A^alpha <= B^alpha;
    # A_2's spectrum near 1e6 puts roundoff of B^alpha - A^alpha far above
    # any threshold taken relative to that difference
    levels = np.array([[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], [1e6, 2e6, 3e6, 4e6, 5e6, 6e6]])
    raised = levels.copy()
    raised[0, 0] += 1.0
    for salt in range(20):
        q = random_unitary(fresh_rng(salt), 6)
        a, b = tuple_from_eigs(q, levels), tuple_from_eigs(q, raised)
        assert spectral_leq(a, b).holds
        verdict = olson_necessity_scan(a, b, 1)
        assert verdict.holds, (salt, verdict)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("check", [
    spectral_leq,
    spectral_leq_componentwise,
    lambda a, b, tol: distribution_order(joint_measure(a), joint_measure(b), tol=tol),
    lambda a, b, tol: olson_necessity_scan(a, b, 3, tol=tol),
    lambda a, b, tol: scaled_monomial_check(a, b, lambda alpha: 1.0, 3, tol=tol),
], ids=["spectral_leq", "componentwise", "distribution_order", "olson_scan", "scaled_scan"])
def test_order_checks_refuse_malformed_tol(check, tol):
    # b <= a fails at the default tol; a NaN tol made it hold, and a
    # negative one made a <= a fail
    a, b = positive_ordered_pair(fresh_rng(5), 4, 2)
    assert not spectral_leq(b, a).holds
    for x, y in ((b, a), (a, a)):
        with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
            check(x, y, tol=tol)


ONE = np.eye(2)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("check", [
    lambda tol: validate_tuple([ONE, ONE], tol_comm=tol),
    lambda tol: proj_leq(Projection.identity(2), Projection.identity(2), tol=tol),
    lambda tol: is_psd(ONE, tol=tol),
    lambda tol: loewner_leq(ONE, ONE, tol=tol),
    lambda tol: is_positive_tuple(validate_tuple([ONE]), tol=tol),
    lambda tol: audit_iota_increasing(lambda x: -x[0], [(0.0,), (1.0,)], 1, tol=tol),
    lambda tol: bounded_vector_membership(validate_tuple([ONE]), ONE[0], [1.0], tol=tol),
    lambda tol: NormalOperator.from_matrix(ONE, tol=tol),
    lambda tol: infimum_probe(validate_tuple([ONE]), validate_tuple([ONE]), tol=tol),
], ids=["commutation", "proj_leq", "is_psd", "loewner_leq", "positive_tuple",
        "audit", "bounded_vector", "normal", "infimum_probe"])
def test_every_tolerance_is_checked(check, tol):
    # a NaN tolerance passed every gate: a decreasing function its audit, a
    # non-commuting pair validate_tuple
    with pytest.raises(ParameterError, match="must be finite and nonnegative"):
        check(tol)
