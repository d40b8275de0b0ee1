import itertools
import re
import sys
import time
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    co_lower_indicator,
    diagonalize_per_atom,
    distribution_order_stacked,
    fresh_rng,
    ordered_pair,
    positive_ordered_pair,
    random_commuting,
    random_unitary,
    tuple_from_eigs,
)
import specorder.linalg as linalg
import specorder.order as order
import specorder.spectral as spectral
from specorder.cli import main
from specorder.errors import (
    DimensionError,
    EvaluationError,
    MonotonicityError,
    NormalityError,
    ParameterError,
    PositivityError,
    PreconditionError,
)
from specorder.functions import (
    clipped_affine_fn,
    coordinate_fn,
    monomial_fn,
    product_fn,
    sum_fn,
)
from specorder.gallery import (
    MEET_COMMUTATOR_DEFECT,
    MEET_FIRST,
    MEET_SECOND,
    axis_shift_family,
    crossed_dirac_diagonal_pair,
    projection_pair_no_infimum,
)
from specorder.io import save_json, tuple_to_dict
from specorder.linalg import TOL, Verdict
from specorder.measures import (
    AtomicMeasure,
    audit_iota_increasing,
    cdf_leq,
    lowerset_dominance,
    thm31_equivalence_check,
)
from specorder.order import (
    NormalOperator,
    bounded_vector_membership,
    distribution_order,
    growth_ratio,
    infimum_probe,
    loewner_leq,
    monotone_transport_check,
    multi_indices,
    normal_leq,
    olson_necessity_scan,
    restricted_monotone_check,
    scaled_monomial_check,
    spectral_leq,
    spectral_leq_componentwise,
)
from specorder.spectral import joint_measure, parts_decompose, validate_tuple


def every_check(rng, n: int, kappa: int):
    """One verdict or more from each single-threshold check, on small random
    inputs, holding and failing."""
    a, b = ordered_pair(rng, n, kappa)
    c = random_commuting(rng, n, kappa)
    yield distribution_order(joint_measure(a), joint_measure(b))
    for x, y in ((a, b), (b, a), (a, c)):
        yield spectral_leq(x, y)
        yield spectral_leq_componentwise(x, y)
    yield monotone_transport_check(a, b, sum_fn())
    yield restricted_monotone_check(a, b, coordinate_fn(0, kappa), iota=kappa)
    s, t = (NormalOperator.from_parts(x) for x in ordered_pair(rng, n, 2))
    yield normal_leq(s, t)
    yield normal_leq(t, s)
    pa, pb = positive_ordered_pair(rng, n, kappa)
    yield olson_necessity_scan(pa, pb, alpha_max=3)
    yield olson_necessity_scan(pb, pa, alpha_max=3)
    yield scaled_monomial_check(pb, pa, lambda alpha: 1.0 + sum(alpha), alpha_max=3)
    points = rng.integers(0, 3, size=(2 * n, kappa)).astype(np.float64)
    weights = rng.integers(1, 4, size=n).astype(np.float64)
    mu1 = AtomicMeasure.from_atoms(points[:n], weights)
    mu2 = AtomicMeasure.from_atoms(points[n:], rng.permutation(weights))
    iota, tol = int(rng.integers(1, kappa + 1)), float(rng.choice([0.0, 0.5]))
    yield cdf_leq(mu1, mu2, tol=tol)
    yield lowerset_dominance(mu1, mu2, iota, tol=tol)
    report = thm31_equivalence_check(mu1, mu2, iota, tol=tol)
    yield from (report.lowerset, report.indicator, report.mollifier)
    table = {tuple(p): float(v) for p, v in zip(points, rng.integers(-2, 3, size=2 * n))}
    yield audit_iota_increasing(lambda x: table[tuple(x)], points, iota, tol=tol)


@given(salt=st.integers(0, 2 ** 20), n=st.integers(1, 4), kappa=st.integers(1, 3))
@settings(max_examples=30)
def test_every_check_returns_one_verdict(salt, n, kappa):
    # a holding verdict carries no witness, a failing one always does
    for v in every_check(fresh_rng(salt), n, kappa):
        assert type(v) is Verdict
        assert v.holds == (v.witness is None)
        assert isinstance(v.defect, float) and v.defect >= 0
        assert bool(v) == v.holds


def test_scalar_constant_tuples():
    a = validate_tuple([0.0 * np.eye(3), 1.0 * np.eye(3)])
    b = validate_tuple([0.5 * np.eye(3), 1.0 * np.eye(3)])
    assert spectral_leq(a, b).holds
    assert not spectral_leq(b, a).holds


def test_kappa_one_two_atoms():
    a = validate_tuple([np.diag([0.0, 1.0])])
    b = validate_tuple([np.diag([1.0, 2.0])])
    assert spectral_leq(a, b).holds
    assert spectral_leq_componentwise(a, b).holds


def test_diagonal_crossed_pair_fails_both_ways():
    a, b = crossed_dirac_diagonal_pair()
    assert not spectral_leq(a, b).holds
    assert not spectral_leq(b, a).holds


def test_witness_is_lex_first():
    # grid {0,1}^2; (0,1) is fine (both give span e1), (1,0) is the first bad
    a, b = crossed_dirac_diagonal_pair()
    v = spectral_leq(a, b)
    assert v.witness == (1.0, 0.0)


def test_theta_family_frozen_sweep():
    verdicts = {}
    for theta in (1.5, 2.0, 3.0):
        ta, tb = axis_shift_family(theta)
        verdicts[theta] = spectral_leq(ta, tb).holds
    assert verdicts == {1.5: False, 2.0: True, 3.0: False}


@given(salt=st.integers(0, 30))
def test_reflexive(salt):
    rng = fresh_rng(salt)
    t = random_commuting(rng, int(rng.integers(1, 8)), int(rng.integers(1, 4)))
    v = spectral_leq(t, t)
    assert v.holds
    assert v.defect <= 1e-12


@given(salt=st.integers(0, 25))
def test_shared_basis_characterization(salt):
    # with one eigenbasis the order is exactly per-vector domination
    rng = fresh_rng(500 + salt)
    n, kappa = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    q = random_unitary(rng, n)
    ea = rng.uniform(-1, 1, size=(kappa, n))
    step = rng.uniform(0.05, 1.0, size=(kappa, n))
    flip = rng.random() < 0.5
    if flip:  # break one coordinate of one vector downward
        step[int(rng.integers(kappa)), int(rng.integers(n))] = -0.4
    a = tuple_from_eigs(q, ea)
    b = tuple_from_eigs(q, ea + step)
    assert spectral_leq(a, b).holds == (not flip)


@given(salt=st.integers(0, 25))
def test_joint_equals_componentwise(salt):
    rng = fresh_rng(1500 + salt)
    n, kappa = int(rng.integers(2, 7)), int(rng.integers(2, 4))
    if rng.random() < 0.5:
        a, b = ordered_pair(rng, n, kappa)
    else:
        a = random_commuting(rng, n, kappa)
        b = random_commuting(rng, n, kappa)
    holds = spectral_leq(a, b).holds
    assert holds == spectral_leq_componentwise(a, b).holds
    # independent of the shared per-axis kernel: the whole grid, walked
    assert holds == distribution_order_stacked(diagonalize_per_atom(a),
                                               diagonalize_per_atom(b))[0]


def test_componentwise_witness_names_axis():
    a, b = crossed_dirac_diagonal_pair()
    v = spectral_leq_componentwise(a, b)
    assert not v.holds
    axis, point = v.witness
    assert axis in (0, 1)


def test_antisymmetry_means_equal_measures():
    rng = fresh_rng(11)
    a, b = ordered_pair(rng, 5, 2)
    assert not (spectral_leq(a, b).holds and spectral_leq(b, a).holds)
    ea1 = joint_measure(a)
    ea2 = joint_measure(a)
    assert spectral_leq(a, a).holds
    assert np.allclose(ea1.points(), ea2.points())


def test_transitive_on_increasing_chain():
    rng = fresh_rng(12)
    t = random_commuting(rng, 5, 2)
    b = validate_tuple([t.ops[0].matrix + np.eye(5), t.ops[1].matrix + 2 * np.eye(5)])
    c = validate_tuple([b.ops[0].matrix + np.eye(5), b.ops[1].matrix])
    assert spectral_leq(t, b).holds
    assert spectral_leq(b, c).holds
    assert spectral_leq(t, c).holds


def test_loewner_basics():
    assert loewner_leq(np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]])
    assert loewner_leq([[2.0, 1.0], [1.0, 2.0]], [[3.0, 1.0], [1.0, 3.0]])
    assert not loewner_leq(np.eye(2), np.zeros((2, 2)))


def test_loewner_leq_one_operator_from_two_bases():
    # computed two ways, one operator differs from itself by roundoff only;
    # that roundoff is judged against the operands, not against itself
    from specorder.spectral import calculus_scalar
    d = np.array([1.0, 2.0, 3.0, 1e6])
    for salt in range(10):
        rng = fresh_rng(salt)
        q1, q2 = random_unitary(rng, 4), random_unitary(rng, 4)
        e1, e2 = (joint_measure(validate_tuple([(q * d) @ q.conj().T])) for q in (q1, q2))
        one1, one2 = (calculus_scalar(e, monomial_fn((0,))) for e in (e1, e2))
        assert loewner_leq(one1, one2) and loewner_leq(one2, one1)
        x = (q1 * d) @ q1.conj().T
        back = calculus_scalar(e1, monomial_fn((1,)))
        assert loewner_leq(x, back) and loewner_leq(back, x)
        assert not loewner_leq(2.0 * one1.matrix, one2)


def test_transport_requires_order():
    a, b = crossed_dirac_diagonal_pair()
    with pytest.raises(PreconditionError) as info:
        monotone_transport_check(a, b, sum_fn())
    assert "spectral_leq" in str(info.value)
    with pytest.raises(ParameterError, match="tuples of different lengths: 2 vs 1"):
        monotone_transport_check(a, validate_tuple([a.ops[0].matrix]), sum_fn())


def test_transport_refuses_a_rule_with_nan_values():
    # NaN compares false both ways, so the audit used to pass it and the
    # pushed-forward order read "holds"
    a, b = ordered_pair(fresh_rng(13), 4, 2, low=-1.0)
    assert spectral_leq(a, b).holds
    first = tuple(np.vstack([joint_measure(a).points(), joint_measure(b).points()])[0])
    with pytest.raises(EvaluationError, match="value is NaN") as info:
        monotone_transport_check(a, b, lambda x: float("nan"))
    assert info.value.point == first
    with pytest.raises(EvaluationError, match=r"at point \(1.0,\)"):
        audit_iota_increasing(lambda x: np.nan if x[0] > 0 else 0.0,
                              [(0.0,), (1.0,), (2.0,)], 1)
    # infinite values are ordered and stay allowed
    assert audit_iota_increasing(lambda x: np.inf if x[0] > 0 else -np.inf,
                                 [(0.0,), (1.0,)], 1).holds
    assert not audit_iota_increasing(lambda x: -np.inf if x[0] > 0 else np.inf,
                                     [(0.0,), (1.0,)], 1).holds


def test_transport_requires_monotone():
    rng = fresh_rng(13)
    a, b = ordered_pair(rng, 4, 2, low=-1.0)
    with pytest.raises(MonotonicityError):
        monotone_transport_check(a, b, product_fn())


def test_transport_holds_for_increasing_functions():
    rng = fresh_rng(14)
    a, b = ordered_pair(rng, 5, 2)
    for phi in (sum_fn(), coordinate_fn(0, 2), coordinate_fn(1, 2),
                clipped_affine_fn((0.5, 2.0), 0.0, 1.0)):
        assert monotone_transport_check(a, b, phi).holds


def test_transport_constant_function():
    rng = fresh_rng(15)
    a, b = ordered_pair(rng, 4, 2)
    from specorder.functions import monomial_fn
    assert monotone_transport_check(a, b, monomial_fn((0, 0))).holds


def test_parts_preserve_order():
    # kappa = 1: A <= B implies f_+(A) <= f_+(B) and f_-(A) <= f_-(B)
    rng = fresh_rng(16)
    for _ in range(20):
        a, b = ordered_pair(rng, int(rng.integers(2, 6)), 1, low=-2.0, high=2.0)
        for sign in ("+", "-"):
            fa = parts_decompose(a, sign)
            fb = parts_decompose(b, sign)
            assert spectral_leq(fa, fb).holds


def test_sum_of_ordered_pairs_is_ordered():
    # A1 <= B1, A2 <= B2, all four commuting: sums are ordered (kappa = 1)
    rng = fresh_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = random_unitary(rng, n)
        e1 = rng.uniform(-1, 1, size=(2, n))
        e2 = e1 + rng.uniform(0.05, 1.0, size=(2, n))
        pair_a = tuple_from_eigs(q, e1)
        pair_b = tuple_from_eigs(q, e2)
        sum_a = validate_tuple([pair_a.ops[0].matrix + pair_a.ops[1].matrix])
        sum_b = validate_tuple([pair_b.ops[0].matrix + pair_b.ops[1].matrix])
        assert spectral_leq(sum_a, sum_b).holds


def test_order_implies_loewner_for_bounded_monotone():
    rng = fresh_rng(18)
    a, b = ordered_pair(rng, 5, 2)
    ea, eb = joint_measure(a), joint_measure(b)
    from specorder.spectral import calculus_scalar
    for phi in (co_lower_indicator(rng.uniform(-1, 1, size=(3, 2)), 2),
                clipped_affine_fn((1.0, 1.0), -1.0, 1.0)):
        assert loewner_leq(calculus_scalar(ea, phi), calculus_scalar(eb, phi),
                           tol=1e-8)


def test_restricted_transport_product_on_shared_positive_factor():
    # psi(x1, x2) = x1 x2 with shared positive second component: AC <= BC
    rng = fresh_rng(19)
    n = 5
    q = random_unitary(rng, n)
    ea = rng.uniform(-1, 1, size=n)
    eb = ea + rng.uniform(0.05, 1.0, size=n)
    ec = rng.uniform(0.1, 2.0, size=n)
    a = tuple_from_eigs(q, np.stack([ea, ec]))
    b = tuple_from_eigs(q, np.stack([eb, ec]))
    verdict = restricted_monotone_check(
        a, b, product_fn(), iota=1, omega=lambda tail: np.all(tail >= 0))
    assert verdict.holds
    ac = a.ops[0].matrix @ a.ops[1].matrix
    bc = b.ops[0].matrix @ b.ops[1].matrix
    assert spectral_leq(validate_tuple([ac]), validate_tuple([bc])).holds


def test_restricted_transport_preconditions():
    rng = fresh_rng(20)
    n = 4
    q = random_unitary(rng, n)
    ea = rng.uniform(-1, 1, size=n)
    eb = ea + rng.uniform(0.05, 1.0, size=n)
    ec = rng.uniform(0.1, 2.0, size=n)
    a = tuple_from_eigs(q, np.stack([ea, ec]))
    b = tuple_from_eigs(q, np.stack([eb, ec + 0.5]))
    with pytest.raises(PreconditionError) as info:
        restricted_monotone_check(a, b, product_fn(), iota=1)
    assert "trailing components equal" in str(info.value)

    neg = tuple_from_eigs(q, np.stack([ea, ec - 2.0]))
    neg_b = tuple_from_eigs(q, np.stack([eb, ec - 2.0]))
    with pytest.raises(PreconditionError) as info:
        restricted_monotone_check(neg, neg_b, product_fn(), iota=1,
                                  omega=lambda tail: np.all(tail >= 0))
    assert "atom tails inside omega" in str(info.value)

    assert restricted_monotone_check(a, b, sum_fn(), iota=2).holds


def test_multi_indices_order():
    assert multi_indices(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(multi_indices(3, 3)) == 20


def test_olson_requires_positive():
    bad = validate_tuple([np.diag([-1.0, 1.0]), np.diag([1.0, 1.0])])
    good = validate_tuple([np.diag([1.0, 1.0]), np.diag([1.0, 1.0])])
    with pytest.raises(PositivityError):
        olson_necessity_scan(bad, good, alpha_max=2)
    with pytest.raises(PositivityError):
        olson_necessity_scan(good, bad, alpha_max=2)


def test_olson_scan_equal_tuples():
    t = validate_tuple([np.diag([1.0, 2.0]), np.diag([0.5, 1.0])])
    assert olson_necessity_scan(t, t, alpha_max=4).holds


def test_olson_scan_theta2_passes_depth5():
    a, b = axis_shift_family(2.0)
    assert olson_necessity_scan(a, b, alpha_max=5).holds


def _first_exact_loewner_failure(a, b, k_max):
    """First k <= k_max with b^k - a^k not PSD, for 2x2 integer matrices.

    Powers are kept as exact Fractions; a symmetric 2x2 matrix is PSD iff
    both diagonal entries and the determinant are >= 0.
    """
    def mul(x, y):
        return [[sum(x[i][m] * y[m][j] for m in range(2)) for j in range(2)]
                for i in range(2)]

    a = [[Fraction(v) for v in row] for row in a]
    b = [[Fraction(v) for v in row] for row in b]
    pa, pb = a, b
    for k in range(1, k_max + 1):
        d = [[pb[i][j] - pa[i][j] for j in range(2)] for i in range(2)]
        if d[0][0] < 0 or d[1][1] < 0 or d[0][0] * d[1][1] - d[0][1] * d[1][0] < 0:
            return k
        pa, pb = mul(pa, a), mul(pb, b)
    return None


def test_olson_scan_theta3_first_violation_is_depth_13():
    # exact-rational recursion on the second components puts the first
    # Loewner failure of the theta=3 family at alpha = (0, 13); alpha with
    # alpha_1 >= 1 hold since A_1 = 0, and shallower scans legitimately see
    # nothing
    a, b = axis_shift_family(3.0)
    assert olson_necessity_scan(a, b, alpha_max=12).holds
    deep = olson_necessity_scan(a, b, alpha_max=13)
    assert not deep.holds
    assert deep.witness == (0, 13)
    a2, b2 = [[2, 1], [1, 2]], [[3, 1], [1, 4]]
    assert np.array_equal(a.matrices()[1], a2)
    assert np.array_equal(b.matrices()[1], b2)
    k = _first_exact_loewner_failure(a2, b2, 20)
    assert k == 13
    assert deep.witness == (0, k)


def test_scaled_monomial_check():
    rng = fresh_rng(21)
    a, b = positive_ordered_pair(rng, 4, 2)
    assert scaled_monomial_check(a, b, lambda alpha: 1.0, alpha_max=4).holds
    assert scaled_monomial_check(
        a, b, lambda alpha: 1.0 + 1.0 / (1 + sum(alpha)) ** 2, alpha_max=4).holds
    with pytest.raises(ParameterError):
        scaled_monomial_check(a, b, lambda alpha: 0.5, alpha_max=2)
    # r is a rule; a table that missed some alpha raised a raw KeyError
    with pytest.raises(ParameterError, match="r must be callable, got dict"):
        scaled_monomial_check(a, b, {(0, 0): 1.0}, alpha_max=2)
    # theta=3 family with r = 1 fails like the plain scan
    ta, tb = axis_shift_family(3.0)
    v = scaled_monomial_check(ta, tb, lambda alpha: 1.0, alpha_max=13)
    assert not v.holds and v.witness == (0, 13)


def test_growth_ratio_zero_vector():
    a, b = axis_shift_family(2.0)
    report = growth_ratio(a, b, np.zeros(2), alpha_max=4)
    assert report.limit_estimate == 0.0
    assert all(v == 0.0 for v in report.shell_maxima.values())


def test_growth_ratio_equal_tuples():
    rng = fresh_rng(22)
    t = random_commuting(rng, 4, 2, low=0.2, high=2.0)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    report = growth_ratio(t, t, h, alpha_max=6)
    assert report.limit_estimate == pytest.approx(1.0, abs=1e-9)


def test_growth_ratio_ordered_pair_bounded():
    rng = fresh_rng(23)
    a, b = positive_ordered_pair(rng, 5, 2)
    h = rng.normal(size=5) + 1j * rng.normal(size=5)
    report = growth_ratio(a, b, h, alpha_max=12)
    assert report.limit_estimate <= 1.0 + 1e-9


def test_growth_ratio_conventions_on_kernel_vectors():
    # B kills e2 along axis 0 while A does not: ratio a/0 = inf
    a = validate_tuple([np.diag([1.0, 1.0]), np.diag([1.0, 1.0])])
    b = validate_tuple([np.diag([1.0, 0.0]), np.diag([1.0, 1.0])])
    h = np.array([0.0, 1.0])
    inf_report = growth_ratio(a, b, h, alpha_max=3)
    assert inf_report.limit_estimate == np.inf
    # both kill e2: 0/0 = 0 convention keeps shells at zero
    a0 = validate_tuple([np.diag([1.0, 0.0]), np.diag([1.0, 1.0])])
    zero_report = growth_ratio(
        a0, b, h, alpha_max=3, lambda_filter=lambda alpha: alpha[1] == 0)
    assert zero_report.limit_estimate == 0.0


def test_growth_ratio_axis_filter_counts():
    a, b = axis_shift_family(2.0)
    report = growth_ratio(a, b, np.array([1.0, 0.0]), alpha_max=5,
                          lambda_filter=lambda alpha: alpha[0] == 0)
    assert report.n_tested == 5
    assert set(report.shell_maxima) == {1, 2, 3, 4, 5}


def test_bounded_vector_membership_refuses_nan_bound():
    # the projection route read a NaN bound as excluding every atom while the
    # growth route read it as admitting them: member False beside
    # growth_member True
    t = validate_tuple([np.diag([1.0, 3.0]), np.diag([2.0, 1.0])])
    with pytest.raises(ParameterError, match="NaN"):
        bounded_vector_membership(t, np.array([1.0, 0.0]), [np.nan, 5.0])


def test_bounded_vector_eigenvector_cases():
    t = validate_tuple([np.diag([1.0, 3.0]), np.diag([2.0, 1.0])])
    e1 = np.array([1.0, 0.0])
    res = bounded_vector_membership(t, e1, (1.0, 2.0))
    assert res.member and res.growth_member and res.agree
    res = bounded_vector_membership(t, e1, (0.5, 2.0))
    assert not res.member and not res.growth_member and res.agree
    mix = np.array([1.0, 1.0]) / np.sqrt(2)
    res = bounded_vector_membership(t, mix, (1.0, 2.0))
    # the uncovered atom at (3, 1) shows up in both routes
    assert not res.member and not res.growth_member and res.agree
    assert res.growth_rate > 1.5


def test_bounded_vector_zero_and_errors():
    t = validate_tuple([np.diag([1.0, 2.0])])
    assert bounded_vector_membership(t, np.zeros(2), (1.0,)).member
    with pytest.raises(PositivityError):
        bounded_vector_membership(
            validate_tuple([np.diag([-1.0, 2.0])]), np.ones(2), (1.0,))
    with pytest.raises(ParameterError):
        bounded_vector_membership(t, np.ones(2), (-1.0,))


@pytest.mark.parametrize("h", [[1.0, 2.0], 1.0, [0.0, 0.0]],
                         ids=["short", "scalar", "short-zero"])
def test_bounded_vector_refuses_a_vector_of_the_wrong_shape(h):
    # the first two reached numpy's matmul ValueError, the zero one returned
    # member=True before any check; growth_ratio's message is the one given
    t = validate_tuple([np.diag([0.5, 2.0, 1.0])])
    message = re.escape(f"vector has shape {np.shape(h)}, expected (3,)")
    with pytest.raises(DimensionError, match=f"^{message}$"):
        bounded_vector_membership(t, h, [1.5])
    with pytest.raises(DimensionError, match=f"^{message}$"):
        growth_ratio(t, t, h)


@pytest.mark.parametrize("alpha_max", [0, -1])
def test_bounded_vector_rejects_alpha_max_below_one(alpha_max):
    t = validate_tuple([np.diag([1.0, 2.0])])
    message = f"alpha_max must be >= 1, got {alpha_max}"
    for h in (np.ones(2), np.zeros(2)):
        with pytest.raises(ParameterError, match=message):
            bounded_vector_membership(t, h, (1.0,), alpha_max=alpha_max)
    with pytest.raises(ParameterError, match=message):
        growth_ratio(t, t, np.ones(2), alpha_max=alpha_max)


def test_normal_operator_gate_and_parts():
    with pytest.raises(NormalityError):
        NormalOperator.from_matrix([[0.0, 1.0], [0.0, 0.0]])
    s = NormalOperator.from_matrix(np.diag([1j, 1.0]))
    re, im = s.parts().matrices()
    assert np.allclose(re, np.diag([0.0, 1.0]))
    assert np.allclose(im, np.diag([1.0, 0.0]))
    back = NormalOperator.from_parts(s.parts())
    assert np.allclose(back.matrix, s.matrix, atol=1e-12)


def test_normal_leq_frozen_example():
    s = NormalOperator.from_matrix(np.diag([1j, 1.0]))
    t = NormalOperator.from_matrix(np.diag([1.0 + 1j, 2.0 + 1j]))
    assert normal_leq(s, t).holds
    assert not normal_leq(t, s).holds


def test_normal_leq_hermitian_reduces_to_scalar_order():
    s = NormalOperator.from_matrix(np.diag([0.0, 1.0]))
    t = NormalOperator.from_matrix(np.diag([1.0, 2.0]))
    assert normal_leq(s, t).holds


def test_normal_leq_in_a_random_basis():
    # parts formed from T that are its roundoff become exact zero, so a
    # Hermitian (or skew-Hermitian) T off the diagonal is decided as on it
    for salt in range(10):
        q = random_unitary(fresh_rng(salt), 3)
        for phase in (1.0, 1j):
            s = (q * (phase * np.array([0.0, 1.0, 2.0]))) @ q.conj().T
            t = (q * (phase * np.array([1.0, 2.0, 2.0]))) @ q.conj().T
            assert normal_leq(s, t).holds
            assert not normal_leq(t, s).holds
            zero = 1 if phase == 1.0 else 0
            assert not NormalOperator.from_matrix(s).parts().ops[zero].matrix.any()
        s = (q * np.array([1j, 1.0, 2.0])) @ q.conj().T
        t = (q * np.array([1.0 + 1j, 2.0 + 1j, 2.0])) @ q.conj().T
        assert normal_leq(s, t).holds
        assert not normal_leq(t, s).holds


def test_infimum_probe_identical():
    a, _ = projection_pair_no_infimum()
    rep = infimum_probe(a, a)
    assert rep.commutes
    assert rep.defect == 0.0
    for got, src in zip(rep.candidates, a.ops):
        assert np.allclose(got.matrix, src.matrix, atol=1e-12)


def test_infimum_probe_frozen_goldens():
    a, b = projection_pair_no_infimum()
    rep = infimum_probe(a, b)
    assert np.allclose(rep.candidates[0].matrix, MEET_FIRST, atol=1e-9)
    assert np.allclose(rep.candidates[1].matrix, MEET_SECOND, atol=1e-9)
    assert rep.defect == pytest.approx(MEET_COMMUTATOR_DEFECT, abs=1e-9)
    assert not rep.commutes
    assert not rep.lower_bound_ok


def test_infimum_probe_commuting_nested():
    p = validate_tuple([np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0])])
    q = validate_tuple([np.diag([1.0, 1.0, 1.0]), np.diag([1.0, 1.0, 0.0])])
    rep = infimum_probe(p, q)
    assert rep.commutes
    assert rep.lower_bound_ok
    assert np.allclose(rep.candidates[0].matrix, np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(rep.candidates[1].matrix, np.diag([1.0, 0.0, 0.0]))


def test_infimum_probe_rejects_nonprojections():
    t = validate_tuple([np.diag([0.5, 1.0]), np.diag([1.0, 0.0])])
    p = validate_tuple([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
    with pytest.raises(ParameterError):
        infimum_probe(t, p)


def _reference_order(ea, eb, tol=TOL):
    """The order check by explicit subtraction, one grid point at a time.

    Residual ||(I - F_a(x + slack)) V_b(x)||_F with V_b(x) an orthonormal
    basis of ran F_b(x), walked over the whole grid in lexicographic order;
    it uses the same grid, slack and threshold as distribution_order and
    nothing of its Gram form or its axis lines. A holding defect is the
    largest residual on the axis lines (at most one coordinate below the top
    of its axis).
    """
    pa, pb = ea.points(), eb.points()
    axes = [np.unique(np.concatenate([pa[:, j], pb[:, j]])) for j in range(ea.kappa)]
    slack = np.array([tol * float(np.abs(ax).max()) for ax in axes])
    worst = 0.0
    for x in itertools.product(*axes):
        x = np.array(x)
        vb = eb.distribution(x).range_basis
        residual = float(np.linalg.norm(vb - ea.distribution(x + slack).apply(vb)))
        if sum(v < ax[-1] for v, ax in zip(x, axes)) <= 1:
            worst = max(worst, residual)
        if residual > tol * max(1, vb.shape[1]):
            return False, tuple(float(v) for v in x), residual, vb.shape[1]
    return True, None, worst, ea.dim


def _oracle_pair(kind, rng, n, kappa):
    if kind == "crossed_dirac":
        return crossed_dirac_diagonal_pair()
    if kind == "random":
        return random_commuting(rng, n, kappa), random_commuting(rng, n, kappa)
    if kind == "ordered":
        return ordered_pair(rng, n, kappa)
    q = random_unitary(rng, n)
    if kind == "violated":
        ea = rng.uniform(-1, 1, size=(kappa, n))
        step = rng.uniform(0.05, 1.0, size=(kappa, n))
        step[int(rng.integers(kappa)), int(rng.integers(n))] = -0.4
        return tuple_from_eigs(q, ea), tuple_from_eigs(q, ea + step)
    # tied integer spectra: steps in {-1, 0, 1}, repeated levels
    ea = rng.integers(-1, 2, size=(kappa, n)).astype(np.float64)
    eb = ea + rng.integers(-1 if kind == "integer_mixed" else 0, 2, size=(kappa, n))
    if kind == "integer_tilted":
        # b's eigenbasis turned by an angle from 1e-10 to 1e-2, so residuals
        # land on both sides of the threshold tol * rank
        angle = 10.0 ** rng.uniform(-10, -2)
        q_b = q @ np.linalg.qr(np.eye(n) + angle * rng.normal(size=(n, n)))[0]
    else:
        q_b = q if rng.random() < 0.7 else random_unitary(rng, n)
    return tuple_from_eigs(q, ea), tuple_from_eigs(q_b, eb)


@given(kind=st.sampled_from(["random", "ordered", "violated", "integer_ordered",
                             "integer_mixed", "integer_tilted", "crossed_dirac"]),
       kappa=st.integers(1, 3), n=st.integers(1, 8), salt=st.integers(0, 10_000))
def test_gram_kernel_matches_subtraction_reference(kind, kappa, n, salt):
    a, b = _oracle_pair(kind, fresh_rng(9000 + salt), n, kappa)
    ea, eb = joint_measure(a), joint_measure(b)
    for lo, hi in ((ea, eb), (eb, ea)):
        holds, witness, defect, rank = _reference_order(lo, hi)
        v = distribution_order(lo, hi)
        assert v.holds == holds
        assert v.witness == witness
        assert abs(v.defect - defect) <= 1e-12 * (1 + rank)


@pytest.mark.parametrize("kappa", [2, 3])
def test_witness_walk_evaluates_only_the_dominating_sub_grid(kappa, monkeypatch):
    walking, walked = [False], []
    real_walk, real_residuals = order._OrderKernel.first_failure, order._OrderKernel.residuals

    def walk(self):
        walking[0] = True
        try:
            return real_walk(self)
        finally:
            walking[0] = False

    def residuals(self, idx):
        if walking[0]:
            walked.append(np.size(idx[0]))
        return real_residuals(self, idx)

    monkeypatch.setattr(order._OrderKernel, "first_failure", walk)
    monkeypatch.setattr(order._OrderKernel, "residuals", residuals)
    failing, smaller = 0, 0
    for salt in range(30):
        a, b = _oracle_pair("integer_mixed", fresh_rng(9700 + salt), 6, kappa)
        for lo, hi in ((joint_measure(a), joint_measure(b)), (joint_measure(b), joint_measure(a))):
            walked.clear()
            holds, witness, defect, rank = _reference_order(lo, hi)
            v = distribution_order(lo, hi)
            assert (v.holds, v.witness) == (holds, witness)
            assert abs(v.defect - defect) <= 1e-12 * (1 + rank)
            if holds:
                continue
            failing += 1
            pts = [np.concatenate([lo.points()[:, j], hi.points()[:, j]]) for j in range(kappa)]
            sub_grid = prod(np.unique(hi.points()[:, j]).size for j in range(kappa))
            assert 0 < sum(walked) <= sub_grid
            smaller += sub_grid < prod(np.unique(p).size for p in pts)
    assert failing >= 10 and smaller >= 5


def test_check_order_eigendecomposes_inside_the_two_joint_measures_only(
        tmp_path, monkeypatch, capsys):
    a, b = ordered_pair(fresh_rng(61), 6, 2, low=0.1, high=1.0)
    paths = []
    for name, t in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{name}.json"))
        save_json(paths[-1], tuple_to_dict(t))

    real_eig, real_diagonalize = linalg.hermitian_eig, spectral._diagonalize
    measures, depth, outside = [], [0], []

    def counting_eig(*args, **kwargs):
        if not depth[0]:
            outside.append(args)
        return real_eig(*args, **kwargs)

    def diagonalize(t):
        measures.append(t)
        depth[0] += 1
        try:
            return real_diagonalize(t)
        finally:
            depth[0] -= 1

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "specorder":
            for key, value in list(vars(module).items()):
                if value is real_eig:
                    monkeypatch.setattr(module, key, counting_eig)
    monkeypatch.setattr(spectral, "_diagonalize", diagonalize)
    for argv in ([paths[0], paths[1]], [paths[1], paths[0]],
                 [paths[0], paths[1], "--alpha-max", "3"]):
        measures.clear()
        main(["check-order", *argv])
        assert len(measures) == 2 and not outside
    capsys.readouterr()


def test_order_decided_on_axis_lines_at_kappa_three():
    # the full grid has 96^3 points here; the parent's kernel took over 2 s
    # per direction on it
    a, b = ordered_pair(fresh_rng(62), 48, 3)
    started = time.perf_counter()
    for lo, hi, holds in ((a, b, True), (b, a, False)):
        assert spectral_leq(lo, hi).holds is holds
        assert spectral_leq_componentwise(lo, hi).holds is holds
    assert time.perf_counter() - started < 1.0


# kappa=2 on C^2; kappa=1 on C^2; kappa=2 on C^3. Projections, so positive
# and fit for the infimum probe.
PAIR_A = validate_tuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
PAIR_C = validate_tuple([np.diag([1.0, 0.0])])
PAIR_B = validate_tuple([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])


@pytest.mark.parametrize("other, message", [(PAIR_C, "tuples of different lengths"),
                                            (PAIR_B, "tuples on different spaces")],
                         ids=["kappa", "dim"])
@pytest.mark.parametrize("check", [
    spectral_leq,
    spectral_leq_componentwise,
    lambda x, y: restricted_monotone_check(x, y, sum_fn(), iota=1),
    lambda x, y: monotone_transport_check(x, y, lambda p: float(p[0])),
    lambda x, y: scaled_monomial_check(x, y, lambda alpha: 1.0, 2),
    lambda x, y: olson_necessity_scan(x, y, 2),
    lambda x, y: growth_ratio(x, y, np.ones(2)),
    infimum_probe,
], ids=["spectral_leq", "componentwise", "restricted_transport", "transport",
        "scaled_scan", "olson_scan", "growth_ratio", "infimum_probe"])
def test_every_two_tuple_check_refuses_a_mismatched_pair(check, other, message):
    # a kappa=1 partner gave the scan and the growth ratio a result, and
    # mismatched dimensions reached numpy's broadcasting
    for x, y in ((PAIR_A, other), (other, PAIR_A)):
        with pytest.raises(ParameterError, match=message):
            check(x, y)


def test_loewner_leq_refuses_operators_of_two_sizes():
    with pytest.raises(DimensionError, match="sizes 2 and 3"):
        loewner_leq(np.eye(2), np.eye(3))
