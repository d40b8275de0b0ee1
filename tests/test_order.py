import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    fresh_rng,
    ordered_pair,
    positive_ordered_pair,
    random_commuting,
    random_unitary,
    tuple_from_eigs,
)
from specorder.errors import (
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
from specorder.linalg import TOL
from specorder.measures import lower_indicator_complement, LowerSetGen
from specorder.order import (
    NormalOperator,
    OrderVerdict,
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


def test_order_verdict_shape():
    with pytest.raises(ValueError):
        OrderVerdict(holds=True, witness=(0.0,), defect=0.0)
    assert bool(OrderVerdict(holds=True, witness=None, defect=0.0))
    assert not OrderVerdict(holds=False, witness=(1.0,), defect=1.0)


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
    assert spectral_leq(a, b).holds == spectral_leq_componentwise(a, b).holds


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
        monotone_transport_check(a, b, sum_fn(2))
    assert "spectral_leq" in str(info.value)
    with pytest.raises(ParameterError, match="tuples of different lengths: 2 vs 1"):
        monotone_transport_check(a, validate_tuple([a.ops[0].matrix]), sum_fn(2))


def test_transport_requires_monotone():
    rng = fresh_rng(13)
    a, b = ordered_pair(rng, 4, 2, low=-1.0)
    with pytest.raises(MonotonicityError):
        monotone_transport_check(a, b, product_fn(2))


def test_transport_holds_for_increasing_functions():
    rng = fresh_rng(14)
    a, b = ordered_pair(rng, 5, 2)
    for phi in (sum_fn(2), coordinate_fn(0, 2), coordinate_fn(1, 2),
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
    gens = LowerSetGen.from_points(rng.uniform(-1, 1, size=(3, 2)), iota=2)
    for phi in (lower_indicator_complement(gens),
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
        a, b, product_fn(2), iota=1, omega=lambda tail: np.all(tail >= 0))
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
        restricted_monotone_check(a, b, product_fn(2), iota=1)
    assert "trailing components equal" in str(info.value)

    neg = tuple_from_eigs(q, np.stack([ea, ec - 2.0]))
    neg_b = tuple_from_eigs(q, np.stack([eb, ec - 2.0]))
    with pytest.raises(PreconditionError) as info:
        restricted_monotone_check(neg, neg_b, product_fn(2), iota=1,
                                  omega=lambda tail: np.all(tail >= 0))
    assert "atom tails inside omega" in str(info.value)

    assert restricted_monotone_check(a, b, sum_fn(2), iota=2).holds


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
        a0, b, h, alpha_max=3, lambda_filter=lambda alpha: alpha[1] == 0,
        filter_tag="axis0")
    assert zero_report.limit_estimate == 0.0
    assert zero_report.filter_tag == "axis0"


def test_growth_ratio_axis_filter_counts():
    a, b = axis_shift_family(2.0)
    report = growth_ratio(a, b, np.array([1.0, 0.0]), alpha_max=5,
                          lambda_filter=lambda alpha: alpha[0] == 0)
    assert report.n_tested == 5
    assert set(report.shell_maxima) == {1, 2, 3, 4, 5}


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
    basis of ran F_b(x), walked in lexicographic grid order; it uses the
    same grid, slack and threshold as distribution_order and nothing of its
    Gram form.
    """
    pa, pb = ea.points(), eb.points()
    axes = [np.unique(np.concatenate([pa[:, j], pb[:, j]])) for j in range(ea.kappa)]
    slack = np.array([tol * float(np.abs(ax).max()) for ax in axes])
    worst = 0.0
    for x in itertools.product(*axes):
        x = np.array(x)
        vb = eb.distribution(x).range_basis
        residual = float(np.linalg.norm(vb - ea.distribution(x + slack).apply(vb)))
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
