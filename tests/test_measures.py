import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    co_lower_indicator,
    downset_distance,
    fresh_rng,
    merge_first_occurrence,
    merge_radius,
    n_ideals_by_deletion,
    near_duplicate_points,
)
from specorder.errors import CapExceededError, DimensionError, MassMismatchError, ParameterError
from specorder.functions import indicator_fn
from specorder.gallery import crossed_dirac_pair
from specorder.linalg import TOL, Verdict
from specorder.measures import (
    AtomicMeasure,
    _merged_support,
    audit_iota_increasing,
    cdf_leq,
    enumerate_downward_closed,
    leq_iota,
    lowerset_dominance,
    thm31_equivalence_check,
    tuple_scalar_measure,
)
from specorder.spectral import validate_tuple


def test_leq_iota_cases():
    assert leq_iota((0.0, 1.0), (0.0, 1.0), 1)
    assert leq_iota((0.0, 1.0), (5.0, 1.0), 1)
    assert not leq_iota((0.0, 1.0), (5.0, 2.0), 1)
    assert leq_iota((0.0, 1.0), (5.0, 2.0), 2)
    assert not leq_iota((6.0, 1.0), (5.0, 2.0), 2)


def test_atomic_measure_premerges_and_sorts():
    # within TOL of its axis's largest |coordinate| an atom merges into the
    # first one; the first occurrence represents the group
    mu = AtomicMeasure.from_atoms(
        [[1.0, 1.0], [0.0, 0.0], [1.0 + 1e-10, 1.0]], [0.25, 0.5, 0.25])
    assert mu.n_atoms == 2
    assert [tuple(p) for p in mu.points] == [(0.0, 0.0), (1.0, 1.0)]
    assert np.array_equal(mu.weights, [0.5, 0.5])
    assert mu.total_mass() == 1.0
    # the radius is per axis: on an axis whose largest |coordinate| is
    # 1e-10, the coordinate 1e-10 is the axis's size, not roundoff of 0
    mu = AtomicMeasure.from_atoms(
        [[1.0, 0.0], [0.0, 0.0], [1.0, 1e-10]], [0.25, 0.5, 0.25])
    assert [tuple(p) for p in mu.points] == [(0.0, 0.0), (1.0, 0.0), (1.0, 1e-10)]
    assert np.array_equal(mu.weights, [0.5, 0.25, 0.25])


def test_merge_radius_is_per_axis_on_mixed_scales():
    # a large axis does not merge atoms that a small axis separates
    assert AtomicMeasure.from_atoms([[0.0, 1e6], [1e-6, 1e6]], [1.0, 1.0]).n_atoms == 2
    # scaling one axis by c > 0 is separately increasing, so neither the
    # merge nor any verdict may move with c
    points = np.array([[0.0, 1e6], [1e-6, 1e6], [1e-6 * (1 + 1e-12), 1e6], [2e-6, 0.0]])
    for c in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        scaled = points * [c, 1.0]
        mu = AtomicMeasure.from_atoms(scaled, [1.0, 1.0, 1.0, 1.0])
        assert mu.points.tolist() == scaled[[0, 1, 3]].tolist()
        assert mu.weights.tolist() == [1.0, 2.0, 1.0]
        mu1 = AtomicMeasure.from_atoms(scaled[[1]], [1.0])
        mu2 = AtomicMeasure.from_atoms(scaled[[0]], [1.0])
        assert not lowerset_dominance(mu1, mu2, 2).holds
        assert lowerset_dominance(mu2, mu1, 2).holds
        assert cdf_leq(mu1, mu2).holds is False and cdf_leq(mu2, mu1).holds is True


def running_sum(values) -> float:
    """Left-to-right float sum, the order merged weights must be added in."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


@given(pts=near_duplicate_points(TOL), data=st.data())
@settings(max_examples=150)
def test_premerge_matches_first_occurrence_loop(pts, data):
    w = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=len(pts),
                                    max_size=len(pts))), dtype=np.float64)
    split = data.draw(st.integers(0, len(pts)))
    reps, members = merge_first_occurrence(pts, merge_radius(pts))
    expected_points = np.array(reps, dtype=np.float64).reshape(len(reps), pts.shape[1])

    mu = AtomicMeasure.from_atoms(pts, w)
    assert mu.points.tobytes() == expected_points.tobytes()
    assert mu.points.shape == expected_points.shape
    assert mu.weights.dtype == np.float64
    assert mu.weights.tobytes() == np.array(
        [running_sum(w[ms]) for ms in members], dtype=np.float64).tobytes()

    # the pair's common support merges mu1's atoms first, then mu2's
    mu1 = AtomicMeasure.from_atoms(pts[:split], w[:split])
    mu2 = AtomicMeasure.from_atoms(pts[split:], w[split:])
    both = np.vstack([mu1.points, mu2.points])
    reps, members = merge_first_occurrence(both, merge_radius(both))
    points, w1, w2, group, *_ = _merged_support(mu1, mu2)
    assert points.tobytes() == np.array(reps, dtype=np.float64).tobytes()
    assert [sorted(np.flatnonzero(group == k)) for k in range(len(reps))] == members
    assert points.shape == (len(reps), pts.shape[1])
    for got, side, offset in ((w1, mu1, 0), (w2, mu2, mu1.n_atoms)):
        sums = [running_sum(side.weights[i - offset] for i in ms
                            if offset <= i < offset + side.n_atoms)
                for ms in members]
        assert got.tobytes() == np.array(sums, dtype=np.float64).tobytes()


def test_atomic_measure_rejects_negative_weight():
    with pytest.raises(ParameterError):
        AtomicMeasure.from_atoms([[0.0]], [-1e-3])


def test_atomic_measure_rejects_a_merged_weight_past_the_float_range():
    with pytest.raises(ParameterError, match=r"merged weight at point \(1.0, 2.0\)") as info:
        AtomicMeasure.from_atoms([[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]], [1.0, 1e308, 1e308])
    # the first atom merged there, which the CLI names by its file location
    assert (info.value.point, info.value.atom) == ((1.0, 2.0), 1)
    # atoms at distinct points may each be near the limit
    assert AtomicMeasure.from_atoms([[0.0], [1.0]], [1e308, 1e308]).n_atoms == 2


def test_cdf_values():
    mu = AtomicMeasure.from_atoms([[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    assert mu.cdf((0.0, 0.0)) == 1.0
    assert mu.cdf((-0.1, 5.0)) == 0.0
    assert mu.cdf((1.0, 1.0)) == 2.0


def test_tuple_scalar_measure_moments():
    t = validate_tuple([np.diag([1.0, 3.0]), np.diag([2.0, 5.0])])
    h = np.array([1.0, 2.0]) / np.sqrt(5)
    mu = tuple_scalar_measure(t, h)
    assert mu.total_mass() == pytest.approx(1.0)
    # ||A^(1,1) h||^2 = integral of x^2 y^2
    a11 = t.ops[0].matrix @ t.ops[1].matrix @ h
    direct = float(np.linalg.norm(a11) ** 2)
    moment = mu.integrate(lambda p: (p[0] * p[1]) ** 2)
    assert moment == pytest.approx(direct, rel=1e-12)


# The equivalence oracle in conftest evaluates the lower set of an ideal a
# point at a time: membership through co_lower_indicator, the l1 distance
# through downset_distance. These pin both on hand-checked cases.

def test_lower_membership_frozen_cases():
    def member(generators, x, iota):
        return co_lower_indicator(np.array(generators), iota)(np.array(x)) == 0.0

    assert member([[0.0, 0.0]], (-1.0, -5.0), 2)
    assert not member([[0.0, 0.0]], (1.0, 0.0), 2)
    assert member([[0.0, 0.0]], (-1.0, 0.0), 1)
    assert not member([[0.0, 0.0]], (-1.0, 0.1), 1)
    assert not member(np.zeros((0, 2)), (-1.0, -5.0), 2)


def test_lower_distance_frozen_cases():
    origin = np.zeros((1, 2))
    assert downset_distance(np.array([1.0, 2.0]), origin, 2) == 3.0
    assert downset_distance(np.array([-4.0, -4.0]), origin, 2) == 0.0
    assert downset_distance(np.array([1.0, 2.0]), origin, 1) == 3.0
    assert downset_distance(np.array([0.5, 0.4]), origin, 2) == pytest.approx(0.9)
    assert downset_distance(np.array([1.0, 2.0]), np.zeros((0, 2)), 2) == np.inf


def test_distance_is_min_over_generators():
    generators = np.array([[0.0, 0.0], [3.0, -1.0]])
    # closer to the second generator
    assert downset_distance(np.array([3.0, 0.0]), generators, 2) == 1.0


def test_fattening_is_still_a_lower_set():
    # the distance to a lower set is increasing, so each fattening
    # {distance <= eps} is again a lower set, and each mollifier
    # min(1, n * distance) an increasing test function
    rng = fresh_rng(8)
    generators = rng.uniform(-1, 1, size=(3, 2))
    fat = indicator_fn(lambda x: downset_distance(x, generators, 2) <= 0.7, tag="fat")
    pts = rng.uniform(-2, 2, size=(40, 2))
    # indicator of a lower set is decreasing, so its negation is increasing
    res = audit_iota_increasing(lambda x: -fat(x), pts, iota=2)
    assert res.holds


def test_audit_catches_decrease():
    pts = [(0.0, 0.0), (1.0, 0.0)]
    res = audit_iota_increasing(lambda x: -x[0], pts, iota=2)
    assert not res.holds
    assert res.witness == ((0.0, 0.0), (1.0, 0.0))
    assert res.defect == 1.0


def audit_double_loop(values, pts, iota, tol):
    """Reference audit: first comparable pair (a, b) in row-major order with
    f(a) > f(b) + tol, or None."""
    for a in range(len(pts)):
        for b in range(len(pts)):
            if a != b and leq_iota(pts[a], pts[b], iota) and values[a] > values[b] + tol:
                return tuple(map(float, pts[a])), tuple(map(float, pts[b]))
    return None


def audit_sublevel_sets(values, pts, iota, tol) -> bool:
    """Reference audit: every sublevel set of f on the points is downward closed."""
    for level in sorted(set(values)):
        for i in (i for i, v in enumerate(values) if v <= level):
            for j in range(len(pts)):
                if values[j] > level + tol and leq_iota(pts[j], pts[i], iota):
                    return False
    return True


@given(pts=near_duplicate_points(0.25, max_points=8), data=st.data())
@settings(max_examples=150)
def test_audit_matches_double_loop_and_sublevel_routes(pts, data):
    kappa = pts.shape[1]
    iota = data.draw(st.integers(1, kappa))
    tol = data.draw(st.sampled_from((0.0, 0.5)))
    levels = data.draw(st.lists(st.integers(-2, 2), min_size=len(pts), max_size=len(pts)))
    table = {tuple(p): float(v) for p, v in zip(pts, levels)}  # f is a function of the point
    res = audit_iota_increasing(lambda x: table[tuple(x)], pts, iota=iota, tol=tol)
    values = [table[tuple(p)] for p in pts]
    witness = audit_double_loop(values, pts, iota, tol)
    assert res.witness == witness
    assert res.holds == (witness is None) == audit_sublevel_sets(values, pts, iota, tol)


def test_iota_checked_on_empty_point_sets():
    empty = np.zeros((0, 2))
    assert audit_iota_increasing(lambda x: 0.0, empty, iota=2).holds
    assert len(enumerate_downward_closed(empty, iota=2)) == 1
    for bad in (0, 3, 7):
        with pytest.raises(ParameterError, match="iota must be an integer in 1..2"):
            audit_iota_increasing(lambda x: 0.0, empty, iota=bad)
        with pytest.raises(ParameterError, match="iota must be an integer in 1..2"):
            enumerate_downward_closed(empty, iota=bad)


def test_audit_passes_projection_and_complement_indicator():
    rng = fresh_rng(9)
    pts = rng.uniform(-1, 1, size=(30, 2))
    assert audit_iota_increasing(lambda x: x[0], pts, iota=2).holds
    generators = rng.uniform(-1, 1, size=(4, 2))
    assert audit_iota_increasing(co_lower_indicator(generators, 2), pts, iota=2).holds


def test_cdf_refuses_nan_and_wrong_shapes():
    mu = AtomicMeasure.from_atoms([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0])
    assert mu.cdf((np.inf, np.inf)) == 3.0
    assert mu.cdf((0.0, -np.inf)) == 0.0
    # a length-1 point was broadcast against both axes
    with pytest.raises(DimensionError):
        mu.cdf([0.5])
    with pytest.raises(ParameterError, match="NaN"):
        mu.cdf((np.nan, 5.0))
    empty = AtomicMeasure.from_atoms(np.zeros((0, 2)), [])
    assert empty.cdf((1.0, 1.0)) == 0.0
    with pytest.raises(DimensionError):
        empty.cdf([0.5])


def test_cdf_leq_dirac_pair():
    mu1, mu2 = crossed_dirac_pair()
    assert cdf_leq(mu1, mu2) == Verdict(holds=True, witness=None, defect=0.0)
    assert cdf_leq(mu2, mu1) == Verdict(holds=False, witness=(0.0, 0.0), defect=1.0)


def test_ideal_enumeration_of_boolean_square():
    pts = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    ideals = enumerate_downward_closed(pts, iota=2)
    assert len(ideals) == 6
    sizes = [i.size for i in ideals]
    assert sizes == sorted(sizes)
    masks = {i.mask for i in ideals}
    assert masks == {0b0000, 0b0001, 0b0011, 0b0101, 0b0111, 0b1111}


def test_ideal_enumeration_antichain_and_chain():
    anti = [(float(i), float(2 - i)) for i in range(3)]  # pairwise incomparable
    assert len(enumerate_downward_closed(anti, iota=2)) == 8
    chain = [(float(i), float(i)) for i in range(4)]
    assert len(enumerate_downward_closed(chain, iota=2)) == 5


def test_ideal_cap():
    pts = [(float(i), float(24 - i)) for i in range(25)]  # 2^25 ideals
    with pytest.raises(CapExceededError):
        enumerate_downward_closed(pts, iota=2)


@given(salt=st.integers(0, 60))
def test_ideal_count_matches_deletion_oracle(salt):
    rng = fresh_rng(3000 + salt)
    m = int(rng.integers(1, 9))
    iota = int(rng.integers(1, 3))
    pts = rng.integers(0, 3, size=(m, 2)).astype(np.float64)
    pts = np.unique(pts, axis=0)
    ideals = enumerate_downward_closed(pts, iota=iota)
    assert len(ideals) == n_ideals_by_deletion(pts, iota)
    masks = [i.mask for i in ideals]
    assert len(set(masks)) == len(masks)


def test_dominance_dirac_witness():
    mu1, mu2 = crossed_dirac_pair()
    dom = lowerset_dominance(mu1, mu2, iota=2)
    assert not dom.holds
    assert dom.defect == 1.0
    assert [tuple(p) for p in dom.witness.member_points()] == [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


def test_dominance_equal_measures():
    mu1, _ = crossed_dirac_pair()
    dom = lowerset_dominance(mu1, mu1, iota=2)
    assert dom.holds and dom.witness is None and dom.defect == 0.0


def test_equivalence_equal_measures():
    mu1, _ = crossed_dirac_pair()
    rep = thm31_equivalence_check(mu1, mu1, iota=2)
    assert rep.lowerset.holds and rep.indicator.holds and rep.mollifier.holds
    assert rep.agreement


def test_equivalence_dirac_pair():
    mu1, mu2 = crossed_dirac_pair()
    rep = thm31_equivalence_check(mu1, mu2, iota=2)
    assert not rep.lowerset.holds
    assert not rep.indicator.holds
    assert rep.agreement
    assert rep.lowerset.witness.mask == rep.indicator.witness.mask


def test_mass_mismatch_raises_with_implications():
    mu1 = AtomicMeasure.from_atoms([[0.0, 0.0]], [1.0])
    mu2 = AtomicMeasure.from_atoms([[0.0, 0.0]], [2.0])
    with pytest.raises(MassMismatchError) as info:
        thm31_equivalence_check(mu1, mu2, iota=2)
    assert info.value.mass1 == 1.0
    assert info.value.mass2 == 2.0
    assert "mass1 <= mass2" in info.value.implications


@given(salt=st.integers(0, 40))
def test_dominance_implies_cdf(salt):
    # orthant corners generate downward-closed atom subsets, so dominance
    # over all ideals is at least as strong as the cdf inequality
    rng = fresh_rng(4000 + salt)
    m = int(rng.integers(1, 6))
    pts1 = rng.integers(0, 3, size=(m, 2)).astype(float)
    pts2 = rng.integers(0, 3, size=(m, 2)).astype(float)
    w = rng.integers(1, 4, size=m).astype(float)
    mu1 = AtomicMeasure.from_atoms(pts1, w)
    mu2 = AtomicMeasure.from_atoms(pts2, w)
    if lowerset_dominance(mu1, mu2, iota=2).holds:
        assert cdf_leq(mu1, mu2).holds
