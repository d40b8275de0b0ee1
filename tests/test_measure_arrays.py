"""The array form of the joint spectral measure against per-atom references.

The measure stores its points, one basis with columns grouped by atom, and
the atom ranks; spectral integrals, the monomial scan and the measure
axioms are single products over those arrays. The references in conftest
rebuild each from (point, basis) pairs one atom at a time.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    atoms_of,
    calculus_per_atom,
    diagonalize_per_atom,
    distribution_order_stacked,
    fresh_rng,
    measure_defects_per_atom,
    measure_from_pairs,
    monomial_scan_eager,
    positive_ordered_pair,
    random_unitary,
    tuple_from_eigs,
)
from specorder.errors import ParameterError
from specorder.functions import sum_fn
from specorder.linalg import TOL, Projection
from specorder.order import distribution_order, multi_indices, olson_necessity_scan
from specorder.spectral import (
    JointSpectralMeasure,
    calculus_scalar,
    joint_measure,
    monomial,
    validate_tuple,
)

SCAN_DEPTH = 4


@st.composite
def tuple_pairs(draw):
    """(a, b): kappa 1-3, n <= 12, over one random basis.

    Spectra are integer levels 0-3 (tied) or uniform draws (simple), times
    a power of ten in 1e-9..1e6. b adds a nonnegative step to some
    eigenvalues of a, so a <= b; the pair is also used reversed.
    """
    kappa = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    rng = fresh_rng(draw(st.integers(0, 10_000)))
    scale = 10.0 ** draw(st.integers(-9, 6))
    if draw(st.booleans()):
        eigs_a = rng.integers(0, 4, size=(kappa, n)).astype(np.float64)
    else:
        eigs_a = rng.uniform(0.0, 3.0, size=(kappa, n))
    eigs_b = eigs_a + rng.integers(0, 2, size=(kappa, n))
    q = random_unitary(rng, n)
    return tuple_from_eigs(q, eigs_a * scale), tuple_from_eigs(q, eigs_b * scale)


def scale_of(t) -> float:
    return 1.0 + max(float(np.linalg.norm(op.matrix, 2)) for op in t.ops)


# kappa=3, n=7. Level 0 splits A_1 into clusters {0, 1, 2}, {3} and {4, 5, 6}.
# Level 1 splits the first into {0} and {1, 2} and the last into {4}, {5}
# and {6}. Level 2 keeps {1, 2} as one atom of rank 2.
MIXED_EIGS = np.array([[0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0],
                       [0.0, 1.0, 1.0, 5.0, 3.0, 4.0, 6.0],
                       [7.0, 8.0, 8.0, 2.0, 1.0, 1.0, 3.0]])
MIXED_Q = random_unitary(fresh_rng(1100), 7)
MIXED_PAIR = (tuple_from_eigs(MIXED_Q, MIXED_EIGS),
              tuple_from_eigs(MIXED_Q, MIXED_EIGS + np.array([[0, 0, 1, 0, 1, 0, 0]] * 3)))
DIM_ONE_PAIR = (validate_tuple([[[0.5]], [[-1.5]], [[2.0]]]),
                validate_tuple([[[0.75]], [[-1.5]], [[3.0]]]))


def test_the_mixed_cluster_case_has_its_layout():
    e = joint_measure(MIXED_PAIR[0])
    assert sorted(e.ranks.tolist()) == [1, 1, 1, 1, 1, 2]
    assert np.allclose(e.points(), [[0, 0, 7], [0, 1, 8], [1, 5, 2], [2, 3, 1], [2, 4, 1],
                                    [2, 6, 3]], atol=1e-12)
    assert joint_measure(DIM_ONE_PAIR[0]).points().tolist() == [[0.5, -1.5, 2.0]]


@settings(max_examples=80)
@given(pair=tuple_pairs())
@example(pair=MIXED_PAIR)
@example(pair=DIM_ONE_PAIR)
def test_arrays_match_the_per_atom_reference(pair):
    a, b = pair
    for t in (a, b):
        e, ref = joint_measure(t), diagonalize_per_atom(t)
        assert e.points().tobytes() == np.array([pt for pt, _ in ref]).tobytes()
        assert e.basis.tobytes() == np.hstack([v for _, v in ref]).tobytes()
        assert e.ranks.tolist() == [v.shape[1] for _, v in ref]
        assert not e.points().flags.writeable and e.points() is e.points()

        bound = 1e-12 * scale_of(t)
        values = sum_fn().on_points(e.points())
        got = calculus_scalar(e, sum_fn()).matrix
        assert np.max(np.abs(got - calculus_per_atom(ref, values))) <= bound
        want = measure_defects_per_atom(ref, t)
        got = (e.completeness_defect(), e.orthogonality_defect(), e.reconstruction_defect(t))
        assert all(abs(g - w) <= bound for g, w in zip(got, want))

    for x, y in ((a, b), (b, a)):
        v = distribution_order(joint_measure(x), joint_measure(y))
        assert (v.holds, v.witness, v.defect) == distribution_order_stacked(
            diagonalize_per_atom(x), diagonalize_per_atom(y))


@settings(max_examples=80)
@given(pair=tuple_pairs())
def test_lazy_scan_matches_the_eager_reference(pair):
    a, b = pair
    alphas = multi_indices(a.kappa, SCAN_DEPTH)
    for x, y in ((a, b), (b, a)):
        got = olson_necessity_scan(x, y, alpha_max=SCAN_DEPTH)
        want = monomial_scan_eager(diagonalize_per_atom(x), diagonalize_per_atom(y), alphas)
        assert (got.holds, got.witness) == want[:2]
        roundoff = 1e-12 * scale_of(x) ** SCAN_DEPTH + 1e-12 * want[2]
        if got.holds:
            # a holding defect counts only the alphas that Cholesky did not
            # certify; a certified alpha's -lambda_min is below tol/2 * scale
            assert got.defect <= want[2] + roundoff
            assert want[2] <= max(got.defect, TOL / 2 * scale_of(x) ** SCAN_DEPTH) + roundoff
        else:
            assert abs(got.defect - want[2]) <= roundoff


def test_scan_stops_at_the_first_failing_alpha(monkeypatch):
    import specorder.order as order

    built = []
    real = order._monomial_values
    monkeypatch.setattr(order, "_monomial_values",
                        lambda points, alpha: built.append(tuple(alpha)) or real(points, alpha))
    a = validate_tuple([np.diag([2.0, 1.0]), np.diag([1.0, 1.0])])
    b = validate_tuple([np.diag([1.0, 2.0]), np.diag([1.0, 1.0])])
    verdict = olson_necessity_scan(a, b, alpha_max=8)
    # (0, 0), (0, 1), (1, 0): the third alpha fails, and no later one is built
    assert verdict.witness == (1, 0)
    assert list(dict.fromkeys(built)) == [(0, 0), (0, 1), (1, 0)]


def test_keyword_constructor_and_views_round_trip():
    # the one constructor takes (points, basis, ranks); join([a]) is atom a's
    # projection, and the pairs helper stacks (point, Projection) atoms
    rng = fresh_rng(808)
    q = random_unitary(rng, 5)
    points = [(0.0, 1.0), (0.5, -1.0), (2.0, 0.0)]
    e = JointSpectralMeasure(points, q, [2, 1, 2])
    assert (e.kappa, e.dim) == (2, 5)
    assert e.ranks.tolist() == [2, 1, 2] and e.owner.tolist() == [0, 0, 1, 2, 2]
    assert e.basis.tobytes() == q.tobytes()
    assert [pt for pt, _ in atoms_of(e)] == points
    assert [p.range_basis.tobytes() for _, p in atoms_of(e)] == [
        q[:, :2].tobytes(), q[:, 2:3].tobytes(), q[:, 3:].tobytes()]
    assert e.join([2, 0]).range_basis.tobytes() == q[:, [0, 1, 3, 4]].tobytes()
    assert e.completeness_defect() <= 1e-14 and e.orthogonality_defect() <= 1e-14
    same = measure_from_pairs(2, 5, atoms_of(e))
    assert same.points().tobytes() == e.points().tobytes()
    assert same.basis.tobytes() == e.basis.tobytes() and same.ranks.tolist() == [2, 1, 2]

    empty = JointSpectralMeasure(np.empty((0, 2)), np.empty((3, 0)), [])
    assert empty.n_atoms() == 0 and empty.points().shape == (0, 2) and empty.dim == 3
    assert atoms_of(empty) == [] and empty.join([]).rank == 0
    assert measure_from_pairs(2, 3, []).basis.shape == (3, 0)


def test_monomial_overflow_names_alpha():
    t = validate_tuple([np.diag([1.5e308, 0.5e308]), np.diag([1.0, 2.0])])
    assert np.array_equal(np.diag(monomial(t, (1, 0)).matrix).real, [1.5e308, 0.5e308])
    with pytest.raises(ParameterError, match=r"alpha=\(2, 0\)"):
        monomial(t, (2, 0))
    with pytest.raises(ParameterError, match=r"alpha=\(2, 0\)"):
        olson_necessity_scan(t, t, alpha_max=2)


def test_constructors_leave_the_input_arrays_writable():
    b = np.eye(2, dtype=np.complex128)
    p = Projection(b)
    points, ranks = np.array([[0.0], [1.0]]), np.array([1, 1], dtype=np.intp)
    e = JointSpectralMeasure(points, b, ranks)
    assert b.flags.writeable and points.flags.writeable and ranks.flags.writeable
    b[0, 0] = points[0, 0] = ranks[0] = 7
    assert p.range_basis[0, 0] == 1.0 and e.basis[0, 0] == 1.0
    assert e.points()[0, 0] == 0.0 and e.ranks[0] == 1
    assert not (p.range_basis.flags.writeable or e.basis.flags.writeable)


def count_eigvalsh(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or real(m))
    return calls


def test_a_holding_scan_solves_no_eigenvalue_problem(monkeypatch):
    a, b = positive_ordered_pair(fresh_rng(1101), 24, 2)
    calls = count_eigvalsh(monkeypatch)
    verdict = olson_necessity_scan(a, b, alpha_max=SCAN_DEPTH)
    assert verdict.holds and verdict.defect == 0.0
    assert calls == []


@pytest.mark.parametrize("depth, holds, solves", [
    (0.4, True, 0),   # Cholesky certifies
    (0.9, True, 1),   # below -tol/2 * scale: eigvalsh decides, and it holds
    (1.1, False, 1),
    (2.0, False, 1),
])
def test_scan_near_the_threshold_matches_the_eager_reference(monkeypatch, depth, holds,
                                                             solves):
    # alpha = (1,) has B - A = Q diag(-depth * tol, 0, 0, 0) Q^H and scale 1,
    # so lambda_min = -depth * tol * scale; alpha = (0,) has B^0 - A^0 = 0
    q = random_unitary(fresh_rng(1102), 4)
    eigs = np.array([[1.0, 0.75, 0.5, 0.25]])
    a = tuple_from_eigs(q, eigs)
    b = tuple_from_eigs(q, eigs - np.array([[depth * TOL, 0.0, 0.0, 0.0]]))
    want = monomial_scan_eager(diagonalize_per_atom(a), diagonalize_per_atom(b),
                               multi_indices(1, 1))
    calls = count_eigvalsh(monkeypatch)
    got = olson_necessity_scan(a, b, alpha_max=1)
    assert (got.holds, got.witness) == want[:2] == (holds, None if holds else (1,))
    assert len(calls) == solves
    if solves:
        assert abs(got.defect - want[2]) <= 1e-14
    assert abs(want[2] - depth * TOL) <= 1e-14
