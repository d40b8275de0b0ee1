"""The array form of the joint spectral measure against per-atom references.

The measure stores its points, one basis with columns grouped by atom, and
the atom ranks; spectral integrals, the monomial scan and the measure
axioms are single products over those arrays. The references in conftest
rebuild each from (point, basis) pairs one atom at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    calculus_per_atom,
    diagonalize_per_atom,
    distribution_order_stacked,
    fresh_rng,
    measure_defects_per_atom,
    monomial_scan_eager,
    random_unitary,
    tuple_from_eigs,
)
from specorder.errors import ParameterError
from specorder.functions import sum_fn
from specorder.linalg import Projection
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


@settings(max_examples=80)
@given(pair=tuple_pairs())
def test_arrays_match_the_per_atom_reference(pair):
    a, b = pair
    for t in (a, b):
        e, ref = joint_measure(t), diagonalize_per_atom(t)
        assert e.points().tobytes() == np.array([pt for pt, _ in ref]).tobytes()
        assert e.basis.tobytes() == np.hstack([v for _, v in ref]).tobytes()
        assert e.ranks.tolist() == [v.shape[1] for _, v in ref]
        assert not e.points().flags.writeable and e.points() is e.points()

        bound = 1e-12 * scale_of(t)
        values = sum_fn(t.kappa).on_points(e.points())
        got = calculus_scalar(e, sum_fn(t.kappa)).matrix
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
        assert abs(got.defect - want[2]) <= 1e-12 * scale_of(x) ** SCAN_DEPTH + 1e-12 * want[2]


def test_scan_stops_at_the_first_failing_alpha(monkeypatch):
    import specorder.order as order

    calls = []
    real = order.calculus_scalar
    monkeypatch.setattr(order, "calculus_scalar", lambda e, phi: calls.append(1) or real(e, phi))
    a = validate_tuple([np.diag([2.0, 1.0]), np.diag([1.0, 1.0])])
    b = validate_tuple([np.diag([1.0, 2.0]), np.diag([1.0, 1.0])])
    verdict = olson_necessity_scan(a, b, alpha_max=8)
    # (0, 0), (0, 1), (1, 0): the third alpha fails, two monomials each
    assert verdict.witness == (1, 0)
    assert len(calls) == 6


def test_keyword_constructor_and_views_round_trip():
    rng = fresh_rng(808)
    q = random_unitary(rng, 5)
    atoms = (((0.0, 1.0), Projection(q[:, :2])), ((0.5, -1.0), Projection(q[:, 2:3])),
             ((2.0, 0.0), Projection(q[:, 3:])))
    e = JointSpectralMeasure(kappa=2, dim=5, atoms=atoms)
    assert e.ranks.tolist() == [2, 1, 2] and e.owner.tolist() == [0, 0, 1, 2, 2]
    assert e.basis.tobytes() == q.tobytes()
    assert [pt for pt, _ in e.atoms] == [pt for pt, _ in atoms]
    assert all(p.range_basis.tobytes() == w.range_basis.tobytes()
               for p, (_, w) in zip(e.projections(), atoms))
    assert e.join([2, 0]).range_basis.tobytes() == q[:, [0, 1, 3, 4]].tobytes()
    assert e.completeness_defect() <= 1e-14 and e.orthogonality_defect() <= 1e-14

    empty = JointSpectralMeasure(kappa=2, dim=3, atoms=())
    assert empty.n_atoms() == 0 and empty.points().shape == (0, 2)
    assert empty.atoms == () and empty.projections() == []
    assert empty.join([]).rank == 0


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
    e = JointSpectralMeasure.from_arrays(points, b, ranks)
    assert b.flags.writeable and points.flags.writeable and ranks.flags.writeable
    b[0, 0] = points[0, 0] = ranks[0] = 7
    assert p.range_basis[0, 0] == 1.0 and e.basis[0, 0] == 1.0
    assert e.points()[0, 0] == 0.0 and e.ranks[0] == 1
    assert not (p.range_basis.flags.writeable or e.basis.flags.writeable)
