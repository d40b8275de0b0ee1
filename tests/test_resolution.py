import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import atoms_of, fresh_rng, random_commuting
from specorder.errors import DimensionError, OrderError, ParameterError, ValidationError
from specorder.linalg import Projection
from specorder.resolution import (
    ProjValuedStepFunction,
    difference_box,
    reconstruct_measure,
    validate_resolution,
)
from specorder.spectral import JointSpectralMeasure, joint_measure, validate_tuple


def staircase():
    # diagonal pair with atoms e1 at (0,0), e2 at (0,1), e3 at (1,1)
    t = validate_tuple([np.diag([0.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0])])
    return joint_measure(t)


def proj(*cols):
    return Projection(np.stack([np.asarray(c, dtype=np.complex128) for c in cols],
                               axis=1))


def test_from_measure_grid_and_validation():
    f = ProjValuedStepFunction.from_measure(staircase())
    assert f.kappa == 2 and f.dim == 3
    assert tuple(a.size for a in f.axes) == (2, 2)
    report = validate_resolution(f)
    assert report.passed
    assert "A=ok" in str(report)


def test_atomless_measure_has_no_step_function():
    # the mask reshape refused zero atoms with numpy's own ValueError
    for e in (JointSpectralMeasure(np.empty((0, 2)), np.empty((3, 0)), []),
              joint_measure(validate_tuple([np.zeros((0, 0))] * 2))):
        with pytest.raises(DimensionError, match="at least one step coordinate"):
            ProjValuedStepFunction.from_measure(e)


def test_constructor_gates():
    basis = np.eye(2, dtype=np.complex128)
    with pytest.raises(DimensionError):
        ProjValuedStepFunction(axes=(np.array([0.0, 1.0]),), basis=basis,
                               masks=np.zeros((3, 2), dtype=bool))
    with pytest.raises(ValueError):
        ProjValuedStepFunction(axes=(np.array([1.0, 1.0]),), basis=basis,
                               masks=np.zeros((2, 2), dtype=bool))
    with pytest.raises(DimensionError):
        ProjValuedStepFunction(axes=(np.array([]),), basis=basis,
                               masks=np.zeros((0, 2), dtype=bool))


def test_constructor_rejects_non_finite_axes():
    # nan <= 0 is false, so a NaN coordinate passed the increasing check
    with pytest.raises(ValueError):
        ProjValuedStepFunction(axes=(np.array([0.0, np.nan]),), basis=np.eye(2),
                               masks=np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        ProjValuedStepFunction(axes=(np.array([0.0, np.inf]),), basis=np.eye(2),
                               masks=np.ones((2, 2), dtype=bool))


def test_constructor_rejects_masks_off_the_grid_or_not_bool():
    axes = (np.array([0.0, 1.0]),)
    with pytest.raises(DimensionError):
        ProjValuedStepFunction(axes=axes, basis=np.eye(2), masks=np.ones((2, 3), dtype=bool))
    with pytest.raises(DimensionError):
        ProjValuedStepFunction(axes=axes, basis=np.eye(2), masks=np.ones((2, 2), dtype=np.int8))


def test_replace_value_rejects_indices_outside_the_grid():
    f = ProjValuedStepFunction.from_measure(staircase())
    e1 = proj([1.0, 0.0, 0.0])
    # -1 means below the grid to at_index; it must not wrap to the top corner
    with pytest.raises(IndexError):
        f.replace_value((-1, 1), e1)
    with pytest.raises(IndexError):
        f.replace_value((0, 2), e1)
    with pytest.raises(DimensionError):
        f.replace_value((0,), e1)


def test_wrong_dimension_projections_are_rejected():
    f = ProjValuedStepFunction.from_measure(staircase())
    with pytest.raises(DimensionError):
        f.replace_value((0, 0), proj([1.0, 0.0]))
    values = np.empty((2,), dtype=object)
    values[0], values[1] = proj([1.0, 0.0]), Projection.identity(3)
    with pytest.raises(DimensionError):
        ProjValuedStepFunction.from_values((np.array([0.0, 1.0]),), values)


def test_evaluation_sentinels():
    f = ProjValuedStepFunction.from_measure(staircase())
    assert f.at((-0.5, 0.0)).rank == 0
    assert f.at((0.0, -np.inf)).rank == 0
    assert f.at((np.inf, np.inf)).rank == 3
    # right-continuous steps: anywhere in [0,1)^2 sees the (0,0) value
    got = f.at((0.3, 0.7))
    assert np.allclose(got.matrix, np.diag([1.0, 0.0, 0.0]))
    assert f.at((5.0, 5.0)).rank == 3


def test_evaluation_refuses_nan_points():
    # NaN lies nowhere on an axis; it was read as past the top corner
    f = ProjValuedStepFunction.from_measure(staircase())
    for x in ((np.nan, np.nan), (0.0, np.nan)):
        with pytest.raises(ParameterError, match="NaN"):
            f.at(x)
    with pytest.raises(DimensionError):
        f.at((0.0,))


def test_index_access_errors():
    f = ProjValuedStepFunction.from_measure(staircase())
    assert f.at_index((-1, 1)).rank == 0
    with pytest.raises(DimensionError):
        f.at_index((0,))
    with pytest.raises(IndexError):
        f.at_index((2, 0))
    with pytest.raises(IndexError):
        f.at_index((0, -2))


def test_difference_box_values():
    f = ProjValuedStepFunction.from_measure(staircase())
    whole = difference_box(f, (-np.inf, -np.inf), (np.inf, np.inf))
    assert np.allclose(whole.matrix, np.eye(3))
    corner = difference_box(f, (0.0, 0.0), (1.0, 1.0))
    assert np.allclose(corner.matrix, np.diag([0.0, 0.0, 1.0]))
    empty = difference_box(f, (1.0, 1.0), (8.0, 9.0))
    assert np.allclose(empty.matrix, 0.0)
    with pytest.raises(OrderError):
        difference_box(f, (1.0, 1.0), (0.0, 0.0))
    with pytest.raises(DimensionError):
        difference_box(f, (0.0,), (1.0, 1.0))


def test_difference_box_rejects_nan_corners():
    f = ProjValuedStepFunction.from_measure(staircase())
    with pytest.raises(OrderError):
        difference_box(f, (np.nan, 0.0), (1.0, 1.0))
    with pytest.raises(OrderError):
        difference_box(f, (0.0, 0.0), (1.0, np.nan))
    upper = difference_box(f, (-np.inf, 0.0), (1.0, np.inf))
    assert np.allclose(upper.matrix, np.diag([0.0, 1.0, 1.0]))


def test_box_additivity_under_tiling():
    f = ProjValuedStepFunction.from_measure(staircase())
    whole = difference_box(f, (-np.inf, -np.inf), (1.0, 1.0))
    left = difference_box(f, (-np.inf, -np.inf), (0.0, 1.0))
    right = difference_box(f, (0.0, -np.inf), (1.0, 1.0))
    assert np.allclose(left.matrix + right.matrix, whole.matrix, atol=1e-12)
    low = difference_box(f, (-np.inf, -np.inf), (1.0, 0.0))
    high = difference_box(f, (-np.inf, 0.0), (1.0, 1.0))
    assert np.allclose(low.matrix + high.matrix, whole.matrix, atol=1e-12)


@given(salt=st.integers(0, 20))
def test_cells_sum_to_identity(salt):
    rng = fresh_rng(900 + salt)
    t = random_commuting(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
    f = ProjValuedStepFunction.from_measure(joint_measure(t))
    total = np.zeros((f.dim, f.dim), dtype=np.complex128)
    shape = tuple(a.size for a in f.axes)
    for idx in itertools.product(*[range(s) for s in shape]):
        lo = tuple(f.axes[j][idx[j] - 1] if idx[j] > 0 else -np.inf
                   for j in range(f.kappa))
        hi = tuple(f.axes[j][idx[j]] for j in range(f.kappa))
        total += difference_box(f, lo, hi).matrix
    assert np.allclose(total, np.eye(f.dim), atol=1e-9)


@given(salt=st.integers(0, 20))
def test_round_trip(salt):
    rng = fresh_rng(1900 + salt)
    t = random_commuting(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
    e = joint_measure(t)
    back = reconstruct_measure(ProjValuedStepFunction.from_measure(e))
    assert back.n_atoms() == e.n_atoms()
    assert np.array_equal(back.points(), e.points())
    for (_, p_new), (_, p_old) in zip(atoms_of(back), atoms_of(e)):
        assert np.linalg.norm(p_new.matrix - p_old.matrix) <= 1e-9


def test_round_trip_is_deterministic():
    e = staircase()
    f = ProjValuedStepFunction.from_measure(e)
    m1 = reconstruct_measure(f)
    m2 = reconstruct_measure(f)
    for (_, p1), (_, p2) in zip(atoms_of(m1), atoms_of(m2)):
        assert np.array_equal(p1.range_basis, p2.range_basis)


def test_single_atom_function_is_identity():
    t = validate_tuple([2.0 * np.eye(3)])
    f = ProjValuedStepFunction.from_measure(joint_measure(t))
    assert tuple(a.size for a in f.axes) == (1,)
    assert f.top_corner().rank == 3
    e = reconstruct_measure(f)
    assert e.n_atoms() == 1
    assert e.points()[0, 0] == 2.0


def test_monotonicity_corruption_is_located():
    f = ProjValuedStepFunction.from_measure(staircase())
    # swapping F(0,0) from span{e1} to span{e2} breaks the cells at
    # (1,0) and (1,1); each difference picks up a -1 eigenvalue
    bad = f.replace_value((0, 0), proj([0.0, 1.0, 0.0]))
    report = validate_resolution(bad)
    assert not report.axiom_a
    assert report.axiom_c
    boxes = [box for box, _ in report.cell_violations]
    assert [b[1] for b in boxes] == [(1.0, 0.0), (1.0, 1.0)]
    assert "eigenvalues off" in report.cell_violations[0][1]
    with pytest.raises(ValidationError) as info:
        reconstruct_measure(bad)
    assert info.value.report.cell_violations == report.cell_violations


def test_top_corner_corruption_fails_axiom_c():
    f = ProjValuedStepFunction.from_measure(staircase())
    bad = f.replace_value((1, 1), proj([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    report = validate_resolution(bad)
    assert not report.axiom_c
    assert report.identity_defect == pytest.approx(1.0)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_validation_refuses_malformed_tol(tol):
    # an infinite tolerance passed every axiom of a corrupted function
    f = ProjValuedStepFunction.from_measure(staircase())
    bad = f.replace_value((1, 1), proj([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
        validate_resolution(bad, tol=tol)


def test_overlapping_cells_fail_orthogonality():
    # cells are exact projections but their ranges overlap; the telescoped
    # top corner is no projection, which axiom C reports separately
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    top = Projection(np.stack([u, v], axis=1))  # matrix uu* + vv*, rank abuse
    values = np.empty((3,), dtype=object)
    values[0] = proj(u)
    values[1] = proj(u)
    values[2] = top
    f = ProjValuedStepFunction.from_values((np.array([0.0, 1.0, 2.0]),), values)
    report = validate_resolution(f)
    assert not report.axiom_a
    assert not report.cell_violations
    (box1, box2, cross), = report.orthogonality_violations
    assert box1[1] == (0.0,) and box2[1] == (2.0,)
    assert cross == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)
    assert not report.axiom_c
