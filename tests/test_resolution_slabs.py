"""The span-wise resolution pass against the per-cell references.

A step function is one basis U and a bool mask per grid point, each value
U diag(m_g) U^H. ``validate_resolution`` takes every cell's corner sum as
U diag(delta) U^H, delta the mixed difference of the masks in integers,
skips the cells with delta = 0 and decides each other cell in the span of
the columns S its delta touches: a reduced QR of U_S and the eigenvalues of
a |S| x |S| (at most n x n) matrix, batched over the cells of one |S|.
Orthogonality is screened by one Gram product of the cells' eigenvalue-one
bases; only pairs the screen cannot clear are formed and multiplied out.
``reconstruct_measure`` reuses the pass's eigenvectors. The references in
conftest form every corner sum from the grid values' matrices, or every
live cell's n x n difference from the masks, decompose each cell and
multiply every pair; both must reach the same verdicts, boxes and
messages, and rebuild the same atoms.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    atoms_of,
    corner_sum_index,
    corner_sum_reconstruct_measure,
    corner_sum_validate_resolution,
    dense_cell_validate_resolution,
    fresh_rng,
    random_unitary,
    tuple_from_eigs,
)
import specorder.resolution as resolution
from specorder.errors import ValidationError
from specorder.linalg import TOL, Projection
from specorder.resolution import (
    ProjValuedStepFunction,
    difference_box,
    reconstruct_measure,
    validate_resolution,
)
from specorder.spectral import joint_measure


def random_measure(rng, kappa: int, n: int, levels: int):
    """Joint measure of a random tuple; integer eigenvalues below ``levels``
    tie, 0 draws a continuous spectrum."""
    q = random_unitary(rng, n)
    if levels:
        eigs = rng.integers(0, levels, size=(kappa, n)).astype(np.float64)
    else:
        eigs = rng.uniform(-1.0, 1.0, size=(kappa, n))
    return joint_measure(tuple_from_eigs(q, eigs))


def random_step_function(rng, kappa: int, n: int, levels: int) -> ProjValuedStepFunction:
    return ProjValuedStepFunction.from_measure(random_measure(rng, kappa, n, levels))


def corrupted(rng, f: ProjValuedStepFunction, swaps: int) -> ProjValuedStepFunction:
    """Swap grid values for random projections of rank 0..n."""
    for _ in range(swaps):
        idx = tuple(int(rng.integers(0, a.size)) for a in f.axes)
        rank = int(rng.integers(0, f.dim + 1))
        f = f.replace_value(idx, Projection(random_unitary(rng, f.dim)[:, :rank]))
    return f


def overlapping_cells(rng, n: int, steps: int) -> ProjValuedStepFunction:
    """1-D function whose cells are rank-one projections u_g u_g* (or zero on
    repeated steps) along unit vectors that need not be orthogonal."""
    eye = np.eye(n, dtype=np.complex128)
    columns, values = [], np.empty((steps,), dtype=object)
    for g in range(steps):
        if not columns or rng.random() < 0.8:
            if rng.random() < 0.5:
                u = eye[:, int(rng.integers(0, n))]
            else:
                u = rng.normal(size=n) + 1j * rng.normal(size=n)
                u = u / np.linalg.norm(u)
            columns.append(u)
        values[g] = Projection(np.stack(columns, axis=1))
    return ProjValuedStepFunction.from_values((np.arange(steps, dtype=np.float64),), values)


def regridded(f: ProjValuedStepFunction) -> ProjValuedStepFunction:
    """The same values, each on its own columns: a cell's mask difference
    then touches the columns of its 2^kappa corners, more than n of them
    once two corners have full rank."""
    values = np.empty(f.masks.shape[:-1], dtype=object)
    for idx in np.ndindex(values.shape):
        values[idx] = f.at_index(idx)
    return ProjValuedStepFunction.from_values(f.axes, values)


@st.composite
def step_functions(draw):
    rng = fresh_rng(7000 + draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(("measure", "corrupted", "overlapping", "regridded")))
    n = draw(st.integers(1, 7))
    if kind == "overlapping":
        return overlapping_cells(rng, n, draw(st.integers(1, 6)))
    f = random_step_function(rng, draw(st.integers(1, 3)), n, draw(st.integers(0, 3)))
    if kind == "corrupted":
        f = corrupted(rng, f, draw(st.integers(1, 2)))
    elif kind == "regridded":
        f = regridded(f)
    return f


@given(salt=st.integers(0, 10_000), kappa=st.integers(1, 3), n=st.integers(1, 7),
       levels=st.integers(0, 3))
def test_from_measure_matches_distribution_bitwise(salt, kappa, n, levels):
    e = random_measure(fresh_rng(salt), kappa, n, levels)
    f = ProjValuedStepFunction.from_measure(e)
    for idx in np.ndindex(f.masks.shape[:-1]):
        want = e.distribution([a[i] for a, i in zip(f.axes, idx)])
        assert f.at_index(idx).range_basis.shape == want.range_basis.shape
        assert f.at_index(idx).range_basis.tobytes() == want.range_basis.tobytes()


@given(salt=st.integers(0, 10_000), kappa=st.integers(1, 3), n=st.integers(1, 7),
       levels=st.integers(0, 3))
def test_from_values_of_the_grid_matches_from_measure(salt, kappa, n, levels):
    e = random_measure(fresh_rng(salt), kappa, n, levels)
    f = ProjValuedStepFunction.from_measure(e)
    assert np.shares_memory(f.basis, e.basis)
    g = regridded(f)
    assert validate_resolution(g) == validate_resolution(f)
    assert reconstruct_measure(g).points().tobytes() == reconstruct_measure(f).points().tobytes()


@given(f=step_functions(), salt=st.integers(0, 10_000))
def test_difference_box_matches_the_dense_corner_sum(f, salt):
    # boxes from any grid position, or below the grid, to any position at or
    # above it, or past the top; the masks' integer corner sum against the
    # sum of the corners' dense projection matrices
    rng = fresh_rng(salt)
    for _ in range(4):
        lo = [int(rng.integers(-1, a.size)) for a in f.axes]
        hi = [int(rng.integers(i, a.size)) if i >= 0 else int(rng.integers(-1, a.size))
              for i, a in zip(lo, f.axes)]
        a = [float(ax[i]) if i >= 0 else -np.inf for i, ax in zip(lo, f.axes)]
        b = [np.inf if i == ax.size - 1 and rng.random() < 0.5 else
             float(ax[i]) if i >= 0 else float(ax[0]) - 1.0 for i, ax in zip(hi, f.axes)]
        want = corner_sum_index(f, lo, hi)
        got = difference_box(f, a, b).matrix
        assert np.allclose(got, (want + want.conj().T) / 2.0, atol=1e-12, rtol=0.0)


@given(salt=st.integers(0, 10_000), kappa=st.integers(1, 3), n=st.integers(1, 7))
def test_replace_value_leaves_the_other_values_bitwise(salt, kappa, n):
    rng = fresh_rng(salt)
    f = random_step_function(rng, kappa, n, 2)
    target = tuple(int(rng.integers(0, a.size)) for a in f.axes)
    p = Projection(random_unitary(rng, n)[:, :int(rng.integers(0, n + 1))])
    g = f.replace_value(target, p)
    assert g.at_index(target).range_basis.tobytes() == p.range_basis.tobytes()
    for idx in np.ndindex(f.masks.shape[:-1]):
        if idx != target:
            assert g.at_index(idx).range_basis.tobytes() == f.at_index(idx).range_basis.tobytes()


@pytest.mark.parametrize("kappa", [7, 8])
def test_mask_differences_stay_exact(kappa):
    # parity masks on {0,1}^kappa: the top cell's mixed difference is
    # (-1)^kappa 2^(kappa-1), 128 at kappa=8, one past int8
    masks = (np.indices((2,) * kappa).sum(axis=0) % 2 == 0)[..., None]
    f = ProjValuedStepFunction((np.arange(2.0),) * kappa, np.ones((1, 1)), masks)
    top = (-1) ** kappa * 2 ** (kappa - 1)
    box, reason = validate_resolution(f).cell_violations[-1]
    assert box == ((0.0,) * kappa, (1.0,) * kappa)
    assert reason == f"eigenvalues off {{0,1}} by {min(abs(top), abs(top - 1)):.3e}"


@settings(max_examples=150)
@given(f=step_functions())
def test_slab_pass_matches_corner_sum_reference(f):
    got, ref = validate_resolution(f), corner_sum_validate_resolution(f)
    assert got.axiom_a == ref.axiom_a
    assert got.axiom_c == ref.axiom_c
    assert got.identity_defect == ref.identity_defect
    assert got.cell_violations == ref.cell_violations
    assert ([v[:2] for v in got.orthogonality_violations]
            == [v[:2] for v in ref.orthogonality_violations])
    for (_, _, cross), (_, _, want) in zip(got.orthogonality_violations,
                                           ref.orthogonality_violations):
        assert abs(cross - want) <= 1e-12

    if not ref.passed:
        with pytest.raises(ValidationError) as info:
            reconstruct_measure(f)
        assert info.value.report == got
        return
    back, want = reconstruct_measure(f), corner_sum_reconstruct_measure(f)
    assert back.points().tobytes() == want.points().tobytes()
    for (_, p), (_, q) in zip(atoms_of(back), atoms_of(want)):
        assert p.rank == q.rank
        assert np.linalg.norm(p.matrix - q.matrix) <= 1e-12


@settings(max_examples=150)
@given(f=step_functions())
# kappa=2, n=3: the top cell's difference spans the 3 + 2 + 2 + 1 columns of its corners
@example(f=regridded(random_step_function(fresh_rng(7), 2, 3, 0)))
def test_span_pass_matches_dense_cell_reference(f):
    got, ref = validate_resolution(f), dense_cell_validate_resolution(f)
    assert (got.axiom_a, got.axiom_c) == (ref.axiom_a, ref.axiom_c)
    assert got.identity_defect == ref.identity_defect
    assert got.cell_violations == ref.cell_violations
    assert ([v[:2] for v in got.orthogonality_violations]
            == [v[:2] for v in ref.orthogonality_violations])
    for (_, _, cross), (_, _, want) in zip(got.orthogonality_violations,
                                           ref.orthogonality_violations):
        assert abs(cross - want) <= 1e-12
    assert [pt for pt, _ in got._atoms] == [pt for pt, _ in ref._atoms]
    for (_, v), (_, w) in zip(got._atoms, ref._atoms):
        assert v.shape == w.shape
        assert np.max(np.abs(v @ v.conj().T - w @ w.conj().T), initial=0.0) <= 1e-12


@pytest.mark.parametrize("levels", [0, 3])
def test_cells_are_decomposed_in_their_own_span(monkeypatch, levels):
    # kappa=2, n=64: a simple spectrum needs only 1 x 1 eigenproblems, a
    # degenerate one none larger than its largest atom
    e = random_measure(fresh_rng(4545), 2, 64, levels)
    f = ProjValuedStepFunction.from_measure(e)
    shapes, real = [], np.linalg.eigh
    monkeypatch.setattr(resolution.np.linalg, "eigh",
                        lambda a, *args, **kw: shapes.append(a.shape[-2:]) or real(a, *args, **kw))
    back = reconstruct_measure(f)
    assert back.points().tobytes() == e.points().tobytes()
    assert shapes and max(max(s) for s in shapes) <= int(e.ranks.max())
    if levels == 0:
        assert e.n_atoms() == 64 and set(shapes) == {(1, 1)}


def test_round_trip_memory_stays_within_a_few_slabs():
    # kappa=2, n=40: a stack of every cell would take G * n^2 * 16 bytes
    rng = fresh_rng(4242)
    f = random_step_function(rng, 2, 40, 0)
    full_stack = f.masks[..., 0].size * f.dim ** 2 * 16
    tracemalloc.start()
    try:
        back = reconstruct_measure(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n_atoms() == 40
    assert peak < full_stack / 4


@pytest.mark.parametrize("overlap, reported", [(2.0, True), (0.5, False)])
def test_screen_reports_cells_overlapping_past_tol(overlap, reported):
    # cells e1 e1* and v v* with |e1* v| = overlap * tol; the top corner is I,
    # so the last cell I - e1 e1* - v v* has eigenvalues +-overlap * tol
    c = overlap * TOL
    v = np.array([[c], [np.sqrt(1.0 - c * c)]], dtype=np.complex128)
    values = np.empty((2, 2), dtype=object)
    values[0, 0], values[0, 1] = Projection.zero(2), Projection(v)
    values[1, 0], values[1, 1] = Projection(np.eye(2)[:, :1]), Projection.identity(2)
    f = ProjValuedStepFunction.from_values((np.arange(2.0), np.arange(2.0)), values)
    got, ref = validate_resolution(f), corner_sum_validate_resolution(f)
    assert got.orthogonality_violations == ref.orthogonality_violations
    assert bool(got.orthogonality_violations) is reported
    if reported:
        (_, _, cross), = got.orthogonality_violations
        assert abs(cross - c) <= 1e-15


def test_valid_round_trip_multiplies_no_pair(monkeypatch):
    products = []
    real = resolution._cross_norms
    monkeypatch.setattr(resolution, "_cross_norms",
                        lambda d, others: products.append(len(others)) or real(d, others))
    f = random_step_function(fresh_rng(4343), 2, 16, 0)
    back = reconstruct_measure(f)
    assert back.n_atoms() == 16 and products == []
