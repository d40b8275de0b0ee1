"""Resolutions of the identity: reconstructing a measure from its distribution
function.

A projection-valued step function F on a finite grid stands in for the joint
distribution function of an atomic measure: right-continuous by
representation, zero below the grid, constant past its top corner, each
value a mask over one shared basis. The alternating corner sum over a box
recovers the measure of that half-open box; when every cell's difference is
a projection, the nonzero cells are mutually orthogonal, and the full-grid
difference is the identity, the cells assemble into a joint spectral measure
and the map F -> measure inverts taking distribution functions. Each cell is
decided in the span of the few basis columns its mask difference touches, so
a simple spectrum costs one 1 x 1 eigenproblem per atom, not one n x n
eigendecomposition per cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, OrderError, ValidationError
from .linalg import (
    TOL,
    HermitianOperator,
    Projection,
    _normalize_columns,
    as_point,
    check_tol,
    sorted_distinct,
)
from .spectral import JointSpectralMeasure

# Complex entries per block of the resolution check's orthogonality screen:
# about 1 MB however many nonzero cells there are.
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class ProjValuedStepFunction:
    """Grid-sampled projection-valued function, right-continuous steps.

    ``axes`` holds each axis's strictly increasing finite step coordinates,
    ``basis`` an n x R array of columns and ``masks`` a bool array of shape
    grid + (R,): the value at a grid point is the projection onto the columns
    its mask selects, which must be orthonormal. Below the grid in any axis
    the value is the zero projection by convention; beyond the top it is the
    top-corner value.
    """

    axes: tuple[np.ndarray, ...]
    basis: np.ndarray
    masks: np.ndarray

    def __post_init__(self):
        for a in self.axes:
            if a.size == 0:
                raise DimensionError("each axis needs at least one step coordinate")
            if not np.all(np.isfinite(a)) or np.any(np.diff(a) <= 0):
                raise ValueError("axis coordinates must be finite and strictly increasing")
        if self.basis.ndim != 2:
            raise DimensionError(f"basis must be 2-d, got shape {self.basis.shape}")
        want = tuple(a.size for a in self.axes) + self.basis.shape[1:]
        if self.masks.dtype != bool or self.masks.shape != want:
            raise DimensionError(
                f"masks of dtype {self.masks.dtype} and shape {self.masks.shape}, "
                f"expected bool of shape {want}")

    @property
    def kappa(self) -> int:
        return len(self.axes)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_measure(cls, e: JointSpectralMeasure) -> "ProjValuedStepFunction":
        pts = e.points()
        axes = tuple(sorted_distinct(pts[:, j]) for j in range(e.kappa))
        shape = tuple(a.size for a in axes)
        # atom a lies below grid point g exactly when its axis positions are <= g's
        pos = np.stack([np.searchsorted(a, pts[:, j]) for j, a in enumerate(axes)], axis=1)
        grid = np.indices(shape).reshape(e.kappa, -1).T
        below = np.all(pos[None, :, :] <= grid[:, None, :], axis=2)
        return cls(axes, e.basis, below[:, e.owner].reshape(shape + e.basis.shape[1:]))

    @classmethod
    def from_values(cls, axes, values) -> "ProjValuedStepFunction":
        """Step function with the given Projection at every grid point (object
        array indexed by per-axis positions), each on its own columns; the
        values must act on one dimension."""
        dims = sorted({p.dim for p in values.flat})
        if len(dims) != 1:
            raise DimensionError(f"the values act on dimensions {dims}, not on one")
        pairs = [(idx, p.range_basis) for idx, p in np.ndenumerate(values)]
        _, basis, ranks = _stack(values.ndim, dims[0], pairs)
        masks = np.repeat(np.arange(values.size), ranks) == np.arange(values.size)[:, None]
        return cls(axes, basis, masks.reshape(values.shape + (-1,)))

    def _grid_index(self, idx, lowest: int) -> tuple:
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.kappa:
            raise DimensionError(f"index length {len(idx)} for kappa={self.kappa}")
        if any(i < lowest or i >= a.size for i, a in zip(idx, self.axes)):
            raise IndexError(f"grid index {idx} out of range")
        return idx

    def at_index(self, idx) -> Projection:
        """Value at integer grid positions; -1 in any axis means below the grid."""
        idx = self._grid_index(idx, -1)
        if -1 in idx:
            return Projection.zero(self.dim)
        return Projection(self.basis[:, self.masks[idx]])

    def at(self, x) -> Projection:
        """Right-continuous evaluation at an arbitrary point (+-inf allowed)."""
        x = as_point(x, self.kappa)
        idx = [int(np.searchsorted(a, v, side="right")) - 1 for a, v in zip(self.axes, x)]
        return self.at_index(idx)

    def replace_value(self, idx, proj: Projection) -> "ProjValuedStepFunction":
        """Copy with one grid value swapped for the projection onto appended
        columns; used to build corrupted instances."""
        idx = self._grid_index(idx, 0)
        if proj.dim != self.dim:
            raise DimensionError(f"projection on dimension {proj.dim}, expected {self.dim}")
        r = self.basis.shape[1]
        masks = np.pad(self.masks, [(0, 0)] * self.kappa + [(0, proj.rank)])
        masks[idx] = np.arange(r + proj.rank) >= r
        return ProjValuedStepFunction(self.axes, np.hstack([self.basis, proj.range_basis]),
                                      masks)

    def top_corner(self) -> Projection:
        return self.at_index([a.size - 1 for a in self.axes])

    def __repr__(self):
        shape = tuple(a.size for a in self.axes)
        return f"ProjValuedStepFunction(kappa={self.kappa}, dim={self.dim}, grid={shape})"


def _stack(kappa: int, dim: int, pairs) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Points, stacked bases and ranks of (point, basis) pairs, in the given order."""
    points = np.array([pt for pt, _ in pairs], dtype=np.float64).reshape(len(pairs), kappa)
    bases = [np.zeros((dim, 0), dtype=np.complex128)] + [b for _, b in pairs]
    return points, np.hstack(bases), [b.shape[1] for b in bases[1:]]


def difference_box(f: ProjValuedStepFunction, a, b) -> HermitianOperator:
    """Measure of the half-open box (a, b] via the 2^kappa corner sum.

    The corners' masks are summed with signs in integers, a corner below
    the grid counting as zero, and the difference is U_S diag(delta_S) U_S^H
    as validate_resolution reads a cell. Requires a <= b componentwise, so
    no NaN (OrderError otherwise); -inf entries in ``a`` reach below the
    grid and +inf entries in ``b`` past its top.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (f.kappa,) or b.shape != (f.kappa,):
        raise DimensionError(f"corners must have shape ({f.kappa},)")
    if not np.all(a <= b):
        raise OrderError(f"box corners not ordered: {tuple(a)} !<= {tuple(b)}")
    lo = [int(np.searchsorted(ax, v, side="right")) - 1 for ax, v in zip(f.axes, a)]
    hi = [int(np.searchsorted(ax, v, side="right")) - 1 for ax, v in zip(f.axes, b)]
    delta = np.zeros(f.basis.shape[1], dtype=np.int64)
    for picks in itertools.product((0, 1), repeat=f.kappa):
        corner = tuple(l if pick else h for pick, l, h in zip(picks, lo, hi))
        if -1 not in corner:
            delta += (-1) ** sum(picks) * f.masks[corner]
    m = _difference(f.basis, delta)
    return HermitianOperator((m + m.conj().T) / 2.0, 0.0)


@dataclass(frozen=True)
class ResolutionReport:
    """Axiom check outcome for a projection-valued step function.

    Axiom A (box differences are projections) is decided on grid cells plus
    pairwise orthogonality of the nonzero cell differences; finite additivity
    then extends it to every box. Axiom B (right-continuity) holds by
    representation. Axiom C asks the top corner to be the identity.
    """

    axiom_a: bool
    cell_violations: tuple
    orthogonality_violations: tuple
    axiom_b: bool
    axiom_c: bool
    identity_defect: float
    # (top corner, eigenvectors at eigenvalue one) of each nonzero cell, row-major
    _atoms: tuple = field(default=(), repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.axiom_a and self.axiom_b and self.axiom_c

    def __str__(self):
        bits = [f"A={'ok' if self.axiom_a else 'FAIL'}",
                f"B={'ok' if self.axiom_b else 'FAIL'}",
                f"C={'ok' if self.axiom_c else 'FAIL'} "
                f"(identity defect {self.identity_defect:.2e})"]
        if self.cell_violations:
            bits.append(f"first bad box {self.cell_violations[0][0]}")
        return ", ".join(bits)


def _cell_box(f: ProjValuedStepFunction, idx) -> tuple:
    """Float box (lo, hi) of the grid cell whose top corner has indices idx."""
    lo = tuple(float(a[i - 1]) if i > 0 else float("-inf") for a, i in zip(f.axes, idx))
    hi = tuple(float(a[i]) for a, i in zip(f.axes, idx))
    return lo, hi


def _cross_norms(d: np.ndarray, others: np.ndarray) -> np.ndarray:
    """||d @ o||_F for each matrix o of a stack: the exact orthogonality test."""
    return np.linalg.norm(d @ others, axis=(1, 2))


def _difference(basis: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The n x n cell difference U_S diag(delta_S) U_S^H, S the columns where
    the cell's mask difference delta is nonzero."""
    columns = np.flatnonzero(delta)
    b = basis[:, columns]
    return (b * delta[columns]) @ b.conj().T


def _orthogonality_violations(cells, basis: np.ndarray, tol: float) -> list:
    """Pairs (i < j) of nonzero cells with ||d_i d_j||_F > tol, in row-major
    order, from cells (box, delta, V, dist): delta the mask difference whose
    n x n matrix d is formed by _difference, V its eigenvalue-one basis and
    dist its eigenvalues' distance from {0, 1}.

    d_k is within dist_k of V_k V_k^H in spectral norm, so ||d_i d_j||_F is
    at most ||V_i^H V_j||_F + dist_i sqrt(r_j) + dist_j sqrt(r_i) +
    dist_i dist_j sqrt(n), r the ranks. One product of the stacked bases,
    in blocks of _CHUNK_ENTRIES, gives every ||V_i^H V_j||_F; only pairs
    whose bound exceeds tol / 2 are formed and multiplied out.
    """
    if len(cells) < 2:
        return []
    boxes, deltas, bases, dist = zip(*cells)
    ranks = np.array([b.shape[1] for b in bases])
    starts = np.cumsum(ranks) - ranks
    dist, root = np.array(dist), np.sqrt(ranks)
    v = np.hstack(bases)
    step = max(1, _CHUNK_ENTRIES // (v.shape[1] * int(ranks.max())))
    out = []
    for lo in range(0, len(cells), step):
        hi = min(len(cells), lo + step)
        g = np.abs(v[:, starts[lo]:starts[hi - 1] + ranks[hi - 1]].conj().T @ v) ** 2
        g = np.add.reduceat(np.add.reduceat(g, starts[lo:hi] - starts[lo], axis=0),
                            starts, axis=1)
        di = dist[lo:hi, None]
        bound = (np.sqrt(g) + di * root + dist * root[lo:hi, None]
                 + di * dist * np.sqrt(basis.shape[0]))
        rows, cols = np.nonzero(np.triu(bound > tol / 2.0, k=lo + 1))
        for i in sorted_distinct(rows):
            js = cols[rows == i]
            i = lo + int(i)
            others = np.stack([_difference(basis, deltas[j]) for j in js])
            cross = _cross_norms(_difference(basis, deltas[i]), others)
            out += [(boxes[i], boxes[j], float(c)) for j, c in zip(js, cross) if c > tol]
    return out


def validate_resolution(f: ProjValuedStepFunction,
                        tol: float = TOL) -> ResolutionReport:
    """Check the resolution axioms, locating every violating cell box.

    Each cell's corner sum is U diag(delta) U^H, delta the mixed difference
    of the masks, exact in integers: a cell with delta = 0 is zero. Any
    other cell is decided in the span of the columns S where its delta is
    nonzero: with the reduced QR factorization U_S = Q R, the difference is
    Q (R diag(delta_S) R^H) Q^H, so its spectrum is that of the small
    Hermitian matrix R diag(delta_S) R^H plus n - rank(Q) zeros, and Q y
    carries the eigenvectors y. The columns need not be orthonormal. Cells
    with the same |S| share one batched qr and one batched eigh; a cell
    never gives a problem larger than n x n. Orthogonality is screened by
    one Gram product of the cells' eigenvalue-one bases, and only the pairs
    the screen cannot clear are formed as n x n matrices and multiplied out
    (see _orthogonality_violations).
    """
    tol = check_tol(tol)
    # a bool mask's mixed difference lies in [-2^(kappa-1), 2^(kappa-1)]: the
    # smallest integer type holding -2^kappa keeps it exact
    delta = f.masks.astype(np.min_scalar_type(-(1 << f.kappa)))
    for axis in range(f.kappa):
        delta = np.diff(delta, axis=axis, prepend=delta.dtype.type(0))
    delta = delta.reshape(-1, delta.shape[-1])
    live = np.flatnonzero(np.any(delta, axis=-1))
    delta = delta[live]
    sizes = np.count_nonzero(delta, axis=1)
    dist, peak, bases = np.empty(live.size), np.empty(live.size), [None] * live.size
    for size in sorted_distinct(sizes):
        group = np.flatnonzero(sizes == size)
        columns = np.nonzero(delta[group])[1].reshape(group.size, size)
        weights = np.take_along_axis(delta[group], columns, axis=1)
        q, r = np.linalg.qr(f.basis.T[columns].swapaxes(1, 2))
        w, y = np.linalg.eigh((r * weights[:, None, :]) @ r.conj().swapaxes(1, 2))
        v = _normalize_columns(q @ y)
        dist[group] = np.max(np.minimum(np.abs(w), np.abs(w - 1.0)), axis=1)
        peak[group] = np.max(np.abs(w), axis=1)
        for k, cell in enumerate(group):
            bases[cell] = v[k][:, w[k] > 0.5]

    cell_violations, cells = [], []
    for k, cell in enumerate(zip(*np.unravel_index(live, f.masks.shape[:-1]))):
        box = _cell_box(f, cell)
        if dist[k] > tol:
            cell_violations.append((box, f"eigenvalues off {{0,1}} by {dist[k]:.3e}"))
        elif peak[k] > tol:
            cells.append((box, delta[k], bases[k], float(dist[k])))

    orthogonality_violations = _orthogonality_violations(cells, f.basis, tol)
    top = f.top_corner().matrix
    identity_defect = float(np.max(np.abs(top - np.eye(f.dim))))
    return ResolutionReport(
        axiom_a=not cell_violations and not orthogonality_violations,
        cell_violations=tuple(cell_violations),
        orthogonality_violations=tuple(orthogonality_violations),
        axiom_b=True,
        axiom_c=identity_defect <= tol,
        identity_defect=identity_defect,
        _atoms=tuple((box[1], basis) for box, _, basis, _ in cells),
    )


def reconstruct_measure(f: ProjValuedStepFunction,
                        tol: float = TOL) -> JointSpectralMeasure:
    """Atoms from nonzero cell differences; inverse of taking distributions.

    Each surviving cell contributes an atom at its top corner whose
    projection comes from the difference's eigenvectors at eigenvalue one,
    as the validation found them; row-major cells come in lexicographic order
    of their top corners. Raises ValidationError (carrying the report) when
    the axioms fail.
    """
    report = validate_resolution(f, tol=tol)
    if not report.passed:
        raise ValidationError(report)
    return JointSpectralMeasure(*_stack(f.kappa, f.dim, report._atoms))
