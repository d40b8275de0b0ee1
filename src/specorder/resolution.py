"""Resolutions of the identity: reconstructing a measure from its distribution
function.

A projection-valued step function F on a finite grid stands in for the joint
distribution function of an atomic measure: right-continuous by
representation, zero below the grid, constant past its top corner, each
value a mask over one shared basis. The alternating corner sum over a box
recovers the measure of that half-open box; when every cell's difference is
a projection, the nonzero cells are mutually orthogonal, and the full-grid
difference is the identity, the cells assemble into a joint spectral measure
and the map F -> measure inverts taking distribution functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, OrderError, ValidationError
from .linalg import TOL, HermitianOperator, Projection, _normalize_columns, as_point, check_tol
from .spectral import JointSpectralMeasure, _stack

# Complex entries per group of cells the resolution check forms at once, and
# per block of its orthogonality screen: about 1 MB however large the grid is.
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
        axes = tuple(np.unique(pts[:, j]) for j in range(e.kappa))
        shape = tuple(a.size for a in axes)
        # atom a lies below grid point g exactly when its axis positions are <= g's
        pos = np.stack([np.searchsorted(a, pts[:, j]) for j, a in enumerate(axes)], axis=1)
        grid = np.indices(shape).reshape(e.kappa, -1).T
        below = np.all(pos[None, :, :] <= grid[:, None, :], axis=2)
        return cls(axes, e.basis, below[:, e.owner].reshape(shape + (-1,)))

    @classmethod
    def from_values(cls, axes, values, dim: int) -> "ProjValuedStepFunction":
        """Step function with the given Projection at every grid point (object
        array indexed by per-axis positions), each on its own columns."""
        flat = values.ravel()
        if any(p.dim != dim for p in flat):
            raise DimensionError(f"every value must act on dimension {dim}")
        pairs = [(idx, p.range_basis) for idx, p in np.ndenumerate(values)]
        _, basis, ranks = _stack(values.ndim, dim, pairs)
        masks = np.repeat(np.arange(flat.size), ranks) == np.arange(flat.size)[:, None]
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


def _corner_sum_index(f: ProjValuedStepFunction, lo_idx, hi_idx) -> np.ndarray:
    """Alternating corner sum in index space: measure of the half-open box
    (grid[lo], grid[hi]], with lo_idx entries allowed to be -1."""
    kappa = f.kappa
    acc = np.zeros((f.dim, f.dim), dtype=np.complex128)
    for picks in itertools.product((0, 1), repeat=kappa):
        corner = [hi_idx[j] if picks[j] == 0 else lo_idx[j] for j in range(kappa)]
        sign = (-1.0) ** sum(picks)
        acc += sign * f.at_index(corner).matrix
    return acc


def difference_box(f: ProjValuedStepFunction, a, b) -> HermitianOperator:
    """Measure of the half-open box (a, b] via the 2^kappa corner sum.

    Requires a <= b componentwise, so no NaN (OrderError otherwise); -inf
    entries in ``a`` reach below the grid and +inf entries in ``b`` past its
    top.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (f.kappa,) or b.shape != (f.kappa,):
        raise DimensionError(f"corners must have shape ({f.kappa},)")
    if not np.all(a <= b):
        raise OrderError(f"box corners not ordered: {tuple(a)} !<= {tuple(b)}")
    lo = [int(np.searchsorted(ax, v, side="right")) - 1 for ax, v in zip(f.axes, a)]
    hi = [int(np.searchsorted(ax, v, side="right")) - 1 for ax, v in zip(f.axes, b)]
    m = _corner_sum_index(f, lo, hi)
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


def _orthogonality_violations(cells, n: int, tol: float) -> list:
    """Pairs (i < j) of nonzero cells with ||d_i d_j||_F > tol, in row-major
    order, from cells (box, d, V, dist): d the symmetrized difference, V its
    eigenvalue-one basis and dist its eigenvalues' distance from {0, 1}.

    d_k is within dist_k of V_k V_k^H in spectral norm, so ||d_i d_j||_F is
    at most ||V_i^H V_j||_F + dist_i sqrt(r_j) + dist_j sqrt(r_i) +
    dist_i dist_j sqrt(n), r the ranks. One product of the stacked bases,
    in blocks of _CHUNK_ENTRIES, gives every ||V_i^H V_j||_F; only pairs
    whose bound exceeds tol / 2 are multiplied out.
    """
    if len(cells) < 2:
        return []
    boxes, ds, bases, dist = zip(*cells)
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
                 + di * dist * np.sqrt(n))
        rows, cols = np.nonzero(np.triu(bound > tol / 2.0, k=lo + 1))
        for i in np.unique(rows):
            js = cols[rows == i]
            i = lo + int(i)
            cross = _cross_norms(ds[i], np.stack([ds[j] for j in js]))
            out += [(boxes[i], boxes[j], float(c)) for j, c in zip(js, cross) if c > tol]
    return out


def validate_resolution(f: ProjValuedStepFunction,
                        tol: float = TOL) -> ResolutionReport:
    """Check the resolution axioms, locating every violating cell box.

    Each cell's corner sum is U diag(delta) U^H, delta the mixed difference
    of the masks, exact in integers: a cell with delta = 0 is zero. The
    other cells are formed and decomposed by one batched eigh per group of
    about _CHUNK_ENTRIES complex entries. Orthogonality is screened by one
    Gram product of the cells' eigenvalue-one bases, and only pairs the
    screen cannot clear are multiplied out (see _orthogonality_violations).
    """
    tol = check_tol(tol)
    n, r = f.basis.shape
    # a bool mask's mixed difference lies in [-2^(kappa-1), 2^(kappa-1)]: the
    # smallest integer type holding -2^kappa keeps it exact
    delta = f.masks.astype(np.min_scalar_type(-(1 << f.kappa)))
    for axis in range(f.kappa):
        delta = np.diff(delta, axis=axis, prepend=delta.dtype.type(0))
    live = np.flatnonzero(np.any(delta, axis=-1))
    step = max(1, _CHUNK_ENTRIES // (n * max(n, r)))
    cell_violations, cells = [], []
    for first in range(0, live.size, step):
        group = np.unravel_index(live[first:first + step], delta.shape[:-1])
        d = (f.basis * delta[group][:, None, :]) @ f.basis.conj().T
        w, v = np.linalg.eigh(d)
        v = _normalize_columns(v)
        dist = np.max(np.minimum(np.abs(w), np.abs(w - 1.0)), axis=1)
        for k, cell in enumerate(zip(*group)):
            box = _cell_box(f, cell)
            if dist[k] > tol:
                cell_violations.append((box, f"eigenvalues off {{0,1}} by {dist[k]:.3e}"))
            elif np.max(np.abs(w[k])) > tol:
                cells.append((box, d[k], v[k][:, w[k] > 0.5], float(dist[k])))

    orthogonality_violations = _orthogonality_violations(cells, n, tol)
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
    return JointSpectralMeasure.from_arrays(*_stack(f.kappa, f.dim, report._atoms))
