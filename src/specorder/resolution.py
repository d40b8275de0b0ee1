"""Resolutions of the identity: reconstructing a measure from its distribution
function.

A projection-valued step function F on a finite grid stands in for the joint
distribution function of an atomic measure: right-continuous by
representation, zero below the grid, constant past its top corner. The
alternating corner sum over a box recovers the measure of that half-open box;
when every cell's difference is a projection, the nonzero cells are mutually
orthogonal, and the full-grid difference is the identity, the cells assemble
into a joint spectral measure and the map F -> measure inverts taking
distribution functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, OrderError, ValidationError
from .linalg import TOL, HermitianOperator, Projection, _normalize_columns
from .spectral import JointSpectralMeasure, _stack


@dataclass(frozen=True, eq=False)
class ProjValuedStepFunction:
    """Grid-sampled projection-valued function, right-continuous steps.

    ``axes`` holds each axis's strictly increasing step coordinates and
    ``values`` the projection at every grid point (object array indexed by
    per-axis positions). Below the grid in any axis the value is the zero
    projection by convention; beyond the top it is the top-corner value.
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    dim: int

    def __post_init__(self):
        if self.values.shape != tuple(a.size for a in self.axes):
            raise DimensionError(
                f"values shape {self.values.shape} does not match grid "
                f"{tuple(a.size for a in self.axes)}")
        for a in self.axes:
            if a.size == 0:
                raise DimensionError("each axis needs at least one step coordinate")
            if np.any(np.diff(a) <= 0):
                raise ValueError("axis coordinates must be strictly increasing")

    @property
    def kappa(self) -> int:
        return len(self.axes)

    @classmethod
    def from_measure(cls, e: JointSpectralMeasure) -> "ProjValuedStepFunction":
        pts = e.points()
        axes = tuple(np.unique(pts[:, j]) for j in range(e.kappa))
        shape = tuple(a.size for a in axes)
        # atom a lies below grid point g exactly when its axis positions are <= g's
        pos = np.stack([np.searchsorted(a, pts[:, j]) for j, a in enumerate(axes)], axis=1)
        grid = np.indices(shape).reshape(e.kappa, -1).T
        below = np.all(pos[None, :, :] <= grid[:, None, :], axis=2)
        values = np.empty(shape, dtype=object)
        for idx, cols in zip(np.ndindex(shape), below[:, e.owner]):
            values[idx] = Projection(e.basis[:, cols])
        return cls(axes=axes, values=values, dim=e.dim)

    def at_index(self, idx) -> Projection:
        """Value at integer grid positions; -1 in any axis means below the grid."""
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.kappa:
            raise DimensionError(f"index length {len(idx)} for kappa={self.kappa}")
        if any(i < -1 or i >= a.size for i, a in zip(idx, self.axes)):
            raise IndexError(f"grid index {idx} out of range")
        if any(i == -1 for i in idx):
            return Projection.zero(self.dim)
        return self.values[idx]

    def at(self, x) -> Projection:
        """Right-continuous evaluation at an arbitrary point (+-inf allowed)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.kappa,):
            raise DimensionError(f"point has shape {x.shape}, expected ({self.kappa},)")
        idx = [int(np.searchsorted(a, v, side="right")) - 1 for a, v in zip(self.axes, x)]
        return self.at_index(idx)

    def replace_value(self, idx, proj: Projection) -> "ProjValuedStepFunction":
        """Copy with one grid value swapped; used to build corrupted instances."""
        values = self.values.copy()
        values[tuple(int(i) for i in idx)] = proj
        return ProjValuedStepFunction(axes=self.axes, values=values, dim=self.dim)

    def top_corner(self) -> Projection:
        return self.values[tuple(a.size - 1 for a in self.axes)]

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

    Requires a <= b componentwise (OrderError otherwise); -inf entries in
    ``a`` reach below the grid and +inf entries in ``b`` past its top.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (f.kappa,) or b.shape != (f.kappa,):
        raise DimensionError(f"corners must have shape ({f.kappa},)")
    if np.any(a > b):
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


def validate_resolution(f: ProjValuedStepFunction,
                        tol: float = TOL) -> ResolutionReport:
    """Check the resolution axioms, locating every violating cell box.

    Walks the first axis one slab of grid values at a time, so memory stays
    at a few slabs. Zero-prepended differences along the other axes, minus
    the previous slab's, give every cell's 2^kappa corner sum. Cells with
    Frobenius norm above tol/4 go to one batched eigh per slab; the rest are
    zero cells. Orthogonality takes one batched product per nonzero cell.
    """
    n = f.dim
    rest = f.values.shape[1:]
    rows = f.values.reshape(f.values.shape[0], -1)
    cell_violations, nonzero, atoms = [], [], []
    prev = 0.0
    for i, row in enumerate(rows):
        diff = np.stack([p.matrix for p in row]).reshape(rest + (n, n))
        for axis in range(len(rest)):
            diff = np.diff(diff, axis=axis, prepend=0.0)
        d = (diff - prev).reshape(-1, n, n)
        prev = diff
        # ||d||_F <= tol/4 bounds the Hermitian defect by tol/2 and every
        # eigenvalue of (d + d*)/2 by tol/4: such a cell is zero
        parts = d.reshape(d.shape[0], -1).view(np.float64)
        live = np.flatnonzero(np.einsum("ij,ij->i", parts, parts) > (tol / 4.0) ** 2)
        if not live.size:
            continue
        d = d[live]
        adj = d.conj().swapaxes(1, 2)
        herm_defect = np.max(np.abs(d - adj), axis=(1, 2))
        d = (d + adj) / 2.0
        w, v = np.linalg.eigh(d)
        v = _normalize_columns(v)
        dist = np.max(np.minimum(np.abs(w), np.abs(w - 1.0)), axis=1)
        for k, c in enumerate(live):
            box = _cell_box(f, (i,) + np.unravel_index(c, rest))
            defect = float(herm_defect[k])
            if defect > tol or dist[k] > tol:
                cell_violations.append(
                    (box, f"eigenvalues off {{0,1}} by {max(float(dist[k]), defect):.3e}"))
            elif np.max(np.abs(w[k])) > tol:
                nonzero.append((box, d[k].copy()))
                atoms.append((box[1], v[k][:, w[k] > 0.5]))

    orthogonality_violations = []
    stack = np.array([m for _, m in nonzero])
    for i in range(len(nonzero) - 1):
        cross = np.linalg.norm(stack[i] @ stack[i + 1:], axis=(1, 2))
        for j in np.flatnonzero(cross > tol):
            orthogonality_violations.append(
                (nonzero[i][0], nonzero[i + 1 + j][0], float(cross[j])))

    top = f.top_corner().matrix
    identity_defect = float(np.max(np.abs(top - np.eye(f.dim))))
    return ResolutionReport(
        axiom_a=not cell_violations and not orthogonality_violations,
        cell_violations=tuple(cell_violations),
        orthogonality_violations=tuple(orthogonality_violations),
        axiom_b=True,
        axiom_c=identity_defect <= tol,
        identity_defect=identity_defect,
        _atoms=tuple(atoms),
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
