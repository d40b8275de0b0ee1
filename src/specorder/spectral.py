"""Commuting Hermitian tuples and their joint spectral measures.

In finite dimension the joint spectral measure of a pairwise-commuting tuple
(A_1, ..., A_kappa) is atomic: finitely many points in R^kappa, each carrying
an orthogonal projection, mutually orthogonal and summing to the identity,
with A_j recovered as the sum of lambda_j-weighted projections. The measure is
computed by simultaneous diagonalization, one level per component: diagonalize
A_1, split its spectrum into clusters, compress A_2 to each cluster's
eigenspace, and so on. A cluster of one eigenvector is an atom at once; the
rest of its coordinates are stacked 1x1 compressions.

The measure is stored as arrays: the atom points, and one unitary whose
columns are grouped by atom. Every spectral integral, the calculus and the
monomials included, is then one product with that unitary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CommutationError, DimensionError, EvaluationError, ParameterError
from .functions import _check_multi_index, fractional_fn, parts_fns
from .linalg import (
    TOL,
    HermitianOperator,
    Projection,
    _normalize_columns,
    _read_only,
    _scaled,
    as_point,
    check_tol,
    hermitian_eig,
)


@dataclass(frozen=True, eq=False)
class CommutingTuple:
    """A tuple of same-dimension Hermitian operators with recorded commutator defect.

    Build instances through :func:`validate_tuple`; the calculus constructs
    its own instances directly because a shared eigenbasis certifies
    commutation without a numerical test. The instance keeps its joint
    measure once :func:`joint_measure` has computed it; both are immutable,
    so every caller can share it.
    """

    ops: tuple[HermitianOperator, ...]
    max_commutator_defect: float
    _measure: JointSpectralMeasure | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def kappa(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def matrices(self) -> list[np.ndarray]:
        return [op.matrix for op in self.ops]

    def __repr__(self):
        return (f"CommutingTuple(kappa={self.kappa}, dim={self.dim}, "
                f"defect={self.max_commutator_defect:.2e})")


def validate_tuple(ops, tol_comm: float = TOL) -> CommutingTuple:
    """Check shapes and pairwise commutation, returning a CommutingTuple.

    Raises
    ------
    DimensionError
        If the tuple is empty or components have mismatched dimensions.
    CommutationError
        Carrying the offending pair (i, j) and its Frobenius defect when it
        exceeds tol_comm * ||A_i|| * ||A_j||.
    ParameterError
        If a component's Frobenius norm exceeds the float range, or
        tol_comm is not finite and nonnegative.
    """
    tol_comm = check_tol(tol_comm, "tol_comm")
    herms = [op if isinstance(op, HermitianOperator) else HermitianOperator.from_matrix(op)
             for op in ops]
    if not herms:
        raise DimensionError("a tuple needs at least one component")
    dims = {h.dim for h in herms}
    if len(dims) != 1:
        raise DimensionError(f"components have mixed dimensions: {sorted(dims)}")
    # Compare A_i / 2^e_i (_scaled), so nothing overflows; the decision and
    # the reported numbers are the unscaled ones wherever those are finite.
    scaled, exps = zip(*(_scaled(h.matrix) for h in herms))
    norms = [float(np.linalg.norm(m)) for m in scaled]
    worst = 0.0
    with np.errstate(over="ignore"):
        for i, (norm, e) in enumerate(zip(norms, exps)):
            if not np.isfinite(np.ldexp(norm, e)):
                raise ParameterError(f"component {i} is too large: its Frobenius "
                                     f"norm exceeds the float range")
        for i, j in itertools.combinations(range(len(herms)), 2):
            a, b, e = scaled[i], scaled[j], exps[i] + exps[j]
            defect = float(np.linalg.norm(a @ b - b @ a))
            threshold = tol_comm * norms[i] * norms[j]
            if defect > threshold:
                raise CommutationError(i, j, np.ldexp(defect, e), np.ldexp(threshold, e))
            worst = max(worst, float(np.ldexp(defect, e)))
    return CommutingTuple(ops=tuple(herms), max_commutator_defect=worst)


@dataclass(frozen=True, eq=False, init=False)
class JointSpectralMeasure:
    """Atomic projection-valued measure on R^kappa, E = sum_a delta_{p_a} P_a.

    ``points()`` is the read-only m x kappa array of atom points, sorted
    lexicographically. ``basis`` (n x r, orthonormal columns) holds the
    atoms' range bases side by side in point order: atom a owns ``ranks[a]``
    columns, and ``owner`` maps each column to its atom; atom a's projection
    is ``join([a])``. For a tuple's measure r = n. The constructor takes
    (points, basis, ranks) and stores read-only copies of the arrays.
    """

    kappa: int
    dim: int
    basis: np.ndarray
    ranks: np.ndarray
    owner: np.ndarray
    _points: np.ndarray

    def __init__(self, points, basis, ranks):
        ranks = np.asarray(ranks, dtype=np.intp)
        for name, value in (("_points", np.asarray(points, dtype=np.float64)), ("ranks", ranks),
                            ("basis", np.asarray(basis, dtype=np.complex128)),
                            ("owner", np.repeat(np.arange(ranks.size), ranks))):
            object.__setattr__(self, name, _read_only(value))
        object.__setattr__(self, "kappa", self._points.shape[1])
        object.__setattr__(self, "dim", self.basis.shape[0])

    def points(self) -> np.ndarray:
        return self._points

    def n_atoms(self) -> int:
        return self._points.shape[0]

    def join(self, indices) -> Projection:
        """Join of the selected atoms' projections: their basis columns, in atom
        order, orthonormal already because the atoms are mutually orthogonal.
        ParameterError for an index that is not an integer in 0..m-1."""
        indices = np.asarray(list(indices))
        if indices.size and not (indices.dtype.kind in "iu" and 0 <= indices.min()
                                 and indices.max() < self.n_atoms()):
            raise ParameterError(f"atom indices {indices} outside 0..{self.n_atoms() - 1}")
        return Projection(self.basis[:, np.isin(self.owner, indices)])

    def distribution(self, x) -> Projection:
        """F(x) = measure of the closed lower orthant at x; right-continuous in x."""
        x = as_point(x, self.kappa)
        return self.join(np.flatnonzero(np.all(self._points <= x, axis=1)))

    def marginal_interval(self, axis: int, intervals) -> Projection:
        """Measure of {lambda : lambda_axis in union of closed intervals}.

        ``intervals`` is an iterable of (lo, hi) pairs, +-inf allowed; an
        empty iterable gives the zero projection.
        """
        if not 0 <= axis < self.kappa:
            raise ParameterError(f"axis {axis} out of range for kappa={self.kappa}")
        coord = self._points[:, axis]
        keep = np.zeros(self.n_atoms(), dtype=bool)
        for lo, hi in intervals:
            if lo > hi:
                raise ParameterError(f"empty interval ({lo}, {hi})")
            keep |= (coord >= lo) & (coord <= hi)
        return self.join(np.flatnonzero(keep))

    def completeness_defect(self) -> float:
        """max |sum_a P_a - I|, entrywise."""
        u = self.basis
        return float(np.max(np.abs(u @ u.conj().T - np.eye(self.dim)), initial=0.0))

    def orthogonality_defect(self) -> float:
        """max |V_a^H V_b| over columns of distinct atoms a < b."""
        u = self.basis
        cross = np.abs(u.conj().T @ u)[self.owner[:, None] < self.owner[None, :]]
        return float(np.max(cross, initial=0.0))

    def reconstruction_defect(self, t: CommutingTuple) -> float:
        """max_j ||A_j - sum lambda_j P_lambda||_F, the moment-recovery residual.

        Each difference is taken on A_j/2^e and its moment over 2^e, e from
        both (_scaled), and scaled back, so it is 0 only when they are equal.
        """
        u = self.basis
        moments = (u * self._points[self.owner].T[:, None, :]) @ u.conj().T
        scaled = (_scaled(a, m) for a, m in zip(t.matrices(), moments))
        with np.errstate(over="ignore"):
            return float(max(np.ldexp(np.linalg.norm(a - m), e) for a, m, e in scaled))

    def __repr__(self):
        return (f"JointSpectralMeasure(kappa={self.kappa}, dim={self.dim}, "
                f"atoms={self.n_atoms()})")


def _split_clusters(values: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of ascending values with gaps <= threshold.

    Returns the stable ascending order of the values and the run bounds in
    it: run k is ``order[bounds[k]:bounds[k + 1]]``.
    """
    order = np.argsort(values, kind="stable")
    if values.size == 0:
        return order, np.zeros(1, dtype=np.intp)
    breaks = np.flatnonzero(np.diff(values[order]) > threshold) + 1
    return order, np.concatenate(([0], breaks, [values.size]))


def _merge_points(points, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge points that are within tol * (largest finite |coordinate| on
    that axis) of each other on every axis.

    The radius is per axis, so scaling one coordinate, a separately
    increasing map, merges the same points. The first point in input order
    represents its group; a later point joins the first representative
    within that distance; equal infinite coordinates are near, so the
    points must be NaN-free. Returns the representatives sorted
    lexicographically and, for each input point, the index of its group's
    representative in that sorted array.
    """
    pts = np.asarray(points, dtype=np.float64)
    radius = tol * np.max(np.abs(pts), axis=0, initial=0.0, where=np.isfinite(pts))
    group = np.full(pts.shape[0], -1)
    first: list[int] = []
    with np.errstate(invalid="ignore"):  # inf - inf
        for i in range(pts.shape[0]):
            if group[i] < 0:
                # "not farther than", so the NaN of inf - inf reads as near
                near = ~(np.abs(pts - pts[i]) > radius).any(axis=1)
                group[near & (group < 0)] = len(first)
                first.append(i)
    reps = pts[first]
    order = np.lexsort(reps.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return reps[order], rank[group]


def joint_measure(t: CommutingTuple) -> JointSpectralMeasure:
    """Joint spectral measure by level-wise cluster diagonalization.

    Level j diagonalizes the compression of A_j to each open cluster's
    invariant subspace and splits its spectrum at gaps exceeding
    TOL * ||A_j||; the cluster mean is the j-th atom coordinate. A cluster
    of size 1 is finished: its later coordinates come from stacked 1x1
    compressions, all clusters of size 1 of one eigendecomposition in one
    product per level. Larger clusters stay open for level j + 1. The
    result equals, bit for bit, that of recursing into each cluster.
    Distinct atoms are separated by more than the threshold in at least one
    coordinate, so points are pairwise distinct in the sup norm. The
    threshold scales with A_j, so c * A has the atoms of A scaled by c for
    every c > 0.

    The measure is computed once per tuple and kept on it.
    """
    if t._measure is None:
        object.__setattr__(t, "_measure", _diagonalize(t))
    return t._measure


def _mean(values: np.ndarray) -> float:
    """Mean of finite values; where their sum overflows, twice the mean of
    the halves, so every mean that fits keeps its bits."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    return mean if np.isfinite(mean) else 2.0 * float(np.mean(values / 2.0))


def _diagonalize(t: CommutingTuple) -> JointSpectralMeasure:
    mats = [op.matrix for op in t.ops]
    # finished atoms in blocks: points, bases and ranks
    found = ([np.empty((0, t.kappa))], [np.empty((t.dim, 0), dtype=np.complex128)],
             [np.empty(0, dtype=np.intp)])

    def keep(*block):
        for store, part in zip(found, block):
            store.append(np.asarray(part))

    def finish(cols: np.ndarray, coords: list):
        # atoms with one-column bases cols (s, n, 1) and their first
        # len(coords) coordinates; each later one is a stacked 1x1 compression
        for a in mats[len(coords):]:
            coords.append(((cols.conj().transpose(0, 2, 1) @ a) @ cols)[:, 0, 0].real)
        points = np.empty((cols.shape[0], t.kappa))
        for j, c in enumerate(coords):
            points[:, j] = c
        keep(points, cols[:, :, 0].T, np.ones(cols.shape[0], dtype=np.intp))

    # the open clusters of a level: basis and coordinates so far
    clusters = [(np.eye(t.dim, dtype=np.complex128), ())]
    if t.dim == 1:
        # the one column is an atom before any eigendecomposition
        finish(clusters.pop()[0][None], [])
    for level, a in enumerate(mats):
        if not clusters:
            break
        threshold = TOL * t.ops[level].norm()
        deeper = []
        for basis, prefix in clusters:
            compressed = basis.conj().T @ a @ basis
            compressed = compressed / 2.0 + compressed.conj().T / 2.0
            w, v = hermitian_eig(HermitianOperator(compressed, 0.0))
            order, bounds = _split_clusters(w, threshold)
            sizes = np.diff(bounds)
            # every cluster of size 1 is an atom: one stacked product for
            # their bases and one for each later coordinate
            ks = np.flatnonzero(sizes == 1)
            if ks.size:
                single = order[bounds[ks]]
                finish(basis[None] @ v.T[single][:, :, None], [*prefix, w[single]])
            for k in np.flatnonzero(sizes > 1):
                cluster = order[bounds[k]:bounds[k + 1]]
                sub = basis @ v[:, np.sort(cluster)]
                coords = (*prefix, _mean(w[cluster]))
                if level + 1 < t.kappa:
                    deeper.append((sub, coords))
                else:
                    keep([coords], sub, [sub.shape[1]])
        clusters = deeper

    points, ranks = np.concatenate(found[0]), np.concatenate(found[2])
    basis = np.hstack(found[1])
    # atoms differ by more than the threshold in some coordinate, so no two
    # points tie
    order = np.lexsort(points.T[::-1])
    # regroup the basis columns in point order: atom order[i] moves its
    # block of columns from starts[order[i]] to moved[i]
    starts, moved = np.cumsum(ranks) - ranks, np.cumsum(ranks[order]) - ranks[order]
    cols = np.repeat(starts[order] - moved, ranks[order]) + np.arange(basis.shape[1])
    # re-fix column phases lost while composing cluster bases, all atoms in one call
    return JointSpectralMeasure(
        points[order], _normalize_columns(np.ascontiguousarray(basis[:, cols])), ranks[order])


def _rule_values(phi, points: np.ndarray) -> np.ndarray:
    """phi at every point; a non-finite value is raised on later, not warned about here."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([float(phi(p)) for p in points], dtype=np.float64)


def _refuse_nan(nan: np.ndarray, points: np.ndarray):
    """EvaluationError at the first point flagged NaN in ``nan``; +-inf pass."""
    if nan.any():
        raise EvaluationError(tuple(points[np.argmax(nan)].tolist()), "value is NaN")


def _monomial_values(points: np.ndarray, alpha) -> np.ndarray:
    """x^alpha at every point, 0^0 = 1; ParameterError naming alpha where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.prod(points ** np.asarray(alpha, dtype=np.float64), axis=1)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ParameterError(f"x^alpha at alpha={tuple(int(a) for a in alpha)} is not finite "
                             f"at atom {tuple(points[np.argmax(bad)].tolist())}")
    return values


def calculus_scalar(e: JointSpectralMeasure, phi) -> HermitianOperator:
    """phi(A) = sum phi(lambda) P_lambda as one product U diag(phi(points)[owner]) U^H.

    ``phi`` is a scalar rule, or an array of its values at ``e.points()``,
    of shape (m,). The product is symmetrized as M/2 + M^H/2, so entries
    near the float limit do not overflow. EvaluationError at the first atom
    whose value is NaN; ParameterError when the result is not finite or the
    array has another shape.
    """
    values = phi if isinstance(phi, np.ndarray) else _rule_values(phi, e.points())
    if values.shape != (e.n_atoms(),):
        raise ParameterError(f"values of shape {values.shape}, expected ({e.n_atoms()},)")
    _refuse_nan(np.isnan(values), e.points())
    with np.errstate(over="ignore", invalid="ignore"):
        m = (e.basis * values[e.owner]) @ e.basis.conj().T
        m = m / 2.0 + m.conj().T / 2.0
    if not np.all(np.isfinite(m)):
        raise ParameterError(f"calculus of {getattr(phi, 'tag', 'the rule')} is not finite")
    return HermitianOperator(m, 0.0)


def calculus_vector(e: JointSpectralMeasure, phis) -> CommutingTuple:
    """Componentwise calculus. The components share the measure's eigenbasis,
    so they commute by construction and the recorded defect is 0.0."""
    herms = tuple(calculus_scalar(e, phi) for phi in phis)
    if not herms:
        raise DimensionError("vector calculus needs at least one component rule")
    return CommutingTuple(ops=herms, max_commutator_defect=0.0)


def pushforward(e: JointSpectralMeasure, phis) -> JointSpectralMeasure:
    """Image measure under the vector rule: atoms mapped, then merged.

    Mapped points within TOL times the largest mapped |coordinate| on each
    axis of each other fuse into one atom whose projection is the join of
    the originals. DimensionError without rules; EvaluationError at the
    first atom a rule maps to NaN.
    """
    mapped = [_rule_values(phi, e.points()) for phi in phis]
    if not mapped:
        raise DimensionError("a pushforward needs at least one component rule")
    mapped = np.stack(mapped, axis=1)
    _refuse_nan(np.isnan(mapped).any(axis=1), e.points())
    reps, group = _merge_points(mapped, TOL)
    # merged atoms keep their columns in atom order
    cols = np.argsort(group[e.owner], kind="stable")
    ranks = np.bincount(group, weights=e.ranks, minlength=len(reps)).astype(np.intp)
    return JointSpectralMeasure(reps, e.basis[:, cols], ranks)


def monomial(t: CommutingTuple, alpha) -> HermitianOperator:
    """A^alpha = prod A_j^{alpha_j} via the calculus, 0^0 = 1."""
    alpha = np.asarray(alpha)
    if alpha.shape != (t.kappa,):
        raise ParameterError(f"alpha has shape {alpha.shape}, expected ({t.kappa},)")
    _check_multi_index(alpha, integer=True)
    e = joint_measure(t)
    return calculus_scalar(e, _monomial_values(e.points(), alpha))


def fractional_power(t: CommutingTuple, beta) -> HermitianOperator:
    """Orthant powers: prod |A_j|^{beta_j} cut to the nonnegative joint spectrum.

    Atoms with any negative coordinate contribute zero. Roundoff-negative
    coordinates of numerically positive tuples, down to -TOL times that
    axis's largest |coordinate|, count as zero.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (t.kappa,):
        raise ParameterError(f"beta has shape {beta.shape}, expected ({t.kappa},)")
    e = joint_measure(t)
    scale = np.max(np.abs(e.points()), axis=0, initial=0.0)
    return calculus_scalar(e, fractional_fn(beta, tol=TOL * scale))


def parts_decompose(t: CommutingTuple, signs) -> CommutingTuple:
    """Signed-part tuple A_eps: component j is f_{eps_j}(A_j) via the joint calculus."""
    phis = parts_fns(signs)
    if len(phis) != t.kappa:
        raise ParameterError(f"{len(phis)} signs for a kappa={t.kappa} tuple")
    return calculus_vector(joint_measure(t), phis)


def is_positive_tuple(t: CommutingTuple, tol: float = TOL) -> bool:
    """True iff every atom coordinate is >= -tol * ||A_j||_F.

    Each component is then positive semidefinite up to a floor relative to
    its Frobenius norm. linalg.is_psd's floor is relative to the spectral
    norm, max |lambda|, which is at most ||A_j||_F, so a component this
    accepts may still fail is_psd.
    """
    tol = check_tol(tol)
    floor = [-tol * op.norm() for op in t.ops]
    return bool(np.all(joint_measure(t).points() >= floor))
