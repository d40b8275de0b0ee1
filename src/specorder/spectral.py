"""Commuting Hermitian tuples and their joint spectral measures.

In finite dimension the joint spectral measure of a pairwise-commuting tuple
(A_1, ..., A_kappa) is atomic: finitely many points in R^kappa, each carrying
an orthogonal projection, mutually orthogonal and summing to the identity,
with A_j recovered as the sum of lambda_j-weighted projections. The measure is
computed by recursive simultaneous diagonalization: diagonalize A_1, split its
spectrum into clusters, compress A_2 to each cluster's eigenspace, recurse.

All spectral-order and calculus operations reduce to finite sums over these
atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CommutationError, DimensionError, ParameterError
from .functions import BorelFunction, fractional_fn, monomial_fn, parts_fns
from .linalg import (
    HermitianOperator,
    Projection,
    _normalize_columns,
    commutator_norm,
    hermitian_eig,
)

TOL_COMM = 1e-8
CLUSTER_TOL = 1e-8
TOL_POSITIVE = 1e-10


@dataclass(frozen=True, eq=False)
class CommutingTuple:
    """A tuple of same-dimension Hermitian operators with recorded commutator defect.

    Build instances through :func:`validate_tuple`; the calculus constructs
    its own instances directly because a shared eigenbasis certifies
    commutation without a numerical test. The instance keeps its
    default-tolerance joint measure once :func:`joint_measure` has computed
    it; both are immutable, so every caller can share it.
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


def validate_tuple(ops, tol_comm: float = TOL_COMM) -> CommutingTuple:
    """Check shapes and pairwise commutation, returning a CommutingTuple.

    Raises
    ------
    DimensionError
        If the tuple is empty or components have mismatched dimensions.
    CommutationError
        Carrying the offending pair (i, j) and its Frobenius defect when it
        exceeds tol_comm * (1 + ||A_i|| * ||A_j||).
    ParameterError
        If a component's Frobenius norm exceeds the float range.
    """
    herms = [op if isinstance(op, HermitianOperator) else HermitianOperator.from_matrix(op)
             for op in ops]
    if not herms:
        raise DimensionError("a tuple needs at least one component")
    dims = {h.dim for h in herms}
    if len(dims) != 1:
        raise DimensionError(f"components have mixed dimensions: {sorted(dims)}")
    # Compare A_i / 2^e_i with e_i the binary exponent of max|A_i|, so nothing
    # overflows; power-of-two scaling is exact, so the decision and the
    # reported numbers are the unscaled ones wherever those are finite.
    parts = [h.matrix.view(np.float64) for h in herms]
    exps = [int(np.frexp(np.max(np.abs(m), initial=0.0))[1]) for m in parts]
    scaled = [np.ldexp(m, -e).view(np.complex128) for m, e in zip(parts, exps)]
    norms = [float(np.linalg.norm(m)) for m in scaled]
    worst = 0.0
    with np.errstate(over="ignore"):
        for i, (norm, e) in enumerate(zip(norms, exps)):
            if not np.isfinite(np.ldexp(norm, e)):
                raise ParameterError(f"component {i} is too large: its Frobenius "
                                     f"norm exceeds the float range")
        for i in range(len(herms)):
            for j in range(i + 1, len(herms)):
                e = exps[i] + exps[j]
                a, b = scaled[i], scaled[j]
                defect = float(np.linalg.norm(a @ b - b @ a))
                threshold = tol_comm * (float(np.ldexp(1.0, -e)) + norms[i] * norms[j])
                if defect > threshold:
                    raise CommutationError(i, j, np.ldexp(defect, e), np.ldexp(threshold, e))
                worst = max(worst, float(np.ldexp(defect, e)))
    return CommutingTuple(ops=tuple(herms), max_commutator_defect=worst)


def _tuple_from_shared_basis(herms) -> CommutingTuple:
    # components built from one measure commute by construction; record the
    # (roundoff-level) defect without gating on it
    herms = tuple(herms)
    worst = 0.0
    for i in range(len(herms)):
        for j in range(i + 1, len(herms)):
            worst = max(worst, commutator_norm(herms[i], herms[j]))
    return CommutingTuple(ops=herms, max_commutator_defect=worst)


@dataclass(frozen=True, eq=False)
class JointSpectralMeasure:
    """Atomic projection-valued measure on R^kappa.

    ``atoms`` is a tuple of (point, Projection) pairs, points as float
    kappa-vectors, sorted lexicographically; projections are mutually
    orthogonal and sum to the identity.
    """

    kappa: int
    dim: int
    atoms: tuple[tuple[tuple[float, ...], Projection], ...]
    cluster_tol: float

    def points(self) -> np.ndarray:
        if not self.atoms:
            return np.zeros((0, self.kappa))
        return np.array([pt for pt, _ in self.atoms], dtype=np.float64)

    def projections(self) -> list[Projection]:
        return [p for _, p in self.atoms]

    def n_atoms(self) -> int:
        return len(self.atoms)

    def join(self, indices) -> Projection:
        """Join of the selected atoms' projections.

        Atoms are mutually orthogonal, so stacking their orthonormal bases
        already gives an orthonormal basis of the joined range.
        """
        indices = list(indices)
        if not indices:
            return Projection.zero(self.dim)
        basis = np.hstack([self.atoms[i][1].range_basis for i in indices])
        return Projection(basis)

    def distribution(self, x, atol: float = 0.0) -> Projection:
        """F(x) = measure of the closed lower orthant at x; right-continuous in x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.kappa,):
            raise DimensionError(f"point has shape {x.shape}, expected ({self.kappa},)")
        pts = self.points()
        keep = np.flatnonzero(np.all(pts <= x + atol, axis=1))
        return self.join(keep)

    def marginal_interval(self, axis: int, intervals) -> Projection:
        """Measure of {lambda : lambda_axis in union of closed intervals}.

        ``intervals`` is an iterable of (lo, hi) pairs, +-inf allowed; an
        empty iterable gives the zero projection.
        """
        if not 0 <= axis < self.kappa:
            raise ParameterError(f"axis {axis} out of range for kappa={self.kappa}")
        pts = self.points()
        keep: set[int] = set()
        for lo, hi in intervals:
            if lo > hi:
                raise ParameterError(f"empty interval ({lo}, {hi})")
            sel = np.flatnonzero((pts[:, axis] >= lo) & (pts[:, axis] <= hi))
            keep.update(int(i) for i in sel)
        return self.join(sorted(keep))

    def completeness_defect(self) -> float:
        total = sum((p.matrix for p in self.projections()),
                    np.zeros((self.dim, self.dim), dtype=np.complex128))
        return float(np.max(np.abs(total - np.eye(self.dim))))

    def orthogonality_defect(self) -> float:
        worst = 0.0
        for i in range(self.n_atoms()):
            for j in range(i + 1, self.n_atoms()):
                vi = self.atoms[i][1].range_basis
                vj = self.atoms[j][1].range_basis
                if vi.shape[1] and vj.shape[1]:
                    worst = max(worst, float(np.max(np.abs(vi.conj().T @ vj))))
        return worst

    def reconstruction_defect(self, t: CommutingTuple) -> float:
        """max_j ||A_j - sum lambda_j P_lambda||_F, the moment-recovery residual."""
        worst = 0.0
        pts = self.points()
        for j, op in enumerate(t.ops):
            acc = np.zeros((self.dim, self.dim), dtype=np.complex128)
            for i, (_, proj) in enumerate(self.atoms):
                acc += pts[i, j] * proj.matrix
            worst = max(worst, float(np.linalg.norm(op.matrix - acc)))
        return worst

    def __repr__(self):
        return (f"JointSpectralMeasure(kappa={self.kappa}, dim={self.dim}, "
                f"atoms={self.n_atoms()})")


def _split_clusters(values: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Indices of maximal runs of ascending values with gaps <= threshold."""
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    breaks = np.flatnonzero(np.diff(sorted_vals) > threshold)
    return [seg for seg in np.split(order, breaks + 1)]


def _merge_points(points, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge points within tol of each other in the sup norm.

    The first point in input order represents its group; a later point
    joins the first representative within tol. Returns the representatives
    sorted lexicographically and, for each input point, the index of its
    group's representative in that sorted array.
    """
    pts = np.asarray(points, dtype=np.float64)
    group = np.full(pts.shape[0], -1)
    first: list[int] = []
    for i in range(pts.shape[0]):
        if group[i] < 0:
            near = np.max(np.abs(pts - pts[i]), axis=1, initial=0.0) <= tol
            group[near & (group < 0)] = len(first)
            group[i] = len(first)  # an infinite point is NaN away from itself
            first.append(i)
    reps = pts[first]
    order = np.lexsort(reps.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return reps[order], rank[group]


def joint_measure(t: CommutingTuple, cluster_tol: float = CLUSTER_TOL) -> JointSpectralMeasure:
    """Joint spectral measure by recursive cluster diagonalization.

    Level j diagonalizes the compression of A_j to the current invariant
    subspace, splits the spectrum at gaps exceeding
    cluster_tol * (1 + ||A_j||), and recurses into each cluster with the
    cluster mean as the j-th atom coordinate. Distinct atoms are separated by
    more than the threshold in at least one coordinate, so points are
    pairwise distinct in the sup norm.

    The default-tolerance measure is computed once per tuple and kept on
    it; any other cluster_tol diagonalizes afresh.
    """
    if cluster_tol != CLUSTER_TOL:
        return _diagonalize(t, cluster_tol)
    if t._measure is None:
        object.__setattr__(t, "_measure", _diagonalize(t, cluster_tol))
    return t._measure


def _diagonalize(t: CommutingTuple, cluster_tol: float) -> JointSpectralMeasure:
    thresholds = [cluster_tol * (1.0 + op.norm()) for op in t.ops]
    leaves: list[tuple[tuple[float, ...], np.ndarray]] = []

    def recurse(level: int, basis: np.ndarray, prefix: tuple[float, ...]):
        if level == t.kappa:
            leaves.append((prefix, basis))
            return
        compressed = basis.conj().T @ t.ops[level].matrix @ basis
        if basis.shape[1] == 1:
            # a 1x1 compression is its own eigenvalue
            recurse(level + 1, basis, prefix + (float(compressed[0, 0].real),))
            return
        compressed = compressed / 2.0 + compressed.conj().T / 2.0
        w, v = hermitian_eig(HermitianOperator(compressed, 0.0))
        for cluster in _split_clusters(w, thresholds[level]):
            sub = basis @ v[:, np.sort(cluster)]
            recurse(level + 1, sub, prefix + (float(np.mean(w[cluster])),))

    recurse(0, np.eye(t.dim, dtype=np.complex128), ())
    # re-fix column phases lost while composing cluster bases, all atoms in one call
    atoms = []
    if leaves:
        fixed = _normalize_columns(np.hstack([b for _, b in leaves]), 1e-12)
        cuts = np.cumsum([b.shape[1] for _, b in leaves])[:-1]
        atoms = [(pt, Projection(b)) for (pt, _), b in zip(leaves, np.split(fixed, cuts, axis=1))]
    atoms.sort(key=lambda a: a[0])
    return JointSpectralMeasure(kappa=t.kappa, dim=t.dim, atoms=tuple(atoms),
                                cluster_tol=cluster_tol)


def _evaluate(phi, point) -> float:
    if isinstance(phi, BorelFunction):
        return phi(point)
    return float(phi(np.asarray(point, dtype=np.float64)))


def calculus_scalar(e: JointSpectralMeasure, phi) -> HermitianOperator:
    """phi(A) = sum phi(lambda) P_lambda for a scalar rule phi."""
    acc = np.zeros((e.dim, e.dim), dtype=np.complex128)
    for pt, proj in e.atoms:
        acc += _evaluate(phi, pt) * proj.matrix
    return HermitianOperator((acc + acc.conj().T) / 2.0, 0.0)


def calculus_vector(e: JointSpectralMeasure, phis) -> CommutingTuple:
    """Componentwise calculus; the result commutes by shared-basis construction."""
    herms = [calculus_scalar(e, phi) for phi in phis]
    if not herms:
        raise DimensionError("vector calculus needs at least one component rule")
    return _tuple_from_shared_basis(herms)


def pushforward(e: JointSpectralMeasure, phis) -> JointSpectralMeasure:
    """Image measure under the vector rule: atoms mapped, then merged.

    Mapped points within cluster_tol of each other in the sup norm fuse into
    one atom whose projection is the join of the originals.
    """
    phis = list(phis)
    mapped = np.array([[_evaluate(phi, pt) for phi in phis] for pt, _ in e.atoms],
                      dtype=np.float64).reshape(e.n_atoms(), len(phis))
    reps, group = _merge_points(mapped, e.cluster_tol)
    atoms = [(tuple(float(v) for v in rep), e.join(np.flatnonzero(group == g)))
             for g, rep in enumerate(reps)]
    return JointSpectralMeasure(kappa=len(phis), dim=e.dim, atoms=tuple(atoms),
                                cluster_tol=e.cluster_tol)


def monomial(t: CommutingTuple, alpha) -> HermitianOperator:
    """A^alpha = prod A_j^{alpha_j} via the calculus, 0^0 = 1."""
    alpha = np.asarray(alpha)
    if alpha.shape != (t.kappa,):
        raise ParameterError(f"alpha has shape {alpha.shape}, expected ({t.kappa},)")
    return calculus_scalar(joint_measure(t), monomial_fn(alpha))


def fractional_power(t: CommutingTuple, beta) -> HermitianOperator:
    """Orthant powers: prod |A_j|^{beta_j} cut to the nonnegative joint spectrum.

    Atoms with any negative coordinate contribute zero. Roundoff-negative
    coordinates of numerically positive tuples are absorbed by a small
    relative tolerance.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (t.kappa,):
        raise ParameterError(f"beta has shape {beta.shape}, expected ({t.kappa},)")
    e = joint_measure(t)
    pts = e.points()
    scale = float(np.max(np.abs(pts))) if pts.size else 0.0
    return calculus_scalar(e, fractional_fn(beta, tol=1e-12 * (1.0 + scale)))


def parts_decompose(t: CommutingTuple, signs) -> CommutingTuple:
    """Signed-part tuple A_eps: component j is f_{eps_j}(A_j) via the joint calculus."""
    phis = parts_fns(signs)
    if len(phis) != t.kappa:
        raise ParameterError(f"{len(phis)} signs for a kappa={t.kappa} tuple")
    return calculus_vector(joint_measure(t), phis)


def is_positive_tuple(t: CommutingTuple, tol: float = TOL_POSITIVE) -> bool:
    """True iff every atom coordinate is >= -tol * (1 + ||A_j||).

    Equivalent to each component being positive semidefinite, up to the
    tolerance convention shared with linalg.is_psd.
    """
    e = joint_measure(t)
    pts = e.points()
    if pts.size == 0:
        return True
    for j, op in enumerate(t.ops):
        if np.min(pts[:, j]) < -tol * (1.0 + op.norm()):
            return False
    return True
