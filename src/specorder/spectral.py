"""Commuting Hermitian tuples and their joint spectral measures.

In finite dimension the joint spectral measure of a pairwise-commuting tuple
(A_1, ..., A_kappa) is atomic: finitely many points in R^kappa, each carrying
an orthogonal projection, mutually orthogonal and summing to the identity,
with A_j recovered as the sum of lambda_j-weighted projections. The measure is
computed by recursive simultaneous diagonalization: diagonalize A_1, split its
spectrum into clusters, compress A_2 to each cluster's eigenspace, recurse.

The measure is stored as arrays: the atom points, and one unitary whose
columns are grouped by atom. Every spectral integral, the calculus and the
monomials included, is then one product with that unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CommutationError, DimensionError, ParameterError
from .functions import _check_multi_index, fractional_fn, parts_fns
from .linalg import (
    TOL,
    HermitianOperator,
    Projection,
    _normalize_columns,
    _read_only,
    commutator_norm,
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
                threshold = tol_comm * norms[i] * norms[j]
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


@dataclass(frozen=True, eq=False, init=False)
class JointSpectralMeasure:
    """Atomic projection-valued measure on R^kappa, E = sum_a delta_{p_a} P_a.

    ``points()`` is the read-only m x kappa array of atom points, sorted
    lexicographically. ``basis`` (n x r, orthonormal columns) holds the
    atoms' range bases side by side in point order: atom a owns ``ranks[a]``
    columns, and ``owner`` maps each column to its atom. For a tuple's
    measure r = n. The keyword constructor stacks (point, Projection) pairs
    in the given order; ``atoms`` and ``projections()`` rebuild them. The
    arrays are stored as read-only copies.
    """

    kappa: int
    dim: int
    basis: np.ndarray
    ranks: np.ndarray
    owner: np.ndarray
    _points: np.ndarray

    def __init__(self, kappa: int, dim: int, atoms):
        self._store(*_stack(kappa, dim, [(pt, p.range_basis) for pt, p in atoms]))

    @classmethod
    def from_arrays(cls, points, basis, ranks):
        e = cls.__new__(cls)
        e._store(points, basis, ranks)
        return e

    def _store(self, points, basis, ranks):
        ranks = np.asarray(ranks, dtype=np.intp)
        for name, value in (("_points", np.asarray(points, dtype=np.float64)), ("ranks", ranks),
                            ("basis", np.asarray(basis, dtype=np.complex128)),
                            ("owner", np.repeat(np.arange(ranks.size), ranks))):
            object.__setattr__(self, name, _read_only(value))
        object.__setattr__(self, "kappa", self._points.shape[1])
        object.__setattr__(self, "dim", self.basis.shape[0])

    def points(self) -> np.ndarray:
        return self._points

    @property
    def atoms(self) -> tuple[tuple[tuple[float, ...], Projection], ...]:
        return tuple(zip(map(tuple, self._points.tolist()), self.projections()))

    def projections(self) -> list[Projection]:
        return [Projection(self.basis[:, self.owner == a]) for a in range(self.n_atoms())]

    def n_atoms(self) -> int:
        return self._points.shape[0]

    def join(self, indices) -> Projection:
        """Join of the selected atoms' projections: their basis columns, in atom
        order, orthonormal already because the atoms are mutually orthogonal."""
        return Projection(self.basis[:, np.isin(self.owner, list(indices))])

    def distribution(self, x, atol: float = 0.0) -> Projection:
        """F(x) = measure of the closed lower orthant at x; right-continuous in x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.kappa,):
            raise DimensionError(f"point has shape {x.shape}, expected ({self.kappa},)")
        return self.join(np.flatnonzero(np.all(self._points <= x + atol, axis=1)))

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
        """max_j ||A_j - sum lambda_j P_lambda||_F, the moment-recovery residual."""
        u = self.basis
        moments = (u * self._points[self.owner].T[:, None, :]) @ u.conj().T
        return float(np.max(np.linalg.norm(np.stack(t.matrices()) - moments, axis=(1, 2))))

    def __repr__(self):
        return (f"JointSpectralMeasure(kappa={self.kappa}, dim={self.dim}, "
                f"atoms={self.n_atoms()})")


def _stack(kappa: int, dim: int, pairs) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Points, stacked bases and ranks of (point, basis) pairs, in the given order."""
    points = np.array([pt for pt, _ in pairs], dtype=np.float64).reshape(len(pairs), kappa)
    bases = [np.zeros((dim, 0), dtype=np.complex128)] + [b for _, b in pairs]
    return points, np.hstack(bases), [b.shape[1] for b in bases[1:]]


def _split_clusters(values: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Indices of maximal runs of ascending values with gaps <= threshold."""
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    breaks = np.flatnonzero(np.diff(sorted_vals) > threshold)
    return [seg for seg in np.split(order, breaks + 1)]


def _merge_points(points, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge points that are within tol * (largest finite |coordinate| on
    that axis) of each other on every axis.

    The radius is per axis, so scaling one coordinate, a separately
    increasing map, merges the same points. The first point in input order
    represents its group; a later point joins the first representative
    within that distance. Returns the representatives sorted
    lexicographically and, for each input point, the index of its group's
    representative in that sorted array.
    """
    pts = np.asarray(points, dtype=np.float64)
    radius = tol * np.max(np.abs(pts), axis=0, initial=0.0, where=np.isfinite(pts))
    group = np.full(pts.shape[0], -1)
    first: list[int] = []
    for i in range(pts.shape[0]):
        if group[i] < 0:
            near = np.all(np.abs(pts - pts[i]) <= radius, axis=1)
            group[near & (group < 0)] = len(first)
            group[i] = len(first)  # an infinite point is NaN away from itself
            first.append(i)
    reps = pts[first]
    order = np.lexsort(reps.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return reps[order], rank[group]


def joint_measure(t: CommutingTuple) -> JointSpectralMeasure:
    """Joint spectral measure by recursive cluster diagonalization.

    Level j diagonalizes the compression of A_j to the current invariant
    subspace, splits the spectrum at gaps exceeding TOL * ||A_j||, and
    recurses into each cluster with the cluster mean as the j-th atom
    coordinate. Distinct atoms are separated by more than the threshold in
    at least one coordinate, so points are pairwise distinct in the sup
    norm. The threshold scales with A_j, so c * A has the atoms of A
    scaled by c for every c > 0.

    The measure is computed once per tuple and kept on it.
    """
    if t._measure is None:
        object.__setattr__(t, "_measure", _diagonalize(t))
    return t._measure


def _diagonalize(t: CommutingTuple) -> JointSpectralMeasure:
    thresholds = [TOL * op.norm() for op in t.ops]
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
    points, basis, ranks = _stack(t.kappa, t.dim, sorted(leaves, key=lambda leaf: leaf[0]))
    # re-fix column phases lost while composing cluster bases, all atoms in one call
    return JointSpectralMeasure.from_arrays(points, _normalize_columns(basis), ranks)


def _rule_values(phi, points: np.ndarray) -> np.ndarray:
    """phi at every point; a non-finite value is raised on later, not warned about here."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([float(phi(p)) for p in points], dtype=np.float64)


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

    ``phi`` is a scalar rule, or an array of its values at ``e.points()``.
    The product is symmetrized as M/2 + M^H/2, so entries near the float
    limit do not overflow; ParameterError when the result is not finite.
    """
    values = phi if isinstance(phi, np.ndarray) else _rule_values(phi, e.points())
    with np.errstate(over="ignore", invalid="ignore"):
        m = (e.basis * values[e.owner]) @ e.basis.conj().T
        m = m / 2.0 + m.conj().T / 2.0
    if not np.all(np.isfinite(m)):
        raise ParameterError(f"calculus of {getattr(phi, 'tag', 'the rule')} is not finite")
    return HermitianOperator(m, 0.0)


def calculus_vector(e: JointSpectralMeasure, phis) -> CommutingTuple:
    """Componentwise calculus; the result commutes by shared-basis construction."""
    herms = [calculus_scalar(e, phi) for phi in phis]
    if not herms:
        raise DimensionError("vector calculus needs at least one component rule")
    return _tuple_from_shared_basis(herms)


def pushforward(e: JointSpectralMeasure, phis) -> JointSpectralMeasure:
    """Image measure under the vector rule: atoms mapped, then merged.

    Mapped points within TOL times the largest mapped |coordinate| on each
    axis of each other fuse into one atom whose projection is the join of
    the originals.
    """
    mapped = np.stack([_rule_values(phi, e.points()) for phi in phis], axis=1)
    reps, group = _merge_points(mapped, TOL)
    # merged atoms keep their columns in atom order
    cols = np.argsort(group[e.owner], kind="stable")
    ranks = np.bincount(group, weights=e.ranks, minlength=len(reps)).astype(np.intp)
    return JointSpectralMeasure.from_arrays(reps, e.basis[:, cols], ranks)


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
    """True iff every atom coordinate is >= -tol * ||A_j||.

    Equivalent to each component being positive semidefinite, up to the
    tolerance rule shared with linalg.is_psd.
    """
    floor = [-tol * op.norm() for op in t.ops]
    return bool(np.all(joint_measure(t).points() >= floor))
