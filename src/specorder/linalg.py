"""Hermitian matrices, orthogonal projections, and the Loewner cone.

Everything downstream (joint spectral measures, order predicates, resolution
checks) reduces to the primitives here: a deterministic Hermitian
eigendecomposition, range-basis projections with join/meet, and tolerance-aware
comparisons. Every decision threshold in the package is a tolerance (TOL by
default) times the size of what it compares, with no absolute floor, so
verdicts do not change when all operands are scaled by one positive number;
eigh's backward error, n * eps * ||A|| (Golub & Van Loan 8.1), is far below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EigenConvergenceError, HermiticityError, ParameterError

TOL = 1e-8
# the first entry of each eigenvector above this magnitude is made real positive
PHASE_PIVOT = 1e-12


def as_complex_matrix(obj) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    m = np.asarray(obj, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    return m


def check_tol(tol, name: str = "tol") -> float:
    """The tolerance as a float; ParameterError naming it unless it is
    finite and >= 0."""
    tol = float(tol)
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"{name} must be finite and nonnegative, got {tol!r}")
    return tol


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check against one threshold: whether it holds, a witness
    when it does not, and ``defect``, the nonnegative quantity the check
    compares with its threshold. A failing verdict's defect is the value at
    its witness; a holding verdict's is the largest value evaluated, clipped
    at 0."""

    holds: bool
    witness: object | None
    defect: float

    def __bool__(self):
        return self.holds


def sorted_distinct(a) -> np.ndarray:
    """The distinct values of a 1-d array in ascending order: sort, then keep
    each value that differs from the one before it. On finite input this is
    np.unique, which imports numpy.ma on its first call."""
    a = np.sort(a)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def as_point(x, kappa: int) -> np.ndarray:
    """x as a float point of R^kappa: DimensionError for another shape,
    ParameterError for NaN; +-inf coordinates are kept."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (kappa,):
        raise DimensionError(f"point has shape {x.shape}, expected ({kappa},)")
    if np.isnan(x).any():
        raise ParameterError(f"point {tuple(map(float, x))} has a NaN coordinate")
    return x


def _read_only(a: np.ndarray) -> np.ndarray:
    # a private copy, so freezing it leaves the caller's array writable
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix together with the symmetry defect it was built from.

    The stored matrix is the symmetrization M/2 + M*/2 of the input, so its
    eigenvalues are real by construction; ``hermiticity_defect`` records how
    far the raw input was from Hermitian.
    """

    matrix: np.ndarray
    hermiticity_defect: float

    @classmethod
    def from_matrix(cls, m, tol: float = TOL) -> "HermitianOperator":
        m = as_complex_matrix(m)
        tol = check_tol(tol)
        # a defect past the float range reads inf, which exceeds any threshold
        with np.errstate(over="ignore"):
            defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
            threshold = tol * (float(np.max(np.abs(m))) if m.size else 0.0)
        if defect > threshold:
            raise HermiticityError(defect, threshold)
        # halve before adding, so entries near the float limit do not overflow
        return cls(matrix=_read_only(m / 2.0 + m.conj().T / 2.0), hermiticity_defect=defect)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        """Frobenius norm of the symmetrized matrix.

        When squaring the entries overflows, the norm is taken on M/2^e, e the
        binary exponent of max|M|, and scaled back; power-of-two scaling is
        exact, so only a norm beyond the float range stays infinite.
        """
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.matrix))
            if norm == np.inf:
                parts = self.matrix.view(np.float64)
                e = int(np.frexp(np.max(np.abs(parts)))[1])
                scaled = np.ldexp(parts, -e).view(self.matrix.dtype)
                norm = float(np.ldexp(np.linalg.norm(scaled), e))
        return norm

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim}, defect={self.hermiticity_defect:.2e})"


def _coerce_hermitian(op) -> np.ndarray:
    if isinstance(op, HermitianOperator):
        return op.matrix
    return HermitianOperator.from_matrix(op).matrix


def _normalize_columns(vectors: np.ndarray, tol: float = PHASE_PIVOT) -> np.ndarray:
    """Phase-normalize: first entry of magnitude > tol in each column made real positive.

    Works on stacks (..., n, k); a column with no entry above tol is left as is.
    """
    v = np.array(vectors)
    if v.shape[-2] == 0:
        return v
    big = np.abs(v) > tol
    first = np.argmax(big, axis=-2)[..., None, :]
    found = np.take_along_axis(big, first, axis=-2)
    pivot = np.where(found, np.take_along_axis(v, first, axis=-2), 1.0)
    # hypot, not abs: it rounds like the scalar abs of one complex entry
    phase = np.conj(pivot) / np.hypot(pivot.real, pivot.imag)
    return np.where(found, v * phase, v)


def hermitian_eig(op) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigendecomposition of a Hermitian operator.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and ``V`` unitary,
    ``op = V diag(w) V*``. Each eigenvector's first entry of magnitude above
    PHASE_PIVOT is made real positive, so repeated runs on the same input
    give identical output.

    Raises
    ------
    EigenConvergenceError
        If the underlying solver fails; carries the residual of the best
        available decomposition.
    """
    m = _coerce_hermitian(op)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        raise EigenConvergenceError(float(np.linalg.norm(m))) from None
    v = _normalize_columns(v)
    return w.astype(np.float64), v


@dataclass(frozen=True, eq=False)
class Projection:
    """Orthogonal projection stored by an orthonormal basis of its range.

    ``range_basis`` is n x r with orthonormal columns; r = 0 encodes the zero
    projection. The dense matrix V V* is materialized on demand.
    """

    range_basis: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        b = self.range_basis
        if b.ndim != 2:
            raise DimensionError(f"range basis must be 2-d, got shape {b.shape}")
        object.__setattr__(self, "range_basis", _read_only(np.asarray(b, dtype=np.complex128)))
        object.__setattr__(self, "dim", b.shape[0])

    @classmethod
    def zero(cls, n: int) -> "Projection":
        return cls(np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def identity(cls, n: int) -> "Projection":
        return cls(np.eye(n, dtype=np.complex128))

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        v = self.range_basis
        return v @ v.conj().T

    def orthonormality_defect(self) -> float:
        v = self.range_basis
        if v.shape[1] == 0:
            return 0.0
        return float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))

    def complement(self) -> "Projection":
        """Projection onto the orthogonal complement of the range."""
        v = self.range_basis
        if v.shape[1] == 0:
            return Projection.identity(self.dim)
        if v.shape[1] == self.dim:
            return Projection.zero(self.dim)
        # full SVD of the basis: trailing left singular vectors span the complement
        u, _, _ = np.linalg.svd(v, full_matrices=True)
        return Projection(_normalize_columns(u[:, v.shape[1]:]))

    def apply(self, h: np.ndarray) -> np.ndarray:
        v = self.range_basis
        return v @ (v.conj().T @ np.asarray(h, dtype=np.complex128))

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank})"


def orthonormalize(columns) -> Projection:
    """Projection onto the column span, rank decided by a singular-value cutoff.

    The cutoff is TOL times the largest column norm; a zero input yields the
    zero projection.
    """
    c = np.asarray(columns, dtype=np.complex128)
    if c.ndim != 2:
        raise DimensionError(f"expected a 2-d array of columns, got shape {c.shape}")
    n = c.shape[0]
    if c.shape[1] == 0:
        return Projection.zero(n)
    largest = float(np.linalg.norm(c, axis=0).max())
    if largest == 0.0:
        return Projection.zero(n)
    u, s, _ = np.linalg.svd(c, full_matrices=False)
    r = int(np.sum(s > TOL * largest))
    return Projection(_normalize_columns(u[:, :r]))


def proj_leq(p: Projection, q: Projection, tol: float = TOL) -> bool:
    """Range inclusion ran(p) <= ran(q), i.e. p <= q in the projection lattice.

    Decided by the Frobenius residual of p's basis outside q's range:
    ||(I - Q) V_p||_F <= tol * max(1, rank p).
    """
    tol = check_tol(tol)
    if p.dim != q.dim:
        raise DimensionError(f"projections on different spaces: {p.dim} vs {q.dim}")
    if p.rank == 0:
        return True
    vp, vq = p.range_basis, q.range_basis
    # (I - Q) V_p computed without forming Q
    residual = vp - vq @ (vq.conj().T @ vp)
    return float(np.linalg.norm(residual)) <= tol * max(1, p.rank)


def subspace_join(p: Projection, q: Projection) -> Projection:
    """Projection onto ran(p) + ran(q)."""
    if p.dim != q.dim:
        raise DimensionError(f"projections on different spaces: {p.dim} vs {q.dim}")
    stacked = np.hstack([p.range_basis, q.range_basis])
    if stacked.shape[1] == 0:
        return Projection.zero(p.dim)
    return orthonormalize(stacked)


def subspace_meet(p: Projection, q: Projection) -> Projection:
    """Projection onto ran(p) ∩ ran(q), via complements: meet = (p' ∨ q')'."""
    return subspace_join(p.complement(), q.complement()).complement()


def is_psd(op, tol: float = TOL) -> bool:
    """True iff the operator's minimum eigenvalue is >= -tol * spectral norm."""
    tol = check_tol(tol)
    m = _coerce_hermitian(op)
    if m.shape[0] == 0:
        return True
    w = np.linalg.eigvalsh(m)
    return float(w[0]) >= -tol * float(np.max(np.abs(w)))


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator ab - ba."""
    am = _coerce_hermitian(a)
    bm = _coerce_hermitian(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am @ bm - bm @ am))
