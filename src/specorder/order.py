"""The spectral (distribution-function) order for commuting Hermitian tuples.

A <= B in this order iff F_B(x) <= F_A(x) as projections for every x, where
F(x) is the joint spectral measure of the closed lower orthant at x. Both
distribution functions are step functions jumping only at atom coordinates,
so checking every point of the per-axis coordinate union grid is exact; that
finite reduction is what spectral_leq runs.

The rest of the module implements the characterizations that make the order
usable: componentwise reduction, transport through increasing functions,
monomial-power necessity scans for positive tuples, growth-ratio and
bounded-vector criteria, the complexification for normal operators, and the
probe showing candidate infima of projection tuples need not commute.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    DimensionError,
    MonotonicityError,
    NormalityError,
    ParameterError,
    PositivityError,
    PreconditionError,
)
from .linalg import (
    TOL,
    HermitianOperator,
    Verdict,
    _read_only,
    _scaled,
    as_complex_matrix,
    check_tol,
    commutator_norm,
    orthonormalize,
    sorted_distinct,
    subspace_meet,
)
from .measures import audit_iota_increasing, tuple_scalar_measure
from .spectral import (
    CommutingTuple,
    JointSpectralMeasure,
    _monomial_values,
    is_positive_tuple,
    joint_measure,
    pushforward,
    validate_tuple,
)


def _coerce_tuple(t) -> CommutingTuple:
    if isinstance(t, CommutingTuple):
        return t
    return validate_tuple(t)


def _pair(a, b) -> tuple[CommutingTuple, CommutingTuple]:
    """Both tuples coerced; ParameterError unless they share kappa and dim."""
    ta, tb = _coerce_tuple(a), _coerce_tuple(b)
    if ta.kappa != tb.kappa:
        raise ParameterError(f"tuples of different lengths: {ta.kappa} vs {tb.kappa}")
    if ta.dim != tb.dim:
        raise ParameterError(f"tuples on different spaces: {ta.dim} vs {tb.dim}")
    return ta, tb


_EPS = float(np.finfo(np.float64).eps)

# bounded_vector_membership's growth route admits a rate up to 1 + this
_GROWTH_MARGIN = 0.05

# Grid points times atoms per step of the witness walk, so its masks stay
# a few MB however large the grid is.
_WALK_CELLS = 1 << 18


class _OrderKernel:
    """Residuals of the distribution order at any set of merged-grid points.

    The residual at a grid point x is ||(I - F_a(x)) V_b(x)||_F for an
    orthonormal basis V_b(x) of ran F_b(x); inclusion holds when it is at
    most tol * max(1, rank F_b(x)). Atoms of ea within tol * max|coordinate|
    on an axis above a grid coordinate still count toward F_a there, so
    eigenvalue ties split by roundoff do not report order failures.

    Every point shares one Gram matrix M[a, b] = ||U_a^H W_b||_F^2 of the
    atom bases U_a of ea and W_b of eb. Because the atom projections of ea
    sum to the identity, the squared residual at x is the sum of M[a, b]
    over atoms a outside F_a(x) and b inside F_b(x).
    """

    def __init__(self, ea: JointSpectralMeasure, eb: JointSpectralMeasure, tol: float):
        if ea.kappa != eb.kappa or ea.dim != eb.dim:
            raise ParameterError(
                f"measures disagree in shape: kappa {ea.kappa}/{eb.kappa}, "
                f"dim {ea.dim}/{eb.dim}")
        pa, pb = ea.points(), eb.points()
        self.tol = check_tol(tol)
        self.axes = [sorted_distinct(np.concatenate([pa[:, j], pb[:, j]]))
                     for j in range(ea.kappa)]
        self.empty = any(ax.size == 0 for ax in self.axes)
        if self.empty:
            return
        # One-sided coordinate slack for the dominating side. An atom of ea
        # that belongs exactly at x can land a few ulps above it after
        # diagonalization (tied eigenvalues, e.g. the saturated branch of a
        # positive part); without the slack such a tie fails with an O(1)
        # projection defect over an O(ulp) coordinate window.
        slack = [tol * float(np.abs(ax).max()) for ax in self.axes]
        # atom inside the orthant on axis j at each axis value: atoms x values
        self.in_a = [pa[:, j][:, None] <= (ax + s)[None, :]
                     for j, (ax, s) in enumerate(zip(self.axes, slack))]
        self.in_b = [pb[:, j][:, None] <= ax[None, :] for j, ax in enumerate(self.axes)]
        self.points_b = pb
        self.ranks_b = eb.ranks.astype(np.float64)
        self.atoms = max(ea.n_atoms(), eb.n_atoms())
        # The residual sums nonnegative Gram entries, so nothing cancels; the
        # overlap form rank F_b - ||F_a(x) V_b(x)||^2 would lose half the
        # mantissa and sit exactly at tol after the sqrt. Row a of a column
        # mask marks the basis columns of atom a.
        cols_a = ea.owner == np.arange(ea.n_atoms())[:, None]
        cols_b = eb.owner == np.arange(eb.n_atoms())[:, None]
        self.gram = cols_a @ (np.abs(ea.basis.conj().T @ eb.basis) ** 2) @ cols_b.T

    def residuals(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Residuals, and where they fail, at the points with axis indices idx."""

        def inside(per_axis):
            incl = per_axis[0][:, idx[0]]
            for mask, i in zip(per_axis[1:], idx[1:]):
                incl &= mask[:, i]
            return incl

        incl_b = inside(self.in_b).astype(np.float64)
        outside = self.gram @ incl_b
        outside *= ~inside(self.in_a)
        residual = np.sqrt(outside.sum(axis=0))
        return residual, residual > self.tol * np.maximum(1.0, self.ranks_b @ incl_b)

    @functools.cached_property
    def lines(self) -> Verdict:
        """The order read on the axis lines, each coordinate but one at the
        top of its axis, where every atom is inside: the kappa=1 orders of
        the marginals, one (m_a x m_b)(m_b x G_j) product per axis. A failure
        has witness (axis, (t,)), t the first failing value on the first
        failing axis, and that residual as its defect; a holding verdict's
        defect is the largest residual on the lines. Read once per kernel;
        both order routes share it."""
        if self.empty:
            return Verdict(holds=True, witness=None, defect=0.0)
        tops = [ax.size - 1 for ax in self.axes]
        worst = 0.0
        for j, ax in enumerate(self.axes):
            idx = [np.full(ax.size, top) for top in tops]
            idx[j] = np.arange(ax.size)
            residual, bad = self.residuals(idx)
            if bad.any():
                i = int(np.argmax(bad))
                return Verdict(holds=False, witness=(j, (float(ax[i]),)),
                               defect=float(residual[i]))
            worst = max(worst, float(residual.max()))
        return Verdict(holds=True, witness=None, defect=worst)

    def first_failure(self) -> Verdict:
        """The lexicographically first failing grid point, given that one fails.

        F_b(x) changes only at eb's coordinates, and F_a(x) only grows with
        x, so lowering a coordinate of a failing point to eb's next
        coordinate below keeps it failing (with none below, F_b(x) = 0 and
        nothing fails, as tol >= 0). The first failing point therefore lies
        on eb's sub-grid, and only that sub-grid is walked: in lex order,
        starting with one first-axis slice and doubling the step, up to
        _WALK_CELLS points x atoms."""
        steps = [sorted_distinct(np.searchsorted(ax, self.points_b[:, j]))
                 for j, ax in enumerate(self.axes)]
        sizes = [s.size for s in steps]
        total = prod(sizes)
        step, cap = total // sizes[0], max(1, _WALK_CELLS // max(1, self.atoms))
        start = 0
        while start < total:
            stop = min(total, start + min(step, cap))
            idx = [s[i] for s, i in zip(steps, np.unravel_index(np.arange(start, stop), sizes))]
            residual, bad = self.residuals(idx)
            if bad.any():
                g = int(np.argmax(bad))  # first True in lex order
                witness = tuple(float(ax[i[g]]) for ax, i in zip(self.axes, idx))
                return Verdict(holds=False, witness=witness, defect=float(residual[g]))
            start, step = stop, 2 * step
        raise AssertionError("a failing grid point lowers onto eb's sub-grid")


@functools.lru_cache(maxsize=1)
def _kernel(ea: JointSpectralMeasure, eb: JointSpectralMeasure, tol: float) -> _OrderKernel:
    """The kernel of the last pair of measures asked for, built once for both
    order routes; measures compare by identity, and their arrays are read-only."""
    return _OrderKernel(ea, eb, tol)


def distribution_order(ea: JointSpectralMeasure, eb: JointSpectralMeasure,
                       tol: float = TOL) -> Verdict:
    """F_b(x) <= F_a(x) for all x on the merged coordinate grid.

    The grid is the product of the per-axis unions of atom coordinates;
    the residual, slack and threshold at each point are _OrderKernel's, and
    tol must be finite and nonnegative. The order is the product of the
    kappa one-dimensional orders of the marginals, so the verdict is
    decided on the axis lines alone (_OrderKernel.lines), and a holding
    verdict is theirs: its defect, the largest residual on the lines, is
    within a factor sqrt(kappa) of the largest over the grid. Only a failing verdict walks the grid, lazily and in
    lexicographic order, to its first failing point: the witness, with that
    point's residual as the defect.

    Each pair of atoms in a grid point's residual is also in the residual
    of some axis line at that point's coordinate, so the squared residual
    is at most the sum of the kappa line residuals squared: with no
    tolerance the lines fail exactly when some point does. Within the
    tolerance a point off the lines may exceed its own threshold while
    every line holds; the verdict is then "holds".
    """
    kernel = _kernel(ea, eb, tol)
    return kernel.lines if kernel.lines.holds else kernel.first_failure()


def _joint_measures(a, b) -> tuple[JointSpectralMeasure, JointSpectralMeasure]:
    ta, tb = _pair(a, b)
    return joint_measure(ta), joint_measure(tb)


def spectral_leq(a, b, tol: float = TOL) -> Verdict:
    """a <= b in the spectral order, via joint measures and the merged grid."""
    return distribution_order(*_joint_measures(a, b), tol=tol)


def spectral_leq_componentwise(a, b, tol: float = TOL) -> Verdict:
    """Product-order reduction: the kappa=1 order per coordinate.

    The axis lines of distribution_order on the two joint measures: the
    witness is (axis, (t,)) for the first failing value t of the first
    failing axis, and the defect is that residual (the largest on the axis
    lines when the order holds).
    """
    return _kernel(*_joint_measures(a, b), tol).lines


def loewner_leq(a, b, tol: float = TOL) -> bool:
    """a <= b in the Loewner order: b - a PSD within tol * max(||a||_F, ||b||_F).
    DimensionError for operators of different sizes."""
    ha = a if isinstance(a, HermitianOperator) else HermitianOperator.from_matrix(a)
    hb = b if isinstance(b, HermitianOperator) else HermitianOperator.from_matrix(b)
    if ha.dim != hb.dim:
        raise DimensionError(f"operators of sizes {ha.dim} and {hb.dim}")
    am, bm, _ = _scaled(ha.matrix, hb.matrix)
    tol, w = check_tol(tol), np.linalg.eigvalsh(bm - am)
    return w.size == 0 or float(w[0]) >= -tol * max(np.linalg.norm(am), np.linalg.norm(bm))


def monotone_transport_check(a, b, phi, tol: float = TOL) -> Verdict:
    """phi(A) <= phi(B) for increasing phi, given A <= B.

    Preconditions: spectral_leq(a, b) holds, and phi passes the
    kappa-increasing audit on the union of both atom sets. Raises
    PreconditionError or MonotonicityError accordingly; the returned verdict
    is the kappa=1 order check of the transported operators. This is
    restricted_monotone_check with iota = kappa.
    """
    ta = _coerce_tuple(a)
    return restricted_monotone_check(ta, b, phi, iota=ta.kappa, tol=tol)


def restricted_monotone_check(a, b, phi, iota: int, omega=None,
                              tol: float = TOL) -> Verdict:
    """Transport through a phi that is only iota-increasing.

    Hypotheses checked, each raising PreconditionError naming itself:
      - trailing components equal: A_j = B_j for j >= iota;
      - spectral_leq(a, b) holds;
      - every atom's trailing coordinates satisfy the omega predicate
        (omega=None accepts everything);
    and phi must pass the iota-increasing audit on the union of atom points
    (MonotonicityError otherwise). Returns the kappa=1 verdict for
    phi(A) <= phi(B).
    """
    ta, tb = _pair(a, b)
    if not 1 <= iota <= ta.kappa:
        raise ParameterError(f"iota must be in 1..{ta.kappa}, got {iota}")
    with np.errstate(over="ignore"):
        for j in range(iota, ta.kappa):
            am, bm, e = _scaled(ta.ops[j].matrix, tb.ops[j].matrix)
            gap = float(np.linalg.norm(am - bm))
            if gap > tol * np.linalg.norm(am):
                raise PreconditionError("trailing components equal",
                                        f"component {j} differs by {np.ldexp(gap, e):.3e}")
    ea, eb = joint_measure(ta), joint_measure(tb)
    base = distribution_order(ea, eb, tol=tol)
    if not base.holds:
        raise PreconditionError("spectral_leq(a, b)",
                                f"fails at grid point {base.witness}")
    points = np.vstack([ea.points(), eb.points()])
    if omega is not None:
        for p in points:
            if not omega(p[iota:]):
                raise PreconditionError(
                    "atom tails inside omega",
                    f"tail {tuple(p[iota:])} of atom {tuple(p)} rejected")
    audit = audit_iota_increasing(phi, points, iota=iota)
    if not audit.holds:
        raise MonotonicityError(audit.witness, iota)
    # transport on the measure side: phi(atom) stays exact where
    # rebuilding phi(A) and re-diagonalizing would scatter tied
    # eigenvalues (clip saturation, equal parts) to either side of
    # each other by roundoff
    return distribution_order(pushforward(ea, [phi]), pushforward(eb, [phi]),
                              tol=tol)


def _require_positive(t: CommutingTuple, name: str):
    if not is_positive_tuple(t):
        pts = joint_measure(t).points()
        j = int(np.argmin(pts.min(axis=0)))
        raise PositivityError(name, j, float(pts[:, j].min()))


def multi_indices(kappa: int, max_order: int) -> list[tuple[int, ...]]:
    """All alpha in Z_+^kappa with |alpha| <= max_order, by |alpha| then lex."""
    if max_order < 0:
        raise ParameterError(f"max_order must be >= 0, got {max_order}")
    out = [alpha for alpha in itertools.product(range(max_order + 1), repeat=kappa)
           if sum(alpha) <= max_order]
    out.sort(key=lambda alpha: (sum(alpha), alpha))
    return out


def olson_necessity_scan(a, b, alpha_max: int, tol: float = TOL) -> Verdict:
    """Scan A^alpha <= B^alpha (Loewner) over |alpha| <= alpha_max.

    For positive tuples this family of inequalities is necessary for the
    spectral order, so a failing alpha certifies the order fails; the scan
    returns the first failure in (|alpha|, lex) order. All passing is
    evidence, not proof, up to the tested depth. Raises PositivityError for
    non-positive input.
    """
    return scaled_monomial_check(a, b, lambda alpha: 1.0, alpha_max, tol=tol)


def _cholesky_certifies(diff: np.ndarray, tol: float, scale: float) -> bool:
    """Whether diff + (tol / 2) * scale * I has a Cholesky factor, which
    proves lambda_min(diff) > -tol * scale when ||diff|| <= 2 * scale.

    A Cholesky factorization that runs to completion is exact for a matrix
    within n * gamma_(n+1) * ||M|| of M (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10), about n^2 * eps * scale here. The
    certificate is used only where 8 n (n + 1) eps <= tol, which keeps that
    error below (tol / 8) * scale.
    """
    n = diff.shape[0]
    if 8 * n * (n + 1) * _EPS > tol:
        return False
    with np.errstate(over="ignore"):
        shifted = diff + (tol / 2.0 * scale) * np.eye(n)
    if not np.all(np.isfinite(shifted.diagonal())):
        return False
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def scaled_monomial_check(a, b, r, alpha_max: int, tol: float = TOL) -> Verdict:
    """A^alpha <= r_alpha * B^alpha over |alpha| <= alpha_max, r_alpha >= 1.

    ``r`` is a callable taking a multi-index tuple to its scale factor
    (ParameterError otherwise). Factors below 1 are rejected with
    ParameterError since the characterization requires r_alpha >= 1 with
    subexponential growth. r_alpha B^alpha - A^alpha is built lazily in A's
    eigenbasis, one product per alpha, up to the first failing alpha. An
    alpha fails when its least eigenvalue is below -tol * scale, scale =
    max(||A^alpha||, r_alpha ||B^alpha||). ParameterError names the alpha
    where lambda^alpha or r_alpha B^alpha - A^alpha is not finite.

    An alpha holds without an eigenvalue solve when r_alpha B^alpha - A^alpha
    + (tol / 2) * scale * I has a Cholesky factor: the factorization's
    backward error then puts the least eigenvalue above -tol * scale (see
    _cholesky_certifies). Only an alpha that fails Cholesky runs
    ``eigvalsh``, and is decided by its least eigenvalue. A holding verdict's
    ``defect`` is the largest -lambda_min over the alphas that needed
    ``eigvalsh`` (0.0 when none did); a certified alpha's -lambda_min is at
    most about (tol / 2) * scale.
    """
    tol = check_tol(tol)
    if not callable(r):
        raise ParameterError(f"r must be callable, got {type(r).__name__}")
    ta, tb = _pair(a, b)
    _require_positive(ta, "a")
    _require_positive(tb, "b")
    ea, eb = joint_measure(ta), joint_measure(tb)
    # In A's eigenbasis U, r_alpha B^alpha - A^alpha is G diag(r_alpha
    # vb) G^H - diag(va), G = U^H W with W B's: one product per alpha, and
    # unitarily similar, so it has the same eigenvalues. Cholesky and
    # eigvalsh read one triangle, so it is not symmetrized.
    g = ea.basis.conj().T @ eb.basis
    diagonal = np.arange(ta.dim)
    worst = 0.0
    for alpha in multi_indices(ta.kappa, alpha_max):
        r_alpha = float(r(tuple(alpha)))
        if r_alpha < 1.0:
            raise ParameterError(f"scale r[{alpha}] = {r_alpha} < 1")
        va, vb = (_monomial_values(e.points(), alpha) for e in (ea, eb))
        with np.errstate(over="ignore", invalid="ignore"):
            diff = (g * (r_alpha * vb[eb.owner])) @ g.conj().T
            diff[diagonal, diagonal] -= va[ea.owner]
        if not np.all(np.isfinite(diff)):
            raise ParameterError(f"r_alpha B^alpha - A^alpha at alpha={alpha} is not finite")
        # ||X^alpha|| is the largest |lambda^alpha| over X's atoms
        scale = max(float(np.max(np.abs(va), initial=0.0)),
                    r_alpha * float(np.max(np.abs(vb), initial=0.0)))
        if _cholesky_certifies(diff, tol, scale):
            continue
        w = np.linalg.eigvalsh(diff)
        lo = float(w[0]) if w.size else 0.0
        if lo < -tol * scale:
            return Verdict(holds=False, witness=tuple(alpha), defect=-lo)
        worst = max(worst, max(0.0, -lo))
    return Verdict(holds=True, witness=None, defect=worst)


def _moment_norm(mu, alpha) -> float:
    """||A^alpha h|| from the vector-state measure: sqrt of its x^(2 alpha) moment."""
    if mu.n_atoms == 0:
        return 0.0
    powers = np.prod(mu.points ** (2.0 * np.asarray(alpha, dtype=np.float64)), axis=1)
    return float(np.sqrt(np.sum(mu.weights * powers)))


def _root_ratio(num: float, den: float, s: int) -> float:
    """(num / den)^(1/s) with the conventions 0/0 = 0 and positive/0 = inf."""
    if num == 0.0:
        return 0.0
    return float("inf") if den == 0.0 else (num / den) ** (1.0 / s)


@dataclass(frozen=True)
class GrowthRatioReport:
    """Shellwise maxima of (||A^alpha h|| / ||B^alpha h||)^(1/|alpha|).

    ``limit_estimate`` is the maximum over the outermost tested shell, taken
    as the finite-depth stand-in for the limsup; no extrapolation is done.
    Conventions: 0/0 = 0 and positive/0 = inf, so inf in the outermost shell
    makes the estimate inf.
    """

    shell_maxima: dict
    limit_estimate: float
    alpha_max: int
    n_tested: int


def growth_ratio(a, b, h, lambda_filter=None, alpha_max: int = 12) -> GrowthRatioReport:
    """Relative monomial growth of two positive tuples on a vector.

    ||A^alpha h||^2 is the x^{2 alpha} moment of the vector-state measure, so
    the scan needs no matrix powers. ``lambda_filter`` restricts the tested
    multi-indices (e.g. to an axis); shells left empty by the filter are
    omitted.
    """
    ta, tb = _pair(a, b)
    _require_positive(ta, "a")
    _require_positive(tb, "b")
    if alpha_max < 1:
        raise ParameterError(f"alpha_max must be >= 1, got {alpha_max}")
    # the ratio does not depend on ||h||, so it is taken for h/2^e, whose
    # masses stay in the float range
    h = np.asarray(h, dtype=np.complex128)
    h = _scaled(h)[0].reshape(h.shape)
    mu_a = tuple_scalar_measure(ta, h)
    mu_b = tuple_scalar_measure(tb, h)
    shell_maxima: dict[int, float] = {}
    n_tested = 0
    for alpha in multi_indices(ta.kappa, alpha_max):
        s = sum(alpha)
        if s == 0:
            continue
        if lambda_filter is not None and not lambda_filter(alpha):
            continue
        n_tested += 1
        rate = _root_ratio(_moment_norm(mu_a, alpha), _moment_norm(mu_b, alpha), s)
        shell_maxima[s] = max(shell_maxima.get(s, 0.0), rate)

    estimate = shell_maxima[max(shell_maxima)] if shell_maxima else 0.0
    return GrowthRatioReport(shell_maxima=shell_maxima, limit_estimate=estimate,
                             alpha_max=alpha_max, n_tested=n_tested)


@dataclass(frozen=True)
class MembershipResult:
    """Joint bounded-vector membership, decided two ways.

    ``member`` is the spectral-projection route (h in ran F(bound));
    ``growth_member`` re-derives it from the moment growth rate. They agree
    on exact atom data; ``agree`` records whether they did here.
    """

    member: bool
    growth_member: bool
    residual: float
    growth_rate: float

    @property
    def agree(self) -> bool:
        return self.member == self.growth_member

    def __bool__(self):
        return self.member


def bounded_vector_membership(a, h, bound, tol: float = TOL,
                              alpha_max: int = 12) -> MembershipResult:
    """Is h in the joint bounded-vector space of a positive tuple at ``bound``?

    Route one projects: residual ||h - F(bound) h|| <= tol * ||h||. Route two
    scales moments: max over the outermost shell of
    (||A^alpha h|| / bound^alpha)^(1/|alpha|), which stays <= 1 for members
    (after normalizing h) and grows geometrically past any excluded atom.
    """
    tol, ta = check_tol(tol), _coerce_tuple(a)
    _require_positive(ta, "a")
    bound = np.asarray(bound, dtype=np.float64)
    if bound.shape != (ta.kappa,):
        raise ParameterError(f"bound has shape {bound.shape}, expected ({ta.kappa},)")
    if np.any(bound < 0):
        raise ParameterError("bound must be in the nonnegative orthant")
    if alpha_max < 1:
        raise ParameterError(f"alpha_max must be >= 1, got {alpha_max}")
    # membership does not depend on ||h||, so it is decided for h/2^e,
    # whose norms stay in the float range, and the residual is scaled back
    h = np.asarray(h, dtype=np.complex128)
    scaled, exponent = _scaled(h)
    h = scaled.reshape(h.shape)
    norm_h = float(np.linalg.norm(h))
    e = joint_measure(ta)
    if norm_h == 0.0:
        return MembershipResult(member=True, growth_member=True,
                                residual=0.0, growth_rate=0.0)
    f = e.distribution(bound)
    residual = float(np.linalg.norm(h - f.apply(h)))
    member = residual <= tol * norm_h

    mu = tuple_scalar_measure(ta, h / norm_h)
    rate = 0.0
    for alpha in multi_indices(ta.kappa, alpha_max):
        if sum(alpha) != alpha_max:
            continue
        den = float(np.prod(bound ** np.asarray(alpha, dtype=np.float64)))  # 0^0 = 1
        rate = max(rate, _root_ratio(_moment_norm(mu, alpha), den, alpha_max))
    growth_member = rate <= 1.0 + _GROWTH_MARGIN
    with np.errstate(over="ignore"):  # inf only past the float range
        residual = float(np.ldexp(residual, exponent))
    return MembershipResult(member=member, growth_member=growth_member,
                            residual=residual, growth_rate=rate)


@dataclass(frozen=True, eq=False)
class NormalOperator:
    """A normal matrix with its normality defect ||T T* - T* T||_F recorded."""

    matrix: np.ndarray
    normality_defect: float

    @classmethod
    def from_matrix(cls, m, tol: float = TOL) -> "NormalOperator":
        m = as_complex_matrix(m)
        s, e = _scaled(m)  # the defect and threshold of M/2^e carry one factor 4^-e
        defect = float(np.linalg.norm(s @ s.conj().T - s.conj().T @ s))
        scale = float(np.linalg.norm(s))
        threshold = check_tol(tol) * scale * scale
        with np.errstate(over="ignore"):
            if defect > threshold:
                raise NormalityError(np.ldexp(defect, 2 * e), np.ldexp(threshold, 2 * e))
            return cls(matrix=_read_only(m), normality_defect=float(np.ldexp(defect, 2 * e)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def parts(self) -> CommutingTuple:
        """The commuting pair ((T + T*)/2, (T - T*)/(2i)); inverts via re + i im.

        A part within TOL * max|T_ij| of zero is T's roundoff and becomes 0."""
        t, size = self.matrix, TOL * float(np.max(np.abs(self.matrix), initial=0.0))
        parts = [(t + t.conj().T) / 2.0, (t - t.conj().T) / (2.0j)]
        return validate_tuple([p if np.max(np.abs(p), initial=0.0) > size
                               else np.zeros_like(p) for p in parts])

    @classmethod
    def from_parts(cls, t: CommutingTuple, tol: float = TOL) -> "NormalOperator":
        if t.kappa != 2:
            raise ParameterError(f"need a pair, got kappa={t.kappa}")
        return cls.from_matrix(t.ops[0].matrix + 1j * t.ops[1].matrix, tol=tol)


def normal_leq(s, t, tol: float = TOL) -> Verdict:
    """Spectral order of normal operators through their Hermitian pairs.

    s <= t iff (Re s, Im s) <= (Re t, Im t) as commuting pairs; the map is an
    order isomorphism onto its image. NormalityError if an input is not
    normal within tolerance.
    """
    ns = s if isinstance(s, NormalOperator) else NormalOperator.from_matrix(s, tol=tol)
    nt = t if isinstance(t, NormalOperator) else NormalOperator.from_matrix(t, tol=tol)
    return spectral_leq(ns.parts(), nt.parts(), tol=tol)


@dataclass(frozen=True)
class InfimumProbeReport:
    """Coordinatewise meet candidate for two projection tuples.

    ``defect`` is the worst pairwise commutator norm among the candidate
    components; when it vanishes the candidate is itself a commuting tuple
    and ``lower_bound_ok`` says whether it sits below both inputs.
    """

    candidates: tuple[HermitianOperator, ...]
    defect: float
    commutes: bool
    lower_bound_ok: bool | None


def infimum_probe(a, b, tol: float = TOL) -> InfimumProbeReport:
    """Test the natural infimum candidate of two projection tuples.

    Componentwise the candidate is the projection onto the intersection of
    ranges (the kappa=1 infimum for projections). The candidates need not
    commute with each other, in which case no commuting tuple realizes the
    infimum this way; the report carries the commutator defect.
    """
    tol, (ta, tb) = check_tol(tol), _pair(a, b)
    for name, tt in (("a", ta), ("b", tb)):
        for j, op in enumerate(tt.ops):
            # P^2 - P = 2^e (2^e P'^2 - P') for P' = P/2^e (_scaled). A
            # projection's entries have modulus <= 1, so e <= 1; past that
            # the square could overflow, and P is refused unsquared (NaN)
            p, e = _scaled(op.matrix)
            idem = float(np.linalg.norm(np.ldexp(1.0, e) * (p @ p) - p)) if e <= 1 else np.nan
            if not idem <= tol * float(np.linalg.norm(p)):
                detail = (f"idempotency defect {np.ldexp(idem, e):.3e}" if e <= 1
                          else "an entry of modulus 2 or more")
                raise ParameterError(
                    f"component {j} of {name!r} is not a projection ({detail})")
    candidates = []
    for pa_op, pb_op in zip(ta.ops, tb.ops):
        pa = orthonormalize(pa_op.matrix)
        pb = orthonormalize(pb_op.matrix)
        meet = subspace_meet(pa, pb)
        candidates.append(HermitianOperator(meet.matrix, 0.0))
    pairs = list(itertools.combinations(candidates, 2))
    defect = max((commutator_norm(ci, cj) for ci, cj in pairs), default=0.0)
    scale = max((ci.norm() * cj.norm() for ci, cj in pairs), default=0.0)
    commutes = defect <= tol * scale
    lower_bound_ok = None
    if commutes:
        cand = validate_tuple([c.matrix for c in candidates], tol_comm=tol)
        lower_bound_ok = bool(spectral_leq(cand, ta, tol=tol).holds
                              and spectral_leq(cand, tb, tol=tol).holds)
    return InfimumProbeReport(candidates=tuple(candidates), defect=defect,
                              commutes=commutes, lower_bound_ok=lower_bound_ok)
