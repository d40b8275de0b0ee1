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

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    MonotonicityError,
    NormalityError,
    ParameterError,
    PositivityError,
    PreconditionError,
)
from .linalg import (
    HermitianOperator,
    _read_only,
    as_complex_matrix,
    commutator_norm,
    is_psd,
    orthonormalize,
    subspace_meet,
)
from .measures import audit_iota_increasing, tuple_scalar_measure
from .spectral import (
    CommutingTuple,
    JointSpectralMeasure,
    _tuple_from_shared_basis,
    is_positive_tuple,
    joint_measure,
    pushforward,
    validate_tuple,
)

TOL_ORDER = 1e-8
TOL_LOEWNER = 1e-10


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of an order check: holds, a witness when it does not, and the
    largest residual seen (diagnostic even when the check passes)."""

    holds: bool
    witness: object | None
    defect: float

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict cannot carry a witness")

    def __bool__(self):
        return self.holds


def _coerce_tuple(t) -> CommutingTuple:
    if isinstance(t, CommutingTuple):
        return t
    return validate_tuple(t)


def distribution_order(ea: JointSpectralMeasure, eb: JointSpectralMeasure,
                       tol: float = TOL_ORDER) -> OrderVerdict:
    """F_b(x) <= F_a(x) for all x, checked on the merged coordinate grid.

    The residual at a grid point is ||(I - F_a(x)) V_b(x)||_F for an
    orthonormal basis V_b(x) of ran F_b(x); inclusion holds when it is at
    most tol * max(1, rank F_b(x)). Atoms of ea within tol * (1 + scale)
    above a grid coordinate still count toward F_a there, so eigenvalue
    ties split by roundoff do not report order failures. The witness is
    the lexicographically first failing grid point.

    All grid points share one Gram matrix M[a, b] = ||U_a^H W_b||_F^2 of
    the atom bases U_a of ea and W_b of eb. Because the atom projections of
    ea sum to the identity, the squared residual at x is the sum of M[a, b]
    over atoms a outside F_a(x) and b inside F_b(x).
    """
    if ea.kappa != eb.kappa or ea.dim != eb.dim:
        raise ParameterError(
            f"measures disagree in shape: kappa {ea.kappa}/{eb.kappa}, "
            f"dim {ea.dim}/{eb.dim}")
    kappa = ea.kappa
    pa, pb = ea.points(), eb.points()
    axes = [np.unique(np.concatenate([pa[:, j], pb[:, j]])) for j in range(kappa)]
    if any(a.size == 0 for a in axes):
        return OrderVerdict(holds=True, witness=None, defect=0.0)

    # grid index arrays in lexicographic order of coordinate tuples
    grids = np.meshgrid(*[np.arange(a.size) for a in axes], indexing="ij")
    idx = [g.reshape(-1) for g in grids]
    n_grid = idx[0].size

    def inclusion(points: np.ndarray, slack=None) -> np.ndarray:
        incl = np.ones((points.shape[0], n_grid), dtype=bool)
        for j in range(kappa):
            bound = axes[j] + (slack[j] if slack is not None else 0.0)
            per_axis = points[:, j][:, None] <= bound[None, :]
            incl &= per_axis[:, idx[j]]
        return incl

    # One-sided coordinate slack for the dominating side. An atom of ea
    # that belongs exactly at x can land a few ulps above it after
    # diagonalization (tied eigenvalues, e.g. the saturated branch of a
    # positive part); without the slack such a tie fails with an O(1)
    # projection defect over an O(ulp) coordinate window.
    slack = np.array([tol * (1.0 + float(np.abs(ax).max())) for ax in axes])
    incl_b = inclusion(pb).astype(np.float64)
    ranks_b = np.array([p.rank for p in eb.projections()], dtype=np.float64)
    rank_fb = ranks_b @ incl_b

    # The residual sums nonnegative Gram entries, so nothing cancels; the
    # overlap form rank F_b - ||F_a(x) V_b(x)||^2 would lose half the
    # mantissa and sit exactly at tol after the sqrt.
    def atom_columns(e: JointSpectralMeasure) -> np.ndarray:
        # row a marks the columns of atom a in the stacked atom bases
        ranks = [p.rank for p in e.projections()]
        return np.repeat(np.arange(len(ranks)), ranks) == np.arange(len(ranks))[:, None]

    u = np.hstack([p.range_basis for p in ea.projections()])
    w = np.hstack([p.range_basis for p in eb.projections()])
    gram = atom_columns(ea) @ (np.abs(u.conj().T @ w) ** 2) @ atom_columns(eb).T
    outside = gram @ incl_b
    outside *= ~inclusion(pa, slack)
    residual = np.sqrt(outside.sum(axis=0))
    thresholds = tol * np.maximum(1.0, rank_fb)
    bad = residual > thresholds
    worst = float(residual.max()) if residual.size else 0.0
    if not bad.any():
        return OrderVerdict(holds=True, witness=None, defect=worst)
    g = int(np.argmax(bad))  # first True in lex order
    witness = tuple(float(axes[j][idx[j][g]]) for j in range(kappa))
    return OrderVerdict(holds=False, witness=witness, defect=float(residual[g]))


def spectral_leq(a, b, tol: float = TOL_ORDER,
                 cluster_tol: float | None = None) -> OrderVerdict:
    """a <= b in the spectral order, via joint measures and the merged grid."""
    ta, tb = _coerce_tuple(a), _coerce_tuple(b)
    if ta.kappa != tb.kappa:
        raise ParameterError(f"tuples of different lengths: {ta.kappa} vs {tb.kappa}")
    if ta.dim != tb.dim:
        raise ParameterError(f"tuples on different spaces: {ta.dim} vs {tb.dim}")
    kwargs = {} if cluster_tol is None else {"cluster_tol": cluster_tol}
    return distribution_order(joint_measure(ta, **kwargs), joint_measure(tb, **kwargs), tol=tol)


def spectral_leq_componentwise(a, b, tol: float = TOL_ORDER) -> OrderVerdict:
    """Product-order reduction: the kappa=1 order per coordinate.

    Equivalent to spectral_leq (each coordinate map is increasing, and the
    joint grid is the product of the per-axis grids); the witness is
    (axis, grid point) for the first failing coordinate.
    """
    ta, tb = _coerce_tuple(a), _coerce_tuple(b)
    if ta.kappa != tb.kappa:
        raise ParameterError(f"tuples of different lengths: {ta.kappa} vs {tb.kappa}")
    worst = 0.0
    for j in range(ta.kappa):
        verdict = distribution_order(
            joint_measure(_tuple_from_shared_basis([ta.ops[j]])),
            joint_measure(_tuple_from_shared_basis([tb.ops[j]])),
            tol=tol,
        )
        worst = max(worst, verdict.defect)
        if not verdict.holds:
            return OrderVerdict(holds=False, witness=(j, verdict.witness),
                                defect=verdict.defect)
    return OrderVerdict(holds=True, witness=None, defect=worst)


def loewner_leq(a, b, tol: float = TOL_LOEWNER) -> bool:
    """a <= b in the Loewner order: b - a positive semidefinite."""
    am = a.matrix if isinstance(a, HermitianOperator) else HermitianOperator.from_matrix(a).matrix
    bm = b.matrix if isinstance(b, HermitianOperator) else HermitianOperator.from_matrix(b).matrix
    return is_psd(HermitianOperator(bm - am, 0.0), tol=tol)


def monotone_transport_check(a, b, phi, tol: float = TOL_ORDER) -> OrderVerdict:
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
                              tol: float = TOL_ORDER) -> OrderVerdict:
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
    ta, tb = _coerce_tuple(a), _coerce_tuple(b)
    if ta.kappa != tb.kappa:
        raise ParameterError(f"tuples of different lengths: {ta.kappa} vs {tb.kappa}")
    if not 1 <= iota <= ta.kappa:
        raise ParameterError(f"iota must be in 1..{ta.kappa}, got {iota}")
    for j in range(iota, ta.kappa):
        gap = float(np.linalg.norm(ta.ops[j].matrix - tb.ops[j].matrix))
        if gap > tol * (1.0 + ta.ops[j].norm()):
            raise PreconditionError("trailing components equal",
                                    f"component {j} differs by {gap:.3e}")
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
    if not audit.ok:
        raise MonotonicityError(audit.counterexample, iota)
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


def _monomial_matrices(e: JointSpectralMeasure, alphas) -> dict:
    """A^alpha for many alpha at once, summing lambda^alpha over atom blocks."""
    pts = e.points()
    mats = [p.matrix for p in e.projections()]
    out = {}
    for alpha in alphas:
        coeff = np.prod(pts ** np.asarray(alpha, dtype=np.float64), axis=1)
        acc = np.zeros((e.dim, e.dim), dtype=np.complex128)
        for c, m in zip(coeff, mats):
            acc += c * m
        out[tuple(alpha)] = HermitianOperator((acc + acc.conj().T) / 2.0, 0.0)
    return out


def olson_necessity_scan(a, b, alpha_max: int, tol: float = TOL_LOEWNER) -> OrderVerdict:
    """Scan A^alpha <= B^alpha (Loewner) over |alpha| <= alpha_max.

    For positive tuples this family of inequalities is necessary for the
    spectral order, so a failing alpha certifies the order fails; the scan
    returns the first failure in (|alpha|, lex) order. All passing is
    evidence, not proof, up to the tested depth. Raises PositivityError for
    non-positive input.
    """
    return scaled_monomial_check(a, b, lambda alpha: 1.0, alpha_max, tol=tol)


def scaled_monomial_check(a, b, r, alpha_max: int, tol: float = TOL_LOEWNER) -> OrderVerdict:
    """A^alpha <= r_alpha * B^alpha over |alpha| <= alpha_max, r_alpha >= 1.

    ``r`` maps a multi-index tuple to a scale factor (callable or mapping).
    Factors below 1 are rejected with ParameterError since the
    characterization requires r_alpha >= 1 with subexponential growth.
    """
    ta, tb = _coerce_tuple(a), _coerce_tuple(b)
    _require_positive(ta, "a")
    _require_positive(tb, "b")
    lookup = r.__getitem__ if hasattr(r, "__getitem__") else r
    ea, eb = joint_measure(ta), joint_measure(tb)
    alphas = multi_indices(ta.kappa, alpha_max)
    pow_a = _monomial_matrices(ea, alphas)
    pow_b = _monomial_matrices(eb, alphas)
    worst = 0.0
    for alpha in alphas:
        r_alpha = float(lookup(tuple(alpha)))
        if r_alpha < 1.0:
            raise ParameterError(f"scale r[{alpha}] = {r_alpha} < 1")
        diff = HermitianOperator(r_alpha * pow_b[alpha].matrix - pow_a[alpha].matrix, 0.0)
        w = np.linalg.eigvalsh(diff.matrix)
        scale = float(np.max(np.abs(w))) if w.size else 0.0
        lo = float(w[0]) if w.size else 0.0
        if lo < -tol * (1.0 + scale):
            return OrderVerdict(holds=False, witness=tuple(alpha), defect=-lo)
        worst = max(worst, max(0.0, -lo))
    return OrderVerdict(holds=True, witness=None, defect=worst)


def _moment_norm(mu, alpha) -> float:
    """||A^alpha h|| from the vector-state measure: sqrt of its x^(2 alpha) moment."""
    if mu.n_atoms == 0:
        return 0.0
    powers = np.prod(mu.points ** (2.0 * np.asarray(alpha, dtype=np.float64)), axis=1)
    return float(np.sqrt(np.sum(mu.weights * powers)))


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
    filter_tag: str | None


def growth_ratio(a, b, h, lambda_filter=None, alpha_max: int = 12,
                 filter_tag: str | None = None) -> GrowthRatioReport:
    """Relative monomial growth of two positive tuples on a vector.

    ||A^alpha h||^2 is the x^{2 alpha} moment of the vector-state measure, so
    the scan needs no matrix powers. ``lambda_filter`` restricts the tested
    multi-indices (e.g. to an axis); shells left empty by the filter are
    omitted.
    """
    ta, tb = _coerce_tuple(a), _coerce_tuple(b)
    _require_positive(ta, "a")
    _require_positive(tb, "b")
    if alpha_max < 1:
        raise ParameterError(f"alpha_max must be >= 1, got {alpha_max}")
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
        num = _moment_norm(mu_a, alpha)
        den = _moment_norm(mu_b, alpha)
        if num == 0.0:
            rate = 0.0
        elif den == 0.0:
            rate = float("inf")
        else:
            rate = (num / den) ** (1.0 / s)
        shell_maxima[s] = max(shell_maxima.get(s, 0.0), rate)

    if shell_maxima:
        estimate = shell_maxima[max(shell_maxima)]
    else:
        estimate = 0.0
    return GrowthRatioReport(shell_maxima=shell_maxima, limit_estimate=estimate,
                             alpha_max=alpha_max, n_tested=n_tested,
                             filter_tag=filter_tag)


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


def bounded_vector_membership(a, h, bound, tol: float = TOL_ORDER,
                              alpha_max: int = 12,
                              growth_margin: float = 0.05) -> MembershipResult:
    """Is h in the joint bounded-vector space of a positive tuple at ``bound``?

    Route one projects: residual ||h - F(bound) h|| <= tol * ||h||. Route two
    scales moments: max over the outermost shell of
    (||A^alpha h|| / bound^alpha)^(1/|alpha|), which stays <= 1 for members
    (after normalizing h) and grows geometrically past any excluded atom.
    """
    ta = _coerce_tuple(a)
    _require_positive(ta, "a")
    bound = np.asarray(bound, dtype=np.float64)
    if bound.shape != (ta.kappa,):
        raise ParameterError(f"bound has shape {bound.shape}, expected ({ta.kappa},)")
    if np.any(bound < 0):
        raise ParameterError("bound must be in the nonnegative orthant")
    if alpha_max < 1:
        raise ParameterError(f"alpha_max must be >= 1, got {alpha_max}")
    h = np.asarray(h, dtype=np.complex128)
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
        num = _moment_norm(mu, alpha)
        den = float(np.prod(bound ** np.asarray(alpha, dtype=np.float64)))  # 0^0 = 1
        if num == 0.0:
            ratio_rate = 0.0
        elif den == 0.0:
            ratio_rate = float("inf")
        else:
            ratio_rate = (num / den) ** (1.0 / alpha_max)
        rate = max(rate, ratio_rate)
    growth_member = rate <= 1.0 + growth_margin
    return MembershipResult(member=member, growth_member=growth_member,
                            residual=residual, growth_rate=rate)


@dataclass(frozen=True, eq=False)
class NormalOperator:
    """A normal matrix with its normality defect ||T T* - T* T||_F recorded."""

    matrix: np.ndarray
    normality_defect: float

    @classmethod
    def from_matrix(cls, m, tol: float = TOL_ORDER) -> "NormalOperator":
        m = as_complex_matrix(m)
        defect = float(np.linalg.norm(m @ m.conj().T - m.conj().T @ m))
        scale = float(np.linalg.norm(m))
        threshold = tol * (1.0 + scale * scale)
        if defect > threshold:
            raise NormalityError(defect, threshold)
        return cls(matrix=_read_only(m), normality_defect=defect)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def parts(self) -> CommutingTuple:
        """The commuting pair ((T + T*)/2, (T - T*)/(2i)); inverts via re + i im."""
        re = (self.matrix + self.matrix.conj().T) / 2.0
        im = (self.matrix - self.matrix.conj().T) / (2.0j)
        return validate_tuple([re, im])

    @classmethod
    def from_parts(cls, t: CommutingTuple, tol: float = TOL_ORDER) -> "NormalOperator":
        if t.kappa != 2:
            raise ParameterError(f"need a pair, got kappa={t.kappa}")
        return cls.from_matrix(t.ops[0].matrix + 1j * t.ops[1].matrix, tol=tol)


def normal_leq(s, t, tol: float = TOL_ORDER) -> OrderVerdict:
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


def infimum_probe(a, b, tol: float = TOL_ORDER) -> InfimumProbeReport:
    """Test the natural infimum candidate of two projection tuples.

    Componentwise the candidate is the projection onto the intersection of
    ranges (the kappa=1 infimum for projections). The candidates need not
    commute with each other, in which case no commuting tuple realizes the
    infimum this way; the report carries the commutator defect.
    """
    ta, tb = _coerce_tuple(a), _coerce_tuple(b)
    if ta.kappa != tb.kappa or ta.dim != tb.dim:
        raise ParameterError("tuples must share length and dimension")
    for name, tt in (("a", ta), ("b", tb)):
        for j, op in enumerate(tt.ops):
            idem = float(np.linalg.norm(op.matrix @ op.matrix - op.matrix))
            if idem > tol * (1.0 + op.norm()):
                raise ParameterError(
                    f"component {j} of {name!r} is not a projection "
                    f"(idempotency defect {idem:.3e})")
    candidates = []
    for pa_op, pb_op in zip(ta.ops, tb.ops):
        pa = orthonormalize(pa_op.matrix)
        pb = orthonormalize(pb_op.matrix)
        meet = subspace_meet(pa, pb)
        candidates.append(HermitianOperator(meet.matrix, 0.0))
    defect = 0.0
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            defect = max(defect, commutator_norm(candidates[i], candidates[j]))
    scale = max((1.0 + ci.norm() * cj.norm())
                for i, ci in enumerate(candidates)
                for j, cj in enumerate(candidates) if i < j) if len(candidates) > 1 else 1.0
    commutes = defect <= tol * scale
    lower_bound_ok = None
    if commutes:
        cand = validate_tuple([c.matrix for c in candidates], tol_comm=tol)
        lower_bound_ok = bool(spectral_leq(cand, ta, tol=tol).holds
                              and spectral_leq(cand, tb, tol=tol).holds)
    return InfimumProbeReport(candidates=tuple(candidates), defect=defect,
                              commutes=commutes, lower_bound_ok=lower_bound_ok)
