"""Finite atomic measures on R^kappa and the iota-order machinery.

The partial orders <=_iota compare the first iota coordinates by <= and
require the rest to agree exactly. Lower sets, l1 distances to them,
monotonicity audits, CDF comparisons on merged grids, and enumeration of
downward-closed atom subsets all live here; they are the scalar shadow of the
projection-valued checks in the order module, and the two are tied together
through vector-state measures of commuting tuples. Mass comparisons are
exact: the weights of a pair of measures are read as integer multiples of
one power of two and added as Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    DimensionError,
    EmptyGeneratorError,
    MassMismatchError,
    ParameterError,
)
from .functions import BorelFunction, indicator_fn
from .linalg import TOL
from .spectral import CommutingTuple, _merge_points, joint_measure

IDEAL_CAP = 20
MOLLIFIER_LEVELS = (1, 2, 4, 8)


def _check_iota(iota: int, kappa: int) -> int:
    if not isinstance(iota, (int, np.integer)) or not 1 <= iota <= kappa:
        raise ParameterError(f"iota must be an integer in 1..{kappa}, got {iota!r}")
    return int(iota)


def leq_iota(x, y, iota: int) -> bool:
    """x <=_iota y: first iota coordinates <=, trailing coordinates exactly equal."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"points of shapes {x.shape} and {y.shape}")
    iota = _check_iota(iota, x.shape[0])
    return bool(np.all(x[:iota] <= y[:iota]) and np.all(x[iota:] == y[iota:]))


def _leq_matrix(x: np.ndarray, y: np.ndarray, iota: int) -> np.ndarray:
    """leq[a, b] = x[a] <=_iota y[b], for point arrays of shape (., kappa)."""
    leq = np.ones((x.shape[0], y.shape[0]), dtype=bool)
    for j in range(x.shape[1]):
        a, b = x[:, j, None], y[None, :, j]
        leq &= (a <= b) if j < iota else (a == b)
    return leq


def _group_sums(group: np.ndarray, w: np.ndarray, n_groups: int) -> np.ndarray:
    # bincount adds in input order, as a running sum per group would; it
    # returns integers for empty input, hence the cast
    return np.bincount(group, weights=w, minlength=n_groups).astype(np.float64)


def _unit_difference(mu1: "AtomicMeasure", mu2: "AtomicMeasure", at1, at2, size: int):
    """mu2 - mu1 binned into ``size`` cells, exactly.

    Every weight is an integer times a power of two (``np.frexp``); with e
    the least such exponent over both measures, capped at 0, each weight is
    an exact integer multiple of 2**e. Returns (cells, e): an object array of
    Python ints whose cell c holds (mass of mu2 - mass of mu1 at c) / 2**e,
    the atoms of mu1 going to cells ``at1`` and those of mu2 to ``at2``.
    """
    mant, exps = np.frexp(np.concatenate([mu1.weights, mu2.weights]))
    ints = (mant * 2.0 ** 53).astype(np.int64)  # a double's significand has 53 bits
    exps -= 53
    e = int(exps[ints != 0].min(initial=0))
    units = ints.astype(object) << np.maximum(exps - e, 0).astype(object)
    cells = np.zeros(size, dtype=object)
    np.add.at(cells, at2, units[mu1.n_atoms:])
    np.subtract.at(cells, at1, units[:mu1.n_atoms])
    return cells, e


def _units_floor(tol: float, e: int) -> int:
    """floor(tol / 2**e) for e <= 0: an integer n exceeds it exactly when n * 2**e > tol."""
    p, q = float(tol).as_integer_ratio()
    return (p << -e) // q


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Nonnegative atomic measure: distinct points with positive-weight atoms.

    Construction pre-merges points within TOL times the largest |coordinate|
    in the sup norm (first occurrence is the representative, weights add),
    then sorts lexicographically, so stored points compare exactly.
    """

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_atoms(cls, points, weights) -> "AtomicMeasure":
        pts = np.asarray(points, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        if pts.ndim != 2:
            raise DimensionError(f"points must be (k, kappa), got shape {pts.shape}")
        if w.shape != (pts.shape[0],):
            raise DimensionError(f"{pts.shape[0]} points but {w.shape} weights")
        bad = ~(np.isfinite(pts).all(axis=1) & np.isfinite(w))
        if bad.any():
            i = int(np.argmax(bad))
            raise ParameterError(f"atom {i} is not finite: point "
                                 f"{tuple(map(float, pts[i]))}, weight {float(w[i])}")
        if np.any(w < 0):
            raise ParameterError("weights must be nonnegative")
        out_p, group = _merge_points(pts, TOL)
        out_w = _group_sums(group, w, len(out_p))
        out_p.setflags(write=False)
        out_w.setflags(write=False)
        return cls(points=out_p, weights=out_w)

    @property
    def kappa(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, f) -> float:
        """Integral of a scalar rule against the measure."""
        return float(sum(w * float(f(p)) for p, w in zip(self.points, self.weights)))

    def cdf(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if self.n_atoms == 0:
            return 0.0
        keep = np.all(self.points <= x, axis=1)
        return float(np.sum(self.weights[keep]))

    def __repr__(self):
        return f"AtomicMeasure(kappa={self.kappa}, atoms={self.n_atoms})"


def tuple_scalar_measure(t: CommutingTuple, h) -> AtomicMeasure:
    """Vector-state measure of a tuple: atom weights ||P_lambda h||^2.

    Integrating x^{2 alpha} against it gives ||A^alpha h||^2, which the growth
    and bounded-vector checks exploit.
    """
    e = joint_measure(t)
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (t.dim,):
        raise DimensionError(f"vector has shape {h.shape}, expected ({t.dim},)")
    column_mass = np.abs(e.basis.conj().T @ h) ** 2
    return AtomicMeasure.from_atoms(e.points(), _group_sums(e.owner, column_mass, e.n_atoms()))


@dataclass(frozen=True, eq=False)
class LowerSetGen:
    """iota-lower set given by finitely many generators: union of down-sets of each."""

    iota: int
    generators: np.ndarray

    @classmethod
    def from_points(cls, generators, iota: int) -> "LowerSetGen":
        g = np.asarray(generators, dtype=np.float64)
        if g.ndim != 2:
            raise DimensionError(f"generators must be (m, kappa), got shape {g.shape}")
        if g.shape[0] == 0:
            raise EmptyGeneratorError("a lower set needs at least one generator")
        iota = _check_iota(iota, g.shape[1])
        g = np.array(g)
        g.setflags(write=False)
        return cls(iota=iota, generators=g)

    @property
    def kappa(self) -> int:
        return self.generators.shape[1]


def lower_membership(gen: LowerSetGen, x) -> bool:
    """x in the iota-lower set generated by gen."""
    x = np.asarray(x, dtype=np.float64)
    return any(leq_iota(x, y, gen.iota) for y in gen.generators)


def lower_distance(gen: LowerSetGen, x) -> float:
    """l1 distance from x to the generated lower set, in closed form.

    For a single generator y the down-set constrains the first iota
    coordinates from above and pins the rest, so the distance is
    sum_{j<iota} max(x_j - y_j, 0) + sum_{j>=iota} |x_j - y_j|; the distance
    to the union is the minimum over generators.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (gen.kappa,):
        raise DimensionError(f"point has shape {x.shape}, expected ({gen.kappa},)")
    return float(np.min(_downset_distances(x[None, :], gen.generators, gen.iota)))


def _downset_distances(x: np.ndarray, y: np.ndarray, iota: int) -> np.ndarray:
    """(len(x), len(y)) l1 distances from each x[a] to the iota-down-set of y[b]."""
    diff = x[:, None, :] - y[None, :, :]
    return np.maximum(diff[..., :iota], 0.0).sum(axis=2) + np.abs(diff[..., iota:]).sum(axis=2)


def epsilon_fatten(gen: LowerSetGen, eps: float):
    """Membership predicate of the closed eps-fattening in the l1 distance."""
    if not eps > 0:
        raise ParameterError(f"fattening radius must be positive, got {eps!r}")
    return lambda x: lower_distance(gen, x) <= eps


def lower_indicator_complement(gen: LowerSetGen) -> BorelFunction:
    """Indicator of the complement of the lower set: the canonical bounded
    iota-increasing test function."""
    return indicator_fn(lambda x: not lower_membership(gen, x),
                        tag=f"co-lower[iota={gen.iota}]", monotone_iota=gen.iota)


def lower_mollifier(gen: LowerSetGen, level: int) -> BorelFunction:
    """Continuous surrogate min(1, level * distance): increasing, 0 on the set."""
    if level <= 0:
        raise ParameterError(f"mollifier level must be positive, got {level!r}")
    return BorelFunction(
        tag=f"mollifier[iota={gen.iota}, n={level}]",
        fn=lambda x: min(1.0, level * lower_distance(gen, x)),
        monotone_iota=gen.iota,
    )


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    counterexample: tuple | None  # (x, y) with x <=_iota y but f(x) > f(y)

    def __bool__(self):
        return self.ok


def audit_iota_increasing(f, points, iota: int, tol: float = 0.0) -> AuditResult:
    """Check f(x) <= f(y) + tol for every comparable pair x <=_iota y of the points.

    f is called once per point. The counterexample is the first failing
    pair (x, y) = (points[a], points[b]) with a != b in row-major order of
    (a, b). Raises ParameterError unless 1 <= iota <= kappa, also for an
    empty point set.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError(f"points must be (m, kappa), got shape {pts.shape}")
    iota = _check_iota(iota, pts.shape[1])
    values = np.array([float(f(p)) for p in pts], dtype=np.float64)
    bad = (values[:, None] > values[None, :] + tol) & _leq_matrix(pts, pts, iota)
    np.fill_diagonal(bad, False)
    if not bad.any():
        return AuditResult(ok=True, counterexample=None)
    a, b = divmod(int(np.argmax(bad)), pts.shape[0])
    return AuditResult(ok=False, counterexample=(tuple(map(float, pts[a])),
                                                 tuple(map(float, pts[b]))))


def _merged_support(mu1: AtomicMeasure, mu2: AtomicMeasure):
    """Common atom list (pre-merged across the pair) with both weight vectors
    and, for each atom of mu1 then of mu2, its index in the list."""
    if mu1.kappa != mu2.kappa:
        raise DimensionError(f"measures on R^{mu1.kappa} vs R^{mu2.kappa}")
    points, group = _merge_points(np.vstack([mu1.points, mu2.points]), TOL)
    split = mu1.n_atoms
    return (points,
            _group_sums(group[:split], mu1.weights, len(points)),
            _group_sums(group[split:], mu2.weights, len(points)),
            group)


def cdf_leq(mu1: AtomicMeasure, mu2: AtomicMeasure, tol: float = 0.0):
    """mu2(lower orthant at x) <= mu1(lower orthant at x) on the merged grid.

    Atomic CDFs are constant between consecutive atom coordinates, so checking
    every grid point of the per-axis coordinate union is exact. The
    difference mu2 - mu1 is binned on the grid in exact integer units and
    summed cumulatively along each axis, so masses compare exactly. Returns
    (holds, witness point or None), witness lexicographically first.
    """
    if mu1.kappa != mu2.kappa:
        raise DimensionError(f"measures on R^{mu1.kappa} vs R^{mu2.kappa}")
    axes = [np.unique(np.concatenate([mu1.points[:, j], mu2.points[:, j]]))
            for j in range(mu1.kappa)]
    if any(a.size == 0 for a in axes):
        return True, None
    shape = tuple(a.size for a in axes)

    def cells(mu):
        return np.ravel_multi_index([np.searchsorted(a, mu.points[:, j])
                                     for j, a in enumerate(axes)], shape)

    diff, e = _unit_difference(mu1, mu2, cells(mu1), cells(mu2), math.prod(shape))
    diff = diff.reshape(shape)
    for axis in range(diff.ndim):
        np.cumsum(diff, axis=axis, out=diff)
    fails = diff > _units_floor(tol, e)
    if not fails.any():
        return True, None
    first = np.unravel_index(int(np.argmax(fails)), shape)
    return False, tuple(float(a[i]) for a, i in zip(axes, first))


@dataclass(frozen=True)
class DownwardClosedAtomSubset:
    """A downward-closed subset of a finite point family under <=_iota.

    ``mask`` is a bitmask over the point list order this subset was
    enumerated against.
    """

    mask: int
    iota: int
    points: np.ndarray

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.points.shape[0]) if self.mask >> i & 1)

    def member_points(self) -> np.ndarray:
        return self.points[list(self.indices)]

    @property
    def size(self) -> int:
        return len(self.indices)

    def __repr__(self):
        return f"DownwardClosedAtomSubset(mask={self.mask:#x}, size={self.size})"


def enumerate_downward_closed(points, iota: int, cap: int = IDEAL_CAP) -> list[DownwardClosedAtomSubset]:
    """All downward-closed subsets of the points under <=_iota.

    Enumeration recurses along a linear extension (lexicographic order is one
    for <=_iota), including an element only when everything below it is
    already in; each leaf is an ideal, reached exactly once. Results are
    ordered by cardinality, then by bitmask value. Raises CapExceededError
    beyond ``cap`` atoms since the output can be exponential.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError(f"points must be (m, kappa), got shape {pts.shape}")
    m = pts.shape[0]
    if m > cap:
        raise CapExceededError(m, cap)
    iota = _check_iota(iota, pts.shape[1])
    order = sorted(range(m), key=lambda i: tuple(pts[i]))
    leq = _leq_matrix(pts, pts, iota)
    np.fill_diagonal(leq, False)
    # bitmask in original indexing of the points strictly below each point
    below = [sum(1 << int(j) for j in np.flatnonzero(column)) for column in leq.T]

    masks: list[int] = []

    def walk(pos: int, current: int):
        if pos == m:
            masks.append(current)
            return
        idx = order[pos]
        walk(pos + 1, current)
        if below[idx] & ~current == 0:
            walk(pos + 1, current | (1 << idx))

    walk(0, 0)
    masks.sort(key=lambda s: (bin(s).count("1"), s))
    frozen = np.array(pts)
    frozen.setflags(write=False)
    return [DownwardClosedAtomSubset(mask=s, iota=iota, points=frozen) for s in masks]


@dataclass(frozen=True)
class DominanceResult:
    holds: bool
    witness: DownwardClosedAtomSubset | None
    gap: float  # mu2 - mu1 on the witness, correctly rounded; 0 when holds

    def __bool__(self):
        return self.holds


def _ideal_mask(ideals: list[DownwardClosedAtomSubset], m: int) -> np.ndarray:
    """(ideals, m) bool array: row k marks the points in ideals[k]."""
    nbytes = m // 8 + 1
    raw = b"".join(ideal.mask.to_bytes(nbytes, "little") for ideal in ideals)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(ideals), nbytes),
                         axis=1, bitorder="little")
    return bits[:, :m].view(bool)


def _first_excess(mu1: AtomicMeasure, mu2: AtomicMeasure, group: np.ndarray,
                  mask: np.ndarray, tol: float) -> tuple[int | None, float]:
    """First mask row on which mu2 - mu1 exceeds tol, decided exactly, with
    that difference correctly rounded; (None, 0.0) when there is none."""
    split = mu1.n_atoms
    cells, e = _unit_difference(mu1, mu2, group[:split], group[split:], mask.shape[1])
    gaps = mask @ cells
    fails = gaps > _units_floor(tol, e)
    if not fails.any():
        return None, 0.0
    k = int(np.argmax(fails))
    try:
        return k, gaps[k] / (1 << -e)  # int / int is correctly rounded
    except OverflowError:
        return k, math.inf


def lowerset_dominance(mu1: AtomicMeasure, mu2: AtomicMeasure, iota: int,
                       cap: int = IDEAL_CAP, tol: float = 0.0) -> DominanceResult:
    """mu2(D) <= mu1(D) for every downward-closed D of the merged atom family.

    Checking downward-closed subsets of the merged atoms decides the
    inequality for all iota-lower sets, since a lower set picks up exactly a
    downward-closed subfamily. Masses compare exactly. Witness is the first
    violating ideal in (cardinality, bitmask) order.
    """
    points, _, _, group = _merged_support(mu1, mu2)
    ideals = enumerate_downward_closed(points, iota, cap=cap)
    first, gap = _first_excess(mu1, mu2, group, _ideal_mask(ideals, len(points)), tol)
    if first is None:
        return DominanceResult(holds=True, witness=None, gap=0.0)
    return DominanceResult(holds=False, witness=ideals[first], gap=gap)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the cross-check between the lower-set inequality and the
    integral inequalities for increasing test functions (equal total mass)."""

    iota: int
    masses: tuple[float, float]
    lowerset_holds: bool
    lowerset_witness: DownwardClosedAtomSubset | None
    indicator_holds: bool
    indicator_witness: DownwardClosedAtomSubset | None
    mollifier_holds: bool
    mollifier_witness: tuple | None  # (ideal, level)

    @property
    def agreement(self) -> bool:
        """The decidable routes agree; mollifiers may only fail when the rest do."""
        if self.lowerset_holds != self.indicator_holds:
            return False
        if self.lowerset_holds and not self.mollifier_holds:
            return False
        return True


def thm31_equivalence_check(mu1: AtomicMeasure, mu2: AtomicMeasure, iota: int,
                            mollifier_levels=MOLLIFIER_LEVELS, cap: int = IDEAL_CAP,
                            tol: float = 1e-12) -> EquivalenceReport:
    """Equal-mass equivalence: mu2 <= mu1 on lower sets iff integrals of
    increasing functions satisfy int f dmu1 <= int f dmu2.

    The integral side is probed with indicator-complements of every
    enumerated ideal and with the continuous surrogates min(1, n*distance)
    at the configured levels. The lower-set verdict compares exact masses,
    as lowerset_dominance does, at ``tol``; the integral routes sum float
    weights. Total masses further apart than TOL times the larger one
    raise MassMismatchError carrying the one-sided conclusions that survive.
    """
    m1, m2 = mu1.total_mass(), mu2.total_mass()
    if not math.isclose(m1, m2, rel_tol=TOL):
        if m1 < m2:
            implications = ("only mass1 <= mass2: the lower-set inequality may "
                            "still imply integral inequalities for increasing f >= 0")
        else:
            implications = ("only mass2 <= mass1: integral inequalities for "
                            "increasing f >= 0 may still imply the lower-set inequality")
        raise MassMismatchError(m1, m2, implications)

    points, w1, w2, group = _merged_support(mu1, mu2)
    ideals = enumerate_downward_closed(points, iota, cap=cap)
    mask = _ideal_mask(ideals, len(points))
    lowerset_first, _ = _first_excess(mu1, mu2, group, mask, tol)

    def failing(f: np.ndarray) -> np.ndarray:
        # f[k, x] is the test function of ideal k at point x; rows are
        # contiguous, so each row sum adds as np.sum of that row alone would
        return (w1 * f).sum(axis=1) > (w2 * f).sum(axis=1) + tol

    def first(fails: np.ndarray) -> int | None:
        return int(np.argmax(fails)) if fails.any() else None

    # indicator route: membership in each generated lower set, from <=_iota
    member = mask @ _leq_matrix(points, points, iota).T
    indicator_first = first(failing(np.where(member, 0.0, 1.0)))

    # mollifier route: distance to each ideal's lower set as a running
    # minimum over its generators, O(ideals * points) memory
    to_downset = _downset_distances(points, points, iota)
    dist = np.full(mask.shape, np.inf)
    for g in range(len(points)):
        np.minimum(dist, to_downset[:, g], out=dist, where=mask[:, g, None])
    levels = tuple(mollifier_levels)
    nonempty = mask.any(axis=1)
    fails = np.zeros((len(ideals), len(levels)), dtype=bool)
    for j, level in enumerate(levels):
        if level <= 0:
            raise ParameterError(f"mollifier level must be positive, got {level!r}")
        fails[:, j] = nonempty & failing(np.minimum(1.0, level * dist))
    ideal_first = first(fails.any(axis=1))
    mollifier_witness = (None if ideal_first is None
                         else (ideals[ideal_first], levels[first(fails[ideal_first])]))

    return EquivalenceReport(
        iota=iota,
        masses=(m1, m2),
        lowerset_holds=lowerset_first is None,
        lowerset_witness=None if lowerset_first is None else ideals[lowerset_first],
        indicator_holds=indicator_first is None,
        indicator_witness=None if indicator_first is None else ideals[indicator_first],
        mollifier_holds=ideal_first is None,
        mollifier_witness=mollifier_witness,
    )
