"""Finite atomic measures on R^kappa and the iota-order machinery.

The partial orders <=_iota compare the first iota coordinates by <= and
require the rest to agree exactly. Monotonicity audits, CDF comparisons on
grids, the lower-set inequality decided by one maximum flow, its
equivalence with integrals of increasing functions, and enumeration of
downward-closed atom subsets all live here; they are the scalar shadow of the projection-valued checks in
the order module, and the two are tied together through vector-state
measures of commuting tuples. Mass comparisons are exact: the weights of a
pair of measures are read as integer multiples of one power of two and added
as Python integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    DimensionError,
    MassMismatchError,
    MergedWeightError,
    ParameterError,
)
from .linalg import TOL, Verdict, as_point, check_tol, sorted_distinct
from .spectral import CommutingTuple, _merge_points, _refuse_nan, _rule_values, joint_measure

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


def _unit_difference(mu1: "AtomicMeasure", mu2: "AtomicMeasure", group, size: int):
    """mu2 - mu1 binned into ``size`` cells, exactly.

    Every weight is an integer times a power of two (``np.frexp``); with e
    the least such exponent over both measures, capped at 0, each weight is
    an exact integer multiple of 2**e. Returns (cells, e, masses): an object
    array of Python ints whose cell c holds (mass of mu2 - mass of mu1 at
    c) / 2**e, atom i of mu1 then of mu2 going to cell group[i], and the two
    total masses in units of 2**e.
    """
    mant, exps = np.frexp(np.concatenate([mu1.weights, mu2.weights]))
    ints = (mant * 2.0 ** 53).astype(np.int64)  # a double's significand has 53 bits
    exps -= 53
    e = int(exps[ints != 0].min(initial=0))
    units = ints.astype(object) << np.maximum(exps - e, 0).astype(object)
    split = mu1.n_atoms
    cells = np.zeros(size, dtype=object)
    np.add.at(cells, group[split:], units[split:])
    np.subtract.at(cells, group[:split], units[:split])
    return cells, e, (sum(units[:split]), sum(units[split:]))


def _units_floor(tol: float, e: int) -> int:
    """floor(tol / 2**e) for e <= 0: an integer n exceeds it exactly when n * 2**e > tol.

    Every exact mass comparison reads its tolerance here, which must be
    finite and nonnegative.
    """
    p, q = check_tol(tol).as_integer_ratio()
    return (p << -e) // q


def _units_float(n: int, e: int) -> float:
    """n * 2**e for n >= 0 and e <= 0, correctly rounded; inf past the float range."""
    try:
        return n / (1 << -e)  # int / int is correctly rounded
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Nonnegative atomic measure: distinct points with positive-weight atoms.

    Construction pre-merges points within TOL times the largest |coordinate|
    on each axis (first occurrence is the representative, weights add),
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
        over = np.isinf(out_w)
        if over.any():
            i = int(np.argmax(over))
            raise MergedWeightError(tuple(map(float, out_p[i])), int(np.argmax(group == i)))
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
        x = as_point(x, self.kappa)
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


def _downset_distances(x: np.ndarray, y: np.ndarray, iota: int) -> np.ndarray:
    """(len(x), len(y)) l1 distances from each x[a] to the iota-down-set of y[b]:
    sum_{j<iota} max(x_j - y_j, 0) + sum_{j>=iota} |x_j - y_j|."""
    diff = x[:, None, :] - y[None, :, :]
    return np.maximum(diff[..., :iota], 0.0).sum(axis=2) + np.abs(diff[..., iota:]).sum(axis=2)


def audit_iota_increasing(f, points, iota: int, tol: float = 0.0) -> Verdict:
    """Check f(x) <= f(y) + tol for every comparable pair x <=_iota y of the points.

    f is called once per point. The witness is the first failing pair
    (x, y) = (points[a], points[b]) with a != b in row-major order of
    (a, b), and the defect f(x) - f(y) there; a holding verdict's defect is
    the largest f(x) - f(y) over comparable pairs, at least 0. Raises
    ParameterError unless 1 <= iota <= kappa, also for an empty point set,
    and EvaluationError at the first point where f is NaN.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError(f"points must be (m, kappa), got shape {pts.shape}")
    iota, tol = _check_iota(iota, pts.shape[1]), check_tol(tol)
    values = _rule_values(f, pts)
    _refuse_nan(np.isnan(values), pts)
    comparable = _leq_matrix(pts, pts, iota)
    np.fill_diagonal(comparable, False)
    # infinite values are allowed: inf - inf is NaN, which fmax skips
    with np.errstate(over="ignore", invalid="ignore"):
        excess = values[:, None] - values[None, :]
        bad = (values[:, None] > values[None, :] + tol) & comparable
    if not bad.any():
        return Verdict(holds=True, witness=None,
                       defect=float(np.fmax.reduce(excess[comparable], initial=0.0)))
    a, b = divmod(int(np.argmax(bad)), pts.shape[0])
    return Verdict(holds=False, witness=(tuple(map(float, pts[a])), tuple(map(float, pts[b]))),
                   defect=float(excess[a, b]))


@functools.lru_cache(maxsize=1)
def _merged_support(mu1: AtomicMeasure, mu2: AtomicMeasure):
    """Common atom list (pre-merged across the pair) with both weight vectors,
    for each atom of mu1 then of mu2 its index in the list, and the exact
    difference mu2 - mu1 per listed atom in units of 2**e (see
    _unit_difference), and the two total masses in those units:
    (points, w1, w2, group, diff, e, masses).

    Kept for the last pair asked for, which cdf_leq and the lower-set checks
    share; measures compare by identity, and the arrays are read-only.
    """
    if mu1.kappa != mu2.kappa:
        raise DimensionError(f"measures on R^{mu1.kappa} vs R^{mu2.kappa}")
    points, group = _merge_points(np.vstack([mu1.points, mu2.points]), TOL)
    split = mu1.n_atoms
    diff, e, masses = _unit_difference(mu1, mu2, group, len(points))
    support = (points,
               _group_sums(group[:split], mu1.weights, len(points)),
               _group_sums(group[split:], mu2.weights, len(points)),
               group, diff)
    for shared in support:
        shared.setflags(write=False)
    return support + (e, masses)


def cdf_leq(mu1: AtomicMeasure, mu2: AtomicMeasure, tol: float = 0.0) -> Verdict:
    """mu2(lower orthant at x) <= mu1(lower orthant at x) at every x.

    Atomic CDFs are constant between consecutive atom coordinates. Lowering
    a coordinate of a failing x to the next coordinate of mu2 at or below it
    keeps mu2's mass and cannot add to mu1's; with none below, mu2's mass is
    0 and cannot fail, as tol >= 0. So the grid of mu2's coordinates on each
    axis decides, and its lexicographically first failing point is the
    whole grid's. The atoms are the pair's merged support, the family
    lowerset_dominance reads. Its exact difference mu2 - mu1 is binned on
    the grid, atoms above it on some axis dropped, and summed cumulatively
    along each axis. The defect is the cumulative excess mu2 - mu1,
    correctly rounded: at the witness, or the largest over the grid.
    """
    points, _, _, group, units, e, _ = _merged_support(mu1, mu2)
    axes = [sorted_distinct(column) for column in points[group[mu1.n_atoms:]].T]
    shape = tuple(a.size for a in axes)
    at = np.array([np.searchsorted(a, column) for a, column in zip(axes, points.T)])
    on_grid = np.all(at < np.array(shape)[:, None], axis=0)
    diff = np.zeros(shape, dtype=object)
    np.add.at(diff, tuple(at[:, on_grid]), units[on_grid])
    for axis in range(diff.ndim):
        np.cumsum(diff, axis=axis, out=diff)
    floor, top = _units_floor(tol, e), np.max(diff, initial=0)
    if top <= floor:
        return Verdict(holds=True, witness=None, defect=_units_float(top, e))
    first = np.unravel_index(int(np.argmax(diff > floor)), shape)
    return Verdict(holds=False, witness=tuple(float(a[i]) for a, i in zip(axes, first)),
                   defect=_units_float(diff[first], e))


@dataclass(frozen=True)
class DownwardClosedAtomSubset:
    """A downward-closed subset of a finite point family under <=_iota.

    ``mask`` is a bitmask over the rows of ``points``: the list this subset
    was enumerated against, or for a witness of the lower-set checks, the
    pair's merged support.
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


def enumerate_downward_closed(points, iota: int) -> list[DownwardClosedAtomSubset]:
    """All downward-closed subsets of the points under <=_iota.

    Enumeration recurses along a linear extension (lexicographic order is one
    for <=_iota), including an element only when everything below it is
    already in; each leaf is an ideal, reached exactly once. Results are
    ordered by cardinality, then by bitmask value. Raises CapExceededError
    beyond IDEAL_CAP atoms since the output can be exponential.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionError(f"points must be (m, kappa), got shape {pts.shape}")
    m = pts.shape[0]
    if m > IDEAL_CAP:
        raise CapExceededError(m, IDEAL_CAP)
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


def _max_flow(n: int, tails: np.ndarray, heads: np.ndarray, caps, s: int, t: int):
    """Dinic's maximum flow from node s to node t, exact in Python ints.

    Arc k runs from tails[k] to heads[k] with capacity caps[k]. The search
    for blocking flows walks an explicit path, so no recursion depth grows
    with n. Returns (flow value, reach), reach marking the nodes the final
    residual graph reaches from s: the source side of the least minimum
    cut, whichever maximum flow was found.
    """
    k = len(tails)
    tail = np.concatenate([tails, heads])
    order = np.argsort(tail, kind="stable")
    slot = np.empty(2 * k, dtype=np.intp)
    slot[order] = np.arange(2 * k)
    start = np.searchsorted(tail[order], np.arange(n + 1)).tolist()
    to = np.concatenate([heads, tails])[order].tolist()
    rev = slot[(order + k) % (2 * k)].tolist()  # arc j's reverse is arc j +- k
    cap = np.concatenate([np.asarray(caps, dtype=object),
                          np.zeros(k, dtype=object)])[order].tolist()
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for a in range(start[u], start[u + 1]):
                if cap[a] and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            return flow, np.array(level) >= 0
        nxt = start[:-1]  # the next arc to try out of each node
        path, u = [], s
        while True:
            if u == t:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[rev[a]] += push
                flow += push
                path, u = [], s
                continue
            a, end = nxt[u], start[u + 1]
            while a < end and not (cap[a] and level[to[a]] == level[u] + 1):
                a += 1
            nxt[u] = a
            if a < end:
                path.append(a)
                u = to[a]
            elif u == s:
                break
            else:  # dead end: back up one arc and skip it
                u = to[rev[path.pop()]]
                nxt[u] += 1


@functools.lru_cache(maxsize=1)
def _largest_gap(mu1: AtomicMeasure, mu2: AtomicMeasure, iota: int):
    """The least ideal of the merged support on which mu2 - mu1 is largest.

    With d the exact difference mu2 - mu1 per atom in units of 2**e, the
    network has arcs source -> p of capacity d(p) > 0, q -> sink of
    capacity -d(q) > 0, and p -> q unbounded for each such q <_iota p: a
    flow carries mu2's excess down onto mu1's (Strassen); the order being
    transitive, longer chains add nothing. A minimum cut is a
    maximum-weight ideal (Picard), so the largest gap is sum d+ - maxflow.
    The nodes the final residual graph reaches from the source are the
    atoms with d != 0 of the least such ideal, and their down-set adds the
    atoms with d = 0. Returns (points, w1, w2, member, gap, e), member a
    bool array over the merged support and gap in units of 2**e. Kept for
    the last pair asked for, which lowerset_dominance and
    thm31_equivalence_check share; measures compare by identity.
    """
    points, w1, w2, _, d, e, _ = _merged_support(mu1, mu2)
    iota = _check_iota(iota, points.shape[1])
    m = len(points)
    up, down = np.flatnonzero(d > 0), np.flatnonzero(d < 0)
    below, above = np.nonzero(_leq_matrix(points[down], points[up], iota))
    supply = int(d[up].sum())
    source, sink = m, m + 1
    tails = np.concatenate([np.full(len(up), source), down, up[above]])
    heads = np.concatenate([up, np.full(len(down), sink), down[below]])
    # supply + 1 exceeds any flow, so those arcs never saturate
    caps = np.concatenate([d[up], -d[down], np.full(len(below), supply + 1, dtype=object)])
    flow, reach = _max_flow(m + 2, tails, heads, caps, source, sink)
    member = _leq_matrix(points, points[reach[:m]], iota).any(axis=1)
    member.setflags(write=False)
    return points, w1, w2, member, supply - flow, e


def _ideal(member: np.ndarray, iota: int, points: np.ndarray) -> DownwardClosedAtomSubset:
    mask = int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little")
    return DownwardClosedAtomSubset(mask=mask, iota=iota, points=points)


def lowerset_dominance(mu1: AtomicMeasure, mu2: AtomicMeasure, iota: int, *,
                       tol: float = 0.0) -> Verdict:
    """mu2(D) <= mu1(D) for every downward-closed D of the merged atom family.

    Checking downward-closed subsets of the merged atoms decides the
    inequality for all iota-lower sets, since a lower set picks up exactly a
    downward-closed subfamily. One maximum flow finds the largest mu2 - mu1
    over them (see _largest_gap); masses compare exactly. The witness is
    the least ideal, by inclusion, on which that gap is attained: the
    intersection of all of them. The defect is that gap, correctly rounded,
    whether or not it exceeds tol.
    """
    points, _, _, member, gap, e = _largest_gap(mu1, mu2, iota)
    holds = gap <= _units_floor(tol, e)
    return Verdict(holds=holds, witness=None if holds else _ideal(member, iota, points),
                   defect=_units_float(gap, e))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the cross-check between the lower-set inequality and the
    integral inequalities for increasing test functions (equal total mass).
    Every route is evaluated on lowerset_dominance's witness ideal D (empty
    when no gap is positive); the mollifier witness is (D, first failing
    level). ``masses`` are the exact totals, correctly rounded."""

    iota: int
    masses: tuple[float, float]
    lowerset: Verdict
    indicator: Verdict
    mollifier: Verdict

    @property
    def agreement(self) -> bool:
        """The decidable routes agree; mollifiers may only fail when the rest do."""
        return (self.lowerset.holds == self.indicator.holds
                and (self.mollifier.holds or not self.lowerset.holds))


def thm31_equivalence_check(mu1: AtomicMeasure, mu2: AtomicMeasure, iota: int, *,
                            tol: float = 1e-12) -> EquivalenceReport:
    """Equal-mass equivalence: mu2 <= mu1 on lower sets iff integrals of
    increasing functions satisfy int f dmu1 <= int f dmu2.

    The lower-set verdict is lowerset_dominance's at ``tol``. The integral
    side is probed on the ideal D of largest gap, which fails the lower-set
    inequality exactly when some ideal does: with the indicator-complement
    of D and with the continuous surrogates min(1, n*distance to D) at the
    MOLLIFIER_LEVELS n, summing float weights; each route's defect is
    int f dmu1 - int f dmu2 at its witness, or the largest over the levels
    it tried, at least 0. Where a total mass exceeds the float range, the
    weights and tol are scaled by one power of two for these sums. Total
    masses, compared exactly, further apart than TOL times the larger one
    raise MassMismatchError carrying the one-sided conclusions that survive.
    """
    lowerset = lowerset_dominance(mu1, mu2, iota, tol=tol)
    points, w1, w2, member, _, e = _largest_gap(mu1, mu2, iota)
    m1, m2 = _merged_support(mu1, mu2)[-1]
    masses = (_units_float(m1, e), _units_float(m2, e))
    p, q = TOL.as_integer_ratio()
    if abs(m1 - m2) * q > p * max(m1, m2):
        if m1 < m2:
            implications = ("only mass1 <= mass2: the lower-set inequality may "
                            "still imply integral inequalities for increasing f >= 0")
        else:
            implications = ("only mass2 <= mass1: integral inequalities for "
                            "increasing f >= 0 may still imply the lower-set inequality")
        raise MassMismatchError(*masses, implications)
    # scaled by 2**-shift, every sum of w * f with 0 <= f <= 1 stays below 2**1022
    shift = max(m1, m2).bit_length() + e - 1022 if math.inf in masses else 0
    w1, w2, floor = np.ldexp(w1, -shift), np.ldexp(w2, -shift), math.ldexp(tol, -shift)

    def verdict(tests) -> Verdict:
        # the first failing (witness, f) in order, else the largest excess
        worst = 0.0
        for witness, f in tests:
            lhs, rhs = np.sum(w1 * f), np.sum(w2 * f)
            excess = max(0.0, float(lhs - rhs)) * 2.0 ** shift
            if lhs > rhs + floor:
                return Verdict(holds=False, witness=witness, defect=excess)
            worst = max(worst, excess)
        return Verdict(holds=True, witness=None, defect=worst)

    ideal = _ideal(member, iota, points)
    # D is downward closed in the support, so its lower set meets the
    # support in D itself
    indicator = verdict([(ideal, np.where(member, 0.0, 1.0))])
    mollifier = Verdict(holds=True, witness=None, defect=0.0)
    if member.any():
        dist = _downset_distances(points, points[member], iota).min(axis=1)
        mollifier = verdict(((ideal, n), np.minimum(1.0, n * dist)) for n in MOLLIFIER_LEVELS)
    return EquivalenceReport(iota=iota, masses=masses, lowerset=lowerset,
                             indicator=indicator, mollifier=mollifier)
