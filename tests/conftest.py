"""Seeded random instance builders shared across the suite.

Everything derives from an explicit np.random.Generator so failures replay.
Tuples built here share one eigenbasis; two tuples over the same basis are
ordered exactly when the per-eigenvector eigenvalue vectors are ordered,
which gives generators with known ground truth.
"""

import itertools
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st

from specorder.errors import InputError, ValidationError
from specorder.functions import indicator_fn
from specorder.linalg import TOL, HermitianOperator, Projection, _normalize_columns, hermitian_eig
from specorder.measures import (
    LowerSetGen,
    _merged_support,
    enumerate_downward_closed,
    lower_indicator_complement,
    lower_mollifier,
)
from specorder.resolution import ResolutionReport, _corner_sum_index
from specorder.spectral import JointSpectralMeasure, _split_clusters, validate_tuple

settings.register_profile("suite", max_examples=40, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

SEED = 20260816

# test_acceptance appends its [criterion N] verdict lines here; the hook
# below replays them after the run, where capture cannot swallow them.
criterion_lines = []


def pytest_terminal_summary(terminalreporter):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.line(line)


ROOT = Path(__file__).resolve().parents[1]


def subprocess_env() -> dict:
    """Environment for a child interpreter that imports the package from src/."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def fresh_rng(salt: int = 0):
    return np.random.default_rng(SEED + salt)


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def tuple_from_eigs(q: np.ndarray, eigs: np.ndarray):
    """Tuple with eigenbasis q and eigs[j, v] = eigenvalue of A_j on column v."""
    return validate_tuple([(q * w) @ q.conj().T for w in eigs])


def random_commuting(rng, n: int, kappa: int, low=-1.0, high=1.0):
    q = random_unitary(rng, n)
    eigs = rng.uniform(low, high, size=(kappa, n))
    return tuple_from_eigs(q, eigs)


def ordered_pair(rng, n: int, kappa: int, low=-1.0, high=1.0,
                 step_low=0.05, step_high=1.0):
    """(a, b) with a <= b guaranteed: shared basis, positive eigenvalue steps."""
    q = random_unitary(rng, n)
    ea = rng.uniform(low, high, size=(kappa, n))
    eb = ea + rng.uniform(step_low, step_high, size=(kappa, n))
    return tuple_from_eigs(q, ea), tuple_from_eigs(q, eb)


def positive_ordered_pair(rng, n: int, kappa: int):
    """Ordered pair with spectra inside (0.1, 2.1)."""
    q = random_unitary(rng, n)
    ea = rng.uniform(0.1, 1.0, size=(kappa, n))
    eb = ea + rng.uniform(0.1, 1.1, size=(kappa, n))
    return tuple_from_eigs(q, ea), tuple_from_eigs(q, eb)


def _distinct_levels(rng, n, low, high, min_gap):
    while True:
        v = np.sort(rng.uniform(low, high, size=n))
        if n == 1 or np.min(np.diff(v)) >= min_gap:
            return v


def injective_positive_pair(rng, n: int, kappa: int):
    """Ordered positive pair whose components all have simple spectra.

    Eigenvalues stay in [0.5, 2] so monomial powers neither vanish nor
    blow up across a depth-12 scan.
    """
    q = random_unitary(rng, n)
    eb = np.stack([_distinct_levels(rng, n, 0.7, 2.0, 0.02) for _ in range(kappa)])
    for j in range(kappa):
        eb[j] = rng.permutation(eb[j])
    while True:
        delta = rng.uniform(0.02, 0.2, size=(kappa, n))
        ea = np.maximum(eb - delta, 0.5)
        if all(np.min(np.diff(np.sort(ea[j]))) >= 1e-3 for j in range(kappa)):
            break
    return tuple_from_eigs(q, ea), tuple_from_eigs(q, eb)


def random_projection_split(rng, n: int, blocks: int):
    """Orthogonal rank-1+ split of C^n into `blocks` random subspaces."""
    q = random_unitary(rng, n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=blocks - 1, replace=False))
    pieces = np.split(np.arange(n), cuts)
    return [q[:, idx] for idx in pieces]


def distinct_integer_points(rng, count: int, kappa: int, side: int = 5):
    """`count` distinct points of {0,...,side-1}^kappa, as a float array."""
    total = side ** kappa
    flat = rng.choice(total, size=count, replace=False)
    pts = np.stack(np.unravel_index(flat, (side,) * kappa), axis=1)
    return pts.astype(np.float64)


def merge_radius(points) -> float:
    """The package's merge distance for these points: TOL times the largest |coordinate|."""
    return TOL * float(np.max(np.abs(points), initial=0.0))


def merge_first_occurrence(points, tol: float):
    """Reference atom merge: an explicit first-occurrence loop.

    A point joins the first earlier representative within tol in the sup
    norm, else it becomes one. Returns the representatives sorted by their
    coordinate tuples and each one's member indices in input order.
    """
    reps, members = [], []
    for i, p in enumerate(np.asarray(points, dtype=np.float64)):
        for k, rep in enumerate(reps):
            if np.max(np.abs(p - rep), initial=0.0) <= tol:
                members[k].append(i)
                break
        else:
            reps.append(p)
            members.append([i])
    order = sorted(range(len(reps)), key=lambda k: tuple(reps[k]))
    return [reps[k] for k in order], [members[k] for k in order]


def parse_matrix_per_entry(flat, dim: int, where: str) -> np.ndarray:
    """Reference matrix parse: an explicit loop over the [re, im] pairs.

    Raises InputError at the first entry that is not a pair, or whose part
    (re before im) is not an int or float or overflows a float; only then at
    the first non-finite part. Builds each entry as re + 1j * im.
    """
    def number(value, location):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(location, f"expected a number, got {type(value).__name__}")
        try:
            return float(value)
        except OverflowError:
            raise InputError(location, "expected a finite number") from None

    m = np.zeros((dim, dim), dtype=np.complex128)
    for k, entry in enumerate(flat):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise InputError(f"{where}[{k}]", "expected an [re, im] pair")
        re = number(entry[0], f"{where}[{k}][0]")
        im = number(entry[1], f"{where}[{k}][1]")
        m[k // dim, k % dim] = re + 1j * im
    for k, entry in enumerate(flat):
        for part in (0, 1):
            if not math.isfinite(entry[part]):
                raise InputError(f"{where}[{k}][{part}]", "expected a finite number")
    return m


def tuple_to_dict_per_entry(t) -> dict:
    """Reference tuple writer: one [float(re), float(im)] pair per entry."""
    matrices = [[[float(z.real), float(z.imag)] for row in op.matrix for z in row]
                for op in t.ops]
    return {"schema": "specorder/1", "kappa": t.kappa, "dim": t.dim,
            "matrices": matrices}


def normalize_columns_loop(vectors, tol: float) -> np.ndarray:
    """Reference phase normalization: one column at a time, scalar abs."""
    v = np.array(vectors)
    for k in range(v.shape[1]):
        col = v[:, k]
        idx = np.flatnonzero(np.abs(col) > tol)
        if idx.size:
            pivot = col[idx[0]]
            v[:, k] = col * (np.conj(pivot) / abs(pivot))
    return v


def _cell_boxes(f):
    """(lo_idx, hi_idx, float box) for every grid cell in row-major order."""
    for idx in itertools.product(*[range(a.size) for a in f.axes]):
        lo = tuple(i - 1 for i in idx)
        lo_pt = tuple(float(f.axes[j][lo[j]]) if lo[j] >= 0 else float("-inf")
                      for j in range(f.kappa))
        hi_pt = tuple(float(f.axes[j][idx[j]]) for j in range(f.kappa))
        yield lo, idx, (lo_pt, hi_pt)


def corner_sum_validate_resolution(f, tol: float = TOL) -> ResolutionReport:
    """Reference resolution check: per cell one 2^kappa corner sum and one
    eigvalsh, then one product per pair of nonzero cells."""
    cell_violations = []
    nonzero = []
    for lo, hi, box in _cell_boxes(f):
        d = _corner_sum_index(f, lo, hi)
        herm_defect = float(np.max(np.abs(d - d.conj().T)))
        d = (d + d.conj().T) / 2.0
        w = np.linalg.eigvalsh(d)
        dist = float(np.max(np.minimum(np.abs(w), np.abs(w - 1.0)))) if w.size else 0.0
        if herm_defect > tol or dist > tol:
            cell_violations.append((box, f"eigenvalues off {{0,1}} by {max(dist, herm_defect):.3e}"))
        elif float(np.max(np.abs(w))) > tol:
            nonzero.append((box, d))
    orthogonality_violations = []
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            cross = float(np.linalg.norm(nonzero[i][1] @ nonzero[j][1]))
            if cross > tol:
                orthogonality_violations.append((nonzero[i][0], nonzero[j][0], cross))
    identity_defect = float(np.max(np.abs(f.top_corner().matrix - np.eye(f.dim))))
    return ResolutionReport(
        axiom_a=not cell_violations and not orthogonality_violations,
        cell_violations=tuple(cell_violations),
        orthogonality_violations=tuple(orthogonality_violations),
        axiom_b=True,
        axiom_c=identity_defect <= tol,
        identity_defect=identity_defect,
    )


def corner_sum_reconstruct_measure(f, tol: float = TOL):
    """Reference reconstruction: validate, then one corner sum and one
    hermitian_eig per cell, eigenvectors at eigenvalue one."""
    report = corner_sum_validate_resolution(f, tol=tol)
    if not report.passed:
        raise ValidationError(report)
    atoms = []
    for lo, hi, box in _cell_boxes(f):
        d = _corner_sum_index(f, lo, hi)
        d = (d + d.conj().T) / 2.0
        w, v = hermitian_eig(HermitianOperator(d, 0.0))
        cols = v[:, w > 0.5]
        if cols.shape[1]:
            atoms.append((box[1], Projection(cols)))
    atoms.sort(key=lambda a: a[0])
    return JointSpectralMeasure(kappa=f.kappa, dim=f.dim, atoms=tuple(atoms))


@st.composite
def near_duplicate_points(draw, tol: float, max_points: int = 10):
    """Points in R^kappa, kappa 1-3, on a small integer grid, with
    coordinates shifted off the grid by 0.5, 1 or 2 times tol; no points
    and exact duplicates included."""
    kappa = draw(st.integers(1, 3))
    m = draw(st.integers(0, max_points))
    pts = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=kappa, max_size=kappa),
                                 min_size=m, max_size=m)),
                   dtype=np.float64).reshape(m, kappa)
    for i in range(m):
        for j in range(kappa):
            pts[i, j] += draw(st.sampled_from((0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0))) * tol
    return pts


def n_ideals_by_deletion(points, iota: int) -> int:
    """Independent count of downward-closed subsets.

    Recursive deletion: pick any element x, then
    count(P) = count(P minus up-set of x) + count(P minus down-set of x);
    the first term forces x out, the second forces x in.
    """
    from specorder.measures import leq_iota

    pts = np.asarray(points, dtype=np.float64)

    def count(alive: frozenset) -> int:
        if not alive:
            return 1
        x = min(alive)
        up = frozenset(i for i in alive if leq_iota(pts[x], pts[i], iota))
        down = frozenset(i for i in alive if leq_iota(pts[i], pts[x], iota))
        return count(alive - up) + count(alive - down)

    return count(frozenset(range(pts.shape[0])))


def cdf_leq_loop(mu1, mu2, tol: float = 0.0):
    """Reference CDF comparison: one pair of float CDF evaluations per grid
    point, in lexicographic order."""
    axes = [np.unique(np.concatenate([mu1.points[:, j], mu2.points[:, j]]))
            for j in range(mu1.kappa)]
    if any(a.size == 0 for a in axes):
        return True, None
    for x in itertools.product(*axes):
        x = np.array(x)
        if mu2.cdf(x) > mu1.cdf(x) + tol:
            return False, tuple(float(v) for v in x)
    return True, None


def lowerset_dominance_loop(mu1, mu2, iota: int, tol: float = 0.0):
    """Reference lower-set check: float masses, one ideal at a time.

    Returns (holds, witness mask or None, gap)."""
    points, w1, w2, _ = _merged_support(mu1, mu2)
    for ideal in enumerate_downward_closed(points, iota):
        idx = list(ideal.indices)
        m1 = float(np.sum(w1[idx])) if idx else 0.0
        m2 = float(np.sum(w2[idx])) if idx else 0.0
        if m2 > m1 + tol:
            return False, ideal.mask, m2 - m1
    return True, None, 0.0


def equivalence_loop(mu1, mu2, iota: int, mollifier_levels=(1, 2, 4, 8), tol: float = 1e-12):
    """Reference equivalence routes: one BorelFunction per ideal (and level),
    evaluated point by point. Returns the EquivalenceReport fields after
    ``masses``, witnesses as bitmasks and (bitmask, level)."""
    lower = lowerset_dominance_loop(mu1, mu2, iota, tol=tol)
    points, w1, w2, _ = _merged_support(mu1, mu2)
    ideals = enumerate_downward_closed(points, iota)

    indicator = (True, None)
    for ideal in ideals:
        idx = list(ideal.indices)
        if idx:
            f = lower_indicator_complement(LowerSetGen.from_points(points[idx], iota))
        else:
            f = indicator_fn(lambda x: True, tag="co-lower[empty]", monotone_iota=iota)
        lhs = float(np.sum(w1 * f.on_points(points))) if points.size else 0.0
        rhs = float(np.sum(w2 * f.on_points(points))) if points.size else 0.0
        if lhs > rhs + tol:
            indicator = (False, ideal.mask)
            break

    mollifier = (True, None)
    for ideal in ideals:
        idx = list(ideal.indices)
        if not idx:
            continue
        gen = LowerSetGen.from_points(points[idx], iota)
        for level in mollifier_levels:
            f = lower_mollifier(gen, level)
            lhs = float(np.sum(w1 * f.on_points(points)))
            rhs = float(np.sum(w2 * f.on_points(points)))
            if lhs > rhs + tol:
                mollifier = (False, (ideal.mask, level))
                break
        if not mollifier[0]:
            break
    return (lower[0], lower[1]) + indicator + mollifier


def fraction_masses(mu1, mu2):
    """Merged points and both measures' exact weights on them, as Fractions."""
    points, _, _, group = _merged_support(mu1, mu2)
    exact = [[Fraction(0)] * len(points) for _ in range(2)]
    for side, (mu, at) in enumerate(((mu1, group[:mu1.n_atoms]), (mu2, group[mu1.n_atoms:]))):
        for w, g in zip(mu.weights, at):
            exact[side][g] += Fraction(float(w))
    return points, exact[0], exact[1]


def fraction_cdf_leq(mu1, mu2, tol: float = 0.0):
    """Oracle CDF comparison in exact rational arithmetic."""
    axes = [np.unique(np.concatenate([mu1.points[:, j], mu2.points[:, j]]))
            for j in range(mu1.kappa)]
    if any(a.size == 0 for a in axes):
        return True, None
    points, e1, e2 = fraction_masses(mu1, mu2)
    for x in itertools.product(*axes):
        below = np.all(points <= np.array(x), axis=1)
        gap = sum((e2[i] - e1[i] for i in np.flatnonzero(below)), Fraction(0))
        if gap > Fraction(tol):
            return False, tuple(float(v) for v in x)
    return True, None


def fraction_lowerset_dominance(mu1, mu2, iota: int, tol: float = 0.0):
    """Oracle lower-set check in exact rational arithmetic: (holds, witness
    mask or None, exact gap)."""
    points, e1, e2 = fraction_masses(mu1, mu2)
    for ideal in enumerate_downward_closed(points, iota):
        gap = sum((e2[i] - e1[i] for i in ideal.indices), Fraction(0))
        if gap > Fraction(tol):
            return False, ideal.mask, gap
    return True, None, Fraction(0)


# --- per-atom references for the array-form joint spectral measure ----------


def diagonalize_per_atom(t):
    """Reference joint measure: (point, basis) pairs sorted by point.

    The recursive cluster diagonalization, with the column phases fixed in
    one call over the leaves in the order the recursion found them, and
    only then sorted, each atom's basis split off on its own.
    """
    thresholds = [TOL * op.norm() for op in t.ops]
    leaves = []

    def recurse(level, basis, prefix):
        if level == t.kappa:
            leaves.append((prefix, basis))
            return
        compressed = basis.conj().T @ t.ops[level].matrix @ basis
        if basis.shape[1] == 1:
            recurse(level + 1, basis, prefix + (float(compressed[0, 0].real),))
            return
        compressed = compressed / 2.0 + compressed.conj().T / 2.0
        w, v = hermitian_eig(HermitianOperator(compressed, 0.0))
        for cluster in _split_clusters(w, thresholds[level]):
            recurse(level + 1, basis @ v[:, np.sort(cluster)],
                    prefix + (float(np.mean(w[cluster])),))

    recurse(0, np.eye(t.dim, dtype=np.complex128), ())
    if not leaves:
        return []
    fixed = _normalize_columns(np.hstack([b for _, b in leaves]))
    cuts = np.cumsum([b.shape[1] for _, b in leaves])[:-1]
    atoms = [(pt, np.array(b)) for (pt, _), b in zip(leaves, np.split(fixed, cuts, axis=1))]
    return sorted(atoms, key=lambda a: a[0])


def distribution_order_stacked(atoms_a, atoms_b, tol: float = TOL):
    """Reference order kernel on (point, basis) lists: the atom bases
    hstacked, atoms marked by a repeat-built column mask. Returns
    (holds, witness, defect)."""
    pa = np.array([pt for pt, _ in atoms_a], dtype=np.float64)
    pb = np.array([pt for pt, _ in atoms_b], dtype=np.float64)
    kappa = pa.shape[1]
    axes = [np.unique(np.concatenate([pa[:, j], pb[:, j]])) for j in range(kappa)]
    grids = np.meshgrid(*[np.arange(a.size) for a in axes], indexing="ij")
    idx = [g.reshape(-1) for g in grids]

    def inclusion(points, slack):
        incl = np.ones((points.shape[0], idx[0].size), dtype=bool)
        for j in range(kappa):
            incl &= (points[:, j][:, None] <= (axes[j] + slack[j])[None, :])[:, idx[j]]
        return incl

    def atom_columns(atoms):
        ranks = [b.shape[1] for _, b in atoms]
        return np.repeat(np.arange(len(ranks)), ranks) == np.arange(len(ranks))[:, None]

    slack = np.array([tol * float(np.abs(ax).max()) for ax in axes])
    incl_b = inclusion(pb, np.zeros(kappa)).astype(np.float64)
    rank_fb = np.array([b.shape[1] for _, b in atoms_b], dtype=np.float64) @ incl_b
    u = np.hstack([b for _, b in atoms_a])
    w = np.hstack([b for _, b in atoms_b])
    gram = atom_columns(atoms_a) @ (np.abs(u.conj().T @ w) ** 2) @ atom_columns(atoms_b).T
    outside = gram @ incl_b
    outside *= ~inclusion(pa, slack)
    residual = np.sqrt(outside.sum(axis=0))
    bad = residual > tol * np.maximum(1.0, rank_fb)
    if not bad.any():
        return True, None, float(residual.max())
    g = int(np.argmax(bad))
    return False, tuple(float(axes[j][idx[j][g]]) for j in range(kappa)), float(residual[g])


def calculus_per_atom(atoms, values) -> np.ndarray:
    """Reference spectral integral: one rank-r accumulation per atom."""
    dim = atoms[0][1].shape[0] if atoms else 0
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for c, (_, b) in zip(values, atoms):
        acc += c * (b @ b.conj().T)
    return (acc + acc.conj().T) / 2.0


def monomial_matrices_eager(atoms, alphas) -> dict:
    """Reference monomials: A^alpha for every alpha, built before any is used."""
    pts = np.array([pt for pt, _ in atoms], dtype=np.float64)
    return {tuple(alpha): calculus_per_atom(
        atoms, np.prod(pts ** np.asarray(alpha, dtype=np.float64), axis=1))
        for alpha in alphas}


def monomial_norm(atoms, alpha) -> float:
    """||X^alpha||: the largest |lambda^alpha| over the atoms."""
    pts = np.array([pt for pt, _ in atoms], dtype=np.float64)
    return float(np.max(np.abs(np.prod(pts ** np.asarray(alpha, dtype=np.float64), axis=1))))


def monomial_scan_eager(atoms_a, atoms_b, alphas, tol: float = TOL):
    """Reference Loewner scan over eagerly built monomials: (holds, witness, defect).

    alpha fails when the least eigenvalue of B^alpha - A^alpha is below
    -tol * max(||A^alpha||, ||B^alpha||).
    """
    pow_a = monomial_matrices_eager(atoms_a, alphas)
    pow_b = monomial_matrices_eager(atoms_b, alphas)
    worst = 0.0
    for alpha in alphas:
        w = np.linalg.eigvalsh(pow_b[alpha] - pow_a[alpha])
        scale = max(monomial_norm(atoms_a, alpha), monomial_norm(atoms_b, alpha))
        lo = float(w[0]) if w.size else 0.0
        if lo < -tol * scale:
            return False, alpha, -lo
        worst = max(worst, max(0.0, -lo))
    return True, None, worst


def measure_defects_per_atom(atoms, t) -> tuple[float, float, float]:
    """Reference completeness, orthogonality and reconstruction defects,
    one projection or pair of atoms at a time."""
    n = t.dim
    total = sum((b @ b.conj().T for _, b in atoms), np.zeros((n, n), dtype=np.complex128))
    completeness = float(np.max(np.abs(total - np.eye(n))))
    orthogonality = 0.0
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            orthogonality = max(orthogonality,
                                float(np.max(np.abs(atoms[i][1].conj().T @ atoms[j][1]))))
    reconstruction = 0.0
    for j, op in enumerate(t.ops):
        acc = np.zeros((n, n), dtype=np.complex128)
        for pt, b in atoms:
            acc += pt[j] * (b @ b.conj().T)
        reconstruction = max(reconstruction, float(np.linalg.norm(op.matrix - acc)))
    return completeness, orthogonality, reconstruction
