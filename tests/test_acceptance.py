"""Release gate: the eleven checks that must hold before shipping.

Each test prints one [criterion N] PASS/FAIL line with the tolerances and
runtimes it enforces, then asserts. Criterion 3 pins the axis-shift sweep
(order holds only at theta = 2) and the monomial certificate of the theta = 3
failure: that family satisfies every monomial Loewner inequality up to
exponent depth 12, so the scan runs to depth 13 and must return exactly
alpha = (0, 13) as its first violation in (|alpha|, lex) order.
"""

import itertools
import time

import numpy as np

import conftest
from conftest import (
    atoms_of,
    distinct_integer_points,
    fresh_rng,
    injective_positive_pair,
    measure_from_pairs,
    n_ideals_by_deletion,
    ordered_pair,
    positive_ordered_pair,
    random_projection_split,
    random_unitary,
    tuple_from_eigs,
)
from specorder.functions import (
    clipped_affine_fn,
    coordinate_fn,
    parts_fns,
    sum_fn,
)
from specorder.gallery import (
    MEET_COMMUTATOR_DEFECT,
    MEET_FIRST,
    MEET_SECOND,
    axis_shift_family,
    crossed_dirac_pair,
    projection_pair_no_infimum,
)
from specorder.linalg import Projection
from specorder.measures import (
    AtomicMeasure,
    cdf_leq,
    enumerate_downward_closed,
    lowerset_dominance,
    thm31_equivalence_check,
    tuple_scalar_measure,
)
from specorder.order import (
    NormalOperator,
    bounded_vector_membership,
    growth_ratio,
    infimum_probe,
    monotone_transport_check,
    multi_indices,
    normal_leq,
    olson_necessity_scan,
    spectral_leq,
    spectral_leq_componentwise,
)
from specorder.resolution import (
    ProjValuedStepFunction,
    reconstruct_measure,
    validate_resolution,
)
from specorder.spectral import joint_measure, validate_tuple


def verdict(n: int, ok: bool, detail: str):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.criterion_lines.append(line)
    return ok


def test_criterion_1_lattice_meet():
    started = time.perf_counter()
    a, b = projection_pair_no_infimum()
    rep = infimum_probe(a, b)
    elapsed = time.perf_counter() - started
    err1 = float(np.max(np.abs(rep.candidates[0].matrix - MEET_FIRST)))
    err2 = float(np.max(np.abs(rep.candidates[1].matrix - MEET_SECOND)))
    derr = abs(rep.defect - MEET_COMMUTATOR_DEFECT)
    ok = err1 <= 1e-9 and err2 <= 1e-9 and derr <= 1e-9 and elapsed < 0.1
    assert verdict(1, ok, f"meet entries off by {max(err1, err2):.2e} (tol 1e-9), "
                          f"commutator defect off by {derr:.2e} (tol 1e-9), "
                          f"{elapsed * 1e3:.1f} ms (< 100 ms)")


def test_criterion_2_dirac_dominance_gap():
    mu1, mu2 = crossed_dirac_pair()
    cdf_ok = cdf_leq(mu1, mu2).holds
    dom = lowerset_dominance(mu1, mu2, iota=2)
    witness_pts = (None if dom.witness is None
                   else [tuple(float(v) for v in p)
                         for p in dom.witness.member_points()])
    ok = (cdf_ok and not dom.holds and dom.defect == 1.0
          and witness_pts == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
    assert verdict(2, ok, f"cdf dominance {cdf_ok}, lower-set gap {dom.defect:g} "
                          f"on ideal {witness_pts} (exact integers, zero tolerance)")


def test_criterion_3_theta_family_and_scan():
    started = time.perf_counter()
    sweep = {}
    for theta in (1.5, 2.0, 3.0):
        a, b = axis_shift_family(theta)
        sweep[theta] = spectral_leq(a, b).holds
    sweep_ok = sweep == {1.5: False, 2.0: True, 3.0: False}

    # every monomial inequality of the theta=3 family holds up to depth 12
    # (exact arithmetic, see test_order), so the certificate needs depth 13
    a3, b3 = axis_shift_family(3.0)
    depth = 13
    scan = olson_necessity_scan(a3, b3, alpha_max=depth)
    witness_ok = scan.witness == (0, 13)
    elapsed = time.perf_counter() - started
    ok = sweep_ok and witness_ok and elapsed < 1.0
    assert verdict(
        3, ok,
        f"order verdicts {sweep} (expected hold only at 2.0: {sweep_ok}); "
        f"depth-{depth} scan witness {scan.witness} (expected (0, 13)), "
        f"defect {scan.defect:.3g}; {elapsed:.2f} s (< 1 s)")


def test_criterion_4_joint_vs_componentwise():
    started = time.perf_counter()
    rng = fresh_rng(41)
    n_pairs, agreements = 520, 0
    holds_count = 0
    for k in range(n_pairs):
        n = int(rng.integers(2, 9))
        kappa = int(rng.integers(1, 4))
        q = random_unitary(rng, n)
        ea = rng.uniform(-1, 1, size=(kappa, n))
        if k % 2 == 0:
            eb = ea + rng.uniform(0.05, 1.0, size=(kappa, n))
        else:
            eb = rng.uniform(-1, 1, size=(kappa, n))
        a, b = tuple_from_eigs(q, ea), tuple_from_eigs(q, eb)
        j = spectral_leq(a, b).holds
        c = spectral_leq_componentwise(a, b).holds
        # the two routes share the per-axis kernel; the full-grid walk is
        # the independent check of the product-order theorem
        g = conftest.distribution_order_stacked(conftest.diagonalize_per_atom(a),
                                                conftest.diagonalize_per_atom(b))[0]
        agreements += j == c == g
        holds_count += j
    elapsed = time.perf_counter() - started
    ok = agreements == n_pairs and elapsed < 10.0
    assert verdict(4, ok, f"per-axis, componentwise and full-grid routes agree on "
                          f"{agreements}/{n_pairs} shared-basis "
                          f"pairs (kappa <= 3, n <= 8; {holds_count} ordered), "
                          f"{elapsed:.2f} s (< 10 s)")


def test_criterion_5_monotone_transport():
    rng = fresh_rng(42)
    total, held = 0, 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        kappa = int(rng.integers(1, 4))
        a, b = ordered_pair(rng, n, kappa, low=-2.0, high=2.0)
        plus = parts_fns("+" * kappa)[int(rng.integers(kappa))]
        minus = parts_fns("-" * kappa)[int(rng.integers(kappa))]
        fns = (coordinate_fn(int(rng.integers(kappa)), kappa), sum_fn(),
               clipped_affine_fn((0.5,) * kappa, -1.0, 1.0), plus, minus)
        for phi in fns:
            held += monotone_transport_check(a, b, phi).holds
            total += 1
    ok = held == total == 1000
    assert verdict(5, ok, f"phi(A) <= phi(B) in {held}/{total} transports "
                          f"(200 ordered pairs x 5 monotone rules)")


def test_criterion_6_monomial_necessity():
    rng = fresh_rng(43)
    pairs_ok, norms_ok, norm_checks = 0, 0, 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        kappa = int(rng.integers(1, 4))
        a, b = positive_ordered_pair(rng, n, kappa)
        pairs_ok += olson_necessity_scan(a, b, alpha_max=5).holds
        mats_a = [op.matrix for op in a.ops]
        mats_b = [op.matrix for op in b.ops]
        for _ in range(10):
            h = rng.normal(size=n) + 1j * rng.normal(size=n)
            good = True
            for alpha in multi_indices(kappa, 5):
                va, vb = h.copy(), h.copy()
                for j, power in enumerate(alpha):
                    for _ in range(power):
                        va = mats_a[j] @ va
                        vb = mats_b[j] @ vb
                na, nb = np.linalg.norm(va), np.linalg.norm(vb)
                if na > nb * (1 + 1e-9) + 1e-12:
                    good = False
            norms_ok += good
            norm_checks += 1
    ok = pairs_ok == 100 and norms_ok == norm_checks == 1000
    assert verdict(6, ok, f"A^alpha <= B^alpha to depth 5 on {pairs_ok}/100 "
                          f"positive pairs; moment norms dominated for "
                          f"{norms_ok}/{norm_checks} vectors (slack 1e-9 relative)")


def test_criterion_7_growth_ratio():
    rng = fresh_rng(44)
    bounded = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        kappa = int(rng.integers(1, 3))
        a, b = injective_positive_pair(rng, n, kappa)
        for _ in range(10):
            h = rng.normal(size=n) + 1j * rng.normal(size=n)
            rep = growth_ratio(a, b, h, alpha_max=12)
            bounded += rep.limit_estimate <= 1.05

    ident = validate_tuple([np.diag([1.0, 1.0]), np.diag([1.0, 1.0])])
    killer = validate_tuple([np.diag([1.0, 0.0]), np.diag([1.0, 1.0])])
    h2 = np.array([0.0, 1.0])
    inf_rep = growth_ratio(ident, killer, h2, alpha_max=3)
    zero_rep = growth_ratio(killer, killer, h2, alpha_max=3,
                            lambda_filter=lambda alpha: alpha[1] == 0)
    conventions = (inf_rep.limit_estimate == np.inf
                   and zero_rep.limit_estimate == 0.0)
    ok = bounded == 500 and conventions
    assert verdict(7, ok, f"L-hat <= 1.05 at depth 12 for {bounded}/500 "
                          f"injective positive pairs; kernel conventions "
                          f"a/0=inf and 0/0=0: {conventions}")


def test_criterion_8_bounded_vectors():
    rng = fresh_rng(45)
    agreements, members = 0, 0
    for _ in range(200):
        kappa = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        blocks = int(rng.integers(2, min(n, 4) + 1))
        bases = random_projection_split(rng, n, blocks)
        bound = rng.choice([0.5, 1.5, 2.5], size=kappa)
        inside = rng.random() < 0.5
        pts = np.zeros((blocks, kappa))
        for i in range(blocks):
            pts[i] = [rng.integers(0, int(bd) + 1) for bd in bound]
        support = sorted(rng.choice(blocks, size=int(rng.integers(1, blocks + 1)),
                                    replace=False))
        if not inside:
            # push one supported atom well past the bound on one axis
            off = int(rng.choice(support))
            axis = int(rng.integers(kappa))
            pts[off, axis] = np.floor(1.5 * bound[axis]) + 1.0
        # distinct atom points so blocks stay separate atoms
        for i in range(blocks):
            while any(np.array_equal(pts[i], pts[k]) for k in range(i)):
                pts[i, int(rng.integers(kappa))] += 7.0
        mats = [sum(pts[i, j] * bases[i] @ bases[i].conj().T
                    for i in range(blocks)) for j in range(kappa)]
        t = validate_tuple(mats)
        h = np.zeros(n, dtype=np.complex128)
        for i in support:
            coef = 0.5 + 0.5 * rng.random()
            h += coef * bases[i][:, 0]
        res = bounded_vector_membership(t, h, bound)
        agreements += res.agree
        members += res.member
        inside_truth = all(np.all(pts[i] <= bound) for i in support)
        assert res.member == inside_truth
    ok = agreements == 200
    assert verdict(8, ok, f"projection route and growth route agree on "
                          f"{agreements}/200 exact-atom triples "
                          f"({members} members)")


def test_criterion_9_equivalence_and_ideal_counts():
    rng = fresh_rng(46)
    agreements, count_matches, counted = 0, 0, 0
    for _ in range(200):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        pts1 = distinct_integer_points(rng, n1, 2, side=4)
        pts2 = distinct_integer_points(rng, n2, 2, side=4)
        mass = int(rng.integers(max(n1, n2), 12))
        w1 = rng.multinomial(mass, np.ones(n1) / n1).astype(np.float64)
        w2 = rng.multinomial(mass, np.ones(n2) / n2).astype(np.float64)
        mu1 = AtomicMeasure.from_atoms(pts1, w1)
        mu2 = AtomicMeasure.from_atoms(pts2, w2)
        iota = int(rng.integers(1, 3))
        eq = thm31_equivalence_check(mu1, mu2, iota=iota)
        agreements += eq.lowerset.holds == eq.indicator.holds
        union = np.vstack([mu1.points, mu2.points])
        uniq = np.unique(union, axis=0)
        if uniq.shape[0] <= 10:
            ideals = enumerate_downward_closed(uniq, iota=iota)
            count_matches += len(ideals) == n_ideals_by_deletion(uniq, iota)
            counted += 1
    ok = agreements == 200 and count_matches == counted and counted > 50
    assert verdict(9, ok, f"ideal-enumeration and indicator-integral verdicts "
                          f"agree on {agreements}/200 equal-mass pairs; "
                          f"enumeration size matches the deletion oracle on "
                          f"{count_matches}/{counted} posets (<= 10 elements)")


def test_criterion_10_resolution_round_trip():
    rng = fresh_rng(47)
    exact_points, proj_ok = 0, 0
    for _ in range(100):
        kappa = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        blocks = int(rng.integers(2, min(n, 6, 5 ** kappa) + 1))
        bases = random_projection_split(rng, n, blocks)
        pts = distinct_integer_points(rng, blocks, kappa, side=5)
        atoms = tuple(
            (tuple(float(v) for v in pts[i]), Projection(bases[i]))
            for i in np.lexsort(pts.T[::-1]))
        e = measure_from_pairs(kappa, n, atoms)
        back = reconstruct_measure(ProjValuedStepFunction.from_measure(e))
        exact_points += np.array_equal(back.points(), e.points())
        proj_ok += all(
            np.linalg.norm(pn.matrix - po.matrix) <= 1e-9
            for (_, pn), (_, po) in zip(atoms_of(back), atoms_of(e)))

    t = validate_tuple([np.diag([0.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0])])
    f = ProjValuedStepFunction.from_measure(joint_measure(t))
    bad = f.replace_value((0, 0), Projection(np.eye(3)[:, [1]].astype(complex)))
    report = validate_resolution(bad)
    located = (not report.axiom_a and len(report.cell_violations) > 0
               and report.cell_violations[0][0][1] == (1.0, 0.0))
    ok = exact_points == 100 and proj_ok == 100 and located
    assert verdict(10, ok, f"round trip exact on {exact_points}/100 measures "
                           f"(points bitwise, projections within 1e-9: "
                           f"{proj_ok}/100); corrupted instance fails axiom A "
                           f"at box {report.cell_violations[0][0]}")


def test_criterion_11_normal_operator_order():
    rng = fresh_rng(48)
    recovered, agreements = 0, 0
    for k in range(100):
        n = int(rng.integers(2, 7))
        q = random_unitary(rng, n)
        ea = rng.uniform(-1, 1, size=(2, n))
        if k % 2 == 0:
            eb = ea + rng.uniform(0.05, 1.0, size=(2, n))
        else:
            eb = rng.uniform(-1, 1, size=(2, n))
        a, b = tuple_from_eigs(q, ea), tuple_from_eigs(q, eb)

        s = NormalOperator.from_matrix(a.ops[0].matrix + 1j * a.ops[1].matrix)
        t = NormalOperator.from_matrix(b.ops[0].matrix + 1j * b.ops[1].matrix)
        err = max(
            float(np.max(np.abs(s.parts().ops[0].matrix - a.ops[0].matrix))),
            float(np.max(np.abs(s.parts().ops[1].matrix - a.ops[1].matrix))))
        recovered += err <= 1e-9
        agreements += normal_leq(s, t).holds == spectral_leq(a, b).holds
    ok = recovered == 100 and agreements == 100
    assert verdict(11, ok, f"tuple -> T -> parts recovered within 1e-9 on "
                           f"{recovered}/100 instances; normal_leq matches "
                           f"spectral_leq on {agreements}/100 pairs")
