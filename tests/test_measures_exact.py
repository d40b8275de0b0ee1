"""Exact mass comparisons in the measure checks.

The array-valued ``cdf_leq``, ``lowerset_dominance`` and
``thm31_equivalence_check`` are held against two references in conftest:
the per-point float loops they replaced and an exact-rational oracle.
Verdicts must match the oracle everywhere; where the float loops reach the
oracle's answer, the new code must also reproduce their witnesses, gaps and
the equivalence routes.
"""

import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cdf_leq_loop,
    equivalence_loop,
    fraction_cdf_leq,
    fraction_largest_gap,
    fraction_masses,
    fraction_lowerset_dominance,
    lowerset_dominance_loop,
    subprocess_env,
)
from specorder.errors import MassMismatchError, ParameterError
from specorder.gallery import crossed_dirac_pair
from specorder.io import measure_to_dict, save_json
from specorder.linalg import TOL, Verdict
from specorder.measures import (
    AtomicMeasure,
    _largest_gap,
    _merged_support,
    cdf_leq,
    enumerate_downward_closed,
    lowerset_dominance,
    thm31_equivalence_check,
)

# weights whose float sums depend on the order they are added in
WEIGHT_POOL = (0.1, 0.2, 0.3, 0.6, 0.7, 1 / 3, 2 / 3, 1e-3, 0.25, 1.0, 3e-17)
# coordinate values per kappa, small enough that ideals stay few
COORDINATES = {1: np.arange(20) / 2, 2: np.array([0.0, 0.5, 1.0]), 3: np.array([0.0, 1.0])}


@st.composite
def measure_pairs(draw):
    """Two measures on a shared coordinate grid, kappa 1-3, at most 20 merged
    atoms; mu2's weights are often mu1's permuted, so exact masses tie while
    their float sums need not, and repeated points merge inside a measure."""
    kappa = draw(st.integers(1, 3))
    values = COORDINATES[kappa]

    def atoms(k):
        return np.array(draw(st.lists(st.lists(st.sampled_from(values), min_size=kappa,
                                               max_size=kappa),
                                      min_size=k, max_size=k)),
                        dtype=np.float64).reshape(k, kappa)

    k = draw(st.integers(1, 10))
    w1 = np.array(draw(st.lists(st.sampled_from(WEIGHT_POOL), min_size=k, max_size=k)))
    if draw(st.integers(0, 3)):
        w2 = w1[np.array(draw(st.permutations(range(k))), dtype=int)]
    else:
        w2 = np.array(draw(st.lists(st.sampled_from(WEIGHT_POOL), min_size=k, max_size=k)))
    mu1 = AtomicMeasure.from_atoms(atoms(k), w1)
    mu2 = AtomicMeasure.from_atoms(atoms(k), w2)
    iota = draw(st.integers(1, kappa))
    tol = draw(st.sampled_from((0.0, 1e-12)))
    return mu1, mu2, iota, tol


@given(case=measure_pairs())
@settings(max_examples=150)
def test_exact_checks_match_fraction_oracle_and_float_loops(case):
    mu1, mu2, iota, tol = case

    cdf = cdf_leq(mu1, mu2, tol=tol)
    assert (cdf.holds, cdf.witness) == fraction_cdf_leq(mu1, mu2, tol=tol)

    dom = lowerset_dominance(mu1, mu2, iota, tol=tol)
    holds, mask, gap = fraction_lowerset_dominance(mu1, mu2, iota, tol=tol)
    assert dom.holds == holds
    assert (None if dom.witness is None else dom.witness.mask) == mask
    assert dom.defect == float(gap)  # correctly rounded

    old_dom = lowerset_dominance_loop(mu1, mu2, iota, tol=tol)
    if old_dom[:2] == (holds, mask) and not holds:
        # the loop's gap cancels two float sums of k weights each, so it is
        # good to about k ulps of the larger sum, not to an ulp of the gap
        _, w1, w2, *_ = _merged_support(mu1, mu2)
        idx = list(dom.witness.indices)
        scale = max(w1[idx].sum(), w2[idx].sum())
        assert abs(old_dom[2] - dom.defect) <= 2 * len(idx) * math.ulp(scale)

    _, e1, e2 = fraction_masses(mu1, mu2)
    if abs(sum(e1) - sum(e2)) > Fraction(TOL) * max(sum(e1), sum(e2)):
        with pytest.raises(MassMismatchError):
            thm31_equivalence_check(mu1, mu2, iota, tol=tol)
        return
    report = thm31_equivalence_check(mu1, mu2, iota, tol=tol)
    assert report.lowerset == dom
    assert report.masses == (float(sum(e1)), float(sum(e2)))

    old = equivalence_loop(mu1, mu2, iota, tol=tol)
    lowerset, indicator, mollifier = report.lowerset, report.indicator, report.mollifier
    got = (lowerset.holds, None if lowerset.witness is None else lowerset.witness.mask,
           indicator.holds, None if indicator.witness is None else indicator.witness.mask,
           mollifier.holds, None if mollifier.witness is None
           else (mollifier.witness[0].mask, mollifier.witness[1]))
    # the indicator and mollifier routes keep their float sums bit for bit
    assert got[2:] == old[2:]
    if old[:2] == (holds, mask):
        assert got[:2] == old[:2]


@st.composite
def grid_pairs(draw):
    """Two measures with integer weights on a 4 x 4 integer grid, up to 16
    merged atoms, so gaps are large and seldom tie."""
    def atoms():
        k = draw(st.integers(0, 12))
        points = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=k, max_size=k))
        weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        return AtomicMeasure.from_atoms(np.array(points, dtype=np.float64).reshape(k, 2),
                                        np.array(weights, dtype=np.float64))

    return atoms(), atoms(), draw(st.integers(1, 2)), draw(st.sampled_from((0.0, 1e-12)))


@given(case=grid_pairs())
@settings(max_examples=100)
def test_flow_gap_matches_fraction_oracle(case):
    mu1, mu2, iota, tol = case
    _, _, _, member, units, e = _largest_gap(mu1, mu2, iota)
    gap, mask = fraction_largest_gap(mu1, mu2, iota)
    assert units * Fraction(2) ** e == gap
    assert int.from_bytes(np.packbits(member, bitorder="little").tobytes(), "little") == mask
    dom = lowerset_dominance(mu1, mu2, iota, tol=tol)
    assert (dom.holds, None if dom.witness is None else dom.witness.mask, dom.defect) == \
        (gap <= Fraction(tol), None if gap <= Fraction(tol) else mask, float(gap))


ONE_ATOM = AtomicMeasure.from_atoms([[0.0, 0.0]], [1.0])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("check", [
    lambda tol: cdf_leq(ONE_ATOM, ONE_ATOM, tol=tol),
    lambda tol: lowerset_dominance(ONE_ATOM, ONE_ATOM, 2, tol=tol),
    lambda tol: thm31_equivalence_check(ONE_ATOM, ONE_ATOM, 2, tol=tol),
], ids=["cdf_leq", "lowerset_dominance", "thm31_equivalence_check"])
def test_exact_checks_reject_malformed_tol(check, tol):
    with pytest.raises(ParameterError, match="tol must be finite and nonnegative"):
        check(tol)


def write_measure(path, points, weights):
    save_json(str(path), measure_to_dict(AtomicMeasure.from_atoms(points, weights)))


def test_float_sum_order_tie_holds(tmp_path):
    # both totals are 0.6 exactly in weights, but 0.3 + 0.2 + 0.1 and
    # 0.1 + 0.2 + 0.3 round differently
    mu1 = AtomicMeasure.from_atoms([[0.0], [1.0], [2.0]], [0.3, 0.2, 0.1])
    mu2 = AtomicMeasure.from_atoms([[0.5], [1.5], [2.5]], [0.1, 0.2, 0.3])
    assert cdf_leq_loop(mu1, mu2) == (False, (2.5,))
    assert cdf_leq(mu1, mu2) == Verdict(holds=True, witness=None, defect=0.0)
    dom = lowerset_dominance(mu1, mu2, iota=1)
    assert dom == Verdict(holds=True, witness=None, defect=0.0)

    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_measure(m1, [[0.0], [1.0], [2.0]], [0.3, 0.2, 0.1])
    write_measure(m2, [[0.5], [1.5], [2.5]], [0.1, 0.2, 0.3])
    proc = subprocess.run([sys.executable, "-m", "specorder", "measure-check", str(m1),
                           str(m2), "--format", "json"],
                          capture_output=True, text=True, env=subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = {v["name"]: v["holds"] for v in json.loads(proc.stdout)["verdicts"]}
    assert verdicts == {"cdf_leq": True, "lowerset_dominance": True,
                        "equivalence_agreement": True}


def test_gap_is_correctly_rounded():
    mu1, mu2 = crossed_dirac_pair()
    assert lowerset_dominance(mu1, mu2, iota=2).defect == 1.0
    # the exact gap 0.1 + 0.2 - 0.3 of these weights is one power of two
    mu1 = AtomicMeasure.from_atoms([[0.0]], [0.3])
    mu2 = AtomicMeasure.from_atoms([[0.0], [0.5]], [0.1, 0.2])
    dom = lowerset_dominance(mu1, mu2, iota=1)
    exact = Fraction(0.1) + Fraction(0.2) - Fraction(0.3)
    assert not dom.holds and dom.defect == float(exact) == 2.0 ** -55
    assert dom.witness.size == 2


def test_tolerance_compares_exactly():
    mu1 = AtomicMeasure.from_atoms([[0.0]], [0.5])
    mu2 = AtomicMeasure.from_atoms([[0.0]], [0.5 + 2.0 ** -40])
    assert not lowerset_dominance(mu1, mu2, iota=1, tol=2.0 ** -41).holds
    assert lowerset_dominance(mu1, mu2, iota=1, tol=2.0 ** -40).holds
    assert cdf_leq(mu1, mu2, tol=2.0 ** -40) == Verdict(holds=True, witness=None,
                                                        defect=2.0 ** -40)
    assert cdf_leq(mu1, mu2, tol=2.0 ** -40 - 2.0 ** -90) == Verdict(
        holds=False, witness=(0.0,), defect=2.0 ** -40)
    # weights far apart in magnitude still compare exactly
    mu1 = AtomicMeasure.from_atoms([[0.0], [1.0]], [1e300, 1e-300])
    mu2 = AtomicMeasure.from_atoms([[0.0], [1.0]], [1e300, 2e-300])
    dom = lowerset_dominance(mu1, mu2, iota=1)
    assert not dom.holds and dom.defect == 1e-300 and dom.witness.size == 2
    assert cdf_leq(mu1, mu2) == Verdict(holds=False, witness=(1.0,), defect=1e-300)


def test_subnormal_weights_compare_exactly():
    tiny = 5e-324  # the least positive double
    mu1 = AtomicMeasure.from_atoms([[0.0]], [3 * tiny])
    mu2 = AtomicMeasure.from_atoms([[0.0]], [5 * tiny])
    dom = lowerset_dominance(mu1, mu2, iota=1)
    assert not dom.holds and dom.defect == 2 * tiny
    assert cdf_leq(mu1, mu2) == Verdict(holds=False, witness=(0.0,), defect=2 * tiny)
    assert lowerset_dominance(mu1, mu2, iota=1, tol=2 * tiny).holds
    assert lowerset_dominance(mu2, mu1, iota=1).holds


def test_overflowing_totals_still_compare():
    # 1.5e308 + 1.5e308 overflows a float; the exact masses do not
    big = AtomicMeasure.from_atoms([[0.0], [1.0]], [1.5e308, 1.5e308])
    assert cdf_leq(big, big) == Verdict(holds=True, witness=None, defect=0.0)
    assert lowerset_dominance(big, big, iota=1).holds
    more = AtomicMeasure.from_atoms([[0.0], [1.0]], [1.5e308, 1.6e308])
    dom = lowerset_dominance(big, more, iota=1)
    assert not dom.holds and dom.witness.size == 2
    assert dom.defect == float(Fraction(1.6e308) - Fraction(1.5e308))


OVERFLOWING = [
    # masses 2e308 and 3e308: unequal, though both sum to inf as floats
    ([[0.0], [1.0]], [1.5e308, 1.5e308], 1, "skipped: masses inf vs inf; only mass1 <= mass2"),
    # equal masses past the float range: the integral routes still compare
    ([[0.0], [2.0]], [1e308, 1e308], 0, "lower sets True, indicators True, mollifiers True"),
    ([[0.0]], [1.7e308], 1, "skipped: masses inf vs 1.7e+308; only mass2 <= mass1"),
]


@pytest.mark.parametrize("points, weights, code, detail", OVERFLOWING)
def test_overflowing_totals_decide_the_equivalence_quietly(tmp_path, points, weights,
                                                          code, detail):
    mu1 = AtomicMeasure.from_atoms([[0.0], [1.0]], [1e308, 1e308])
    mu2 = AtomicMeasure.from_atoms(points, weights)
    if code:
        with pytest.raises(MassMismatchError) as info:
            thm31_equivalence_check(mu1, mu2, iota=1)
        # correctly rounded, inf past the float range
        assert (info.value.mass1, info.value.mass2) == (math.inf, sum(weights))
    else:
        report = thm31_equivalence_check(mu1, mu2, iota=1)
        assert report.masses == (math.inf, math.inf) and report.agreement
        assert report.indicator == Verdict(holds=True, witness=None, defect=0.0)

    write_measure(tmp_path / "m1.json", [[0.0], [1.0]], [1e308, 1e308])
    write_measure(tmp_path / "m2.json", points, weights)
    proc = subprocess.run([sys.executable, "-m", "specorder", "measure-check",
                           str(tmp_path / "m1.json"), str(tmp_path / "m2.json")],
                          capture_output=True, text=True, env=subprocess_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (code, "")
    assert f"equivalence_agreement: holds  ({detail}" in proc.stdout


@pytest.mark.parametrize("points, weights, bad", [
    ([[0.0, 1.0], [np.nan, 0.0]], [1.0, 1.0], 1),
    ([[0.0, np.inf], [1.0, 0.0]], [1.0, 1.0], 0),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, np.inf], 1),
    ([[0.0, 1.0], [1.0, 0.0]], [np.nan, 1.0], 0),
])
def test_from_atoms_rejects_non_finite_atoms(points, weights, bad):
    with pytest.raises(ParameterError, match=f"atom {bad} is not finite"):
        AtomicMeasure.from_atoms(points, weights)


def test_equivalence_memory_stays_linear_in_ideals():
    # 14 pairwise incomparable points give 2^14 ideals under the default cap;
    # an (ideals, points, points) array of distances alone would take 24.5 MiB
    points = np.array([[float(i), float(-i)] for i in range(14)])
    mu1 = AtomicMeasure.from_atoms(points[::2], np.ones(7))
    mu2 = AtomicMeasure.from_atoms(points[1::2], np.ones(7))
    tracemalloc.start()
    try:
        report = thm31_equivalence_check(mu1, mu2, iota=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(enumerate_downward_closed(points, iota=2)) == 2 ** 14
    assert not report.lowerset.holds and report.agreement
    assert peak < 20 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
