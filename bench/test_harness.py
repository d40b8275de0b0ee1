"""Self-tests of the benchmark harness, kept out of the package's test suite.

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from oracle import Outcome, excused, failure  # noqa: E402
from tracer import JOB, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return harness.fresh_import(SRC)


def _files(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_reproducible(tmp_path, name):
    first = workloads.build(name, 7, tmp_path / "first")
    second = workloads.build(name, 7, tmp_path / "second")
    assert _files(tmp_path / "first") == _files(tmp_path / "second")
    assert [j.label for j in first.jobs] == [j.label for j in second.jobs]
    for a, b in zip(first.jobs, second.jobs):
        for x, y in zip(a.matrices or [], b.matrices or []):
            assert np.array_equal(x, y)
    other = workloads.build(name, 8, tmp_path / "other")
    assert _files(tmp_path / "other") != _files(tmp_path / "first")
    assert other.jobs


def _score(job, mods):
    return failure(job, harness.execute(job, mods))


def test_oracle_flags_flipped_expectations(tmp_path, mods):
    grid = workloads.build("order-grid", 3, tmp_path / "grid")
    ordered = grid.warmup
    assert _score(ordered, mods) is None
    ordered.expect_exit = 1
    assert _score(ordered, mods) is not None
    ordered.expect_exit = 0
    ordered.expect_verdicts["spectral_leq"] = False
    assert "spectral_leq" in _score(ordered, mods)

    atoms = workloads.build("atom-loops", 3, tmp_path / "atoms")
    calc = next(j for j in atoms.jobs if j.label.startswith("calculus"))
    assert _score(calc, mods) is None
    calc.expect_matrix = calc.expect_matrix * 1.001
    assert "calculus" in _score(calc, mods)

    roundtrip = next(j for j in atoms.jobs if not j.is_cli)
    assert _score(roundtrip, mods) is None
    roundtrip.expect_points = roundtrip.expect_points[::-1].copy()
    assert "round-trip" in _score(roundtrip, mods)


def _report(exit_code: int, **verdicts) -> Outcome:
    doc = {"verdicts": [{"name": k, "holds": v} for k, v in verdicts.items()]}
    return Outcome(exit_code, json.dumps(doc) + "\n")


def _excused(job, outcome) -> bool:
    return excused(job, outcome, failure(job, outcome))


def test_defect_excuses_only_its_own_wrong_outcome(tmp_path):
    wide = workloads.build("wide-degenerate", 3, tmp_path / "wide")
    tagged = [j for j in wide.jobs if j.defect is not None]
    assert tagged and all("scale 1e-09" in j.label for j in tagged)
    assert not any(j.label.endswith(" ordered") for j in tagged)

    rev = next(j for j in tagged if j.label.endswith(" reversed"))
    shown = dict(spectral_leq=True, componentwise=True, routes_agree=True,
                 monomial_scan=False)
    assert _excused(rev, _report(0, **shown))
    assert not _excused(rev, _report(0, **{**shown, "monomial_scan": True}))
    assert not _excused(rev, _report(2, **shown))
    assert not _excused(rev, Outcome(None, error="Traceback ..."))
    assert not _excused(rev, _report(1, **{k: not v for k, v in shown.items()}))

    calc = next(j for j in tagged if j.label.startswith("calculus"))
    right = dict(monotone_audit=True, calculus=True)
    n = calc.expect_matrix.shape[0]
    flat = np.zeros((n * n, 2))
    flat[:, 0] = 2.0 * calc.expect_matrix.real.ravel()
    flat[:, 1] = 2.0 * calc.expect_matrix.imag.ravel()
    Path(calc.out_path).write_text(json.dumps({"matrices": [flat.tolist()]}))
    assert _excused(calc, _report(0, **right))
    assert not _excused(calc, _report(0, **{**right, "calculus": False}))
    assert not _excused(calc, _report(1, **right))
    Path(calc.out_path).unlink()
    assert not _excused(calc, _report(0, **right))  # no output written

    atoms = workloads.build("atom-loops", 3, tmp_path / "atoms")
    dom = next(j for j in atoms.jobs if j.label.endswith(" dominating"))
    assert all(j.defect is None for j in atoms.jobs if not j.label.endswith(" dominating"))
    assert _excused(dom, _report(1, cdf_leq=True, lowerset_dominance=False,
                                 equivalence_agreement=True))
    assert _excused(dom, _report(1, cdf_leq=False, lowerset_dominance=False,
                                 equivalence_agreement=True))
    assert not _excused(dom, _report(1, cdf_leq=True, lowerset_dominance=False,
                                     equivalence_agreement=False))
    assert not _excused(dom, _report(1, cdf_leq=True, lowerset_dominance=True,
                                     equivalence_agreement=True))
    assert not _excused(dom, _report(2, cdf_leq=False, lowerset_dominance=False,
                                     equivalence_agreement=True))
    assert not _excused(dom, Outcome(1, "", "Traceback (most recent call last):\n"))


def test_runs_are_scored_on_their_own_output(tmp_path, mods):
    atoms = workloads.build("atom-loops", 3, tmp_path)
    calc = next(j for j in atoms.jobs if j.label.startswith("calculus"))
    assert harness.timed_run(calc, 0, mods)[0].failure is None
    # a run that writes elsewhere must not be scored on the earlier file
    calc.argv = [str(tmp_path / "elsewhere.json") if a == calc.out_path else a
                 for a in calc.argv]
    assert "unreadable" in harness.timed_run(calc, 0, mods)[0].failure


def test_traced_self_times_fit_in_job_wall(tmp_path, mods):
    wl = workloads.build("atom-loops", 5, tmp_path)
    jobs = [wl.jobs[i] for i in range(8)]
    tracer = Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            run, _ = harness.timed_run(job, i, mods, tracer)
            assert run.failure is None or run.excused
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    walls = tracer.run_walls()
    assert set(walls) == set(range(len(jobs)))
    for run, wall in walls.items():
        inner = sum(t for span, t in zip(tracer.spans, own)
                    if span[4] == run and span[0] != JOB)
        assert 0.0 < inner <= wall
    assert min(own) >= -1e-6


def test_tracer_rebinds_every_import_and_restores(mods):
    import specorder.cli as cli
    import specorder.io as sio
    import specorder.measures as measures
    import specorder.order as order
    import specorder.spectral as spectral

    original = spectral.joint_measure
    tracer = Tracer()
    tracer.install()
    try:
        assert spectral.joint_measure is not original
        assert order.joint_measure is spectral.joint_measure
        assert measures.joint_measure is spectral.joint_measure
        assert cli.joint_measure is spectral.joint_measure
        assert cli.load_tuple is sio.load_tuple
    finally:
        tracer.uninstall()
    assert spectral.joint_measure is original
    assert order.joint_measure is original


def test_operation_counts_do_not_depend_on_loop_length():
    import run

    short = run.run_workload("wide-degenerate", 5, 0.2, True)
    long = run.run_workload("wide-degenerate", 5, 1.5, True)
    assert short["samples"]["runs"] < long["samples"]["runs"]
    # every listed job and the warm-up job, whatever the loop reached
    assert short["attempted"] == short["samples"]["jobs_in_list"] + 1
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])
    assert short["failed"] > 0
