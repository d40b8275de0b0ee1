"""The benchmark's own jobs, scored by its own oracle.

``bench/workloads.py`` builds every job from a known eigenbasis or atom
layout, so its expected exit code, verdicts and outputs follow from the
construction, and ``bench/oracle.py`` scores a run against them. This test
builds seed 1 of each workload and runs the warm-up job, the subprocess
sample and the first listed jobs in process through ``bench/harness.py``,
and every resolution round trip of ``atom-loops`` at seeds 1 and 2, against
the package already imported here; the bench files are read, not changed.
"""

import importlib.util
import sys
from types import SimpleNamespace

import specorder.cli as cli
import specorder.resolution as resolution
import specorder.spectral as spectral
from conftest import ROOT

LISTED_JOBS = 12


def load_bench_module(monkeypatch, name):
    # harness imports its siblings by their plain names; they are registered
    # for this test only
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_bench(monkeypatch):
    workloads, oracle, _, harness = (load_bench_module(monkeypatch, name) for name in
                                     ("workloads", "oracle", "tracer", "harness"))
    return workloads, oracle, harness


MODS = SimpleNamespace(cli=cli, spectral=spectral, resolution=resolution)


def test_benchmark_jobs_match_their_ground_truth(tmp_path, monkeypatch):
    workloads, oracle, harness = load_bench(monkeypatch)
    failures = []
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1, tmp_path / name)
        for job in [workload.warmup, *workload.subprocess_sample,
                    *workload.jobs[:LISTED_JOBS]]:
            reason = oracle.failure(job, harness.execute(job, MODS))
            if reason is not None:
                failures.append((name, job.label, reason))
    assert failures == []


def test_every_round_trip_matches_its_ground_truth(tmp_path, monkeypatch):
    workloads, oracle, harness = load_bench(monkeypatch)
    failures, count = [], 0
    for seed in (1, 2):
        workload = workloads.build("atom-loops", seed, tmp_path / str(seed))
        for job in workload.jobs:
            if not job.is_cli:
                count += 1
                reason = oracle.failure(job, harness.execute(job, MODS))
                if reason is not None:
                    failures.append((seed, job.label, reason))
    assert count == 90 and failures == []
