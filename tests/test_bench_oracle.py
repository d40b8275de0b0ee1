"""The benchmark's own jobs, scored by its own oracle.

``bench/workloads.py`` builds every job from a known eigenbasis or atom
layout, so its expected exit code, verdicts and outputs follow from the
construction, and ``bench/oracle.py`` scores a run against them. This test
builds seed 1 of each workload and runs the warm-up job, the subprocess
sample and the first listed jobs in process through ``bench/harness.py``,
against the package already imported here; the bench files are read, not
changed.
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


def test_benchmark_jobs_match_their_ground_truth(tmp_path, monkeypatch):
    workloads, oracle, _, harness = (load_bench_module(monkeypatch, name) for name in
                                     ("workloads", "oracle", "tracer", "harness"))
    mods = SimpleNamespace(cli=cli, spectral=spectral, resolution=resolution)
    failures = []
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1, tmp_path / name)
        for job in [workload.warmup, *workload.subprocess_sample,
                    *workload.jobs[:LISTED_JOBS]]:
            reason = oracle.failure(job, harness.execute(job, mods))
            if reason is not None:
                failures.append((name, job.label, reason))
    assert failures == []
