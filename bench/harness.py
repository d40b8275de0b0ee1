"""Closed-loop runner: one client, one process, jobs run back to back.

A job is one ``specorder.cli.main(argv)`` call in process with stdout and
stderr captured, or one in-process round trip through the resolution API.
The timed loop cycles through the workload's job list until the requested
seconds of loop time have passed; scoring each run against the oracle is
timed separately and kept out of the loop time.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from oracle import Outcome, excused, failure
from tracer import JOB, PROBES, Tracer
from workloads import Job

SETUP_REPS = 15
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
SUBPROCESS_REPS = 5
SUBPROCESS_TIMEOUT_S = 120


@dataclass
class Run:
    job: int                 # index into the job list, -1 outside it
    label: str
    latency: float
    failure: str | None
    known_defect: str | None = None  # name of the job's documented defect
    excused: bool = False            # the failure is exactly that defect's

    @classmethod
    def scored(cls, job: Job, index: int, latency: float, outcome: Outcome) -> "Run":
        reason = failure(job, outcome)
        return cls(index, job.label, latency, reason, job.defect and job.defect.name,
                   excused(job, outcome, reason))


def clear_output(job: Job):
    """Remove the job's output file, so a run is scored on what it wrote itself."""
    if job.out_path is not None:
        Path(job.out_path).unlink(missing_ok=True)


def fresh_import(src: Path) -> SimpleNamespace:
    """Drop any loaded specorder modules and import the package from ``src``."""
    for name in [n for n in sys.modules if n == "specorder" or n.startswith("specorder.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("specorder.cli")
    package = sys.modules["specorder"]
    if Path(package.__file__).resolve().parent != (src / "specorder").resolve():
        raise ImportError(f"specorder was imported from {package.__file__}, not {src}")
    return SimpleNamespace(cli=cli, spectral=sys.modules["specorder.spectral"],
                           resolution=sys.modules["specorder.resolution"])


def execute(job: Job, mods: SimpleNamespace) -> Outcome:
    """Run one job; module attributes are looked up per call so probes apply."""
    if job.is_cli:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return Outcome(None, out.getvalue(), err.getvalue(), error=traceback.format_exc())
        return Outcome(code, out.getvalue(), err.getvalue())
    try:
        t = mods.spectral.validate_tuple(job.matrices)
        e = mods.spectral.joint_measure(t)
        f = mods.resolution.ProjValuedStepFunction.from_measure(e)
        rebuilt = mods.resolution.reconstruct_measure(f)
        return Outcome(0, points=rebuilt.points())
    except Exception:
        return Outcome(None, error=traceback.format_exc())


def timed_run(job: Job, index: int, mods, tracer: Tracer | None = None) -> tuple[Run, float]:
    """Run and score one job; returns the run and the time spent scoring."""
    clear_output(job)
    start = time.perf_counter()
    if tracer is None:
        outcome = execute(job, mods)
    else:
        outcome = tracer.run_job(lambda: execute(job, mods))
    end = time.perf_counter()
    return Run.scored(job, index, end - start, outcome), time.perf_counter() - end


def closed_loop(jobs: list[Job], src: Path, warmup: Job, seconds: float,
                sample: list[Job], root: Path, setup_reps: int):
    """Set up, then cycle through ``jobs`` for ``seconds`` of loop time.

    The other ``setup_reps - 1`` set-ups and the ``sample`` jobs, run as
    subprocesses, come at even intervals through the loop, so they see the
    same stretch of machine time as the loop does; they and the scoring are
    kept out of the loop time. Each set-up imports the package afresh and
    the loop goes on with the new modules.
    """
    out = SimpleNamespace(runs=[], setups=[], warmups=[], subprocess=[])

    def set_up():
        elapsed, mods, warm = timed_setup(src, warmup)
        out.setups.append(elapsed)
        out.warmups.append(warm)
        return mods

    def side_task(job):
        nonlocal mods
        if job is None:
            mods = set_up()
        else:
            out.subprocess.append(run_subprocess(job, root))

    mods = set_up()
    tasks = sorted([((k + 1) / setup_reps, None) for k in range(setup_reps - 1)]
                   + [((k + 1) / (len(sample) + 1), job) for k, job in enumerate(sample)],
                   key=lambda task: task[0])
    paused = 0.0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start - paused) < seconds:
        if tasks and elapsed >= tasks[0][0] * seconds:
            began = time.perf_counter()
            side_task(tasks.pop(0)[1])
            paused += time.perf_counter() - began
            continue
        i = len(out.runs) % len(jobs)
        run, spent = timed_run(jobs[i], i, mods)
        out.runs.append(run)
        paused += spent
    out.wall = time.perf_counter() - start - paused
    for _, job in tasks:
        side_task(job)
    out.mods = mods
    return out


def paired_loop(jobs: list[Job], mods, seconds: float, tracer: Tracer):
    """Run each job untraced and traced back to back, alternating which goes
    first, for ``seconds`` of loop time.

    Returns the untraced runs, the traced runs and the two wall times; the
    tracer's probes are installed only around the traced runs.
    """
    plain, traced = [], []
    walls = [0.0, 0.0]
    start = time.perf_counter()
    scoring = 0.0
    while time.perf_counter() - start - scoring < seconds:
        i = len(plain) % len(jobs)
        for with_trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    run, spent = timed_run(jobs[i], i, mods, tracer)
                finally:
                    tracer.uninstall()
                traced.append(run)
            else:
                run, spent = timed_run(jobs[i], i, mods)
                plain.append(run)
            walls[with_trace] += run.latency
            scoring += spent
    return plain, traced, walls[0], walls[1]


def timed_setup(src: Path, warmup: Job) -> tuple[float, SimpleNamespace, Run]:
    """Import the package afresh and run the warm-up job; returns the time."""
    clear_output(warmup)
    gc.collect()
    start = time.perf_counter()
    mods = fresh_import(src)
    outcome = execute(warmup, mods)
    elapsed = time.perf_counter() - start
    return elapsed, mods, Run.scored(warmup, -1, elapsed, outcome)


def run_subprocess(job: Job, root: Path) -> Run:
    """The job as a shell user runs it: ``python -m specorder ...``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    clear_output(job)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "specorder", *job.argv], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Run(-1, job.label, time.perf_counter() - start, "timeout")
    elapsed = time.perf_counter() - start
    return Run.scored(job, -1, elapsed, Outcome(proc.returncode, proc.stdout, proc.stderr))


# --- statistics --------------------------------------------------------------

def ranked(runs: list[Run]) -> list[float]:
    """Latencies with every failed run ranked slower than every good one."""
    return sorted(r.latency if r.failure is None else math.inf for r in runs)


def tail_percentile(list_length: int) -> float:
    """Highest ladder percentile with at least ten of the list's jobs beyond it.

    Fixed by the workload's job-list length, not by how many runs a given
    program completes, so the tail metric means the same thing before and
    after a speed-up.
    """
    for p in TAIL_LADDER:
        if list_length * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(values: list[float], p: float) -> float:
    return values[max(0, math.ceil(p / 100.0 * len(values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, call counts and work counts, averaged per run."""
    totals = tracer.totals()
    denom = max(1, len(tracer.run_walls()))
    out = {"cli.unattributed_s": totals.get(JOB + ":self", 0.0) / denom}
    for _, _, span, _ in PROBES:
        if span is not None:
            out[span + "_s"] = totals.get(span + ":self", 0.0) / denom
    for metric, span in CALL_COUNTS.items():
        out[metric] = totals.get(span + ":calls", 0.0) / denom
    for metric in WORK_COUNTS:
        out[metric] = totals.get(metric, 0.0) / denom
    return out


CALL_COUNTS = {
    "linalg.eigh_calls": "linalg.eigh",
    "spectral.joint_measure_calls": "spectral.joint_measure",
    "order.distribution_order_calls": "order.distribution_order",
}
WORK_COUNTS = ("io.bytes_read", "spectral.atoms", "order.grid_points",
               "order.alphas_scanned", "measures.cdf_grid_points", "measures.ideals",
               "measures.audit_points", "resolution.cells")
