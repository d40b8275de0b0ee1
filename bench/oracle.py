"""Score one job run against the ground truth its construction carries."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from workloads import Job

CALCULUS_RTOL = 1e-6  # relative Frobenius error allowed in calculus output
POINT_TOL = 1e-9      # round-trip point error, relative to 1 + max |lambda|


@dataclass
class Outcome:
    """What one run of a job produced."""

    exit_code: int | None
    stdout: str = ""
    stderr: str = ""
    points: np.ndarray | None = None  # round-trip result
    error: str | None = None          # traceback of an escaped exception


def failure(job: Job, outcome: Outcome) -> str | None:
    """Why the run does not match the ground truth, or None when it does."""
    if outcome.error is not None or "Traceback" in outcome.stderr:
        return "exception"
    if not job.is_cli:
        return _roundtrip_failure(job, outcome.points)
    if outcome.exit_code != job.expect_exit:
        return f"exit {outcome.exit_code}, expected {job.expect_exit}"
    try:
        report = json.loads(outcome.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "no json report"
    verdicts = {v["name"]: v["holds"] for v in report.get("verdicts", [])}
    for name, holds in job.expect_verdicts.items():
        if verdicts.get(name) != holds:
            return f"verdict {name}={verdicts.get(name)}, expected {holds}"
    if job.expect_matrix is not None:
        return _calculus_failure(job)
    return None


def excused(job: Job, outcome: Outcome, reason: str | None) -> bool:
    """Whether a failed run shows exactly the wrong outcome of the job's
    documented defect. Any other failure (an exception, another exit code,
    another wrong verdict, a wrong matrix where the defect leaves it right)
    is not excused."""
    defect = job.defect
    if reason is None or defect is None:
        return False
    if defect.wrong_matrix and not reason.startswith("calculus relative error"):
        return False
    for verdicts in defect.verdicts:
        wrong = dataclasses.replace(job, expect_exit=defect.exit, expect_verdicts=verdicts,
                                    expect_matrix=None, defect=None)
        if failure(wrong, outcome) is None:
            return True
    return False


def _calculus_failure(job: Job) -> str | None:
    try:
        with open(job.out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        flat = np.asarray(doc["matrices"][0], dtype=np.float64)
    except (OSError, ValueError, KeyError, IndexError):
        return "unreadable calculus output"
    n = job.expect_matrix.shape[0]
    if flat.shape != (n * n, 2):
        return f"calculus output has shape {flat.shape}"
    got = (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n)
    err = np.linalg.norm(got - job.expect_matrix) / np.linalg.norm(job.expect_matrix)
    if not err <= CALCULUS_RTOL:
        return f"calculus relative error {err:.2e}"
    return None


def _roundtrip_failure(job: Job, points) -> str | None:
    if points is None or points.shape != job.expect_points.shape:
        shape = None if points is None else points.shape
        return f"round trip gave {shape} points, expected {job.expect_points.shape}"
    tol = POINT_TOL * (1.0 + float(np.max(np.abs(job.expect_points))))
    err = float(np.max(np.abs(points - job.expect_points)))
    if not err <= tol:
        return f"round-trip point error {err:.2e}"
    return None
