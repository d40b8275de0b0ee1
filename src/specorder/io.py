"""JSON serialization for tuples, measures, and reports.

Schemas are versioned strings; complex scalars travel as [re, im] pairs and
matrices as flat row-major entry lists, so files are language-neutral.
Parsing is strict: anything off-schema raises InputError with a location.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError
from .linalg import TOL
from .measures import AtomicMeasure
from .spectral import CommutingTuple, validate_tuple

TUPLE_SCHEMA = "specorder/1"
MEASURE_SCHEMA = "specorder-measure/1"
REPORT_SCHEMA = "specorder-report/1"


def _require(cond: bool, location: str, reason: str):
    if not cond:
        raise InputError(location, reason)


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _as_number(value, location: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             location, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an int literal past the float range
        raise InputError(location, "expected a finite number") from None


def _parse_matrix(flat: list, dim: int, where: str) -> np.ndarray:
    """dim² row-major [re, im] pairs as a dim×dim complex matrix.

    Pairs of plain ints and floats take one numpy conversion. Anything else
    (a bool or string would convert silently, an int past the float range
    would overflow) is converted entry by entry, which raises at the first
    malformed entry, re before im. Non-finite values are located after that.
    """
    pairs = None
    if set(map(type, flat)) == {list} and set(map(len, flat)) == {2}:
        parts = list(chain.from_iterable(flat))
        if set(map(type, parts)) <= {int, float}:
            with suppress(OverflowError):
                pairs = np.array(parts, dtype=np.float64).reshape(-1, 2)
    if pairs is None:
        pairs = np.empty((len(flat), 2))
        for k, entry in enumerate(flat):
            _require(isinstance(entry, list) and len(entry) == 2,
                     f"{where}[{k}]", "expected an [re, im] pair")
            pairs[k] = [_as_number(v, f"{where}[{k}][{part}]")
                        for part, v in enumerate(entry)]
    bad = ~np.isfinite(pairs)
    if bad.any():
        k, part = divmod(int(np.argmax(bad)), 2)
        raise InputError(f"{where}[{k}][{part}]", "expected a finite number")
    # not a complex view: re + 1j * im turns some -0.0 parts into +0.0, and
    # matrices have always been built that way
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim)


def tuple_to_dict(t: CommutingTuple) -> dict:
    matrices = [np.ascontiguousarray(op.matrix, dtype=np.complex128)
                .view(np.float64).reshape(-1, 2).tolist() for op in t.ops]
    return {"schema": TUPLE_SCHEMA, "kappa": t.kappa, "dim": t.dim,
            "matrices": matrices}


def tuple_from_dict(doc, location: str = "<tuple>", tol_comm: float = TOL) -> CommutingTuple:
    _require(isinstance(doc, dict), location, "expected an object")
    _require(doc.get("schema") == TUPLE_SCHEMA, f"{location}.schema",
             f"expected {TUPLE_SCHEMA!r}, got {doc.get('schema')!r}")
    kappa = doc.get("kappa")
    dim = doc.get("dim")
    _require(_is_positive_int(kappa), f"{location}.kappa",
             "expected a positive integer")
    _require(_is_positive_int(dim), f"{location}.dim",
             "expected a positive integer")
    matrices = doc.get("matrices")
    _require(isinstance(matrices, list) and len(matrices) == kappa,
             f"{location}.matrices", f"expected a list of {kappa} matrices")
    mats = []
    for mi, flat in enumerate(matrices):
        where = f"{location}.matrices[{mi}]"
        _require(isinstance(flat, list) and len(flat) == dim * dim, where,
                 f"expected {dim * dim} row-major entries")
        mats.append(_parse_matrix(flat, dim, where))
    return validate_tuple(mats, tol_comm=tol_comm)


def measure_to_dict(mu: AtomicMeasure) -> dict:
    atoms = [{"point": [float(v) for v in p], "weight": float(w)}
             for p, w in zip(mu.points, mu.weights)]
    return {"schema": MEASURE_SCHEMA, "kappa": mu.kappa, "atoms": atoms}


def measure_from_dict(doc, location: str = "<measure>") -> AtomicMeasure:
    _require(isinstance(doc, dict), location, "expected an object")
    _require(doc.get("schema") == MEASURE_SCHEMA, f"{location}.schema",
             f"expected {MEASURE_SCHEMA!r}, got {doc.get('schema')!r}")
    kappa = doc.get("kappa")
    _require(_is_positive_int(kappa), f"{location}.kappa",
             "expected a positive integer")
    atoms = doc.get("atoms")
    _require(isinstance(atoms, list), f"{location}.atoms", "expected a list")
    points, weights = [], []
    for ai, atom in enumerate(atoms):
        where = f"{location}.atoms[{ai}]"
        _require(isinstance(atom, dict), where, "expected an object")
        point = atom.get("point")
        _require(isinstance(point, list) and len(point) == kappa,
                 f"{where}.point", f"expected {kappa} coordinates")
        points.append([_as_number(v, f"{where}.point[{j}]")
                       for j, v in enumerate(point)])
        w = _as_number(atom.get("weight"), f"{where}.weight")
        _require(w >= 0, f"{where}.weight", "expected a nonnegative weight")
        weights.append(w)
    pts = np.array(points, dtype=np.float64).reshape(len(points), kappa)
    weights = np.array(weights, dtype=np.float64)
    bad = ~np.isfinite(np.column_stack([pts, weights]))
    if bad.any():
        ai, j = divmod(int(np.argmax(bad)), kappa + 1)
        entry = "weight" if j == kappa else f"point[{j}]"
        raise InputError(f"{location}.atoms[{ai}].{entry}", "expected a finite number")
    return AtomicMeasure.from_atoms(pts, weights)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so start is a file offset
        raise InputError(path, f"not UTF-8: invalid byte at offset {exc.start}") from exc
    except RecursionError:
        raise InputError(path, "nested too deeply to parse") from None


def load_tuple(path: str, tol_comm: float = TOL) -> CommutingTuple:
    return tuple_from_dict(load_json(path), location=path, tol_comm=tol_comm)


def load_measure(path: str) -> AtomicMeasure:
    return measure_from_dict(load_json(path), location=path)


def save_json(path: str, doc: dict):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        raise InputError(path, f"cannot write: {exc}") from exc


@dataclass
class Report:
    """CLI result: command echo, verdict list, tolerances, timing, version.

    ``to_dict(deterministic=True)`` freezes timing to 0.0 so json output is
    byte-identical across runs; the measured time is shown in human format.
    """

    command: str
    verdicts: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    timing_s: float = 0.0
    version: str = ""

    def add(self, name: str, holds: bool, witness=None, detail=None):
        verdict = {"name": name, "holds": bool(holds)}
        if witness is not None:
            verdict["witness"] = witness
        if detail is not None:
            verdict["detail"] = detail
        self.verdicts.append(verdict)

    def all_hold(self) -> bool:
        return all(v["holds"] for v in self.verdicts)

    def to_dict(self, deterministic: bool = True) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "version": self.version,
            "tolerances": self.tolerances,
            "timing_s": 0.0 if deterministic else self.timing_s,
            "verdicts": self.verdicts,
        }

    def to_json(self, deterministic: bool = True) -> str:
        return json.dumps(self.to_dict(deterministic=deterministic),
                          sort_keys=True, separators=(",", ":"))

    def human(self) -> str:
        lines = [f"command: {self.command}"]
        for v in self.verdicts:
            status = "holds" if v["holds"] else "FAILS"
            line = f"  {v['name']}: {status}"
            if "witness" in v:
                line += f"  witness={v['witness']}"
            if "detail" in v:
                line += f"  ({v['detail']})"
            lines.append(line)
        lines.append(f"tolerances: {self.tolerances}")
        lines.append(f"elapsed: {self.timing_s:.3f}s  (specorder {self.version})")
        return "\n".join(lines)
