"""JSON serialization for tuples, measures, and reports.

Schemas are versioned strings; complex scalars travel as [re, im] pairs and
matrices as flat row-major entry lists, so files are language-neutral.
Parsing is strict: anything off-schema raises InputError with a location.
A tuple file in the plain shape every writer here produces (one object
whose only array holds the matrices' number pairs) has its numbers read by
orjson as one flat list, with one copy of the text alive at a time, so a
read holds about 2.5 times the file's size. Every other file is decoded by
the stdlib json and then checked against its schema. Tuples are written by orjson, in its
own shortest round-trip spelling of each float; every other document is
written by the stdlib encoder.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import InputError, MergedWeightError
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

    Entries are converted one by one, which raises at the first malformed
    entry, re before im. Non-finite values are located after that.
    """
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
    return _entries(pairs).reshape(dim, dim)


def _entries(pairs: np.ndarray) -> np.ndarray:
    """The complex entries of [re, im] pairs along the last axis."""
    # not a complex view: re + 1j * im turns some -0.0 parts into +0.0, and
    # matrices have always been built that way
    return pairs[..., 0] + 1j * pairs[..., 1]


def tuple_to_dict(t: CommutingTuple) -> dict:
    matrices = [np.ascontiguousarray(op.matrix, dtype=np.complex128)
                .view(np.float64).reshape(-1, 2).tolist() for op in t.ops]
    return {"schema": TUPLE_SCHEMA, "kappa": t.kappa, "dim": t.dim,
            "matrices": matrices}


def tuple_from_dict(doc, location: str = "<tuple>") -> CommutingTuple:
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
    return validate_tuple(mats)


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
    try:
        return AtomicMeasure.from_atoms(pts, weights)
    except MergedWeightError as exc:
        raise InputError(f"{location}.atoms[{exc.atom}].weight", str(exc)) from None


def load_json(path: str):
    """The JSON document in a UTF-8 file, decoded by the stdlib json;
    InputError with a location otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(fh.read())
    except OSError as exc:
        raise InputError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so start is a file offset
        raise InputError(path, f"not UTF-8: invalid byte at offset {exc.start}") from exc
    except RecursionError:
        raise InputError(path, "nested too deeply to parse") from None


# a tuple text without the bytes of numbers and the whitespace and colons
# around them: one object whose only array is a list of matrices of number
# pairs, each pair's marks [,]
_NUMBER_BYTES = b"0123456789+-.eE \t\n\r:"
_STRING = re.compile(rb'"[^"]*"')
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


def _flat_matrices(data: bytes):
    """The matrices of a tuple text in its plain shape, or None.

    The plain shape has no backslash and no bracket in a string, and its
    only array is ``"matrices"``: kappa lists of dim² [re, im] pairs of
    number literals, with no other token. orjson reads the header first,
    the array replaced by [], and then the array's numbers as one flat
    list, its brackets blanked. Only one copy of the text is alive while
    it does: the array is copied out of data before data is dropped, and
    the copy is dropped as soon as orjson has read it. Any other text, any
    whose header or counts do not fit, and any that tuple_from_dict would
    refuse gives None.
    """
    marks = data.translate(None, _NUMBER_BYTES)
    if b"\\" in marks or any(b"[" in s or b"]" in s for s in _STRING.findall(marks)):
        return None
    first, last = marks.find(b"["), marks.rfind(b"]") + 1
    # with no bracket in a string, a quote between the outer brackets opens
    # a string in the array
    if first < 0 or b'"' in marks[first:last]:
        return None
    # orjson crashes the process on deep nesting: it sees only the header,
    # one object holding [], and the flat list of numbers, both at most 2 deep
    if _STRING.sub(b"", marks[:first] + marks[last:]).replace(b",", b"") != b"{}":
        return None
    start, stop = data.index(b"["), data.rindex(b"]") + 1
    try:
        head = orjson.loads(data[:start] + b"[]" + data[stop:])
    except orjson.JSONDecodeError:
        return None
    if not (isinstance(head, dict) and head.get("matrices") == []
            and head.get("schema") == TUPLE_SCHEMA):
        return None
    kappa, dim = head.get("kappa"), head.get("dim")
    if not (_is_positive_int(kappa) and _is_positive_int(dim)):
        return None
    # the array's marks are those of kappa matrices of dim² [,] pairs; the
    # length is compared first, so a huge kappa or dim builds nothing
    if last - first != kappa * (4 * dim * dim + 2) + 1:
        return None
    matrix = b"[%b]" % b",".join([b"[,]"] * (dim * dim))
    if marks[first:last] != b"[%b]" % b",".join([matrix] * kappa):
        return None
    del marks, matrix
    # one copy of the array for orjson, its outer brackets put back
    text = bytearray(memoryview(data)[start:stop])
    del data
    text = text.translate(_BLANK_BRACKETS)
    text[0], text[-1] = b"[]"
    try:
        flat = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    del text
    if len(flat) != 2 * kappa * dim * dim:
        return None
    # the array holds number literals only, so flat holds ints and floats
    pairs = np.fromiter(flat, dtype=np.float64, count=len(flat)).reshape(kappa, dim, dim, 2)
    del flat
    return list(_entries(pairs)) if np.isfinite(pairs).all() else None


def load_tuple(path: str) -> CommutingTuple:
    """The tuple in a specorder/1 file; InputError with a location otherwise.

    The file's bytes are read once and handed to _flat_matrices, which
    drops them once it has copied the array out. A text it declines goes to
    load_json and tuple_from_dict, which read every valid document and
    locate every error.
    """
    try:
        with open(path, "rb") as fh:
            mats = _flat_matrices(fh.read())
    except OSError:
        mats = None
    if mats is None:
        return tuple_from_dict(load_json(path), location=path)
    return validate_tuple(mats)


def load_measure(path: str) -> AtomicMeasure:
    return measure_from_dict(load_json(path), location=path)


def save_json(path: str, doc: dict):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        raise InputError(path, f"cannot write: {exc}") from exc


def save_tuple(path: str, t: CommutingTuple):
    """Write t as ``save_json(path, tuple_to_dict(t))`` does, in orjson's
    spelling of each float.

    orjson writes the (kappa, dim², 2) entries between the sorted-key
    header and the schema. It spells a float by the same shortest
    round-trip digits as repr (1e16 for 1e+16, 1e-7 for 1e-07, 0.000015 for
    1.5e-05), so any JSON reader reads the same bits. The entries must be
    finite: orjson writes null where json writes NaN.
    """
    entries = np.stack([op.matrix for op in t.ops]).astype(np.complex128, copy=False)
    text = orjson.dumps(entries.view(np.float64).reshape(t.kappa, -1, 2),
                        option=orjson.OPT_SERIALIZE_NUMPY)
    try:
        with open(path, "wb") as fh:
            fh.write(f'{{"dim":{t.dim},"kappa":{t.kappa},"matrices":'.encode())
            fh.write(text)
            fh.write(f',"schema":"{TUPLE_SCHEMA}"}}\n'.encode())
    except OSError as exc:
        raise InputError(path, f"cannot write: {exc}") from exc


@dataclass
class Report:
    """CLI result: command echo, verdict list, tolerances, timing, version.

    ``to_dict`` freezes timing to 0.0 so json output is byte-identical
    across runs; the measured time is shown in human format.
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

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "version": self.version,
            "tolerances": self.tolerances,
            "timing_s": 0.0,
            "verdicts": self.verdicts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

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
