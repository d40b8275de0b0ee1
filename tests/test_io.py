import itertools
import json
import math
import re
import struct
import subprocess
import sys
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    fresh_rng,
    parse_matrix_per_entry,
    random_commuting,
    subprocess_env,
    tuple_to_dict_per_entry,
)
from specorder import io as sio
from specorder.cli import main
from specorder.errors import InputError, SpecOrderError
from specorder.functions import sum_fn
from specorder.io import (
    MEASURE_SCHEMA,
    REPORT_SCHEMA,
    TUPLE_SCHEMA,
    Report,
    _parse_matrix,
    load_json,
    load_measure,
    load_tuple,
    measure_from_dict,
    measure_to_dict,
    save_json,
    save_tuple,
    tuple_from_dict,
    tuple_to_dict,
)
from specorder.linalg import HermitianOperator
from specorder.measures import AtomicMeasure
from specorder.spectral import CommutingTuple, calculus_scalar, joint_measure, validate_tuple


@given(salt=st.integers(0, 20))
def test_tuple_round_trip_exact(salt):
    rng = fresh_rng(2500 + salt)
    t = random_commuting(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
    back = tuple_from_dict(tuple_to_dict(t))
    assert back.kappa == t.kappa and back.dim == t.dim
    for new, old in zip(back.ops, t.ops):
        assert np.array_equal(new.matrix, old.matrix)


def test_tuple_file_round_trip(tmp_path):
    rng = fresh_rng(3)
    t = random_commuting(rng, 4, 2)
    path = tmp_path / "t.json"
    save_json(str(path), tuple_to_dict(t))
    back = load_tuple(str(path))
    for new, old in zip(back.ops, t.ops):
        assert np.array_equal(new.matrix, old.matrix)


def test_measure_round_trip(tmp_path):
    mu = AtomicMeasure.from_atoms(
        np.array([[0.5, -1.0], [2.0, 3.0]]), np.array([0.25, 1.5]))
    path = tmp_path / "m.json"
    save_json(str(path), measure_to_dict(mu))
    back = load_measure(str(path))
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)


def loc(err: pytest.ExceptionInfo) -> str:
    return err.value.location


def test_tuple_schema_errors():
    good = tuple_to_dict_from_diag([1.0, 2.0])
    with pytest.raises(InputError) as err:
        tuple_from_dict("nope")
    assert loc(err) == "<tuple>"

    doc = dict(good, schema="wrong/9")
    with pytest.raises(InputError) as err:
        tuple_from_dict(doc, location="in.json")
    assert loc(err) == "in.json.schema"

    doc = dict(good, kappa=0)
    with pytest.raises(InputError) as err:
        tuple_from_dict(doc)
    assert loc(err) == "<tuple>.kappa"

    # JSON true is not the integer 1
    for key in ("kappa", "dim"):
        with pytest.raises(InputError) as err:
            tuple_from_dict(dict(good, **{key: True}))
        assert loc(err) == f"<tuple>.{key}"

    doc = dict(good, matrices=good["matrices"] + [good["matrices"][0]])
    with pytest.raises(InputError) as err:
        tuple_from_dict(doc)
    assert loc(err) == "<tuple>.matrices"

    doc = dict(good, matrices=[good["matrices"][0][:3]])
    with pytest.raises(InputError) as err:
        tuple_from_dict(doc)
    assert loc(err) == "<tuple>.matrices[0]"

    broken = [list(entry) for entry in good["matrices"][0]]
    broken[2] = [0.0]
    with pytest.raises(InputError) as err:
        tuple_from_dict(dict(good, matrices=[broken]))
    assert loc(err) == "<tuple>.matrices[0][2]"

    broken[2] = [0.0, "x"]
    with pytest.raises(InputError) as err:
        tuple_from_dict(dict(good, matrices=[broken]))
    assert loc(err) == "<tuple>.matrices[0][2][1]"

    broken[2] = [0.0, True]
    with pytest.raises(InputError) as err:
        tuple_from_dict(dict(good, matrices=[broken]))
    assert loc(err) == "<tuple>.matrices[0][2][1]"


def tuple_to_dict_from_diag(diag):
    from specorder.spectral import validate_tuple
    return tuple_to_dict(validate_tuple([np.diag(diag)]))


def test_measure_schema_errors():
    good = measure_to_dict(AtomicMeasure.from_atoms(
        np.array([[0.0, 1.0]]), np.array([1.0])))

    with pytest.raises(InputError) as err:
        measure_from_dict(dict(good, schema=TUPLE_SCHEMA))
    assert loc(err) == "<measure>.schema"

    with pytest.raises(InputError) as err:
        measure_from_dict(dict(good, kappa=True))
    assert loc(err) == "<measure>.kappa"

    with pytest.raises(InputError) as err:
        measure_from_dict(dict(good, atoms={"point": []}))
    assert loc(err) == "<measure>.atoms"

    bad_atom = dict(good["atoms"][0], point=[0.0])
    with pytest.raises(InputError) as err:
        measure_from_dict(dict(good, atoms=[bad_atom]))
    assert loc(err) == "<measure>.atoms[0].point"

    bad_atom = dict(good["atoms"][0], point=[0.0, None])
    with pytest.raises(InputError) as err:
        measure_from_dict(dict(good, atoms=[bad_atom]))
    assert loc(err) == "<measure>.atoms[0].point[1]"

    bad_atom = dict(good["atoms"][0], weight=-0.5)
    with pytest.raises(InputError) as err:
        measure_from_dict(dict(good, atoms=[bad_atom]))
    assert loc(err) == "<measure>.atoms[0].weight"

    # zero atoms is a legal, empty measure
    empty = measure_from_dict(dict(good, atoms=[]))
    assert empty.n_atoms == 0
    assert empty.total_mass() == 0.0


def test_load_errors(tmp_path):
    with pytest.raises(InputError) as err:
        load_tuple(str(tmp_path / "absent.json"))
    assert "cannot read" in str(err.value)

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{\n  \"schema\": }")
    with pytest.raises(InputError) as err:
        load_measure(str(garbled))
    assert loc(err).startswith(str(garbled) + ":2")

    # the offset counts bytes from the start of the file, past any read buffer
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"schema": "' + b"x" * 20000 + b'\xe9"}')
    with pytest.raises(InputError) as err:
        load_json(str(latin))
    assert (loc(err), err.value.reason) == (str(latin), "not UTF-8: invalid byte at offset 20012")

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    with pytest.raises(InputError) as err:
        load_json(str(deep))
    assert (loc(err), err.value.reason) == (str(deep), "nested too deeply to parse")


def test_huge_int_literals_are_located():
    huge = 10 ** 400
    doc = tuple_to_dict_from_diag([1.0, 2.0])
    doc["matrices"][0][3][0] = huge
    with pytest.raises(InputError) as err:
        tuple_from_dict(doc, location="t.json")
    assert (loc(err), err.value.reason) == ("t.json.matrices[0][3][0]", "expected a finite number")

    for atom, entry in [({"point": [0.0, -huge], "weight": 1.0}, "point[1]"),
                        ({"point": [0.0, 1.0], "weight": huge}, "weight")]:
        with pytest.raises(InputError) as err:
            measure_from_dict({"schema": MEASURE_SCHEMA, "kappa": 2, "atoms": [atom]},
                              location="m.json")
        assert (loc(err), err.value.reason) == (f"m.json.atoms[0].{entry}",
                                                "expected a finite number")


def test_save_json_is_stable(tmp_path):
    doc = {"b": 1, "a": [1, 2], "schema": TUPLE_SCHEMA}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_json(str(p1), doc)
    save_json(str(p2), {"schema": TUPLE_SCHEMA, "a": [1, 2], "b": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")


def test_report_shape_and_determinism():
    rep = Report(command="check-order", tolerances={"tol": 1e-8})
    rep.add("first", True)
    rep.add("second", False, witness=(1.0, 2.0), detail="gap 3")
    rep.timing_s = 1.25

    doc = rep.to_dict()
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["timing_s"] == 0.0
    assert doc["verdicts"][0] == {"name": "first", "holds": True}
    assert doc["verdicts"][1]["witness"] == (1.0, 2.0)
    assert not rep.all_hold()

    parsed = json.loads(rep.to_json())
    assert parsed == json.loads(rep.to_json())
    assert parsed["verdicts"][1]["witness"] == [1.0, 2.0]

    text = rep.human()
    assert "second: FAILS" in text
    assert "gap 3" in text


def test_report_json_has_sorted_compact_keys():
    rep = Report(command="selftest", tolerances={})
    raw = rep.to_json()
    assert raw.index('"command"') < raw.index('"schema"') < raw.index('"verdicts"')
    assert ": " not in raw


def test_non_finite_tuple_entries_are_located():
    good = tuple_to_dict(validate_tuple([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]))
    for mi, k, part, value in [(0, 3, 0, float("nan")), (1, 1, 1, float("inf")),
                               (1, 0, 0, float("-inf"))]:
        matrices = [[list(entry) for entry in flat] for flat in good["matrices"]]
        matrices[mi][k][part] = value
        with pytest.raises(InputError) as err:
            tuple_from_dict(dict(good, matrices=matrices), location="t.json")
        assert loc(err) == f"t.json.matrices[{mi}][{k}][{part}]"
        assert "finite" in str(err.value)


def test_non_finite_measure_entries_are_located():
    good = {"schema": MEASURE_SCHEMA, "kappa": 2,
            "atoms": [{"point": [0.0, 1.0], "weight": 1.0},
                      {"point": [2.0, 3.0], "weight": 0.5}]}
    for ai, atom, entry in [(0, {"point": [float("nan"), 1.0], "weight": 1.0}, "point[0]"),
                            (1, {"point": [2.0, float("-inf")], "weight": 0.5}, "point[1]"),
                            (0, {"point": [0.0, 1.0], "weight": float("inf")}, "weight")]:
        atoms = list(good["atoms"])
        atoms[ai] = atom
        with pytest.raises(InputError) as err:
            measure_from_dict(dict(good, atoms=atoms), location="m.json")
        assert loc(err) == f"m.json.atoms[{ai}].{entry}"
        assert "finite" in str(err.value)


FINITE_PARTS = st.one_of(
    st.integers(-2 ** 80, 2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2 ** 80 - 1]))
PAIRS = st.lists(FINITE_PARTS, min_size=2, max_size=2)
BAD_ENTRIES = [1.5, "x", None, {"re": 1.0}, [], [1.0], [1.0, 2.0, 3.0]]
MISTYPED_PARTS = ["1.5", True, False, None, {}]
NON_FINITE_PARTS = [float("nan"), float("inf"), float("-inf"), 10 ** 400, -(10 ** 400)]


@st.composite
def well_formed_matrices(draw):
    dim = draw(st.integers(1, 4))
    return dim, draw(st.lists(PAIRS, min_size=dim * dim, max_size=dim * dim))


@st.composite
def malformed_tuple_docs(draw):
    """Tuple documents with one to four defective entries or parts."""
    kappa, dim = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    matrices = [draw(st.lists(PAIRS, min_size=dim * dim, max_size=dim * dim))
                for _ in range(kappa)]
    for _ in range(draw(st.integers(1, 4))):
        flat = matrices[draw(st.integers(0, kappa - 1))]
        k = draw(st.integers(0, dim * dim - 1))
        bad = draw(st.sampled_from([BAD_ENTRIES, MISTYPED_PARTS, NON_FINITE_PARTS]))
        if bad is BAD_ENTRIES:
            flat[k] = draw(st.sampled_from(BAD_ENTRIES))
        else:
            entry = list(flat[k]) if isinstance(flat[k], list) and len(flat[k]) == 2 else [0, 0]
            entry[draw(st.integers(0, 1))] = draw(st.sampled_from(bad))
            flat[k] = entry
    return {"schema": TUPLE_SCHEMA, "kappa": kappa, "dim": dim, "matrices": matrices}


@settings(max_examples=200)
@given(case=well_formed_matrices())
def test_parse_matrix_matches_per_entry_loop_bitwise(case):
    dim, flat = case
    got = _parse_matrix(flat, dim, "m")
    want = parse_matrix_per_entry(flat, dim, "m")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_parse_matrix_accepts_number_subclasses():
    # in-process documents may hold numpy floats; they take the per-entry route
    flat = [[np.float64(1.5), 2], [-0.0, np.float64(-3.0)], [0, 0], [np.float64(4.0), -0.0]]
    assert _parse_matrix(flat, 2, "m").tobytes() == parse_matrix_per_entry(flat, 2, "m").tobytes()


@settings(max_examples=200)
@given(doc=malformed_tuple_docs())
def test_tuple_from_dict_locates_like_per_entry_loop(doc):
    with pytest.raises(InputError) as want:
        for mi, flat in enumerate(doc["matrices"]):
            parse_matrix_per_entry(flat, doc["dim"], f"t.json.matrices[{mi}]")
    with pytest.raises(InputError) as got:
        tuple_from_dict(doc, location="t.json")
    assert (got.value.location, got.value.reason) == (want.value.location, want.value.reason)


@given(salt=st.integers(0, 20))
def test_tuple_to_dict_matches_per_entry_writer(salt):
    rng = fresh_rng(2600 + salt)
    t = random_commuting(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
    signed_zero = validate_tuple([np.diag([-0.0, 1.0])])
    for tup in (t, signed_zero):
        # float repr is exact, so equal text means bitwise-equal entries
        assert json.dumps(tuple_to_dict(tup)) == json.dumps(tuple_to_dict_per_entry(tup))


def test_calculus_out_file_is_compact_and_reloads_bitwise(tmp_path, capsys):
    src, out = tmp_path / "t.json", tmp_path / "out.json"
    save_json(str(src), tuple_to_dict(random_commuting(fresh_rng(7), 6, 2)))
    assert main(["calculus", str(src), "--fn", "sum", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    written = validate_tuple([calculus_scalar(joint_measure(load_tuple(str(src))),
                                              sum_fn()).matrix])
    back = load_tuple(str(out))
    assert back.kappa == written.kappa == 1
    assert back.ops[0].matrix.tobytes() == written.ops[0].matrix.tobytes()


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ulps_from(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# repr and orjson spell floats apart on three sets: positive exponents
# (repr e+16, orjson e16), one-digit negative ones (e-07 and e-7), and
# [1e-5, 1e-4), which repr spells 1.5e-05 and orjson 0.000015. Each set
# starts or ends at one of these points.
SWITCH_POINTS = (1e-9, 1e-5, 1e-4, 1e16)
FLOAT64 = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_float_of_bits).filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     -2.2250738585072014e-308, 1.7976931348623157e308, 10.00001]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda x, k, sign: sign * _ulps_from(x, k), st.sampled_from(SWITCH_POINTS),
              st.integers(-3, 3), st.sampled_from([1.0, -1.0])))
ENTRIES = 2 * 3 * 3 ** 2  # kappa 3, dim 3, two parts per entry
# each spelling difference between repr and orjson once, and 10.00001,
# whose digits hold a 0.0000 that is not a number's start
EVERY_RULE = [1e16, -1e-7, 1.5e-05, -1e-05, 1e-4, 9.999999999999999e-05, -10.00001, 5e-324]


def tuple_of_entries(kappa: int, dim: int, entries) -> CommutingTuple:
    """The entries as kappa dim×dim matrices, unchecked: the writers only
    read ``matrix``, ``kappa`` and ``dim``."""
    parts = np.array(entries[:2 * kappa * dim * dim], dtype=np.float64)
    return unchecked(parts.view(np.complex128).reshape(kappa, dim, dim))


def unchecked(mats) -> CommutingTuple:
    return CommutingTuple(ops=tuple(HermitianOperator(m, 0.0) for m in mats),
                          max_commutator_defect=0.0)


def float_bits(path) -> tuple:
    """The keys of a tuple file's JSON document, and the bits of its
    matrices' floats, -0.0 told from 0.0."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return sorted(doc), np.array(doc["matrices"], dtype=np.float64).tobytes()


@settings(max_examples=100)
@given(kappa=st.integers(1, 3), dim=st.integers(1, 3),
       entries=st.lists(FLOAT64, min_size=ENTRIES, max_size=ENTRIES))
@example(kappa=1, dim=2, entries=EVERY_RULE + [0.0] * (ENTRIES - len(EVERY_RULE)))
def test_save_tuple_writes_the_bytes_of_save_json(tmp_path_factory, kappa, dim, entries):
    # save_tuple writes orjson's text as it comes; save_json through
    # tuple_to_dict, the stdlib encoder, is the reference for the floats
    t = tuple_of_entries(kappa, dim, entries)
    where = tmp_path_factory.mktemp("w")
    new, ref = where / "new.json", where / "ref.json"
    save_tuple(str(new), t)
    save_json(str(ref), tuple_to_dict(t))
    parts = np.array(entries[:2 * kappa * dim * dim]).reshape(kappa, -1, 2)
    assert new.read_bytes() == (b'{"dim":%d,"kappa":%d,"matrices":' % (dim, kappa)
                                + orjson.dumps(parts, option=orjson.OPT_SERIALIZE_NUMPY)
                                + b',"schema":"specorder/1"}\n')
    assert float_bits(new) == float_bits(ref)
    # the entries need not be a commuting tuple, so load_tuple is read unchecked
    with mock.patch.object(sio, "validate_tuple", unchecked):
        assert load_outcome(load_tuple, str(new)) == load_outcome(load_tuple, str(ref))


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_calculus_out_has_the_bytes_of_save_json(tmp_path, capsys, monkeypatch, scale):
    # the floats of save_json's file, bit for bit, as any JSON reader reads them
    src, out, ref = tmp_path / "t.json", tmp_path / "out.json", tmp_path / "ref.json"
    t = random_commuting(fresh_rng(43), 12, 2)
    save_json(str(src), tuple_to_dict(validate_tuple([op.matrix * scale for op in t.ops])))
    with monkeypatch.context() as patch:
        # one writer, with no fallback to the stdlib encoder
        patch.setattr(json, "dumps", None)
        assert main(["calculus", str(src), "--fn", "sum", "--out", str(out)]) == 0
    capsys.readouterr()
    written = calculus_scalar(joint_measure(load_tuple(str(src))), sum_fn())
    save_json(str(ref), tuple_to_dict(CommutingTuple(ops=(written,), max_commutator_defect=0.0)))
    assert float_bits(out) == float_bits(ref)
    assert load_outcome(load_tuple, str(out)) == load_outcome(load_tuple, str(ref))


def stdlib_load(path: str):
    """The stdlib reading of a file: json.load, its errors mapped as load_json maps them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except RecursionError:
        raise InputError(path, "nested too deeply to parse") from None


def assert_same_document(got, want):
    """Equal, with equal types throughout and floats equal bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_document(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_document(g, w)
    else:
        assert got == want


TUPLE_TEXT = ('{"schema": "specorder/1", "kappa": 1, "dim": 2, "matrices": '
              '[[[1, 0], [0, 0], [0, 0], [%s, 0]]]}')
NON_FINITE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]


@pytest.mark.parametrize("text", [
    *(TUPLE_TEXT % literal for literal in NON_FINITE_LITERALS),
    TUPLE_TEXT % "1, 0],",
    "{\n  \"schema\": }",
    "\ufeff{}",
    '["\\ud800", "\\udc00x"]',
    "[" * 100000,
    '{"[[[": [1, 2.5e-3, "]]"]}',
    "",
])
def test_load_json_keeps_the_stdlib_outcome(tmp_path, text):
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    try:
        want = stdlib_load(str(path))
    except InputError as exc:
        with pytest.raises(InputError) as err:
            load_json(str(path))
        assert (loc(err), err.value.reason) == (exc.location, exc.reason)
    else:
        assert_same_document(load_json(str(path)), want)


def test_non_finite_literals_are_located_in_a_tuple_file(tmp_path):
    path = tmp_path / "t.json"
    for literal in NON_FINITE_LITERALS:
        path.write_text(TUPLE_TEXT % literal)
        with pytest.raises(InputError) as err:
            load_tuple(str(path))
        assert (loc(err), err.value.reason) == (f"{path}.matrices[0][3][0]",
                                                "expected a finite number")


def test_kappa_past_two_to_the_64_is_compared_with_the_matrix_count(tmp_path):
    # json reads this integer exactly, so kappa passes its type check and
    # the one matrix falls short of it
    path = tmp_path / "t.json"
    path.write_text('{"schema": "specorder/1", "kappa": %d, "dim": 1, "matrices": [[[1, 0]]]}'
                    % 2 ** 64)
    with pytest.raises(InputError) as err:
        load_tuple(str(path))
    assert (loc(err), err.value.reason) == (f"{path}.matrices",
                                            "expected a list of 18446744073709551616 matrices")


def test_load_json_reads_integers_past_two_to_the_64_exactly(tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"n": %d}' % (2 ** 64 + 1))
    n = load_json(str(path))["n"]
    assert type(n) is int and n == 2 ** 64 + 1


def test_million_deep_closed_nesting_is_refused_in_a_fresh_interpreter(tmp_path):
    # orjson crashes the process on such a text, so it must never see it
    path = tmp_path / "deep.json"
    path.write_text("[" * 1_000_000 + "]" * 1_000_000)
    proc = subprocess.run([sys.executable, "-m", "specorder", "check-order", str(path), str(path)],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"error: {path}: nested too deeply to parse" in proc.stderr


def load_outcome(load, path: str):
    """The matrices' bytes and commutator defect, or the error's type and text."""
    try:
        t = load(path)
    except SpecOrderError as exc:
        return type(exc), str(exc)
    return [op.matrix.tobytes() for op in t.ops], t.max_commutator_defect.hex()


def reference_load_tuple(path: str) -> CommutingTuple:
    return tuple_from_dict(stdlib_load(path), location=path)


NUMBER_LITERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["-0", "0.0", "-0.0", "5e-324", "1E5", "-2.5e+3", str(2 ** 63),
                     str(2 ** 64 - 1), str(-2 ** 63 - 1)]))
ZERO_LITERALS = st.sampled_from(["0", "-0", "0.0", "-0.0"])
# parts and entries that are not finite numbers or [re, im] pairs of them
ODD_PARTS = st.sampled_from(['"1.5"', '"x"', '"[1,2]"', '""', "true", "false", "null", "NaN",
                             "Infinity", "1e400", "-1e400", "1" + "0" * 400])
ODD_PAIRS = st.one_of(st.tuples(ODD_PARTS, NUMBER_LITERALS), st.tuples(NUMBER_LITERALS, ODD_PARTS))
ODD_ENTRIES = st.one_of(
    *[ODD_PAIRS.map(lambda p: "[%s, %s]" % p)] * 4,  # weighted: they keep the counts
    st.sampled_from(["true", "null", '"x"', '"[1,2]"', "[]", "7"]),
    st.lists(NUMBER_LITERALS, min_size=1, max_size=3).map(lambda ps: "[" + ", ".join(ps) + "]"),
    st.tuples(NUMBER_LITERALS, NUMBER_LITERALS).map(lambda p: "[[%s, %s]]" % p),
    st.tuples(NUMBER_LITERALS, NUMBER_LITERALS).map(lambda p: "[%s, [%s]]" % p))
# scalar members beside the tuple's keys: brackets and commas in strings
EXTRA_MEMBERS = st.sampled_from([('"note"', '"a[,]b"'), ('"[x]"', "1"), ('"n"', "null"),
                                 ('"t"', "true"), ('"c,"', '","'), ('"f"', "2.5e-3"),
                                 ('"by"', '"hand"'), ('"v"', "-1E+2")])


TEXT_CHANGES = ("entries", "header", "placement", "members", "escape", "bom")


@st.composite
def tuple_texts(draw):
    """Texts around a kappa-tuple of diagonal matrices, spelled many ways.

    Separators, member order and zero spellings vary in every text. About
    a quarter are plain tuple documents; each of the others takes one or
    two changes from TEXT_CHANGES: odd entries or parts, a wrong header,
    a misplaced or duplicate "matrices" key, extra members (strings with
    brackets or commas, bare true and null), an escaped key, or a
    byte-order mark.
    """
    changes = draw(st.sampled_from([()] * 12 + [(c,) for c in TEXT_CHANGES] * 3
                                   + list(itertools.combinations(TEXT_CHANGES, 2))))
    kappa, dim = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    item_sep = draw(st.sampled_from([",", ", ", ",\t", ",\r\n", " ,\n "]))
    key_sep = draw(st.sampled_from([":", ": ", " :\t"]))
    matrices = [[[draw(NUMBER_LITERALS if k % (dim + 1) == 0 else ZERO_LITERALS),
                  draw(ZERO_LITERALS)] for k in range(dim * dim)] for _ in range(kappa)]
    matrices = [[item_sep.join(pair).join("[]") for pair in flat] for flat in matrices]
    for _ in range(draw(st.integers(1, 2)) if "entries" in changes else 0):
        flat = draw(st.sampled_from(matrices))
        k = draw(st.integers(0, len(flat)))
        odd = draw(ODD_ENTRIES)
        if k < len(flat) and draw(st.integers(0, 2)):
            flat[k] = odd
        else:
            flat.insert(k, odd)
    array = item_sep.join(item_sep.join(flat).join("[]") for flat in matrices).join("[]")
    header = [("schema", '"specorder/1"'), ("kappa", str(kappa)), ("dim", str(dim))]
    if "header" in changes:
        k = draw(st.integers(0, 2))
        header[k] = (header[k][0], draw(st.sampled_from(
            [['"specorder/2"', "null"], [str(kappa + 1), "0", "true", '"1"', "1.0"],
             [str(dim + 1), "0", "1.0", "null", '"2"']][k])))
    if "escape" in changes:
        header[0] = ("sch\\u0065ma", header[0][1])
    members = [(f'"{key}"', value) for key, value in header]
    if "placement" in changes:
        filler = draw(st.sampled_from(["null", "5", '"x"', "[]"]))
        members += draw(st.sampled_from([
            # a placeholder of null or 0 for the array would misread these
            [('"matrices"', draw(st.sampled_from(["null", "0"]))), ('"other"', array)],
            [('"matrices"', array), ('"matrices"', filler)],
            [('"matrices"', filler), ('"matrices"', array)]]))
    else:
        members.append(('"matrices"', array))
    if "members" in changes:
        members += draw(st.lists(EXTRA_MEMBERS, min_size=1, max_size=2))
    members = draw(st.permutations(members))
    body = item_sep.join(key + key_sep + value for key, value in members)
    return (("\ufeff" if "bom" in changes else "") + "{" + body + "}"
            + draw(st.sampled_from(["", "\n", "\r\n"])))


def nesting(text) -> int:
    """How deep a JSON text's arrays and objects nest, strings skipped."""
    depth = deepest = 0
    for mark in re.findall(rb'"(?:[^"\\]|\\.)*"|[][{}]', bytes(text)):
        if mark in (b"[", b"{"):
            depth += 1
            deepest = max(deepest, depth)
        elif mark in (b"]", b"}"):
            depth -= 1
    return deepest


TUPLE_HEAD = '"schema": "specorder/1", "kappa": %s, "dim": %s, "matrices": '


@settings(max_examples=400)
@given(text=tuple_texts())
@example(text='{"schema": "specorder/1", "kappa": 1, "dim": 1, "matrices": null, '
              '"other": [[[1, 0]]]}')
@example(text='{"schema": "specorder/1", "kappa": 1, "dim": 1, "matrices": 0, '
              '"other": [[[1, 0]]]}')
# strings in the array: numpy would convert the first and raise on the second
@example(text='{"schema": "specorder/1", "kappa": 1, "dim": 1, "matrices": [[[1, "2.5"]]]}')
@example(text='{"schema": "specorder/1", "kappa": 1, "dim": 1, "matrices": [[["x", 0]]]}')
@example(text='{"dim":2,"kappa":1,"matrices":[[[1,-0.0],[-0.0,0],[0,-0],[%d,0]]],'
              '"schema":"specorder/1"}\n' % 2 ** 64)
# one text for each way the flat route declines: a backslash, a bracket in
# a string, a token other than a number in the array, the tuple inside
# another object, a kappa that is not an int or too large to spell out,
# dim² - 1 pairs in a matrix, a second "matrices" in the header, a number
# past the float range
@example(text='{' + TUPLE_HEAD % (1, 1) + '[[[1, 0]]], "note": "\\"]"}')
@example(text='{"note": "[", ' + TUPLE_HEAD % (1, 1) + '[[[1, 0]]]}')
@example(text='{' + TUPLE_HEAD % (1, 1) + '[[[true, 0]]]}')
@example(text='{' + TUPLE_HEAD % (1, 1) + '[[[1, null]]]}')
@example(text='{"wrap": {' + TUPLE_HEAD % (1, 1) + '[[[1, 0]]]}}')
@example(text='{' + TUPLE_HEAD % ("1.0", 1) + '[[[1, 0]]]}')
@example(text='{' + TUPLE_HEAD % (2 ** 62, 1) + '[[[1, 0]]]}')
@example(text='{' + TUPLE_HEAD % (2, 2) + '[[[1, 0], [0, 0], [0, 0]], '
              '[[1, 0], [0, 0], [0, 0], [1, 0], [0, 0]]]}')
@example(text='{' + TUPLE_HEAD % (1, 1) + '[[[1, 0]]], "matrices": 5}')
@example(text='{' + TUPLE_HEAD % (1, 1) + '[[[1e400, 0]]]}')
def test_load_tuple_matches_the_stdlib_reading_of_any_text(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("t") / "t.json")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    handed, orjson_loads = [], sio.orjson.loads

    def loads(data):
        handed.append(nesting(data))
        return orjson_loads(data)

    with mock.patch.object(sio.orjson, "loads", loads):
        got = load_outcome(load_tuple, path)
    assert got == load_outcome(reference_load_tuple, path)
    # orjson crashes the process on deep nesting, so the route hands it
    # only the header and the flat number list
    assert max(handed, default=0) <= 2


def written_tuple_files(where) -> list:
    """Paths of tuple files of every kind the project writes."""
    rng = fresh_rng(47)
    tuples = [random_commuting(rng, n, kappa) for n, kappa in [(1, 1), (2, 3), (5, 2), (9, 1)]]
    tuples += [validate_tuple([np.diag([-0.0, 1.0]), np.diag([1e300, -5e-324])]),
               validate_tuple([op.matrix * 1e-170 for op in tuples[2].ops])]
    files = []
    for k, t in enumerate(tuples):
        written = [where / f"{kind}{k}.json" for kind in ("save_tuple", "save_json", "dumps")]
        save_tuple(str(written[0]), t)
        save_json(str(written[1]), tuple_to_dict(t))
        # bench/workloads.write_tuple's spelling: json.dumps with default separators
        written[2].write_text(json.dumps(tuple_to_dict(t)))
        files += [str(path) for path in written]
    return files


def test_load_tuple_reads_every_written_file_without_tuple_from_dict(tmp_path, monkeypatch):
    files = written_tuple_files(tmp_path)
    want = [load_outcome(reference_load_tuple, path) for path in files]

    def refuse(*args, **kwargs):
        raise AssertionError("a written tuple file left the flat route")

    monkeypatch.setattr(sio, "tuple_from_dict", refuse)
    assert [load_outcome(load_tuple, path) for path in files] == want
