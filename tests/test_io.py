import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import fresh_rng, random_commuting
from specorder.errors import InputError
from specorder.io import (
    MEASURE_SCHEMA,
    REPORT_SCHEMA,
    TUPLE_SCHEMA,
    Report,
    load_measure,
    load_tuple,
    measure_from_dict,
    measure_to_dict,
    save_json,
    tuple_from_dict,
    tuple_to_dict,
)
from specorder.measures import AtomicMeasure
from specorder.spectral import validate_tuple


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

    wall = rep.to_dict(deterministic=False)
    assert wall["timing_s"] == 1.25

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
