"""Structure-aware mutations of small valid input files, run through the CLI.

Whatever a tuple or measure file holds, the CLI ends with exit 0, 1 or 2:
on 2 stderr is exactly one ``error:`` line, otherwise it is empty, and no
warning is raised on the way.
"""

import contextlib
import copy
import io
import json
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from specorder.cli import main
from specorder.io import tuple_to_dict
from specorder.spectral import validate_tuple

TUPLE = tuple_to_dict(validate_tuple([np.diag([0.5, 1.0]), np.diag([2.0, 3.0])]))
MEASURE = {"schema": "specorder-measure/1", "kappa": 2,
           "atoms": [{"point": [0.0, 1.0], "weight": 1.0},
                     {"point": [1.0, 0.0], "weight": 2.0}]}

# json.dumps writes these strings quoted; the raw text replaces them
RAW = {"@1e309": "1e309", "@-1e309": "-1e309"}
VALUES = [None, True, "x", [], {}, float("nan"), float("inf"), -float("inf"), 1e308, -1e308,
          10 ** 400, *RAW]


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def mutations(draw):
    """(kind, document): a valid document with one to three mutations."""
    kind = draw(st.sampled_from(["tuple", "measure"]))
    doc = copy.deepcopy(TUPLE if kind == "tuple" else MEASURE)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "delete", "extra", "duplicate", "nest"]))
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        node = _get(doc, path)
        if op == "replace":
            doc = _set(doc, path, copy.deepcopy(draw(st.sampled_from(VALUES))))
        elif op == "delete" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif op == "extra" and isinstance(node, dict):
            node["extra"] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif op == "duplicate" and kind == "measure" and isinstance(doc, dict) \
                and isinstance(doc.get("atoms"), list) and doc["atoms"]:
            atom = copy.deepcopy(doc["atoms"][0])
            if isinstance(atom, dict):
                atom["weight"] = 1e308
            doc["atoms"][1:1] = [atom, copy.deepcopy(atom)]
        elif op == "nest":
            for _ in range(40):
                node = [node]
            doc = _set(doc, path, node)
    return kind, doc


def _text(doc) -> str:
    text = json.dumps(doc)
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker), raw)
    return text


@settings(max_examples=150, deadline=None)
@given(case=mutations(), first=st.booleans())
@example(case=("measure", {**MEASURE, "atoms": [{"point": [0.0, 1.0], "weight": 1e308}] * 2}),
         first=True)
def test_mutated_input_files_exit_cleanly(tmp_path_factory, case, first):
    kind, doc = case
    folder = tmp_path_factory.mktemp("probe")
    mutant, valid = folder / "mutant.json", folder / "valid.json"
    mutant.write_text(_text(doc), encoding="utf-8")
    valid.write_text(json.dumps(TUPLE if kind == "tuple" else MEASURE), encoding="utf-8")
    files = [str(mutant), str(valid)] if first else [str(valid), str(mutant)]
    runs = ([["check-order", *files, "--alpha-max", "2"],
             ["calculus", str(mutant), "--fn", "sum", "--require-monotone",
              "--out", str(folder / "out.json")]]
            if kind == "tuple" else [["measure-check", *files]])
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert err.getvalue() == ""
