import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from specorder.cli import main
from specorder.gallery import crossed_dirac_pair
from specorder.io import load_tuple, measure_to_dict, save_json, tuple_to_dict
from specorder.measures import AtomicMeasure
from specorder.spectral import validate_tuple


def write_tuple(path, *diags):
    t = validate_tuple([np.diag(np.asarray(d, dtype=np.float64)) for d in diags])
    save_json(str(path), tuple_to_dict(t))
    return str(path)


def write_measure(path, points, weights):
    mu = AtomicMeasure.from_atoms(np.asarray(points, dtype=np.float64),
                                  np.asarray(weights, dtype=np.float64))
    save_json(str(path), measure_to_dict(mu))
    return str(path)


@pytest.fixture
def ordered_files(tmp_path):
    a = write_tuple(tmp_path / "a.json", [0.0, 1.0], [0.5, 2.0])
    b = write_tuple(tmp_path / "b.json", [1.0, 2.0], [1.0, 3.0])
    return a, b


def test_check_order_holds(ordered_files, capsys):
    a, b = ordered_files
    assert main(["check-order", a, b]) == 0
    out = capsys.readouterr().out
    assert "spectral_leq: holds" in out
    assert "routes_agree: holds" in out


def test_check_order_fails_with_witness(ordered_files, capsys):
    a, b = ordered_files
    assert main(["check-order", b, a]) == 1
    parsed_run = main(["check-order", b, a, "--format", "json"])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    doc = json.loads(out)
    assert parsed_run == 1
    verdicts = {v["name"]: v for v in doc["verdicts"]}
    assert verdicts["spectral_leq"]["holds"] is False
    assert verdicts["spectral_leq"]["witness"] is not None
    assert verdicts["routes_agree"]["holds"] is True


def test_check_order_monomial_scan_verdict(tmp_path, capsys):
    a = write_tuple(tmp_path / "a.json", [0.5, 1.0], [0.5, 2.0])
    b = write_tuple(tmp_path / "b.json", [1.0, 2.0], [1.0, 3.0])
    assert main(["check-order", a, b, "--alpha-max", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [v["name"] for v in doc["verdicts"]]
    assert names == ["spectral_leq", "componentwise", "routes_agree", "monomial_scan"]
    assert doc["command"].endswith("--alpha-max 4")


def test_check_order_kappa_mismatch(tmp_path, capsys):
    a = write_tuple(tmp_path / "a.json", [0.0, 1.0])
    b = write_tuple(tmp_path / "b.json", [1.0, 2.0], [1.0, 3.0])
    assert main(["check-order", a, b]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    a = write_tuple(tmp_path / "a.json", [0.0])
    assert main(["check-order", a, str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_noncommuting_input(tmp_path, capsys):
    t = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0])]
    doc = {"schema": "specorder/1", "kappa": 2, "dim": 2,
           "matrices": [[[float(v), 0.0] for v in m.reshape(-1)] for m in t]}
    path = tmp_path / "nc.json"
    save_json(str(path), doc)
    other = write_tuple(tmp_path / "o.json", [0.0, 1.0], [0.0, 1.0])
    assert main(["check-order", str(path), other]) == 2
    assert "error:" in capsys.readouterr().err


def test_tol_flag_and_env(ordered_files, capsys, monkeypatch):
    a, b = ordered_files
    monkeypatch.setenv("SPECORDER_TOL", "0.5")
    assert main(["check-order", a, b, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["tol"] == 0.5
    assert main(["check-order", a, b, "--tol", "1e-6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["tol"] == 1e-6

    monkeypatch.setenv("SPECORDER_TOL", "banana")
    assert main(["check-order", a, b]) == 2
    assert "SPECORDER_TOL" in capsys.readouterr().err

    monkeypatch.delenv("SPECORDER_TOL")
    assert main(["check-order", a, b, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["tol"] == 1e-8


def test_nonpositive_tol(ordered_files, capsys):
    a, b = ordered_files
    assert main(["check-order", a, b, "--tol", "0"]) == 2
    assert main(["check-order", a, b, "--tol=-1e-9"]) == 2
    capsys.readouterr()


def test_alpha_max_cap(ordered_files, capsys):
    a, b = ordered_files
    assert main(["check-order", a, b, "--alpha-max", "17"]) == 2
    assert "--alpha-max" in capsys.readouterr().err


def test_calculus_monomial_zero_is_identity(tmp_path, capsys):
    t = write_tuple(tmp_path / "t.json", [0.5, 1.0], [2.0, 3.0])
    out = tmp_path / "out.json"
    code = main(["calculus", t, "--fn", "monomial", "--alpha", "0", "0",
                 "--out", str(out)])
    assert code == 0
    got = load_tuple(str(out))
    assert got.kappa == 1
    assert np.allclose(got.ops[0].matrix, np.eye(2))
    assert "calculus: holds" in capsys.readouterr().out


def test_calculus_parts_on_positive_tuple_echoes_input(tmp_path):
    t = write_tuple(tmp_path / "t.json", [0.5, 1.0], [2.0, 3.0])
    out = tmp_path / "out.json"
    assert main(["calculus", t, "--fn", "parts", "--signs", "++",
                 "--out", str(out), "--require-monotone"]) == 0
    got = load_tuple(str(out))
    src = load_tuple(t)
    for g, s in zip(got.ops, src.ops):
        assert np.allclose(g.matrix, s.matrix, atol=1e-12)


def test_calculus_sum_adds_components(tmp_path):
    t = write_tuple(tmp_path / "t.json", [1.0, 0.0], [0.0, 2.0])
    out = tmp_path / "out.json"
    assert main(["calculus", t, "--fn", "sum", "--out", str(out)]) == 0
    got = load_tuple(str(out))
    assert np.allclose(got.ops[0].matrix, np.diag([1.0, 2.0]), atol=1e-12)


def test_calculus_monotone_gate_rejects_product(tmp_path, capsys):
    t = write_tuple(tmp_path / "t.json", [-1.0, -1.0], [1.0, 2.0])
    out = tmp_path / "out.json"
    code = main(["calculus", t, "--fn", "product", "--out", str(out),
                 "--require-monotone"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    # without the gate the same job runs
    assert main(["calculus", t, "--fn", "product", "--out", str(out)]) == 0
    capsys.readouterr()


def test_calculus_missing_param(tmp_path, capsys):
    t = write_tuple(tmp_path / "t.json", [1.0, 2.0])
    assert main(["calculus", t, "--fn", "monomial", "--out",
                 str(tmp_path / "o.json")]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_calculus_param_length_mismatch(tmp_path, capsys):
    t = write_tuple(tmp_path / "t.json", [1.0, 2.0])
    assert main(["calculus", t, "--fn", "monomial", "--alpha", "1", "2",
                 "--out", str(tmp_path / "o.json")]) == 2
    capsys.readouterr()


def test_measure_check_golden_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mu1, mu2 = crossed_dirac_pair()
    save_json("g1.json", measure_to_dict(mu1))
    save_json("g2.json", measure_to_dict(mu2))
    argv = ["measure-check", "g1.json", "g2.json", "--format", "json"]
    assert main(argv) == 1
    first = capsys.readouterr().out
    assert main(argv) == 1
    second = capsys.readouterr().out
    assert first == second
    assert first.strip() == (
        '{"command":"measure-check g1.json g2.json",'
        '"schema":"specorder-report/1","timing_s":0.0,'
        '"tolerances":{"tol":1e-08},"verdicts":['
        '{"holds":true,"name":"cdf_leq"},'
        '{"detail":"mass gap 1","holds":false,"name":"lowerset_dominance",'
        '"witness":{"indices":[0,1,2],"mask":7,'
        '"points":[[0.0,0.0],[0.0,1.0],[1.0,0.0]]}},'
        '{"detail":"lower sets False, indicators False, mollifiers False",'
        '"holds":true,"name":"equivalence_agreement"}],"version":"0.1.0"}')


def test_measure_check_mass_mismatch_skips_equivalence(tmp_path, capsys):
    m1 = write_measure(tmp_path / "m1.json", [[0.0, 0.0]], [2.0])
    m2 = write_measure(tmp_path / "m2.json", [[1.0, 1.0]], [1.0])
    assert main(["measure-check", m1, m2, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    verdicts = {v["name"]: v for v in doc["verdicts"]}
    assert verdicts["equivalence_agreement"]["detail"].startswith("skipped:")
    assert "only mass2 <= mass1" in verdicts["equivalence_agreement"]["detail"]


def test_measure_check_iota_flag(tmp_path, capsys):
    m1 = write_measure(tmp_path / "m1.json", [[0.0, 5.0], [1.0, -1.0]], [1.0, 1.0])
    m2 = write_measure(tmp_path / "m2.json", [[0.0, 5.0], [1.0, -1.0]], [1.0, 1.0])
    assert main(["measure-check", m1, m2, "--iota", "1"]) == 0
    out = capsys.readouterr().out
    assert "--iota 1" in out
    # out of range is an error even when there are no atoms to compare
    empty = write_measure(tmp_path / "e.json", np.zeros((0, 2)), [])
    assert main(["measure-check", empty, empty, "--iota", "7"]) == 2
    captured = capsys.readouterr()
    assert "iota must be an integer in 1..2, got 7" in captured.err
    assert "holds" not in captured.out


def test_examples_and_selftest(capsys):
    assert main(["examples"]) == 0
    assert main(["selftest", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "meet_candidates: holds" in out
    assert "resolution_roundtrip: holds" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["check-order", "only-one.json"])
    assert info.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "specorder" in capsys.readouterr().out


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    return subprocess.run([sys.executable, "-m", "specorder", *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)


def test_non_finite_tuple_exits_two_with_location(tmp_path):
    doc = tuple_to_dict(validate_tuple([np.diag([1.0, 2.0])]))
    doc["matrices"][0][3][0] = float("nan")
    bad = tmp_path / "nan.json"
    save_json(str(bad), doc)
    other = write_tuple(tmp_path / "o.json", [0.0, 1.0])
    proc = run_cli("check-order", str(bad), other)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{bad}.matrices[0][3][0]" in proc.stderr


def _tuple_text(entries: str) -> bytes:
    return ('{"schema": "specorder/1", "kappa": 1, "dim": 2, "matrices": [[%s]]}'
            % entries).encode()


@pytest.mark.parametrize("name, raw, where, reason", [
    ("huge-int", _tuple_text("[1, 0], [0, 0], [0, 0], [1%s, 0]" % ("0" * 400)),
     ".matrices[0][3][0]", "expected a finite number"),
    ("invalid-utf8", b"\xff\xfe{}", "", "not UTF-8: invalid byte at offset 0"),
    ("deep", b"[" * 100000, "", "nested too deeply to parse"),
    ("nan", _tuple_text("[1, 0], [0, NaN], [0, 0], [1, 0]"),
     ".matrices[0][1][1]", "expected a finite number"),
    ("bool", _tuple_text("[1, 0], [0, 0], [true, 0], [1, 0]"),
     ".matrices[0][2][0]", "expected a number, got bool"),
    ("string", _tuple_text('[1, 0], [0, 0], [0, 0], [1, "2.5"]'),
     ".matrices[0][3][1]", "expected a number, got str"),
])
def test_malformed_tuple_file_exits_two_with_location(tmp_path, name, raw, where, reason):
    bad = tmp_path / f"{name}.json"
    bad.write_bytes(raw)
    other = write_tuple(tmp_path / "o.json", [0.0, 1.0])
    proc = run_cli("check-order", str(bad), other)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {bad}{where}: {reason}" in proc.stderr


@pytest.mark.parametrize("atom, entry", [({"point": [float("nan"), 0.0], "weight": 1.0},
                                          "point[0]"),
                                         ({"point": [0.0, 0.0], "weight": float("inf")},
                                          "weight")])
def test_non_finite_measure_exits_two_with_location(tmp_path, atom, entry):
    good = write_measure(tmp_path / "good.json", [[0.0, 0.0]], [1.0])
    bad = tmp_path / "bad.json"
    save_json(str(bad), {"schema": "specorder-measure/1", "kappa": 2, "atoms": [atom]})
    proc = run_cli("measure-check", good, str(bad))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "holds" not in proc.stdout
    assert f"{bad}.atoms[0].{entry}" in proc.stderr


def test_unwritable_out_path_exits_two(tmp_path):
    t = write_tuple(tmp_path / "t.json", [1.0, 2.0])
    out = tmp_path / "missing" / "out.json"
    proc = run_cli("calculus", t, "--fn", "sum", "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{out}: cannot write" in proc.stderr


def test_overflowing_noncommuting_tuple_exits_two(tmp_path):
    # unscaled, the commutator check overflows at entries near 1e300 and lets the tuple pass
    ops = [1e300 * np.array([[1.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0])]
    bad = tmp_path / "big.json"
    save_json(str(bad), {"schema": "specorder/1", "kappa": 2, "dim": 2,
                         "matrices": [[[float(x), 0.0] for x in m.ravel()] for m in ops]})
    proc = run_cli("check-order", str(bad), str(bad))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "holds" not in proc.stdout
    assert "components 0 and 1 do not commute" in proc.stderr


def _tuple_file(path, ops):
    save_json(str(path), {"schema": "specorder/1", "kappa": len(ops), "dim": len(ops[0]),
                          "matrices": [[[float(x), 0.0] for x in np.ravel(m)] for m in ops]})
    return str(path)


@pytest.mark.parametrize("ops", [
    [np.full((2, 2), 1.5e308)],
    [np.full((2, 2), 1.5e308), np.diag([1.0, 2.0])],
])
def test_tuple_beyond_float_range_exits_two(tmp_path, ops):
    # (M + M*)/2 overflowed these finite entries into inf and nan, and every
    # verdict then read "holds"
    f = _tuple_file(tmp_path / "big.json", ops)
    proc = run_cli("check-order", f, f)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nan" not in proc.stdout + proc.stderr
    assert "holds" not in proc.stdout
    assert "component 0 is too large" in proc.stderr


def test_order_near_float_limit_is_decided(tmp_path):
    # the first components swap their eigenvectors, so the pair is not ordered
    a = _tuple_file(tmp_path / "a.json", [np.diag([1.5e308, 0.5e308]), np.diag([1.0, 2.0])])
    b = _tuple_file(tmp_path / "b.json", [np.diag([0.5e308, 1.5e308]), np.diag([1.0, 2.0])])
    proc = run_cli("check-order", a, b)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "nan" not in proc.stdout + proc.stderr
    assert "spectral_leq: FAILS" in proc.stdout
    assert run_cli("check-order", a, a).returncode == 0


def _near_limit_pair(tmp_path):
    a = _tuple_file(tmp_path / "a.json", [np.diag([1.5e308, 0.5e308]), np.diag([1.0, 2.0])])
    b = _tuple_file(tmp_path / "b.json", [np.diag([0.5e308, 1.5e308]), np.diag([1.0, 2.0])])
    return a, b


def _clean(proc):
    return "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_monomial_scan_near_float_limit(tmp_path):
    # (A + A*)/2 overflowed lambda^alpha P into inf and nan, and the scan
    # then read "holds" on both pairs
    a, b = _near_limit_pair(tmp_path)
    proc = run_cli("check-order", a, b, "--alpha-max", "2")
    assert proc.returncode == 1 and _clean(proc)
    assert "monomial_scan: FAILS  witness=[1, 0]" in proc.stdout
    # x^(2, 0) itself overflows: exit 2 naming alpha, no verdict
    proc = run_cli("check-order", a, a, "--alpha-max", "2")
    assert proc.returncode == 2 and _clean(proc)
    assert "alpha=(2, 0)" in proc.stderr
    assert "holds" not in proc.stdout


@pytest.mark.parametrize("args", [
    ["--fn", "parts", "--signs", "++"],
    ["--fn", "sum"],
    ["--fn", "monomial", "--alpha", "1", "0"],
    ["--fn", "clip", "--coeffs", "1", "1", "--hi", "1e308"],
])
def test_calculus_near_float_limit_writes_finite_files(tmp_path, args):
    a, _ = _near_limit_pair(tmp_path)
    out = tmp_path / "out.json"
    proc = run_cli("calculus", a, *args, "--out", str(out))
    assert proc.returncode == 0 and _clean(proc)
    text = out.read_text()
    assert "Infinity" not in text and "NaN" not in text
    assert np.all(np.isfinite(np.array(load_tuple(str(out)).matrices())))


def test_calculus_non_finite_value_exits_two(tmp_path):
    a, _ = _near_limit_pair(tmp_path)
    out = tmp_path / "out.json"
    proc = run_cli("calculus", a, "--fn", "monomial", "--alpha", "2", "0", "--out", str(out))
    assert proc.returncode == 2 and _clean(proc)
    assert "alpha=(2, 0)" in proc.stderr
    assert not out.exists()


def test_tiny_scale_reversed_pair_fails(tmp_path):
    # scaled by 1e-9, an absolute floor in the cluster threshold merged every
    # eigenvalue into one atom and the reversed pair read "holds"
    a = write_tuple(tmp_path / "a.json", [0.0, 1e-9], [0.5e-9, 2e-9])
    b = write_tuple(tmp_path / "b.json", [1e-9, 2e-9], [1e-9, 3e-9])
    proc = run_cli("check-order", b, a, "--alpha-max", "2")
    assert proc.returncode == 1 and _clean(proc)
    assert "spectral_leq: FAILS" in proc.stdout
    assert run_cli("check-order", a, b, "--alpha-max", "2").returncode == 0


def test_tiny_scale_noncommuting_tuple_exits_two(tmp_path):
    # the commutator defect 1.4e-18 passed a threshold with an absolute 1e-8 floor
    f = _tuple_file(tmp_path / "t.json", [1e-9 * np.array([[1.0, 1.0], [1.0, 0.0]]),
                                          1e-9 * np.diag([1.0, 2.0])])
    proc = run_cli("check-order", f, f)
    assert proc.returncode == 2 and _clean(proc)
    assert "components 0 and 1 do not commute" in proc.stderr
    assert "holds" not in proc.stdout


def test_calculus_overflowing_value_is_reported_not_finite(tmp_path):
    t = _tuple_file(tmp_path / "t.json", [np.diag([1.5e308, 1.0]), np.diag([1.5e308, 2.0])])
    out = tmp_path / "out.json"
    proc = run_cli("calculus", t, "--fn", "sum", "--out", str(out))
    assert proc.returncode == 2 and _clean(proc)
    assert "function value not finite at point (1.5e+308, 1.5e+308)" in proc.stderr
    assert "np.float64" not in proc.stderr
    assert not out.exists()
