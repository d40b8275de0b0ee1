import decimal
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from specorder.cli import build_parser, main
from specorder.gallery import crossed_dirac_pair
from specorder.io import load_tuple, measure_to_dict, save_json, save_tuple, tuple_to_dict
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


def test_monomial_scan_reads_tol(tmp_path, capsys):
    # A_1 <= B_1 fails by 0.001, which tol 0.5 forgives on every route; the
    # scan at the library tolerance failed at alpha (1, 0) beside holding routes
    a = write_tuple(tmp_path / "a.json", [1.0, 2.0], [1.0, 1.0])
    b = write_tuple(tmp_path / "b.json", [0.999, 2.0], [1.0, 1.0])
    argv = ["check-order", a, b, "--alpha-max", "2", "--format", "json"]
    assert main(argv) == 1
    assert main([*argv, "--tol", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["tolerances"]["tol"] == 0.5
    assert [(v["name"], v["holds"]) for v in doc["verdicts"]] == [
        ("spectral_leq", True), ("componentwise", True), ("routes_agree", True),
        ("monomial_scan", True)]


def test_a_failing_monomial_scan_exits_one(ordered_files, capsys, monkeypatch):
    import specorder.cli as cli
    from specorder.linalg import Verdict

    monkeypatch.setattr(cli, "olson_necessity_scan", lambda a, b, alpha_max, tol:
                        Verdict(holds=False, witness=(1, 0), defect=1.0))
    a, b = ordered_files
    assert main(["check-order", a, b, "--alpha-max", "2"]) == 1
    out = capsys.readouterr().out
    assert "spectral_leq: holds" in out and "componentwise: holds" in out
    assert "monomial_scan: FAILS" in out


def test_a_disagreeing_equivalence_check_exits_one(tmp_path, capsys, monkeypatch):
    import specorder.cli as cli
    from specorder.linalg import Verdict
    from specorder.measures import EquivalenceReport

    report = EquivalenceReport(iota=2, masses=(2.0, 2.0),
                               lowerset=Verdict(holds=True, witness=None, defect=0.0),
                               indicator=Verdict(holds=False, witness=None, defect=1.0),
                               mollifier=Verdict(holds=True, witness=None, defect=0.0))
    monkeypatch.setattr(cli, "thm31_equivalence_check", lambda *args, **kw: report)
    m1 = write_measure(tmp_path / "m1.json", [[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    m2 = write_measure(tmp_path / "m2.json", [[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    assert main(["measure-check", m1, m2, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [(v["name"], v["holds"]) for v in doc["verdicts"]] == [
        ("cdf_leq", True), ("lowerset_dominance", True), ("equivalence_agreement", False)]


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


@pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
def test_non_finite_tol_exits_two(ordered_files, capsys, monkeypatch, value):
    # b <= a fails at the default tol; an infinite one made every verdict
    # hold and echoed "tol":Infinity, which is not JSON
    b, a = ordered_files
    assert main(["check-order", a, b, "--tol", value, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err and not captured.out
    monkeypatch.setenv("SPECORDER_TOL", value)
    assert main(["check-order", a, b, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "SPECORDER_TOL" in captured.err and not captured.out


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


def test_check_order_golden_bytes(tmp_path, capsys, monkeypatch):
    # kappa=3, positive, ties in every component; every route fails, and the
    # witnesses are atom coordinates
    monkeypatch.chdir(tmp_path)
    write_tuple("a3.json", [1, 1, 2, 3], [2, 1, 1, 2], [1, 3, 1, 2])
    write_tuple("b3.json", [1, 2, 2, 3], [1, 2, 1, 3], [2, 3, 1, 2])
    argv = ["check-order", "a3.json", "b3.json", "--alpha-max", "3", "--format", "json"]
    assert main(argv) == 1
    assert capsys.readouterr().out.strip() == (
        '{"command":"check-order a3.json b3.json --alpha-max 3",'
        '"schema":"specorder-report/1","timing_s":0.0,'
        '"tolerances":{"tol":1e-08},"verdicts":['
        '{"detail":"max residual 1.000e+00","holds":false,"name":"spectral_leq",'
        '"witness":[1.0,1.0,2.0]},'
        '{"holds":false,"name":"componentwise","witness":[1,[1.0]]},'
        '{"holds":true,"name":"routes_agree"},'
        '{"detail":"depth 3","holds":false,"name":"monomial_scan","witness":[0,1,0]}],'
        '"version":"0.1.0"}')


HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0


def test_calculus_clip_golden_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mats = [HADAMARD @ np.diag(d) @ HADAMARD.T for d in ([0.0, 1.0, 1.0, 2.0],
                                                        [2.0, -1.0, 1.0, 0.5])]
    save_json("c.json", tuple_to_dict(validate_tuple(mats)))
    assert main(["calculus", "c.json", "--fn", "clip", "--coeffs", "0.5", "1.0",
                 "--lo", "0.25", "--hi", "2.0", "--out", "clip.json"]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "clip.json").read_bytes()).hexdigest()
    assert digest == "951f11f49e4963de4c7da294fdb4bccfbfd8f2319712d826381bec5a02e2a6c1"


@pytest.mark.parametrize("args", [
    ["--fn", "monomial", "--alpha", "2", "1"],
    ["--fn", "fractional", "--beta", "0.5", "1.5"],
    ["--fn", "sum"],
    ["--fn", "product"],
    ["--fn", "parts", "--signs", "+-"],
    ["--fn", "clip", "--coeffs", "1", "0.5", "--lo", "0.5", "--hi", "2.5"],
])
def test_calculus_writes_an_exactly_hermitian_commuting_tuple(tmp_path, capsys, args):
    # the calculus builds its result without validate_tuple: the written
    # matrices must pass it, be their own symmetrization bit for bit, and
    # commute to roundoff
    rng = np.random.default_rng(1103)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    mats = [(q * rng.uniform(0.1, 2.0, size=6)) @ q.conj().T for _ in range(2)]
    src, out = tmp_path / "t.json", tmp_path / "out.json"
    save_json(str(src), tuple_to_dict(validate_tuple(mats)))
    assert main(["calculus", str(src), *args, "--out", str(out)]) == 0
    capsys.readouterr()
    written = load_tuple(str(out))
    for op in written.ops:
        m = op.matrix
        assert (m / 2.0 + m.conj().T / 2.0).tobytes() == m.tobytes()
    assert written.max_commutator_defect <= 1e-12


def test_check_order_builds_one_order_kernel(ordered_files, capsys, monkeypatch):
    import specorder.order as order

    built = []

    class Counting(order._OrderKernel):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(order, "_OrderKernel", Counting)
    a, b = ordered_files
    for first, second in ((a, b), (b, a)):
        built.clear()
        main(["check-order", first, second])
        assert len(built) == 1
    capsys.readouterr()


def test_measure_check_solves_the_flow_once(tmp_path, capsys, monkeypatch):
    import specorder.measures as measures

    calls = {"flow": 0, "enumerate": 0}

    def counting(name, real):
        def call(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return call

    monkeypatch.setattr(measures, "_max_flow", counting("flow", measures._max_flow))
    monkeypatch.setattr(measures, "enumerate_downward_closed",
                        counting("enumerate", measures.enumerate_downward_closed))
    m1 = write_measure(tmp_path / "m1.json", [[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    m2 = write_measure(tmp_path / "m2.json", [[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    assert main(["measure-check", m1, m2]) == 0
    assert calls == {"flow": 1, "enumerate": 0}
    capsys.readouterr()


def test_measure_check_decides_beyond_twenty_atoms(tmp_path, capsys):
    # 22 pairwise incomparable atoms: every subset is an ideal, and the
    # largest gap is all of mu2's mass
    points = np.array([[float(i), float(21 - i)] for i in range(22)])
    m1 = write_measure(tmp_path / "m1.json", points[0::2], np.ones(11))
    m2 = write_measure(tmp_path / "m2.json", points[1::2], np.ones(11))
    assert main(["measure-check", m1, m2, "--format", "json"]) == 1
    verdicts = {v["name"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
    dom = verdicts["lowerset_dominance"]
    assert not dom["holds"] and dom["detail"] == "mass gap 11"
    assert dom["witness"]["indices"] == list(range(1, 22, 2))
    assert dom["witness"]["points"] == points[1::2].tolist()
    assert verdicts["equivalence_agreement"]["holds"]


def test_measure_check_holds_on_a_long_near_chain(tmp_path, capsys):
    # 200 atoms scattered about a chain, each pushed up in mu2: 400 merged
    # atoms, and mu2 dominates exactly
    rng = np.random.default_rng(16)
    t = np.arange(200) + rng.uniform(0.2, 0.8, size=200)
    points = t[:, None] + rng.standard_normal((200, 2))
    weights = rng.uniform(0.1, 1.0, size=200)
    moved = points + rng.uniform(0.01, 0.05, size=points.shape)
    m1 = write_measure(tmp_path / "m1.json", points, weights)
    m2 = write_measure(tmp_path / "m2.json", moved[::-1], weights[::-1])
    assert main(["measure-check", m1, m2, "--format", "json"]) == 0
    verdicts = {v["name"]: v["holds"] for v in json.loads(capsys.readouterr().out)["verdicts"]}
    assert verdicts == {"cdf_leq": True, "lowerset_dominance": True,
                        "equivalence_agreement": True}


def test_measure_check_mass_mismatch_skips_equivalence(tmp_path, capsys):
    m1 = write_measure(tmp_path / "m1.json", [[0.0, 0.0]], [2.0])
    m2 = write_measure(tmp_path / "m2.json", [[1.0, 1.0]], [1.0])
    assert main(["measure-check", m1, m2, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    verdicts = {v["name"]: v for v in doc["verdicts"]}
    assert verdicts["equivalence_agreement"]["detail"].startswith("skipped:")
    assert "only mass2 <= mass1" in verdicts["equivalence_agreement"]["detail"]


def chain_pair(tmp_path, n: int) -> list[str]:
    """kappa=1 measures with atoms of weight 1 at 0..n-1, the second with
    weight 2 on the top atom: its witness ideal is every atom."""
    return [_raw_measure(tmp_path / name, [(float(i), 1.0) for i in range(n - 1)]
                         + [(float(n - 1), top)])
            for name, top in (("m1.json", 1.0), ("m2.json", 2.0))]


def test_a_witness_ideal_past_the_int_digit_limit_is_written_in_full(tmp_path, capsys):
    # 15,000 atoms on a chain, mu2 heavier on the top one: the witness is
    # every atom, and its mask has 4,516 decimal digits, past the 4,300 that
    # Python converts by default
    n = 15000
    argv = ["measure-check", *chain_pair(tmp_path, n)]
    limit = sys.get_int_max_str_digits()
    assert main([*argv, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and sys.get_int_max_str_digits() == limit
    witness = {v["name"]: v for v in json.loads(captured.out, parse_int=decimal.Decimal)[
        "verdicts"]}["lowerset_dominance"]["witness"]
    assert len(witness["indices"]) == n
    assert int(witness["mask"]) == sum(1 << int(i) for i in witness["indices"])
    assert main([*argv, "--format", "human"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and sys.get_int_max_str_digits() == limit
    (mask,) = re.findall(r"'mask': (\d+)", captured.out)
    assert int(decimal.Decimal(mask)) == (1 << n) - 1


@pytest.mark.parametrize("tail", [[], [0.0]])
@pytest.mark.parametrize("first, second", [(1.0 + 1e-12, 1.0), (1.0, 1.0 + 1e-12)])
def test_measure_check_reads_one_merged_support(tmp_path, capsys, first, second, tail):
    # delta(1 + 1e-12) and delta(1) merge into one atom; the CDF read the raw
    # coordinates and failed at 1.0 beside a holding lower-set check
    m1 = write_measure(tmp_path / "m1.json", [[first, *tail]], [1.0])
    m2 = write_measure(tmp_path / "m2.json", [[second, *tail]], [1.0])
    assert main(["measure-check", m1, m2, "--format", "json"]) == 0
    verdicts = {v["name"]: v["holds"] for v in json.loads(capsys.readouterr().out)["verdicts"]}
    assert verdicts == {"cdf_leq": True, "lowerset_dominance": True,
                        "equivalence_agreement": True}


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
    # both replay the measure checks' verdicts, witnesses and gaps
    assert main(["examples", "--format", "json"]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"command":"examples","schema":"specorder-report/1","timing_s":0.0,'
        '"tolerances":{"tol":1e-08},"verdicts":['
        '{"detail":"commutator defect 0.666666666667","holds":true,"name":"meet_candidates"},'
        '{"holds":true,"name":"crossed_dirac","witness":{"indices":[0,1,2],"mask":7,'
        '"points":[[0.0,0.0],[0.0,1.0],[1.0,0.0]]}},'
        '{"detail":"holds at theta: [2.0]","holds":true,"name":"axis_shift_family"}],'
        '"version":"0.1.0"}')
    assert main(["selftest", "--seed", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"command":"selftest","schema":"specorder-report/1","timing_s":0.0,'
        '"tolerances":{"tol":1e-08},"verdicts":['
        '{"holds":true,"name":"measure_axioms"},'
        '{"holds":true,"name":"joint_vs_componentwise"},'
        '{"holds":true,"name":"resolution_roundtrip"}],"version":"0.1.0"}')


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


@pytest.mark.parametrize("command", ["check-order", "measure-check"])
def test_cli_leaves_numpy_ma_unimported(tmp_path, ordered_files, command):
    # np.unique imports numpy.ma on its first call, about 10 ms of a process
    if command == "check-order":
        files = ordered_files
    else:
        files = (write_measure(tmp_path / "m1.json", [[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0]),
                 write_measure(tmp_path / "m2.json", [[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0]))
    code = ("import sys; from specorder.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, command, *files], env=subprocess_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.stdout.splitlines()[-1] == "0 False"


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    return subprocess.run([sys.executable, "-m", "specorder", *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)


def test_one_parser_serves_successive_calls(tmp_path, ordered_files, capsys):
    # the parser is built once per process; each call in turn prints what a
    # fresh process prints, and a usage error in between changes nothing
    a, b = ordered_files
    m1 = write_measure(tmp_path / "m1.json", [[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    m2 = write_measure(tmp_path / "m2.json", [[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    runs = (["check-order", a, b, "--format", "json"],
            ["measure-check", m1, m2, "--iota", "1", "--format", "json"],
            ["check-order", b, a, "--alpha-max", "2", "--format", "json"],
            ["calculus", a, "--fn", "sum", "--out", str(tmp_path / "sum.json"),
             "--format", "json"],
            ["check-order", a, b, "--format", "json"])
    for argv in runs:
        code = main(list(argv))
        got = capsys.readouterr().out
        want = run_cli(*argv)
        assert (code, got) == (want.returncode, want.stdout)
        with pytest.raises(SystemExit) as info:
            main(["check-order", "only-one.json"])
        assert info.value.code == 2
        capsys.readouterr()
    assert build_parser() is build_parser()


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


def test_calculus_result_beyond_float_range_exits_two(tmp_path):
    # every entry of the sum is finite, but its Frobenius norm is not
    t = _tuple_file(tmp_path / "t.json", [np.diag([1.2e308, 0.9e308]),
                                          np.diag([0.5e308, 0.6e308])])
    out = tmp_path / "out.json"
    proc = run_cli("calculus", t, "--fn", "sum", "--out", str(out))
    assert proc.returncode == 2 and _clean(proc)
    assert "component 0 is too large: its Frobenius norm exceeds the float range" in proc.stderr
    assert not out.exists()


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


def test_calculus_of_tied_eigenvalues_near_float_limit(tmp_path):
    # the cluster mean summed 1e308 + 1e308 to inf, and the sum read
    # "function value not finite at point (inf, -inf)"
    t = _tuple_file(tmp_path / "t.json", [np.diag([1e308, 1e308]), np.diag([-9e307, -9e307])])
    out = tmp_path / "out.json"
    proc = run_cli("calculus", t, "--fn", "sum", "--out", str(out))
    assert proc.returncode == 0 and _clean(proc)
    assert np.array_equal(load_tuple(str(out)).ops[0].matrix, np.diag([1e308 - 9e307] * 2))


@pytest.mark.parametrize("fn, params, rules", [
    ("monomial", ["--alpha", "0", "0"], 1),
    ("monomial", ["--alpha", "1", "2"], 1),
    ("fractional", ["--beta", "0.5", "1"], 1),
    ("sum", [], 1),
    ("product", [], 1),
    ("parts", ["--signs", "+-"], 2),
    ("clip", ["--coeffs", "1", "1"], 1),
])
def test_require_monotone_audits_every_rule(tmp_path, capsys, monkeypatch, fn, params, rules):
    import specorder.cli as cli

    audited, real = [], cli.audit_iota_increasing

    def counting(f, points, iota, tol=0.0):
        audited.append(f.tag)
        return real(f, points, iota, tol)

    monkeypatch.setattr(cli, "audit_iota_increasing", counting)
    t = write_tuple(tmp_path / "t.json", [0.5, 1.0], [2.0, 3.0])
    assert main(["calculus", t, "--fn", fn, *params, "--out", str(tmp_path / "o.json"),
                 "--require-monotone"]) == 0
    assert len(audited) == rules
    assert "monotone_audit: holds" in capsys.readouterr().out


def _raw_measure(path, atoms):
    save_json(str(path), {"schema": "specorder-measure/1", "kappa": 1,
                          "atoms": [{"point": [p], "weight": w} for p, w in atoms]})
    return str(path)


def test_merged_weight_past_the_float_range_exits_two(tmp_path, capsys):
    # two atoms of 1e308 at one point merged into a weight of inf, and
    # measure-check then read "masses -1024 vs 1e+308"
    m1 = _raw_measure(tmp_path / "m1.json", [(0.0, 1e308), (0.0, 1e308)])
    m2 = _raw_measure(tmp_path / "m2.json", [(0.0, 1e308)])
    assert main(["measure-check", m1, m2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {m1}.atoms[0].weight: merged weight at point (0.0,) "
                            f"exceeds the float range\n")
    proc = run_cli("measure-check", m1, m2)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", captured.err)


def test_memory_exhaustion_exits_two(tmp_path):
    # a kappa=3 pair of 1,000 atoms each asks cdf_leq for a grid of about
    # 1e9 exact sums; only ever run under the child's own address-space limit
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(0)
    files = []
    for name in ("m1.json", "m2.json"):
        points = rng.integers(0, 10 ** 6, size=(1000, 3)).astype(np.float64)
        save_json(str(tmp_path / name), {
            "schema": "specorder-measure/1", "kappa": 3,
            "atoms": [{"point": p, "weight": 1.0} for p in points.tolist()]})
        files.append(str(tmp_path / name))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(subprocess_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "specorder", "measure-check", *files],
                          env=env, preexec_fn=limit, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: problem too large for available memory\n"


def test_a_witness_ideal_of_15000_atoms_within_a_memory_limit(tmp_path, capsys):
    # the child needs about 122 MiB of address space, 46 MiB resident, here
    # and at the commit before the mask was read in one pass
    resource = pytest.importorskip("resource")
    argv = ["measure-check", *chain_pair(tmp_path, 15000)]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    env = dict(subprocess_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for fmt, fails, mask in (("json", '"holds":false,"name":"lowerset_dominance"',
                              r'"mask":(\d+)'),
                             ("human", "lowerset_dominance: FAILS", r"'mask': (\d+)")):
        proc = subprocess.run([sys.executable, "-m", "specorder", *argv, "--format", fmt],
                              env=env, preexec_fn=limit, capture_output=True, text=True,
                              timeout=120)
        assert main([*argv, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stderr, captured.err) == (1, "", "")
        assert (re.sub(r"elapsed: .*", "", proc.stdout)
                == re.sub(r"elapsed: .*", "", captured.out))
        assert fails in captured.out
        assert [len(digits) for digits in re.findall(mask, captured.out)] == [4516]


def test_calculus_writes_a_wide_tuple_within_a_memory_limit(tmp_path):
    # kappa=1, n=600 at scale 1e-6: 720,000 numbers, all but the diagonal's
    # zero imaginary parts written as orjson spells them (e-7, not e-07).
    # The child runs under its own address-space limit and needs about 232
    # MiB; reading the 17 MB input alone needs about 203 MiB.
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(0)
    n = 600

    def parts():
        return rng.uniform(0.1, 0.9, (n, n)) * rng.choice([-1.0, 1.0], (n, n))

    z = (parts() + 1j * parts()) * 1e-6
    t = validate_tuple([(z + z.conj().T) / 2])
    src, out = tmp_path / "t.json", tmp_path / "out.json"
    save_tuple(str(src), t)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (384 << 20, 384 << 20))

    env = dict(subprocess_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "specorder", "calculus", str(src),
                           "--fn", "sum", "--out", str(out)],
                          env=env, preexec_fn=limit, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    text = out.read_bytes()
    assert text.count(b"e-7") > n * n
    # the sum of one component is that component, up to the eigensolver's roundoff
    back = load_tuple(str(out)).ops[0].matrix
    assert np.max(np.abs(back - t.ops[0].matrix)) <= 1e-9 * np.max(np.abs(t.ops[0].matrix))
