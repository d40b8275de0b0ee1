"""Command-line interface.

Subcommands: check-order, calculus, measure-check, examples, selftest.
Exit codes: 0 when every checked verdict holds, 1 when an order or property
fails, 2 on input or usage errors. --tol, a relative tolerance, falls back
to the SPECORDER_TOL environment variable, then to the library default
linalg.TOL. --format json emits one
deterministic line (timing frozen to 0.0) so outputs diff cleanly.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    CapExceededError,
    InputError,
    MassMismatchError,
    MonotonicityError,
    ParameterError,
    SpecOrderError,
)
from .functions import (
    clipped_affine_fn,
    fractional_fn,
    monomial_fn,
    parts_fns,
    product_fn,
    sum_fn,
)
from .gallery import (
    MEET_COMMUTATOR_DEFECT,
    MEET_FIRST,
    MEET_SECOND,
    axis_shift_family,
    crossed_dirac_pair,
    projection_pair_no_infimum,
)
from .io import (
    Report,
    load_measure,
    load_tuple,
    save_json,
    tuple_to_dict,
)
from .linalg import TOL
from .measures import (
    audit_iota_increasing,
    cdf_leq,
    lowerset_dominance,
    thm31_equivalence_check,
)
from .order import (
    infimum_probe,
    olson_necessity_scan,
    spectral_leq,
    spectral_leq_componentwise,
)
from .resolution import ProjValuedStepFunction, reconstruct_measure
from .spectral import (
    calculus_scalar,
    fractional_power,
    is_positive_tuple,
    joint_measure,
    monomial,
    parts_decompose,
    validate_tuple,
)

ALPHA_MAX_CAP = 16


@dataclass
class JobSpec:
    """Parsed invocation: one command plus the knobs it may read."""

    command: str
    inputs: tuple[str, ...]
    tol: float
    fmt: str
    alpha_max: int | None = None
    iota: int | None = None
    seed: int = 0
    out: str | None = None
    fn: str | None = None
    fn_params: dict | None = None
    require_monotone: bool = False

    def echo(self) -> str:
        parts = [self.command, *self.inputs]
        if self.fn:
            parts.append(f"--fn {self.fn}")
        if self.iota is not None:
            parts.append(f"--iota {self.iota}")
        if self.alpha_max is not None:
            parts.append(f"--alpha-max {self.alpha_max}")
        return " ".join(parts)


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _ideal_witness(ideal) -> dict:
    return {"mask": ideal.mask,
            "indices": list(ideal.indices),
            "points": _jsonable(ideal.member_points())}


def _check_alpha_max(value: int | None) -> int | None:
    if value is not None and not 0 <= value <= ALPHA_MAX_CAP:
        raise ParameterError(f"--alpha-max must be in 0..{ALPHA_MAX_CAP}, got {value}")
    return value


def cmd_check_order(job: JobSpec) -> tuple[Report, bool]:
    a = load_tuple(job.inputs[0])
    b = load_tuple(job.inputs[1])
    report = Report(command=job.echo())
    joint = spectral_leq(a, b, tol=job.tol)
    comp = spectral_leq_componentwise(a, b, tol=job.tol)
    report.add("spectral_leq", joint.holds, witness=_jsonable(joint.witness),
               detail=f"max residual {joint.defect:.3e}")
    report.add("componentwise", comp.holds, witness=_jsonable(comp.witness))
    report.add("routes_agree", joint.holds == comp.holds)
    if job.alpha_max is not None and is_positive_tuple(a) and is_positive_tuple(b):
        scan = olson_necessity_scan(a, b, alpha_max=job.alpha_max)
        report.add("monomial_scan", scan.holds, witness=_jsonable(scan.witness),
                   detail=f"depth {job.alpha_max}")
    return report, not (joint.holds and comp.holds)


def cmd_calculus(job: JobSpec) -> tuple[Report, bool]:
    t = load_tuple(job.inputs[0])
    params = job.fn_params or {}
    report = Report(command=job.echo())
    if job.fn == "monomial":
        alpha = params["alpha"]
        if len(alpha) != t.kappa:
            raise ParameterError(f"--alpha needs {t.kappa} integers")
        rules = [monomial_fn(alpha)]
        result = validate_tuple([monomial(t, alpha).matrix])
    elif job.fn == "fractional":
        beta = params["beta"]
        if len(beta) != t.kappa:
            raise ParameterError(f"--beta needs {t.kappa} exponents")
        rules = [fractional_fn(beta)]
        result = validate_tuple([fractional_power(t, beta).matrix])
    elif job.fn == "sum":
        rules = [sum_fn(t.kappa)]
        result = validate_tuple([calculus_scalar(joint_measure(t), rules[0]).matrix])
    elif job.fn == "product":
        rules = [product_fn(t.kappa)]
        result = validate_tuple([calculus_scalar(joint_measure(t), rules[0]).matrix])
    elif job.fn == "parts":
        signs = params["signs"]
        if len(signs) != t.kappa:
            raise ParameterError(f"--signs needs {t.kappa} characters from +-")
        rules = parts_fns(signs)
        result = parts_decompose(t, signs)
    elif job.fn == "clip":
        coeffs = params["coeffs"]
        if len(coeffs) != t.kappa:
            raise ParameterError(f"--coeffs needs {t.kappa} numbers")
        rules = [clipped_affine_fn(coeffs, params["lo"], params["hi"])]
        result = validate_tuple([calculus_scalar(joint_measure(t), rules[0]).matrix])
    else:
        raise ParameterError(f"unknown function tag {job.fn!r}")
    if job.require_monotone:
        points = joint_measure(t).points()
        for rule in rules:
            if rule.monotone_iota is not None:
                continue
            audit = audit_iota_increasing(rule, points, iota=t.kappa)
            if not audit.ok:
                raise MonotonicityError(audit.counterexample, t.kappa)
        report.add("monotone_audit", True, detail=f"iota={t.kappa}")
    save_json(job.out, tuple_to_dict(result))
    tag = ", ".join(rule.tag for rule in rules)
    report.add("calculus", True, detail=f"{tag} -> {job.out}")
    return report, False


def cmd_measure_check(job: JobSpec) -> tuple[Report, bool]:
    mu1 = load_measure(job.inputs[0])
    mu2 = load_measure(job.inputs[1])
    iota = job.iota if job.iota is not None else mu1.kappa
    report = Report(command=job.echo())
    cdf_holds, cdf_witness = cdf_leq(mu1, mu2)
    report.add("cdf_leq", cdf_holds, witness=_jsonable(cdf_witness))
    dom = lowerset_dominance(mu1, mu2, iota)
    report.add("lowerset_dominance", dom.holds,
               witness=None if dom.witness is None else _ideal_witness(dom.witness),
               detail=None if dom.holds else f"mass gap {dom.gap:g}")
    try:
        eq = thm31_equivalence_check(mu1, mu2, iota)
        report.add("equivalence_agreement", eq.agreement,
                   detail=(f"lower sets {eq.lowerset_holds}, indicators "
                           f"{eq.indicator_holds}, mollifiers {eq.mollifier_holds}"))
    except MassMismatchError as exc:
        report.add("equivalence_agreement", True,
                   detail=(f"skipped: masses {exc.mass1:g} vs {exc.mass2:g}; "
                           f"{exc.implications}"))
    failed = not (cdf_holds and dom.holds)
    return report, failed


def cmd_examples(job: JobSpec) -> tuple[Report, bool]:
    report = Report(command=job.echo())

    a, b = projection_pair_no_infimum()
    probe = infimum_probe(a, b)
    meets_ok = (np.max(np.abs(probe.candidates[0].matrix - MEET_FIRST)) <= 1e-9
                and np.max(np.abs(probe.candidates[1].matrix - MEET_SECOND)) <= 1e-9)
    defect_ok = abs(probe.defect - MEET_COMMUTATOR_DEFECT) <= 1e-9
    report.add("meet_candidates", bool(meets_ok and defect_ok and not probe.commutes),
               detail=f"commutator defect {probe.defect:.12f}")

    mu1, mu2 = crossed_dirac_pair()
    cdf_holds, _ = cdf_leq(mu1, mu2)
    dom = lowerset_dominance(mu1, mu2, iota=2)
    dirac_ok = (cdf_holds and not dom.holds and dom.witness is not None
                and dom.witness.size == 3 and abs(dom.gap - 1.0) == 0.0)
    report.add("crossed_dirac", bool(dirac_ok),
               witness=None if dom.witness is None else _ideal_witness(dom.witness))

    verdicts = {}
    for theta in (1.5, 2.0, 3.0):
        ta, tb = axis_shift_family(theta)
        verdicts[theta] = spectral_leq(ta, tb, tol=job.tol).holds
    family_ok = (not verdicts[1.5]) and verdicts[2.0] and (not verdicts[3.0])
    report.add("axis_shift_family", bool(family_ok),
               detail=f"holds at theta: {[t for t, v in verdicts.items() if v]}")

    return report, not report.all_hold()


def cmd_selftest(job: JobSpec) -> tuple[Report, bool]:
    rng = np.random.default_rng(job.seed)
    report = Report(command=job.echo())

    def random_commuting(n: int, kappa: int, low=-1.0, high=1.0):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        mats = []
        for _ in range(kappa):
            w = rng.uniform(low, high, size=n)
            mats.append((q * w) @ q.conj().T)
        return validate_tuple(mats)

    measure_ok = True
    agree_ok = True
    for _ in range(10):
        n, kappa = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        t = random_commuting(n, kappa)
        e = joint_measure(t)
        measure_ok &= e.completeness_defect() <= TOL
        measure_ok &= e.orthogonality_defect() <= TOL
        measure_ok &= e.reconstruction_defect(t) <= TOL * max(op.norm() for op in t.ops)
        t2 = random_commuting(n, kappa)
        joint = spectral_leq(t, t2, tol=job.tol)
        comp = spectral_leq_componentwise(t, t2, tol=job.tol)
        agree_ok &= joint.holds == comp.holds
    report.add("measure_axioms", bool(measure_ok))
    report.add("joint_vs_componentwise", bool(agree_ok))

    roundtrip_ok = True
    for _ in range(5):
        n, kappa = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        t = random_commuting(n, kappa)
        e = joint_measure(t)
        rebuilt = reconstruct_measure(ProjValuedStepFunction.from_measure(e))
        roundtrip_ok &= rebuilt.n_atoms() == e.n_atoms()
        if roundtrip_ok:
            roundtrip_ok &= bool(np.allclose(rebuilt.points(), e.points(), atol=1e-9))
    report.add("resolution_roundtrip", bool(roundtrip_ok))

    return report, not report.all_hold()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specorder",
        description="Distribution-function order checks for commuting Hermitian tuples.")
    parser.add_argument("--version", action="version", version=f"specorder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="relative comparison tolerance (default: SPECORDER_TOL or 1e-8)")
        p.add_argument("--format", choices=("human", "json"), default="human")

    p = sub.add_parser("check-order", help="decide a <= b in the spectral order")
    p.add_argument("tuple_a")
    p.add_argument("tuple_b")
    p.add_argument("--alpha-max", type=int, default=None,
                   help="also scan monomial Loewner inequalities to this depth")
    common(p)

    p = sub.add_parser("calculus", help="apply a tagged function to a tuple")
    p.add_argument("tuple_in")
    p.add_argument("--fn", required=True,
                   choices=("monomial", "fractional", "sum", "product", "parts", "clip"))
    p.add_argument("--alpha", type=int, nargs="+", help="monomial exponents")
    p.add_argument("--beta", type=float, nargs="+", help="fractional exponents")
    p.add_argument("--signs", type=str, help="parts signs, e.g. +- for kappa=2")
    p.add_argument("--coeffs", type=float, nargs="+", help="clip: affine coefficients")
    p.add_argument("--lo", type=float, default=0.0, help="clip lower bound")
    p.add_argument("--hi", type=float, default=1.0, help="clip upper bound")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--require-monotone", action="store_true",
                   help="audit the rule on the tuple's atoms; fail if not increasing")
    common(p)

    p = sub.add_parser("measure-check", help="compare two atomic measures")
    p.add_argument("measure_1")
    p.add_argument("measure_2")
    p.add_argument("--iota", type=int, default=None,
                   help="number of coordinates ordered by <= (default: all)")
    common(p)

    p = sub.add_parser("examples", help="replay the bundled counterexamples")
    common(p)

    p = sub.add_parser("selftest", help="seeded randomized smoke test")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


def _resolve_tol(args) -> float:
    if getattr(args, "tol", None) is not None:
        tol = float(args.tol)
    else:
        env = os.environ.get("SPECORDER_TOL")
        if env is None:
            return TOL
        try:
            tol = float(env)
        except ValueError:
            raise InputError("SPECORDER_TOL", f"not a number: {env!r}") from None
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    return tol


def _job_from_args(args) -> JobSpec:
    fn_params = None
    if args.command == "calculus":
        fn_params = {"alpha": args.alpha, "beta": args.beta, "signs": args.signs,
                     "coeffs": args.coeffs, "lo": args.lo, "hi": args.hi}
        for key in ("alpha", "beta", "coeffs"):
            required = {"monomial": "alpha", "fractional": "beta", "clip": "coeffs"}
            if required.get(args.fn) == key and fn_params[key] is None:
                raise ParameterError(f"--fn {args.fn} requires --{key}")
        if args.fn == "parts" and not args.signs:
            raise ParameterError("--fn parts requires --signs")
    inputs = {
        "check-order": lambda: (args.tuple_a, args.tuple_b),
        "calculus": lambda: (args.tuple_in,),
        "measure-check": lambda: (args.measure_1, args.measure_2),
        "examples": lambda: (),
        "selftest": lambda: (),
    }[args.command]()
    return JobSpec(
        command=args.command,
        inputs=tuple(inputs),
        tol=_resolve_tol(args),
        fmt=args.format,
        alpha_max=_check_alpha_max(getattr(args, "alpha_max", None)),
        iota=getattr(args, "iota", None),
        seed=getattr(args, "seed", 0),
        out=getattr(args, "out", None),
        fn=getattr(args, "fn", None),
        fn_params=fn_params,
        require_monotone=getattr(args, "require_monotone", False),
    )


COMMANDS = {
    "check-order": cmd_check_order,
    "calculus": cmd_calculus,
    "measure-check": cmd_measure_check,
    "examples": cmd_examples,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        job = _job_from_args(args)
        report, failed = COMMANDS[args.command](job)
    except (InputError, ParameterError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecOrderError as exc:
        # non-commuting or malformed operator input and similar
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.timing_s = time.perf_counter() - started
    report.version = __version__
    report.tolerances.setdefault("tol", job.tol)
    print(report.to_json() if job.fmt == "json" else report.human())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
