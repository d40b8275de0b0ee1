"""Command-line interface.

Subcommands: check-order, calculus, measure-check, examples, selftest.
Exit codes: 0 when every reported verdict holds, 1 when any of them fails,
2 on input or usage errors and when the problem does not fit in memory.
--tol, a relative tolerance, falls back to the SPECORDER_TOL environment
variable, then to the library default linalg.TOL; it governs check-order's
two order routes and its monomial scan, which runs only when both tuples
are positive. In measure-check, which compares masses exactly, and in
calculus, which has no verdict that depends on it, the echoed tol is
informational. --format json emits one deterministic line (timing frozen
to 0.0) so outputs diff cleanly.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (
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
    save_tuple,
)
from .linalg import TOL, check_tol
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
    CommutingTuple,
    calculus_scalar,
    fractional_power,
    is_positive_tuple,
    joint_measure,
    monomial,
    validate_tuple,
)

ALPHA_MAX_CAP = 16

# --fn name -> (its parameter, the noun its length message uses, its rule or
# rules from the parsed arguments, and the library call that computes it).
# Without a library call each rule goes through calculus_scalar. monomial
# names alpha when a value overflows; fractional_power counts roundoff-negative
# coordinates as zero.
CALCULUS = {
    "monomial": ("alpha", "integers", lambda args: [monomial_fn(args.alpha)], monomial),
    "fractional": ("beta", "exponents", lambda args: [fractional_fn(args.beta)],
                   fractional_power),
    "sum": (None, None, lambda args: [sum_fn()], None),
    "product": (None, None, lambda args: [product_fn()], None),
    "parts": ("signs", "characters from +-", lambda args: parts_fns(args.signs), None),
    "clip": ("coeffs", "numbers",
             lambda args: [clipped_affine_fn(args.coeffs, args.lo, args.hi)], None),
}


def _echo(args, *inputs) -> str:
    """The command line as the report repeats it."""
    parts = [args.command, *inputs]
    if getattr(args, "fn", None):
        parts.append(f"--fn {args.fn}")
    if getattr(args, "iota", None) is not None:
        parts.append(f"--iota {args.iota}")
    if getattr(args, "alpha_max", None) is not None:
        parts.append(f"--alpha-max {args.alpha_max}")
    return " ".join(parts)


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _ideal_witness(ideal) -> dict:
    return {"mask": ideal.mask,
            "indices": list(ideal.indices),
            "points": _jsonable(ideal.member_points())}


def cmd_check_order(args) -> Report:
    a = load_tuple(args.tuple_a)
    b = load_tuple(args.tuple_b)
    report = Report(command=_echo(args, args.tuple_a, args.tuple_b))
    joint = spectral_leq(a, b, tol=args.tol)
    comp = spectral_leq_componentwise(a, b, tol=args.tol)
    report.add("spectral_leq", joint.holds, witness=_jsonable(joint.witness),
               detail=f"max residual {joint.defect:.3e}")
    report.add("componentwise", comp.holds, witness=_jsonable(comp.witness))
    report.add("routes_agree", joint.holds == comp.holds)
    # positivity is judged at the library tolerance, as the scan itself judges it
    if args.alpha_max is not None and is_positive_tuple(a) and is_positive_tuple(b):
        scan = olson_necessity_scan(a, b, alpha_max=args.alpha_max, tol=args.tol)
        report.add("monomial_scan", scan.holds, witness=_jsonable(scan.witness),
                   detail=f"depth {args.alpha_max}")
    return report


def cmd_calculus(args) -> Report:
    t = load_tuple(args.tuple_in)
    param, noun, make_rules, library_call = CALCULUS[args.fn]
    report = Report(command=_echo(args, args.tuple_in))
    if param is not None and len(getattr(args, param)) != t.kappa:
        raise ParameterError(f"--{param} needs {t.kappa} {noun}")
    rules = make_rules(args)
    if library_call is not None:
        ops = (library_call(t, getattr(args, param)),)
    else:
        e = joint_measure(t)
        ops = tuple(calculus_scalar(e, rule) for rule in rules)
    if args.require_monotone:
        points = joint_measure(t).points()
        for rule in rules:
            audit = audit_iota_increasing(rule, points, iota=t.kappa)
            if not audit.holds:
                raise MonotonicityError(audit.witness, t.kappa)
        report.add("monotone_audit", True, detail=f"iota={t.kappa}")
    for i, op in enumerate(ops):
        if op.norm() == np.inf:
            raise ParameterError(f"component {i} is too large: its Frobenius "
                                 f"norm exceeds the float range")
    # the calculus symmetrizes its results, and they share one eigenbasis
    save_tuple(args.out, CommutingTuple(ops=ops, max_commutator_defect=0.0))
    tag = ", ".join(rule.tag for rule in rules)
    report.add("calculus", True, detail=f"{tag} -> {args.out}")
    return report


def cmd_measure_check(args) -> Report:
    mu1 = load_measure(args.measure_1)
    mu2 = load_measure(args.measure_2)
    iota = args.iota if args.iota is not None else mu1.kappa
    report = Report(command=_echo(args, args.measure_1, args.measure_2))
    cdf = cdf_leq(mu1, mu2)
    report.add("cdf_leq", cdf.holds, witness=_jsonable(cdf.witness))
    dom = lowerset_dominance(mu1, mu2, iota)
    report.add("lowerset_dominance", dom.holds,
               witness=None if dom.witness is None else _ideal_witness(dom.witness),
               detail=None if dom.holds else f"mass gap {dom.defect:g}")
    try:
        eq = thm31_equivalence_check(mu1, mu2, iota)
        report.add("equivalence_agreement", eq.agreement,
                   detail=(f"lower sets {eq.lowerset.holds}, indicators "
                           f"{eq.indicator.holds}, mollifiers {eq.mollifier.holds}"))
    except MassMismatchError as exc:
        report.add("equivalence_agreement", True,
                   detail=(f"skipped: masses {exc.mass1:g} vs {exc.mass2:g}; "
                           f"{exc.implications}"))
    return report


def cmd_examples(args) -> Report:
    report = Report(command=_echo(args))

    a, b = projection_pair_no_infimum()
    probe = infimum_probe(a, b)
    meets_ok = (np.max(np.abs(probe.candidates[0].matrix - MEET_FIRST)) <= 1e-9
                and np.max(np.abs(probe.candidates[1].matrix - MEET_SECOND)) <= 1e-9)
    defect_ok = abs(probe.defect - MEET_COMMUTATOR_DEFECT) <= 1e-9
    report.add("meet_candidates", bool(meets_ok and defect_ok and not probe.commutes),
               detail=f"commutator defect {probe.defect:.12f}")

    mu1, mu2 = crossed_dirac_pair()
    cdf = cdf_leq(mu1, mu2)
    dom = lowerset_dominance(mu1, mu2, iota=2)
    dirac_ok = (cdf.holds and not dom.holds and dom.witness is not None
                and dom.witness.size == 3 and abs(dom.defect - 1.0) == 0.0)
    report.add("crossed_dirac", bool(dirac_ok),
               witness=None if dom.witness is None else _ideal_witness(dom.witness))

    verdicts = {}
    for theta in (1.5, 2.0, 3.0):
        ta, tb = axis_shift_family(theta)
        verdicts[theta] = spectral_leq(ta, tb, tol=args.tol).holds
    family_ok = (not verdicts[1.5]) and verdicts[2.0] and (not verdicts[3.0])
    report.add("axis_shift_family", bool(family_ok),
               detail=f"holds at theta: {[t for t, v in verdicts.items() if v]}")

    return report


def cmd_selftest(args) -> Report:
    rng = np.random.default_rng(args.seed)
    report = Report(command=_echo(args))

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
        joint = spectral_leq(t, t2, tol=args.tol)
        comp = spectral_leq_componentwise(t, t2, tol=args.tol)
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

    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
    p.set_defaults(run=cmd_check_order)
    common(p)

    p = sub.add_parser("calculus", help="apply a tagged function to a tuple")
    p.add_argument("tuple_in")
    p.add_argument("--fn", required=True, choices=tuple(CALCULUS))
    p.add_argument("--alpha", type=int, nargs="+", help="monomial exponents")
    p.add_argument("--beta", type=float, nargs="+", help="fractional exponents")
    p.add_argument("--signs", type=str, help="parts signs, e.g. +- for kappa=2")
    p.add_argument("--coeffs", type=float, nargs="+", help="clip: affine coefficients")
    p.add_argument("--lo", type=float, default=0.0, help="clip lower bound")
    p.add_argument("--hi", type=float, default=1.0, help="clip upper bound")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--require-monotone", action="store_true",
                   help="audit the rule on the tuple's atoms; fail if not increasing")
    p.set_defaults(run=cmd_calculus)
    common(p)

    p = sub.add_parser("measure-check", help="compare two atomic measures")
    p.add_argument("measure_1")
    p.add_argument("measure_2")
    p.add_argument("--iota", type=int, default=None,
                   help="number of coordinates ordered by <= (default: all)")
    p.set_defaults(run=cmd_measure_check)
    common(p)

    p = sub.add_parser("examples", help="replay the bundled counterexamples")
    p.set_defaults(run=cmd_examples)
    common(p)

    p = sub.add_parser("selftest", help="seeded randomized smoke test")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_selftest)
    common(p)

    return parser


def _resolve_tol(flag: float | None) -> float:
    """--tol, else SPECORDER_TOL, else TOL; finite and positive."""
    name, tol = "--tol", flag
    if flag is None:
        name, env = "SPECORDER_TOL", os.environ.get("SPECORDER_TOL")
        if env is None:
            return TOL
        try:
            tol = float(env)
        except ValueError:
            raise InputError(name, f"not a number: {env!r}") from None
    if not tol > 0:
        raise ParameterError(f"{name} must be positive, got {tol!r}")
    return check_tol(tol, name)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        # flags are checked before any file is read, in this order
        param = CALCULUS[args.fn][0] if args.command == "calculus" else None
        if param is not None and not getattr(args, param):
            raise ParameterError(f"--fn {args.fn} requires --{param}")
        args.tol = _resolve_tol(args.tol)
        alpha_max = getattr(args, "alpha_max", None)
        if alpha_max is not None and not 0 <= alpha_max <= ALPHA_MAX_CAP:
            raise ParameterError(f"--alpha-max must be in 0..{ALPHA_MAX_CAP}, got {alpha_max}")
        report = args.run(args)
    except SpecOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: problem too large for available memory", file=sys.stderr)
        return 2
    report.timing_s = time.perf_counter() - started
    report.version = __version__
    report.tolerances["tol"] = args.tol
    # a witness ideal's mask has one bit per merged atom and is written in
    # decimal however many digits it takes (0 is no limit, as before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(report.to_json() if args.format == "json" else report.human())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0 if report.all_hold() else 1


if __name__ == "__main__":
    sys.exit(main())
