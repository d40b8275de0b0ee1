"""Tagged scalar functions for the functional calculus.

A BorelFunction bundles a point evaluator with a tag describing its closed
form, so order predicates can audit monotonicity on the finite point sets that
actually matter and the CLI can reconstruct the rule from text. Vector-valued
rules are plain sequences of BorelFunctions, one per output coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ParameterError
from .linalg import check_tol


@dataclass(frozen=True)
class BorelFunction:
    """A scalar rule on R^kappa with a tag and an optional monotonicity claim.

    ``monotone_iota`` is the claimed iota for which the rule is
    iota-increasing (kappa for jointly increasing); None claims nothing.
    Claims are advisory: predicates that need monotonicity re-audit on the
    relevant points.
    """

    tag: str
    fn: Callable[[np.ndarray], float]
    monotone_iota: int | None = None

    def __call__(self, point) -> float:
        x = np.asarray(point, dtype=np.float64)
        value = self.fn(x)
        if value is None:
            raise EvaluationError(tuple(x.tolist()))
        if not np.isfinite(value):
            raise EvaluationError(tuple(x.tolist()), "value not finite")
        return float(value)

    def on_points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return np.array([self(p) for p in pts])


def _check_multi_index(alpha, integer: bool) -> np.ndarray:
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim != 1:
        raise ParameterError(f"multi-index must be 1-d, got shape {a.shape}")
    if np.any(a < 0):
        raise ParameterError(f"multi-index must be nonnegative, got {alpha!r}")
    if integer and not np.all(a == np.floor(a)):
        raise ParameterError(f"integer multi-index required, got {alpha!r}")
    return a


def monomial_fn(alpha) -> BorelFunction:
    """x -> prod x_j^{alpha_j} for a nonnegative integer multi-index, 0^0 = 1."""
    a = _check_multi_index(alpha, integer=True)

    def rule(x):
        with np.errstate(over="ignore"):
            return float(np.prod([xj ** int(aj) for xj, aj in zip(x, a)]))

    monotone = len(a) if np.all(a == 0) else None  # constants are trivially increasing
    return BorelFunction(tag=f"monomial{tuple(int(v) for v in a)}", fn=rule,
                         monotone_iota=monotone)


def fractional_fn(beta, tol=0.0) -> BorelFunction:
    """x -> prod |x_j|^{beta_j} on the nonnegative orthant, 0 elsewhere; 0^0 = 1.

    ``tol`` (one number, or one per coordinate) absorbs roundoff:
    coordinates in [-tol, 0) count as 0 so that spectra of numerically
    positive operators are not annihilated by sign noise; each must be
    finite and >= 0.
    """
    b = _check_multi_index(beta, integer=False)
    tol = np.asarray(tol, dtype=np.float64)
    if tol.shape not in ((), b.shape):
        raise ParameterError(f"tol needs one number or {b.size}, got shape {tol.shape}")
    for t in tol.ravel():
        check_tol(t)

    def rule(x):
        if np.any(np.asarray(x) < -tol):
            return 0.0
        out = 1.0
        for xj, bj in zip(x, b):
            base = max(float(xj), 0.0)
            if bj == 0.0:
                continue  # 0^0 = 1 convention folds into the running product
            out *= base ** float(bj)
        return out

    return BorelFunction(tag=f"fractional{tuple(float(v) for v in b)}", fn=rule,
                         monotone_iota=len(b))


def coordinate_fn(axis: int, kappa: int) -> BorelFunction:
    if not 0 <= axis < kappa:
        raise ParameterError(f"axis {axis} out of range for kappa={kappa}")
    return BorelFunction(tag=f"coordinate[{axis}]", fn=lambda x: float(x[axis]),
                         monotone_iota=kappa)


def sum_fn(kappa: int) -> BorelFunction:
    return BorelFunction(tag="sum", fn=lambda x: float(np.sum(x)), monotone_iota=kappa)


def product_fn(kappa: int) -> BorelFunction:
    # increasing only where all coordinates are nonnegative; no blanket claim
    return BorelFunction(tag="product", fn=lambda x: float(np.prod(x)),
                         monotone_iota=None)


def clipped_affine_fn(coeffs, lo: float, hi: float) -> BorelFunction:
    """x -> clip(c . x, lo, hi) with nonnegative coefficients: bounded, increasing."""
    c = np.asarray(coeffs, dtype=np.float64)
    if np.any(c < 0):
        raise ParameterError(f"coefficients must be nonnegative, got {coeffs!r}")
    if not lo <= hi:
        raise ParameterError(f"empty clip range [{lo}, {hi}]")

    def rule(x):
        return float(np.clip(np.dot(c, x), lo, hi))

    return BorelFunction(tag=f"clip[{lo},{hi}]affine{tuple(float(v) for v in c)}",
                         fn=rule, monotone_iota=len(c))


def indicator_fn(membership: Callable[[np.ndarray], bool], tag: str,
                 monotone_iota: int | None = None) -> BorelFunction:
    """0/1 indicator of an arbitrary membership predicate."""
    return BorelFunction(tag=tag, fn=lambda x: 1.0 if membership(x) else 0.0,
                         monotone_iota=monotone_iota)


def scalar_part_fn(sign: int) -> Callable[[float], float]:
    """One-dimensional positive/negative part: f_+(t) = max(t,0), f_-(t) = min(t,0)."""
    if sign not in (+1, -1):
        raise ParameterError(f"part sign must be +1 or -1, got {sign!r}")
    if sign == +1:
        return lambda t: max(float(t), 0.0)
    return lambda t: min(float(t), 0.0)


def parts_fns(signs) -> list[BorelFunction]:
    """Componentwise signed parts as a vector rule: output j is f_{signs[j]}(x_j).

    Both f_+ and f_- are increasing in the single coordinate they read, hence
    jointly increasing on R^kappa.
    """
    parsed = []
    for s in signs:
        if s in (+1, "+", "plus"):
            parsed.append(+1)
        elif s in (-1, "-", "minus"):
            parsed.append(-1)
        else:
            raise ParameterError(f"unrecognized part sign {s!r}")
    kappa = len(parsed)
    out = []
    for j, s in enumerate(parsed):
        part = scalar_part_fn(s)
        out.append(BorelFunction(
            tag=f"part[{'+' if s > 0 else '-'}:{j}]",
            fn=(lambda x, j=j, part=part: part(x[j])),
            monotone_iota=kappa,
        ))
    return out


def table_fn(mapping: dict, tag: str = "table",
             monotone_iota: int | None = None) -> BorelFunction:
    """Finite tabulated rule; evaluation off the table raises EvaluationError.

    Keys are point tuples compared exactly, so tables should be built from the
    same floating data the atoms carry.
    """
    frozen = {tuple(float(v) for v in k): float(val) for k, val in mapping.items()}

    def rule(x):
        key = tuple(float(v) for v in x)
        if key not in frozen:
            raise EvaluationError(key)
        return frozen[key]

    return BorelFunction(tag=tag, fn=rule, monotone_iota=monotone_iota)
