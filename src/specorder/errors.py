"""Exception types shared across the package.

Every error that carries diagnostic payload stores it as attributes so callers
(and the CLI) can report witnesses without parsing message strings.
"""

from __future__ import annotations


class SpecOrderError(Exception):
    """Base class for all package errors."""


class DimensionError(SpecOrderError):
    """Operands live on spaces of different dimension, or shapes are not square."""


class HermiticityError(SpecOrderError):
    """Matrix fails the Hermitian symmetry test beyond tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(f"hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}")


class EigenConvergenceError(SpecOrderError):
    """Eigensolver did not converge; carries the residual achieved."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(f"eigensolver did not converge (residual {residual:.3e})")


class CommutationError(SpecOrderError):
    """A tuple's components fail to commute pairwise within tolerance."""

    def __init__(self, i: int, j: int, defect: float, tol: float):
        self.indices = (i, j)
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"components {i} and {j} do not commute: "
            f"defect {defect:.3e} > tolerance {tol:.3e}"
        )


class EvaluationError(SpecOrderError):
    """A function rule is undefined, or not finite, at a required point."""

    def __init__(self, point, reason: str = "undefined"):
        self.point = point
        super().__init__(f"function {reason} at point {point!r}")


class MonotonicityError(SpecOrderError):
    """A function claimed or required monotone fails the audit; carries the pair."""

    def __init__(self, pair, iota: int):
        self.pair = pair
        self.iota = iota
        x, y = pair
        super().__init__(
            f"function not {iota}-increasing: points {x!r} <= {y!r} "
            f"but values decrease"
        )


class PreconditionError(SpecOrderError):
    """A hypothesis the check's guarantee depends on is violated.

    ``hypothesis`` names which one, so callers see what failed rather than a
    generic message.
    """

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        msg = f"hypothesis violated: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PositivityError(SpecOrderError):
    """An operation requiring positive tuples received one with negative spectrum."""

    def __init__(self, which: str, coordinate: int, value: float):
        self.which = which
        self.coordinate = coordinate
        self.value = float(value)
        super().__init__(
            f"tuple {which!r} is not positive: component {coordinate} "
            f"has spectrum reaching {value:.3e}"
        )


class ParameterError(SpecOrderError):
    """A numeric parameter is out of its admissible range."""


class NormalityError(SpecOrderError):
    """Matrix fails the normality test beyond tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(f"normality defect {defect:.3e} exceeds tolerance {tol:.3e}")


class EmptyGeneratorError(SpecOrderError):
    """A lower set was requested from an empty generator list."""


class CapExceededError(SpecOrderError):
    """Ideal enumeration was asked for more atoms than the configured cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"{size} atoms exceed enumeration cap {cap}")


class MassMismatchError(SpecOrderError):
    """Equal total mass is required but the measures differ.

    Carries both masses plus the one-sided conclusions that remain available
    without the equal-mass hypothesis.
    """

    def __init__(self, mass1: float, mass2: float, implications: str):
        self.mass1 = float(mass1)
        self.mass2 = float(mass2)
        self.implications = implications
        super().__init__(
            f"total masses differ: {mass1!r} vs {mass2!r}; {implications}"
        )


class OrderError(SpecOrderError):
    """Box corners are not ordered (requires a <= b componentwise)."""


class ValidationError(SpecOrderError):
    """A projection-valued step function fails the resolution axioms."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"resolution axioms violated: {report}")


class InputError(SpecOrderError):
    """Malformed input file or schema violation; carries a location string."""

    def __init__(self, location: str, reason: str):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")
