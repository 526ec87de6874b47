"""Exception hierarchy shared by all schwarzlab modules."""


class SchwarzLabError(Exception):
    """Base class for all schwarzlab errors."""


class ParseError(SchwarzLabError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(SchwarzLabError):
    """Evaluation left the domain: division by zero, ln of a non-positive
    value, tan within tolerance of a pole, exp past the float range, sin,
    cos or tan of an infinity, or a family member's jet past the float
    range."""


class SeriesMismatchError(SchwarzLabError):
    """Arithmetic between Taylor series with different base points or orders."""


class SingularJetError(SchwarzLabError):
    """A jet with |u'| below the singularity floor was passed to an operation
    that divides by u'."""


class SingularTimeError(SchwarzLabError):
    """A closed-form solution was evaluated at (or too close to) one of its
    poles."""


class InfeasibleVariationError(SchwarzLabError):
    """The endpoint functional is insensitive to the glue coefficient, so the
    admissible-variation correction cannot be solved for."""


class QuadratureError(SchwarzLabError):
    """An adaptive quadrature did not reach its tolerance; carries the
    solver's error estimate."""

    def __init__(self, message: str, abserr: float):
        super().__init__(f"{message} (abserr {abserr:.3e})")
        self.abserr = abserr


class IntegrationError(SchwarzLabError):
    """The ODE solver failed before reaching the end of the interval."""
