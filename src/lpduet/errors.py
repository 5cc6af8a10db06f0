"""Exception types shared across the package."""


class LpError(Exception):
    """Base class for every error raised by lpduet."""


class DimensionMismatch(LpError):
    """Array shapes do not line up."""


class EmptyModel(LpError):
    """Model has no variables or no constraints."""


class NonFiniteInput(LpError):
    """Input contains NaN or infinity."""


class NotPositiveDefinite(LpError):
    """Factorization hit a nonpositive pivot; the matrix is not SPD.

    In the affine engine it means equality rows nearly dependent, though not
    within the row drop's tolerance, made the normal equations singular.
    """


class NotInterior(LpError):
    """A point that must be strictly positive has a nonpositive component."""


class InfeasibleInterior(LpError):
    """Phase-1 could not produce a strictly positive feasible point.

    ``iterations`` counts the phase-1 directions computed before giving up;
    it is 0 when phase 1 never ran.
    """

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class UnboundedDirection(LpError):
    """The projected ascent direction is a recession ray."""


class ZeroPivot(LpError):
    """Attempted to pivot on a (near) zero element."""


class TooLarge(LpError):
    """Basis enumeration would exceed the hard subset budget."""


class ParseError(LpError):
    """Syntax error in LP text, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
