"""Exception hierarchy shared by all fdzeros modules."""


class FDZerosError(Exception):
    """Base class for all library errors."""


class InvalidInput(FDZerosError):
    """Malformed user input (bad JSON, bad operator support, bad flags)."""


class ZeroPolynomial(FDZerosError):
    """Operation requires a nonzero polynomial."""


class ConstantPolynomial(FDZerosError):
    """Operation requires degree >= 1."""


class NonConvergence(FDZerosError):
    """Root-finding gave roots that failed a certificate.

    Carries the best iterate and its residuals so callers can inspect
    how close the finder got.
    """

    def __init__(self, message, best=None, residuals=None):
        super().__init__(message)
        self.best = best
        self.residuals = residuals


class TooFewRoots(FDZerosError):
    """Root-set operation needs more roots than are available."""


class NotRealRooted(FDZerosError):
    """Precondition violated: input must be real-rooted at the given tolerance."""


class DegreeGapTooLarge(FDZerosError):
    """Interlacing is defined only for degrees equal or differing by one."""


class ImaginaryResidue(FDZerosError):
    """Real-coefficient coercion failed: imaginary parts exceed the budget."""


class DegreeExceedsFrame(FDZerosError):
    """Convolution frame degree is smaller than an operand degree."""


class DegreeTooSmall(FDZerosError):
    """Asymptotic head extraction needs degree >= 2."""


class DegenerateQ(FDZerosError):
    """Denominator polynomial value below the conditioning floor."""


class MatchAmbiguity(FDZerosError):
    """Two actual roots too close to match against predictions by sort order."""
