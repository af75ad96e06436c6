"""Exception taxonomy.

Parse-level errors carry a character offset into the source text.  Math
errors flag either bad input (a non-reduced curve, a wrong-shaped ideal)
or an internal scan that could not certify its answer within the degree
bound it was given.
"""


class CurvesatError(Exception):
    pass


class ParseError(CurvesatError):
    """Base for all input-text rejections."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class PolySyntaxError(ParseError):
    pass


class NotHomogeneousError(ParseError):
    pass


class ZeroPolynomialError(ParseError):
    pass


class NotLinearError(ParseError):
    pass


class ProportionalLinesError(ParseError):
    pass


class NonReducedInputError(CurvesatError):
    """The Tjurina dimension count failed to stabilize: f has a repeated factor."""


class SmoothCurveError(CurvesatError):
    """Requested an invariant that only singular curves have."""


class NotCodimensionTwoError(CurvesatError):
    pass


class BaseWindowNotFoundError(CurvesatError):
    """Saturation recursion could not certify its starting degree."""


class FreenessCheckFailedError(CurvesatError):
    """A computed resolution failed its Hilbert series cross-check."""


class KmaxExhaustedError(CurvesatError):
    """A generator or syzygy scan was still finding new elements at its degree cap."""


class WrongShapeError(CurvesatError):
    pass


class BadExponentError(CurvesatError):
    pass


class InconsistentCombinatoricsError(CurvesatError):
    """Intersection points do not account for every pair of lines exactly once."""


class InconsistentClassificationError(CurvesatError):
    """Two independent classification criteria disagreed; input or math bug."""


class UnknownCatalogEntryError(CurvesatError):
    pass
