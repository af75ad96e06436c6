"""Exception taxonomy.

Parse-level errors carry a character offset into the source text.  Math
errors flag either bad input (a non-reduced curve, a wrong-shaped ideal)
or an internal result that failed its own consistency check: a Betti
table against the Hilbert function, a generator pick against its
Nakayama count, a classification against the N(f) table.
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


class ConstantPolynomialError(ParseError):
    """A nonzero constant: degree 0 defines no curve."""


class NotLinearError(ParseError):
    pass


class ProportionalLinesError(ParseError):
    pass


class NonReducedInputError(CurvesatError):
    """The Tjurina dimension count failed to stabilize: f has a repeated factor."""


class SmoothCurveError(CurvesatError):
    """Requested an invariant that only singular curves have."""


class NotCodimensionTwoError(CurvesatError):
    """Three forms whose quotient dimensions at 3e - 2..3e are not one
    positive constant: the forms share a factor, or their ideal is
    primary to the irrelevant ideal."""


class FreenessCheckFailedError(CurvesatError):
    """A computed resolution failed its Hilbert series cross-check."""


class KmaxExhaustedError(CurvesatError):
    """A degree scan came out inconsistent: a generator or relation pick
    (``FormsIdeal.relations``, the saturation's generator scan) disagreed
    with its Nakayama count, a saturation kernel disagreed with the
    Hilbert-function identity, no Jacobian syzygy showed up by degree d-1
    (mdr), or the Milnor algebra never left the smooth reference (ct)."""


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
