"""Exception types shared across the package.

Structured failures raise subclasses of :class:`OptiplanarError` so callers
(and the CLI) can distinguish invalid input from internal bugs.  Validation
of whole drawings reports lists of diagnostics instead of raising; the
exceptions here are for operations that cannot return a meaningful value.
"""


class OptiplanarError(Exception):
    """Base class for all structured errors raised by this package."""


# --- rotation-system construction -------------------------------------

class DuplicateDart(OptiplanarError):
    """A dart id occurs more than once across the rotation lists."""


class DanglingTwin(OptiplanarError):
    """The twin map is not a fixed-point-free involution on the darts."""


class NonZeroGenus(OptiplanarError):
    """Some connected component violates n - m + f = 2.

    The rotation system then describes an embedding on a surface of higher
    genus, which this package does not model.
    """


# --- curves and homotopy ----------------------------------------------

class OpenCurve(OptiplanarError):
    """A dart sequence passed as a closed curve does not close up."""


# --- generators --------------------------------------------------------

class OddPathCount(OptiplanarError):
    """theta_pentagulation needs an even number of pole-to-pole paths."""


class BadFaceLength(OptiplanarError):
    """A face has the wrong length for the requested chord pattern."""


class FaceNotEmpty(OptiplanarError):
    """A chord pattern was already inserted into this face."""


class HomotopicSkeleton(OptiplanarError):
    """The skeleton already contains homotopic parallel edges or loops."""


# --- visibility layouts -------------------------------------------------

class NotBiconnected(OptiplanarError):
    """st-numbering and bar layouts need a biconnected input graph."""


class NotSimple(OptiplanarError):
    """The operation is only defined for simple graphs."""


class NotOptimal2Planar(OptiplanarError):
    """The bar 1-visibility extension needs a simple optimal 2-planar drawing."""


# --- persistence and export ---------------------------------------------

class ParseError(OptiplanarError):
    """A document could not be parsed; the message names the offending part."""


class VersionMismatch(OptiplanarError):
    """The document declares a format_version this build does not speak."""


class InvariantViolation(OptiplanarError):
    """A parsed document fails drawing validation.

    Carries the diagnostics produced by the validator.
    """

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class LayoutFailure(OptiplanarError):
    """No layout could be produced for the requested export."""
