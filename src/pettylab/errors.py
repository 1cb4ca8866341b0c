"""Exception types shared across the library.

The CLI maps these onto exit codes: file/parse problems are usage errors
(exit 2), geometric invalidity (flat body, missing symmetry, bad argument)
is exit 3, a search or compute result beyond a theorem limit is exit 4.
"""


class GeometryError(ValueError):
    """Base class for invalid geometric input."""


class InputError(GeometryError):
    """Argument violates an operation's precondition (dimension, range, ...)."""


class FlatBodyError(GeometryError):
    """Body has empty interior (coplanar generators, degenerate hull)."""


class SymmetryError(GeometryError):
    """Operation requires a centrally symmetric body and the input is not."""


class BodyFileError(ValueError):
    """Malformed body file; message carries field context."""


class LimitError(ArithmeticError):
    """A computed value crossed a theorem limit (functionals.LIMITS): an evaluator bug."""
