"""Exception types shared across the package."""

__all__ = ["MapError", "StructureError", "MapFormatError", "BudgetError"]


class MapError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(MapError):
    """The input violates a structural invariant (bad rotation, bad dart,
    an edge bordered twice by the same face, ...)."""


class MapFormatError(MapError):
    """A map file could not be parsed.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class BudgetError(MapError):
    """The path search exceeded its configured budget.

    ``count`` is the number of path extensions made before giving up
    (prefixes included, so it can exceed the number of n-paths); the
    true total is at least that.
    """

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count
