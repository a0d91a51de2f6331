"""Exception hierarchy shared by all scx modules."""


class ScxError(Exception):
    """Base class for all library errors."""


class EmptyComplex(ScxError):
    """An operation produced or received a complex with no faces."""


class MalformedFace(ScxError):
    """A facet was empty, repeated a vertex or carried an unusable label."""


class NotAFace(ScxError):
    """The given vertex set is not a face of the complex."""


class UnknownVertex(ScxError):
    """A vertex label does not occur in the complex."""


class LabelClash(ScxError):
    """A requested fresh label collides with an existing vertex label."""


class NoBoundary(ScxError):
    """The complex is closed, so boundary-dependent constructions fail."""


class NotPure(ScxError):
    """The operation requires all facets to have the same dimension."""


class NotAClique(ScxError):
    """The given vertex set is not pairwise adjacent in the 1-skeleton."""


class NotPseudomanifold(ScxError):
    """The operation requires a pseudomanifold (closed or with boundary)."""


class NotSubcomplex(ScxError):
    """The second complex is not contained in the first."""


class BadSeed(ScxError):
    """The supplied facet sequence is not a valid shelling prefix."""


class SearchBudgetExceeded(ScxError):
    """The shelling search ran out of node expansions before deciding."""


class SameVertex(ScxError):
    """Path queries need two distinct endpoints."""


class EmptyOutside(ScxError):
    """Every vertex lies in the closed neighborhood, leaving nothing outside."""


class UnknownProperty(ScxError):
    """No registered property check has the given id."""
