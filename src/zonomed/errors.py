"""Domain-specific exceptions."""


class ZonomedError(Exception):
    """Base class for all domain errors raised by this package."""


class FlatZonotopeError(ZonomedError):
    """2D zonotope has no area: every generator is parallel (or zero)."""


class DegenerateCloudError(ZonomedError):
    """Point cloud lies in a flat too thin for the requested objective."""


class DegeneratePolygonError(ZonomedError):
    """Polygon has (numerically) zero area."""
