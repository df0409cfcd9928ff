"""Exception hierarchy shared by all modules."""


class WrpError(Exception):
    """Base class for all package errors."""


class DomainMembershipError(WrpError):
    """A point lies outside the open domain it was claimed to be in."""


class GeometryError(WrpError):
    """An analytic set relation (containment, Minkowski sum, shape) fails."""


class OrderError(WrpError):
    """A derivative order exceeds what a map or jet provides."""


class EnumerationBudgetError(WrpError):
    """An exact operator-norm enumeration would exceed the hard budget."""


class UnsupportedNormError(WrpError):
    """The sign enumeration does not give the operator norm this estimate needs."""


class RangeEscapeError(WrpError):
    """A map value leaves the codomain set required by an operator."""


class PreconditionError(WrpError):
    """An operator hypothesis is violated; the operation is not defined."""


class CertificateRequiredError(PreconditionError):
    """A certified bound is missing where a grid value cannot stand in."""


class ContractionViolationError(WrpError):
    """Fixed-point iterates escape the domain; a certificate is wrong."""


class IterationError(WrpError):
    """An iteration failed to converge within its step budget."""


class SpectralConditionError(WrpError):
    """An operator norm is not below one; no convergent series exists."""


class TruncationError(WrpError):
    """A series cannot reach the requested tail bound within max terms."""


class ShapeError(WrpError):
    """Array or codomain block structure does not match expectations."""


class DataError(WrpError):
    """Evaluation produced NaN or contradicted a certified bound."""


class ConfigError(WrpError):
    """A run configuration or scenario document is invalid."""
