"""Exception types shared across the package."""


class CVMDIError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CVMDIError, ValueError):
    """A parameter is outside its physical or documented range."""


class NumericDomainError(CVMDIError, ArithmeticError):
    """A computation left its numeric domain (unphysical state, singular
    measurement variance, failed eigendecomposition)."""

