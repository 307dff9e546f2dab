"""The two failures the package reports: bad input and numerical trouble."""


class ConfigurationError(ValueError):
    """Physically invalid or numerically unusable configuration."""


class ResolventError(Exception):
    """Numerical failure: a singular solve, a non-finite spectral density, a
    non-positive ladder intensity or a violated sum rule."""
