"""The two failures the package reports: bad input and numerical trouble."""


class ConfigurationError(ValueError):
    """Physically invalid or numerically unusable configuration."""


class ResolventError(Exception):
    """Singular or hopelessly ill-conditioned resolvent solve, or a failed Schur form."""
