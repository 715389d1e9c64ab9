"""Exception types shared across the package.

The CLI maps these onto exit codes: DomainError and StructuralError exit
with 1, configuration/usage problems exit with 2.
"""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class StructuralError(ValueError):
    """A data structure violates an invariant (bad header, overlapping bins, ...)."""


class ConfigError(ValueError):
    """A run configuration is malformed or contains unknown keys."""
