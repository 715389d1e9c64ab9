"""Exception types shared across the package, and the seed check of its
random draws.

The CLI maps these onto exit codes: DomainError and StructuralError exit
with 1, configuration/usage problems exit with 2.
"""

import numbers


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class StructuralError(ValueError):
    """A data structure violates an invariant (bad header, overlapping bins, ...)."""


class ConfigError(ValueError):
    """A run configuration is malformed or contains unknown keys."""


def _check_seed(seed) -> None:
    """Raise ``DomainError`` unless ``seed`` is a nonnegative integer (not a bool)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
