"""Exception types shared across the library."""

from __future__ import annotations


class TelegraphBoxError(Exception):
    """Base class for all library errors."""


class NonPositiveParameter(TelegraphBoxError):
    """A model parameter that must be strictly positive is not."""

    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        super().__init__(f"parameter '{field}' must be > 0, got {value!r}")


class AlphaOutOfRange(TelegraphBoxError):
    """Switching probability outside (0, 1]."""

    def __init__(self, value: float):
        self.value = value
        super().__init__(f"alpha must lie in (0, 1], got {value!r}")


class DomainError(TelegraphBoxError):
    """Argument outside the admissible domain of a transform or root map."""


class InvalidIndex(TelegraphBoxError):
    """Index argument outside its allowed range."""


class MaxPhasesExceeded(TelegraphBoxError):
    """Absorption did not occur within the phase budget."""

    def __init__(self, max_phases: int):
        self.max_phases = max_phases
        super().__init__(
            f"no absorption after {max_phases} phases; "
            "increase max_phases or check alpha"
        )


class IdentityViolation(TelegraphBoxError):
    """A per-path consistency identity failed (simulator self-test)."""

    def __init__(self, residual: float, detail: str = ""):
        self.residual = residual
        msg = f"path identity residual {residual:.3e} exceeds tolerance"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ReversalCapExceeded(TelegraphBoxError):
    """Defensive cap on velocity reversals within one phase was hit."""
