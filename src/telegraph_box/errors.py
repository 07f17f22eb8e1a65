"""Exception types shared across the library."""

from __future__ import annotations

import functools
import inspect
import math


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


def float64_result(what: str):
    """Make fn raise DomainError, naming its numeric, ModelParams and
    SwitchingProb arguments, where float64 cannot hold its value: on
    OverflowError, ZeroDivisionError, or inf or nan in its result."""
    def wrap(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            cause = None
            try:
                out = fn(*args, **kwargs)
                vals = (out,) if isinstance(out, float) else (
                    out if isinstance(out, tuple) else vars(out).values())
                # a finite sum has finite terms; one past float64 may not
                if math.isfinite(sum(vals)) or all(map(math.isfinite, vals)):
                    return out
            except (OverflowError, ZeroDivisionError) as exc:
                cause = exc
            from .core import ModelParams, SwitchingProb   # core imports this module
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments.items()
            at = ", ".join(f"{name}={value!r}" for name, value in bound
                           if isinstance(value, (int, float, ModelParams, SwitchingProb)))
            raise DomainError(f"{what} at {at} are not finite in float64") from cause
        return checked
    return wrap


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
    """Defensive cap on velocity reversals was hit: within one phase of
    the scalar engine, or over all the rounds of one array-kernel call,
    restarts of absorption paths included."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(
            f"reversal cap of {cap} reached: it bounds the velocity reversals "
            "of one scalar phase and the rounds of one array-kernel call; "
            "check the rates, the level and alpha"
        )
