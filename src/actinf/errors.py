"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EngineError):
    """Labels and probability vectors disagree in length or order."""


class DegenerateDistributionError(EngineError):
    """A probability vector has zero total mass and cannot be normalized."""


class ImpossibleObservationError(EngineError):
    """Every state assigns (near-)zero likelihood to the received outcome."""


class ModelValidationError(EngineError):
    """A generative model or a scenario spec failed validation.

    ``field`` names the spec field at fault, if there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_ranges(spec, ranges) -> None:
    """Raise on the first ``(field, test, rule)`` of ``ranges`` that ``spec`` fails."""
    for key, valid, rule in ranges:
        if not valid(getattr(spec, key)):
            raise ModelValidationError(f"{key} must be {rule}", field=key)


class ScenarioError(EngineError):
    """A scenario file is missing, malformed, or inconsistent.

    Carries enough context (section/key) to point at the offending line.
    """


class ProviderError(EngineError):
    """A world-model provider returned an unusable response."""

    def __init__(self, message: str, payload: object = None):
        super().__init__(message)
        self.payload = payload


class ReplayExhaustedError(ProviderError):
    """A scripted provider ran out of responses to replay."""


class NoCandidateError(EngineError):
    """Policy selection was invoked with an empty candidate set."""
