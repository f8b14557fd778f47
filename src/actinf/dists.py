"""Labelled categorical distributions and the numeric conventions they obey.

Probabilities are kept in the linear domain everywhere; logarithms are
natural and only taken inside entropy/divergence computations, with a
floor of ``EPS`` substituted for zeros first.

Code on the agent's step path calls ndarray methods (``x.sum()``,
``x.clip(...)``, ``x.min()``) rather than numpy's module functions:
the same reductions, bit for bit, without a Python wrapper per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDistributionError, ShapeError

# Floor substituted for zero probabilities before any logarithm.
EPS = 1e-12

# Tolerance for "sums to one" checks.
NORM_ATOL = 1e-9


def _as_prob_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"probability vector must be 1-d, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class CategoricalDistribution:
    """An immutable probability vector over named outcomes.

    Raises ``ShapeError`` when labels and probabilities disagree and
    ``DegenerateDistributionError`` when the vector does not sum to one
    within ``NORM_ATOL`` or contains negative or non-finite mass.
    """

    labels: tuple[str, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(map(str, self.labels))
        object.__setattr__(self, "labels", labels)
        arr = _as_prob_array(self.probs).copy()
        if len(labels) != arr.shape[0]:
            raise ShapeError(
                f"{len(labels)} labels but {arr.shape[0]} probabilities"
            )
        if len(set(labels)) != len(labels):
            raise ShapeError(f"duplicate labels in {labels}")
        if arr.size == 0:
            raise ShapeError("distribution needs at least one outcome")
        if arr.min() < 0:
            raise DegenerateDistributionError(f"negative mass in {arr}")
        total = float(arr.sum())
        # the sum is NaN or infinite exactly when some entry is (or overflows)
        if not math.isfinite(total):
            raise DegenerateDistributionError(f"non-finite mass in {arr}")
        if abs(total - 1.0) > NORM_ATOL:
            raise DegenerateDistributionError(
                f"probabilities sum to {total!r}, expected 1.0 +/- {NORM_ATOL}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def prob(self, label: str) -> float:
        return float(self.probs[self.index(label)])

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ShapeError(f"unknown outcome {label!r}, have {self.labels}") from None

    def entropy(self) -> float:
        """Shannon entropy in nats."""
        p = self.probs.clip(EPS, 1.0)
        return float(-(self.probs * np.log(p)).sum())

    def mode(self) -> str:
        return self.labels[int(self.probs.argmax())]


def normalize(weights, labels) -> CategoricalDistribution:
    """Scale nonnegative weights into a CategoricalDistribution.

    Zero total mass is an error rather than a silent uniform fallback.
    """
    arr = _as_prob_array(weights)
    if arr.size and arr.min() < 0:
        raise DegenerateDistributionError(f"negative weight in {arr}")
    total = float(arr.sum())
    if total <= 0.0:
        raise DegenerateDistributionError("cannot normalize zero-mass weights")
    return CategoricalDistribution(tuple(labels), arr / total)


def uniform(labels) -> CategoricalDistribution:
    labels = tuple(labels)
    n = len(labels)
    return CategoricalDistribution(labels, np.full(n, 1.0 / n))


def delta(labels, label: str) -> CategoricalDistribution:
    """All mass on one outcome."""
    labels = tuple(labels)
    probs = np.zeros(len(labels))
    probs[labels.index(label)] = 1.0
    return CategoricalDistribution(labels, probs)
