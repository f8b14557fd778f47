"""Belief updates and variational free energy over categorical states.

The free energy of a posterior Q against prior P and an outcome
likelihood L decomposes as

    total = KL(Q || P) - E_Q[ln L]

i.e. model complexity (belief shift) minus prediction accuracy. For the
exact Bayes posterior the total equals the surprise -ln P(outcome).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import EPS, CategoricalDistribution, normalize
from .errors import ImpossibleObservationError, ShapeError


@dataclass(frozen=True)
class VfeReport:
    """Variational free energy split into complexity and accuracy."""

    complexity: float
    accuracy: float
    total: float

    def __post_init__(self):
        if abs(self.total - (self.complexity - self.accuracy)) > 1e-9:
            raise ShapeError("vfe total must equal complexity - accuracy")


def kl_divergence(q: CategoricalDistribution, p: CategoricalDistribution) -> float:
    """KL(q || p) in nats; zero-mass entries are floored at EPS."""
    if q.labels != p.labels:
        raise ShapeError(f"label mismatch: {q.labels} vs {p.labels}")
    qp = q.probs.clip(EPS, 1.0)
    pp = p.probs.clip(EPS, 1.0)
    # 0 * log(0/p) contributes nothing regardless of p.
    terms = np.where(q.probs > 0.0, q.probs * (np.log(qp) - np.log(pp)), 0.0)
    return max(0.0, float(terms.sum()))


def bayes_update(
    prior: CategoricalDistribution, likelihood_column: np.ndarray, obs: object = None
) -> CategoricalDistribution:
    """Condition a state prior on one outcome's per-state likelihoods.

    The posterior is the normalized elementwise product; if no state
    gives the outcome non-negligible probability the observation is
    impossible under the model and an error carries the context.
    """
    lik = np.asarray(likelihood_column, dtype=float)
    if lik.shape != prior.probs.shape:
        raise ShapeError(
            f"likelihood column shape {lik.shape} != prior shape {prior.probs.shape}"
        )
    joint = prior.probs * lik
    if float(joint.sum()) <= EPS:
        where = f" for {obs!r}" if obs is not None else ""
        raise ImpossibleObservationError(
            f"zero posterior mass{where}: prior={prior.probs.tolist()}, "
            f"likelihood={lik.tolist()}"
        )
    return normalize(joint, prior.labels)


def compute_vfe(
    posterior: CategoricalDistribution,
    prior: CategoricalDistribution,
    likelihood_column: np.ndarray,
) -> VfeReport:
    """Free energy of holding `posterior` after seeing the outcome."""
    complexity = kl_divergence(posterior, prior)
    lik = np.asarray(likelihood_column, dtype=float).clip(EPS, None)
    accuracy = float((posterior.probs * np.log(lik)).sum())
    return VfeReport(complexity=complexity, accuracy=accuracy, total=complexity - accuracy)


def surprise(outcome: str, predictive: CategoricalDistribution) -> float:
    """Negative log probability of an outcome under a predictive distribution."""
    return -float(np.log(max(predictive.prob(outcome), EPS)))
