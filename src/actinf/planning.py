"""Policy rollouts and expected free energy scoring.

A policy's score is

    total = -(information gain) - (pragmatic value)

summed over its whole horizon, and the best policy is the strict
argmin. The candidates are the model's declared policies, in declaration
order, which also breaks ties. Information gain is the mutual information between predicted
states and predicted observations at each step; pragmatic value is the
expected log-preference of predicted outcomes. Lower total wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dists import EPS, CategoricalDistribution
from .errors import NoCandidateError, ShapeError
from .model import GenerativeModel, Policy

# Totals closer than this are treated as ties, resolved by listing order.
TIE_ATOL = 1e-9


class Rollout(NamedTuple):
    """Predicted state and outcome probabilities of a candidate set.

    ``states`` has one row per action of each policy in turn, shape
    (sum of horizons, S); policy p's rows begin at ``starts[p]``.
    ``outcomes`` has the same rows over ``model.stacked``'s columns,
    every channel side by side, each channel's block normalized.
    """

    policies: tuple[Policy, ...]
    starts: np.ndarray
    states: np.ndarray
    outcomes: np.ndarray


@dataclass(frozen=True)
class EfeBreakdown:
    policy: str
    epistemic: float
    pragmatic: float
    total: float
    vetoed: bool = field(default=False, compare=False)


def rollout(
    model: GenerativeModel, belief: CategoricalDistribution, policies: tuple[Policy, ...]
) -> Rollout:
    """Push the current belief through every policy's action sequence."""
    if belief.labels != model.states:
        raise ShapeError(f"belief labels {belief.labels} != states {model.states}")
    if not policies:
        raise NoCandidateError("rollout needs at least one candidate policy")
    # model.b.push inlined, with its lookups bound once
    tensor, index = model.b.tensor, model.b.actions.index
    rows = []
    for policy in policies:
        probs = belief.probs
        for action in policy.actions:
            try:
                i = index(action)
            except ValueError:
                raise ShapeError(f"unknown action {action!r}, have {model.b.actions}") from None
            probs = probs @ tensor[i]
            rows.append(probs)
    states = np.array(rows)
    stacked = model.stacked
    weights = states @ stacked.a
    totals = np.add.reduceat(weights, stacked.starts, axis=1)
    starts = np.cumsum([0] + [p.horizon for p in policies[:-1]])
    return Rollout(
        policies=tuple(policies),
        starts=starts,
        states=states,
        outcomes=weights / totals[:, stacked.channel],
    )


def information_gain(model: GenerativeModel, plan: Rollout) -> np.ndarray:
    """Expected belief sharpening from the observations each policy predicts.

    Per step and channel this is the mutual information
    I(s; o) = sum_s q(s) sum_o A log A - sum_o q(o) log q(o), floored at
    zero; zero probabilities add nothing.
    """
    q_o = plan.outcomes
    stacked = model.stacked
    outcome_term = np.add.reduceat(q_o * np.log(q_o.clip(EPS, None)), stacked.starts, axis=1)
    per_step = np.maximum(plan.states @ stacked.a_log_a - outcome_term, 0.0)
    return np.add.reduceat(per_step.sum(axis=1), plan.starts)


def pragmatic_value(model: GenerativeModel, plan: Rollout) -> np.ndarray:
    """Expected log-preference of each policy's predicted outcomes."""
    return np.add.reduceat(plan.outcomes @ model.stacked.log_c, plan.starts)


def expected_free_energy(model: GenerativeModel, plan: Rollout) -> tuple[EfeBreakdown, ...]:
    """Score every rolled-out policy; one table row per candidate."""
    epistemic = information_gain(model, plan)
    pragmatic = pragmatic_value(model, plan)
    return tuple(
        EfeBreakdown(
            policy=policy.label,
            epistemic=float(e),
            pragmatic=float(g),
            total=float(-e - g),
        )
        for policy, e, g in zip(plan.policies, epistemic, pragmatic)
    )


def argmin(totals: list[float], allowed: list[bool]) -> int | None:
    """Index of the lowest allowed total, or None when none is allowed.

    Ties within TIE_ATOL go to the earlier index, so the result is
    deterministic for a fixed candidate order.
    """
    best = None
    for i, total in enumerate(totals):
        if allowed[i] and (best is None or total < totals[best] - TIE_ATOL):
            best = i
    return best

