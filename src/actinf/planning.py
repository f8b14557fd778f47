"""Policy rollouts and expected free energy scoring.

A policy's score is

    total = -(information gain) - (pragmatic value)

summed over its whole horizon, and the best policy is the strict
argmin. Information gain is the mutual information between predicted
states and predicted observations at each step; pragmatic value is the
expected log-preference of predicted outcomes. Lower total wins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dists import EPS
from .errors import NoCandidateError, ShapeError
from .inference import Belief
from .model import GenerativeModel, Policy

# Totals closer than this are treated as ties, resolved by listing order.
TIE_ATOL = 1e-9


@dataclass(frozen=True)
class Rollout:
    """Predicted state and outcome probabilities along one policy.

    ``states`` has one row per action, shape (H, S); ``outcomes`` maps
    each channel to an (H, O) array whose rows are normalized.
    """

    policy: Policy
    states: np.ndarray
    outcomes: dict[str, np.ndarray]


@dataclass(frozen=True)
class EfeBreakdown:
    policy: str
    epistemic: float
    pragmatic: float
    total: float
    vetoed: bool = field(default=False, compare=False)


def rollout(model: GenerativeModel, belief: Belief, policy: Policy) -> Rollout:
    """Push the current belief through the policy's action sequence."""
    if belief.labels != model.states:
        raise ShapeError(f"belief labels {belief.labels} != states {model.states}")
    probs = belief.probs
    states = []
    for action in policy.actions:
        probs = model.b.push(probs, action)
        states.append(probs)
    states = np.array(states)
    outcomes = {}
    for channel in model.channels:
        weights = [s @ model.a.matrices[channel] for s in states]
        outcomes[channel] = np.array([w / float(w.sum()) for w in weights])
    return Rollout(policy=policy, states=states, outcomes=outcomes)


def _mutual_information(state_probs: np.ndarray, a_matrix: np.ndarray) -> float:
    """I(state; outcome) for one channel at one predicted step.

    Equals the predicted-outcome expectation of KL(Bayes posterior ||
    state distribution), written joint-free for vectorization.
    """
    joint = state_probs[:, None] * a_matrix
    q_o = joint.sum(axis=0)
    log_ratio = np.log(np.clip(a_matrix, EPS, None)) - np.log(np.clip(q_o, EPS, None))[None, :]
    return max(0.0, float(np.sum(np.where(joint > 0.0, joint * log_ratio, 0.0))))


def information_gain(model: GenerativeModel, plan: Rollout) -> float:
    """Expected belief sharpening from the observations a policy predicts."""
    total = 0.0
    for state_probs in plan.states:
        for channel in model.channels:
            total += _mutual_information(state_probs, model.a.matrices[channel])
    return total


def pragmatic_value(model: GenerativeModel, plan: Rollout) -> float:
    """Expected log-preference of predicted outcomes, all steps and channels."""
    total = 0.0
    for step in range(len(plan.states)):
        for channel, predicted in plan.outcomes.items():
            total += float(np.sum(predicted[step] * model.c.log_prior(channel)))
    return total


def expected_free_energy(model: GenerativeModel, plan: Rollout) -> EfeBreakdown:
    """Score one rolled-out policy."""
    epistemic = information_gain(model, plan)
    pragmatic = pragmatic_value(model, plan)
    return EfeBreakdown(
        policy=plan.policy.label,
        epistemic=epistemic,
        pragmatic=pragmatic,
        total=-epistemic - pragmatic,
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


def select_policy(
    model: GenerativeModel,
    belief: Belief,
    candidates: tuple[Policy, ...],
) -> tuple[Policy, tuple[EfeBreakdown, ...]]:
    """Score every candidate and take the argmin."""
    if not candidates:
        raise NoCandidateError("select_policy needs at least one candidate")
    table = tuple(expected_free_energy(model, rollout(model, belief, p)) for p in candidates)
    best = argmin([row.total for row in table], [True] * len(table))
    return candidates[best], table


def enumerate_policies(
    model: GenerativeModel, horizon: int, max_count: int
) -> tuple[Policy, ...]:
    """Candidate policies: declared ones verbatim, else the action product.

    Enumeration is lexicographic in declared action order and truncated
    to ``max_count``, keeping candidate sets reproducible.
    """
    if horizon < 1:
        raise ShapeError(f"horizon must be >= 1, got {horizon}")
    if max_count < 1:
        raise ShapeError(f"max_count must be >= 1, got {max_count}")
    if model.policies:
        return tuple(model.policies[:max_count])
    out = []
    for combo in itertools.product(model.actions, repeat=horizon):
        if len(out) >= max_count:
            break
        out.append(Policy(label="-".join(combo), actions=combo))
    return tuple(out)
