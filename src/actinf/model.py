"""Generative model containers: likelihoods, dynamics, preferences, priors.

Component arrays are stored raw with shape checks only, so that a
structurally complete but numerically broken model can still be built
and handed to ``validate_model`` for a readable violation report.
Engine code assumes models that passed validation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dists import EPS, NORM_ATOL, CategoricalDistribution, normalize
from .errors import ShapeError

# Base mass shared by every outcome a preference entry marks as violating,
# applied before per-channel normalization.
VIOLATION_MASS = 0.01

# The most confidence weight the preference entries of one channel may
# carry between them. A preferred outcome's mass is the exp of its
# entries' weights: exp(100) is about 2.7e43, far below a float's
# overflow at exp(709.8) and far past where a weight still tells
# outcomes apart once log-preferences are floored at log(EPS).
MAX_WEIGHT = 100.0

# The most values one model's memo keeps; past that the oldest is dropped.
MEMO_SIZE = 256


def _matrix(values, rows: int, cols: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (rows, cols):
        raise ShapeError(f"{what}: expected shape {(rows, cols)}, got {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ObservationModel:
    """Per-channel outcome likelihoods, one row per hidden state."""

    states: tuple[str, ...]
    channels: dict[str, tuple[str, ...]]
    matrices: dict[str, np.ndarray]  # channel -> (n_states, n_outcomes)

    def __post_init__(self):
        # a fresh dict, so the caller's dict never aliases the model's
        matrices = dict(self.matrices)
        for name, outcomes in self.channels.items():
            if name not in matrices:
                raise ShapeError(f"channel {name!r} has no likelihood matrix")
            matrices[name] = _matrix(matrices[name], len(self.states), len(outcomes), f"A[{name}]")
        object.__setattr__(self, "matrices", matrices)

    def likelihood_column(self, channel: str, outcome: str) -> np.ndarray:
        """P(outcome | state) for every state, in state order."""
        outcomes = self.channels[channel]
        try:
            j = outcomes.index(outcome)
        except ValueError:
            raise ShapeError(
                f"outcome {outcome!r} not in channel {channel!r} ({len(outcomes)} outcomes)"
            ) from None
        return self.matrices[channel][:, j]

    def predictive(self, channel: str, state_probs: np.ndarray) -> CategoricalDistribution:
        """Push a state distribution through the channel likelihoods."""
        weights = state_probs @ self.matrices[channel]
        return normalize(weights, self.channels[channel])


@dataclass(frozen=True)
class TransitionModel:
    """Action-conditioned state dynamics, tensor[action][from][to]."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    tensor: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, k = len(self.actions), len(self.states)
        arr = np.asarray(self.tensor, dtype=float)
        if arr.shape != (n, k, k):
            raise ShapeError(f"B tensor: expected {(n, k, k)}, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "tensor", arr)

    def matrix(self, action: str) -> np.ndarray:
        try:
            i = self.actions.index(action)
        except ValueError:
            raise ShapeError(f"unknown action {action!r}, have {self.actions}") from None
        return self.tensor[i]

    def push(self, state_probs: np.ndarray, action: str) -> np.ndarray:
        return state_probs @ self.matrix(action)


class PreferenceEntry(NamedTuple):
    """One compiled preference: (channel, confidence weight, outcome sets).

    ``prefer`` outcomes each carry exp(weight) mass, ``avoid`` outcomes
    share VIOLATION_MASS, anything unmentioned keeps neutral mass 1. A
    scenario's weights are in [0, MAX_WEIGHT], and sum to at most
    MAX_WEIGHT on each channel: a negative weight would make ``prefer``
    a weaker ``avoid``, which ``avoid`` already says.
    """

    name: str
    channel: str
    weight: float
    prefer: tuple[str, ...] = ()
    avoid: tuple[str, ...] = ()


class PreferenceModel(NamedTuple):
    """Log-preferences over observations, one prior vector per channel."""

    entries: tuple[PreferenceEntry, ...]
    channel_priors: dict[str, CategoricalDistribution]

    @staticmethod
    def compile(
        channels: dict[str, tuple[str, ...]],
        entries: tuple[PreferenceEntry, ...],
    ) -> "PreferenceModel":
        """Turn weighted outcome predicates into per-channel priors."""
        priors: dict[str, CategoricalDistribution] = {}
        for channel, outcomes in channels.items():
            mass = [1.0] * len(outcomes)
            for entry in entries:
                if entry.channel != channel:
                    continue
                for o in entry.prefer:
                    mass[outcomes.index(o)] *= math.exp(entry.weight)
                for o in entry.avoid:
                    mass[outcomes.index(o)] *= VIOLATION_MASS / len(entry.avoid)
            priors[channel] = normalize(mass, outcomes)
        return PreferenceModel(entries=tuple(entries), channel_priors=priors)

    def log_prior(self, channel: str) -> np.ndarray:
        p = self.channel_priors[channel].probs
        return np.log(np.clip(p, EPS, 1.0))


@dataclass(frozen=True)
class Policy:
    """A label plus an ordered action sequence."""

    label: str
    actions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ShapeError(f"policy {self.label!r} has no actions")

    @property
    def horizon(self) -> int:
        return len(self.actions)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class StackedOutcomes(NamedTuple):
    """Every channel's outcome columns side by side, in channel order.

    The batched planner scores all channels at once through these; a
    model derives them once, on first use, and they are read-only.
    """

    starts: np.ndarray  # (C,) first column of each channel
    channel: np.ndarray  # (O,) channel index of each column
    a: np.ndarray  # (S, O) likelihoods
    a_log_a: np.ndarray  # (S, C) sum over each channel's outcomes of A log A
    c: np.ndarray  # (O,) preference mass
    log_c: np.ndarray  # (O,) log-preferences


@dataclass(frozen=True)
class GenerativeModel:
    """Everything the agent believes about the task, in one bundle.

    A model is a value: besides its components it holds only what it
    derives from them, the ``stacked`` planner arrays and the ``memo``
    of computed results (the agent's EFE tables and vetoes, pushed
    predictions, predictives and free energies, and the tabular
    provider's exact posteriors, each computed once per distinct
    key). A model built from another, by
    ``dataclasses.replace`` or by refinement, starts without either,
    so nothing computed under other parameters is ever served.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    channels: dict[str, tuple[str, ...]]
    a: ObservationModel
    b: TransitionModel
    c: PreferenceModel
    d: CategoricalDistribution
    policies: tuple[Policy, ...] = ()

    @cached_property
    def stacked(self) -> StackedOutcomes:
        """The planner's channel-stacked arrays; needs a validated model."""
        sizes = [len(outcomes) for outcomes in self.channels.values()]
        a = np.hstack([self.a.matrices[ch] for ch in self.channels])
        # zero likelihoods add nothing; the EPS floor only guards the log
        a_log_a = a * np.log(np.clip(a, EPS, None))
        starts = np.cumsum([0] + sizes[:-1])
        return StackedOutcomes(
            starts=_frozen(starts),
            channel=_frozen(np.repeat(np.arange(len(sizes)), sizes)),
            a=_frozen(a),
            a_log_a=_frozen(np.add.reduceat(a_log_a, starts, axis=1)),
            c=_frozen(np.concatenate([self.c.channel_priors[ch].probs for ch in self.channels])),
            log_c=_frozen(np.concatenate([self.c.log_prior(ch) for ch in self.channels])),
        )

    @cached_property
    def memo(self) -> dict:
        """What ``memoized`` computed for this model, by key, oldest first."""
        return {}

    def memoized(self, key, compute):
        """``compute()``'s value for the hashable ``key``, computed once.

        The value must depend only on this model and ``key``, and must
        not be None. At most MEMO_SIZE values are kept; past that, the
        oldest is dropped.
        """
        memo = self.memo
        value = memo.get(key)
        if value is None:
            value = compute()
            if len(memo) >= MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = value
        return value

    def policy(self, label: str) -> Policy:
        for p in self.policies:
            if p.label == label:
                return p
        raise ShapeError(f"unknown policy {label!r}")


class ValidationReport(NamedTuple):
    """Violations as (dotted path, message) pairs; empty means valid."""

    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "model valid"
        return "\n".join(f"{path}: {message}" for path, message in self.violations)


def _check_row(out: list, path: str, row: np.ndarray) -> None:
    # written so that NaN fails both checks
    if not np.all((row >= 0) & (row <= 1)):
        out.append((path, f"entries outside [0, 1]: {row.tolist()}"))
        return
    total = float(row.sum())
    if not abs(total - 1.0) <= NORM_ATOL:
        out.append((path, f"row sums to {total!r}, expected 1.0 +/- {NORM_ATOL}"))


def _suspects(m: np.ndarray, starts: list[int]) -> np.ndarray:
    """Which rows of ``m`` ``_check_row`` may flag, one column per segment.

    The segments of the last axis start at ``starts``; entry [..., k]
    covers the rows of segment k. One pass over the whole array. The
    sum test is twice as strict as ``_check_row``'s, so a last-bit
    difference between a batched and a single-row sum cannot hide a bad
    row; ``_check_row`` has the last word on every suspect.
    """
    in_range = np.logical_and.reduceat((m >= 0) & (m <= 1), starts, axis=-1)
    total = np.add.reduceat(m, starts, axis=-1)
    return ~(in_range & (abs(total - 1.0) <= NORM_ATOL / 2))


def validate_model(model: GenerativeModel) -> ValidationReport:
    """Structural and numeric audit of a generative model.

    Checks every likelihood row, transition row, preference prior and
    the state prior, plus policy/action cross-references. Returns a
    report instead of raising so callers can show all problems at once.
    """
    v: list[tuple[str, str]] = []
    if len(set(model.states)) != len(model.states):
        v.append(("states", f"duplicate labels in {model.states}"))
    if len(set(model.actions)) != len(model.actions):
        v.append(("actions", f"duplicate labels in {model.actions}"))

    # the likelihood rows of every channel side by side, screened at once;
    # a matrix of any other shape (a channel without outcomes, say) has
    # all its rows checked one by one
    matrices = model.a.matrices
    n = len(model.states)
    batch = [ch for ch in model.channels
             if (m := matrices.get(ch)) is not None and m.ndim == 2 and m.shape[0] == n and m.shape[1]]
    suspects: dict[str, list[int]] = {}
    if batch:
        widths = [matrices[ch].shape[1] for ch in batch]
        flagged = _suspects(np.concatenate([matrices[ch] for ch in batch], axis=1),
                            list(itertools.accumulate(widths[:-1], initial=0)))
        for k, i in zip(*flagged.T.nonzero()):  # channel by channel, rows in order
            suspects.setdefault(batch[k], []).append(i)
    for channel, outcomes in model.channels.items():
        if len(set(outcomes)) != len(outcomes):
            v.append((f"channels.{channel}", "duplicate outcome labels"))
        m = matrices.get(channel)
        if m is None:
            v.append((f"a.{channel}", "missing likelihood matrix"))
            continue
        rows = suspects.get(channel, ()) if channel in batch else range(len(m))
        for i in rows:
            _check_row(v, f"a.{channel}.{model.states[i]}", m[i])

    # (action, state) pairs in row-major order: action by action
    tensor = model.b.tensor
    if tensor.size:
        for a, i, _ in zip(*_suspects(tensor, [0]).nonzero()):
            _check_row(v, f"b.{model.actions[a]}.{model.states[i]}", tensor[a, i])

    if model.d.labels != model.states:
        v.append(("d", f"prior labels {model.d.labels} != states {model.states}"))

    for entry in model.c.entries:
        if entry.channel not in model.channels:
            v.append((f"c.{entry.name}", f"unknown channel {entry.channel!r}"))
            continue
        outcomes = model.channels[entry.channel]
        for o in entry.prefer + entry.avoid:
            if o not in outcomes:
                v.append((f"c.{entry.name}", f"unknown outcome {o!r}"))
    for channel in model.channels:
        prior = model.c.channel_priors.get(channel)
        if prior is None:
            v.append((f"c.{channel}", "missing channel prior"))
        elif prior.labels != model.channels[channel]:
            v.append((f"c.{channel}", "prior outcomes disagree with channel"))

    seen = set()
    for p in model.policies:
        if p.label in seen:
            v.append((f"policies.{p.label}", "duplicate policy label"))
        seen.add(p.label)
        for idx, action in enumerate(p.actions):
            if action not in model.actions:
                v.append((f"policies.{p.label}.actions[{idx}]", f"unknown action {action!r}"))

    return ValidationReport(tuple(v))
