"""Hierarchical three-level controller and the episode loop.

An episode is a fold: ``run_episode`` threads an immutable ``EpisodeState``
through ``Agent.step(state, obs)``, which returns the next state, the
action and the step's ``TraceEvent`` and changes neither the agent nor
the state it was given. The past is read off the state's events: the
step index, the provider's history, the latest probe reading for the
dose, the surprise-excess window and the cumulative op counts.

Each step runs bottom-up then top-down:

  sensorimotor  encodes the observation, scores its surprise against
                the expected surprise of the prediction it was holding,
                and raises a prediction-error message when the excess
                clears a rolling baseline plus the threshold.
  planner       asks the world-model provider for a posterior, and on a
                prediction error (or with no live plan) re-scores the
                model's declared policies by expected free energy; the
                model scores each distinct (config, belief) pair once.
  executive     vetoes any winning policy that makes a near-forbidden
                outcome too likely and confirms the survivor.

The prediction sent top-down at step t is the prior predictive that
step t+1 scores against: the posterior pushed through the transition
model under the executed action, then through the likelihoods of the
channel that action reads. The state carries it from one step to the
next, so an observation on the predicted channel is scored without
computing it again, and the ``expectedSurprise`` of step t+1 is the
``entropy`` that step t sent. The initial state prior is used only
before the first observation.

The replan's scores, the pushed prediction, the predictive a step
scores against and the step's free energy are pure functions of the
model and the beliefs, action, channel and outcome they are computed
from; the model computes each once and memoizes it. The agent asks its
provider on every step; the tabular provider memoizes its own exact
update on its model.

After an episode ``Agent.propagate_refinement`` returns the summaries
and a refined (model, config) and changes nothing; a caller that
reports or carries learning calls it with the episode's events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dists import CategoricalDistribution
from .errors import ModelValidationError, ProviderError, ShapeError, check_ranges
from .inference import compute_vfe, surprise
from .lab import ActionSpec, ExecutedAction, LabState, Observation
# unused here, but the benchmark's tracer wraps actinf.agent.validate_model by name
from .model import GenerativeModel, Policy, validate_model
from .planning import argmin, expected_free_energy, rollout
from .providers import WorldModelProvider, WorldModelQuery, validate_response
from .trace import COUNTER_KEYS, TraceEvent, FreeEnergyLedger, build_ledger

BOTTOM_UP_KINDS = ("prediction-error", "policy-proposal")
TOP_DOWN_KINDS = ("prediction", "policy-confirmation")
MESSAGE_KINDS = {"bottom-up": BOTTOM_UP_KINDS, "top-down": TOP_DOWN_KINDS}

# (field, test, rule) for each range check of AgentConfig, in order;
# each test is written so that NaN fails it
CONFIG_RANGES = (
    ("vfe_baseline_window", lambda v: v >= 1, ">= 1"),
    ("refinement_threshold", lambda v: v >= 0, ">= 0"),
    ("veto_outcome_mass", lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("veto_probability", lambda v: 0 < v <= 1, "in (0, 1]"),
    ("target_ph", lambda v: 0 <= v <= 14, "in [0, 14]"),
    ("effect_per_ul", lambda v: v > 0, "positive"),
    ("pipette_step_ul", lambda v: v > 0, "positive"),
    ("indicator_reliability_lr", lambda v: 0 <= v <= 1, "in [0, 1]"),
)


@dataclass(frozen=True)
class AgentConfig:
    """Tunables of the control loop, scenario-declared."""

    refinement_threshold: float = 1.0  # nats above the rolling baseline
    vfe_baseline_window: int = 5
    fallback_policy: str = "ask_human"
    veto_outcome_mass: float = 0.01
    veto_probability: float = 0.25
    target_ph: float = 7.4
    effect_per_ul: float = 0.2
    pipette_step_ul: float = 0.5
    probe_channel: str = "phProbe"
    indicator_reliability_lr: float = 0.6

    def __post_init__(self):
        check_ranges(self, CONFIG_RANGES)


@dataclass(frozen=True)
class Message:
    """One unit of inter-level traffic within a step."""

    direction: str  # "bottom-up" | "top-down"
    kind: str
    payload: dict
    step: int

    def __post_init__(self):
        allowed = MESSAGE_KINDS.get(self.direction)
        if allowed is None:
            raise ShapeError(f"unknown message direction {self.direction!r}")
        if self.kind not in allowed:
            raise ShapeError(f"{self.direction} messages cannot carry kind {self.kind!r}")


class Prediction(NamedTuple):
    """What a step sends top-down for the next one to score against."""

    prior: CategoricalDistribution  # the posterior pushed under the action
    channel: str  # the channel the action reads
    predictive: CategoricalDistribution  # the prior through that channel
    entropy: float  # the predictive's, the next step's expected surprise


class EpisodeState(NamedTuple):
    """An episode so far: its events, the held prediction and the live plan."""

    events: tuple[TraceEvent, ...] = ()
    prediction: Prediction | None = None  # what the next step scores against
    plan: Policy | None = None
    cursor: int = 0  # index of the plan's next action

    @property
    def history(self) -> tuple[Observation, ...]:
        """The observations stepped so far, oldest first."""
        return tuple(e.observation for e in self.events)


class RefinementSummary(NamedTuple):
    """One parameter recalibrated after an episode."""

    level: str
    parameter: str
    old: float
    new: float
    note: str = ""


class EpisodeResult(NamedTuple):
    outcome: str
    steps: int
    final_state: LabState
    events: tuple[TraceEvent, ...]


class Agent:
    """Runs the control loop against a validated generative model.

    The model must already have passed ``validate_model`` where it was
    built, in ``load_scenario`` or by the caller; the agent does not
    audit it again. Only ``actions`` is checked here, since only the
    agent sees it. The agent keeps nothing per episode: that is the
    ``EpisodeState`` its steps hand on.
    """

    def __init__(
        self,
        model: GenerativeModel,
        config: AgentConfig,
        provider: WorldModelProvider,
        actions: dict[str, ActionSpec],
    ):
        missing = [a for a in model.actions if a not in actions]
        if missing:
            raise ModelValidationError(f"actions without execution specs: {missing}")
        self.model = model
        self.config = config
        self.provider = provider
        self.actions = actions

    # -- per-step control loop -----------------------------------------

    def step(
        self, state: EpisodeState, obs: Observation
    ) -> tuple[EpisodeState, ExecutedAction, TraceEvent]:
        """One full bottom-up/top-down pass; returns the next state and action."""
        events = state.events
        step_i = len(events)
        history = state.history + (obs,)
        counts = dict(events[-1].op_counts) if events else dict.fromkeys(COUNTER_KEYS, 0)
        counts["envSteps"] += 1  # the observe/apply round this step is part of
        messages: list[Message] = []

        def send(direction: str, kind: str, **payload) -> None:
            messages.append(Message(direction, kind, payload, step_i))

        held = state.prediction
        prior = held.prior if held else self.model.d
        if held is None or held.channel != obs.channel:
            # the first step, or a caller reading another channel than predicted
            held = self.model.memoized(("predict", prior.probs.tobytes(), obs.channel),
                                       lambda: self._predict(prior.probs, obs.channel))
        predictive, expected_surprise = held.predictive, held.entropy
        observed_surprise = surprise(obs.outcome, predictive)
        excess = max(0.0, observed_surprise - expected_surprise)
        window = [
            max(0.0, e.surprise - e.expected_surprise)
            for e in events[-self.config.vfe_baseline_window:]
        ]
        baseline = sum(window) / len(window) if window else 0.0
        prediction_error = excess > baseline + self.config.refinement_threshold
        if prediction_error:
            send("bottom-up", "prediction-error", channel=obs.channel, outcome=obs.outcome,
                 surprise=observed_surprise, expectedSurprise=expected_surprise,
                 excess=excess, baseline=baseline)

        posterior, provider_error = self._update_belief(history, prior, counts)
        vfe = self.model.memoized(
            ("vfe", posterior.probs.tobytes(), prior.probs.tobytes(), obs.channel, obs.outcome),
            lambda: compute_vfe(posterior, prior,
                                self.model.a.likelihood_column(obs.channel, obs.outcome)),
        )

        efe_table = ()
        selected = None
        plan, cursor = state.plan, state.cursor
        if provider_error is not None:
            plan, cursor = self.model.policy(self.config.fallback_policy), 0
            send("bottom-up", "policy-proposal", policy=plan.label, reason="provider failure")
            send("top-down", "policy-confirmation", policy=plan.label, fallback=True)
        elif prediction_error or plan is None or cursor >= len(plan.actions):
            plan, selected, efe_table = self._replan(posterior, send, counts)
            cursor = 0

        action_label = plan.actions[cursor]
        spec = self.actions[action_label]
        overrides = {}
        if spec.params.get("volume_ul") == "auto":
            overrides["volume_ul"] = self.planned_volume_ul(history)
        executed = spec.bind(**overrides)

        # keyed on the channel too: ``actions`` is the agent's, not the model's
        prediction = self.model.memoized(
            ("push", posterior.probs.tobytes(), action_label, spec.observes),
            lambda: self._predict(self.model.b.push(posterior.probs, action_label), spec.observes),
        )
        send("top-down", "prediction", channel=spec.observes,
             mode=prediction.predictive.mode(), entropy=prediction.entropy)

        event = TraceEvent(
            step=step_i,
            observation=obs,
            surprise=observed_surprise,
            expected_surprise=expected_surprise,
            belief=posterior,
            vfe=vfe,
            messages=tuple(messages),
            efe_table=efe_table,
            selected_policy=selected,
            action=action_label,
            action_primitive=spec.primitive,
            action_params=dict(executed.params),
            op_counts=counts,
            provider_error=provider_error,
        )
        next_state = EpisodeState(events + (event,), prediction, plan, cursor + 1)
        return next_state, executed, event

    def _update_belief(
        self, history: tuple[Observation, ...], prior: CategoricalDistribution, counts: dict
    ) -> tuple[CategoricalDistribution, str | None]:
        query = WorldModelQuery(observation_history=history, current_belief=prior)
        counts["providerCalls"] += 1
        try:
            response = self.provider.infer(query)
            validate_response(response, self.model.states)
        except ProviderError as exc:
            # keep the pushed prior; the executive takes over the policy
            return prior, str(exc)
        counts["beliefUpdates"] += 1
        return response.proposed_posterior, None

    def _predict(self, state_probs: np.ndarray, channel: str) -> Prediction:
        """What a belief with these state probabilities predicts of ``channel``."""
        prior = CategoricalDistribution(self.model.states, state_probs)
        predictive = self.model.a.predictive(channel, prior.probs)
        return Prediction(prior, channel, predictive, predictive.entropy())

    def _replan(self, posterior: CategoricalDistribution, send, counts: dict):
        """Pick the lowest-EFE candidate the executive does not veto.

        The model scores each distinct (config, belief) pair once: a
        repeat reads the EFE table and veto flags back from its memo.
        ``opCounts`` count the replan's defined work either way, one
        rollout and one EFE evaluation of every declared policy.
        """
        candidates = self.model.policies
        table, vetoes, rows = self.model.memoized(
            (self.config, posterior.probs.tobytes()), lambda: self._score(posterior)
        )
        counts["efeEvaluations"] += len(candidates)
        counts["rolloutSteps"] += rows
        totals = [row.total for row in table]
        allowed = [True] * len(candidates)
        chosen = None
        while (best := argmin(totals, allowed)) is not None:
            send("bottom-up", "policy-proposal", policy=candidates[best].label,
                 efeTotal=table[best].total)
            if not vetoes[best]:
                chosen = best
                break
            allowed[best] = False

        if chosen is None:
            # every candidate predicted a near-forbidden outcome; hand off
            policy = self.model.policy(self.config.fallback_policy)
            send("top-down", "policy-confirmation", policy=policy.label, fallback=True)
            selected = None
        else:
            policy = candidates[chosen]
            vetoed = [c.label for c, ok in zip(candidates, allowed) if not ok]
            send("top-down", "policy-confirmation", policy=policy.label, vetoed=vetoed)
            selected = policy.label
        marked = tuple(
            b if ok else replace(b, vetoed=True) for b, ok in zip(table, allowed)
        )
        return policy, selected, marked

    def _score(self, posterior: CategoricalDistribution):
        """Roll out every declared policy once and score the rollouts.

        Returns their EFE table, their read-only veto flags and the
        number of rollout rows.
        """
        plan = rollout(self.model, posterior, self.model.policies)
        vetoes = self._vetoes(plan)
        vetoes.flags.writeable = False
        return expected_free_energy(self.model, plan), vetoes, len(plan.states)

    def _vetoes(self, plan) -> np.ndarray:
        """Executive safety check: one flag per rolled-out candidate.

        A policy is rejected when any rollout step gives more than
        ``veto_probability`` to an outcome whose preference mass is at
        or below ``veto_outcome_mass`` (an effectively forbidden one).
        """
        forbidden = self.model.stacked.c <= self.config.veto_outcome_mass
        risky = ((plan.outcomes > self.config.veto_probability) & forbidden).any(axis=1)
        return np.logical_or.reduceat(risky, plan.starts)

    def planned_volume_ul(self, history) -> float:
        """Dose to reach the target pH, quantized to the pipette step.

        The dose reads the latest numeric probe reading in ``history``;
        without one the planner refuses to dose blind and returns zero
        volume.
        """
        for obs in reversed(history):
            if obs.channel != self.config.probe_channel:
                continue
            try:
                deficit = self.config.target_ph - float(obs.outcome)
            except ValueError:
                continue
            if deficit <= 0:
                return 0.0
            step = self.config.pipette_step_ul
            return round(deficit / self.config.effect_per_ul / step) * step
        return 0.0

    # -- post-episode refinement -----------------------------------------

    def level_errors(self, events) -> dict[str, float]:
        """Cumulative prediction error of each refined level over one episode."""
        events = tuple(events)
        return {
            "sensorimotor": sum(
                max(0.0, e.surprise - e.expected_surprise) for e in events
            ),
            "planner": sum(
                max(0.0, e.vfe.total - e.expected_surprise) for e in events
            ),
        }

    def propagate_refinement(
        self, events
    ) -> tuple[tuple[RefinementSummary, ...], GenerativeModel, AgentConfig]:
        """Recalibrate each level whose cumulative error reached theta.

        Returns the summaries and the refined (model, config) for the
        next episode. Nothing on the agent or its provider changes, so
        the same trace always gives the same answer.
        """
        events = tuple(events)
        model, config = self.model, self.config
        if not events:
            return (), model, config
        theta = config.refinement_threshold
        errors = self.level_errors(events)
        summaries: list[RefinementSummary] = []

        if errors["sensorimotor"] >= theta:
            recalibrated, model = recalibrate_sensor(
                model, events, config.indicator_reliability_lr
            )
            summaries.extend(recalibrated)

        if errors["planner"] >= theta:
            observed = titration_effect(events)
            if observed is None:
                note = "no post-titration probe reading; nominal effect retained"
            elif not observed > 0:
                note = f"measured effect {observed!r} is not a rise; nominal effect retained"
            else:
                config = replace(config, effect_per_ul=observed)
                note = "per-microliter effect replaced by the measured rise"
            summaries.append(
                RefinementSummary(
                    level="planner",
                    parameter="effect_per_ul",
                    old=self.config.effect_per_ul,
                    new=config.effect_per_ul,
                    note=note,
                )
            )
        return tuple(summaries), model, config


def recalibrate_sensor(
    model: GenerativeModel, events, lr: float
) -> tuple[tuple[RefinementSummary, ...], GenerativeModel]:
    """Sharpen the likelihood behind the episode's first prediction error.

    The first event that raised one flags channel X with outcome o
    under its dominant belief state s: A[X][s, o] moves toward
    certainty by ``lr`` and the rest of the row rescales. Returns the
    summaries (none without a flagged event) and the model to use next,
    a refined copy; ``model`` itself is left untouched.
    """
    flagged = next(
        (e for e in events if any(m.kind == "prediction-error" for m in e.messages)),
        None,
    )
    if flagged is None:
        return (), model
    channel = flagged.observation.channel
    j = model.channels[channel].index(flagged.observation.outcome)
    s = int(np.argmax(flagged.belief.probs))
    matrix = model.a.matrices[channel].copy()
    old = float(matrix[s, j])
    new = old + lr * (1.0 - old)
    rest = 1.0 - old
    scale = (1.0 - new) / rest if rest > 0 else 0.0
    matrix[s] = matrix[s] * scale
    matrix[s, j] = new
    a = model.a
    refined = replace(model, a=replace(a, matrices={**a.matrices, channel: matrix}))
    summary = RefinementSummary(
        level="sensorimotor",
        parameter=f"A[{channel}][{model.states[s]}][{flagged.observation.outcome}]",
        old=old,
        new=new,
        note="sensor reliability recalibrated after a surprise observation",
    )
    return (summary,), refined


def titration_effect(events) -> float | None:
    """Mean observed pH change per microliter across titrations.

    A titration contributes when its own step observed a numeric
    reading (the dose was computed from it) and some later step reads
    the same channel again; the pair brackets the dose.
    """
    events = tuple(events)
    effects = []
    for i, event in enumerate(events):
        if event.action_primitive != "titrate":
            continue
        volume = float(event.action_params.get("volume_ul", 0.0) or 0.0)
        if volume <= 0:
            continue
        try:
            pre = float(event.observation.outcome)
        except ValueError:
            continue
        post = None
        for later in events[i + 1:]:
            if later.observation.channel == event.observation.channel:
                try:
                    post = float(later.observation.outcome)
                except ValueError:
                    pass
                break
        if post is None:
            continue
        effects.append((post - pre) / volume)
    if not effects:
        return None
    return math.fsum(effects) / len(effects)


def run_episode(agent: Agent, env, max_steps: int = 20) -> tuple[EpisodeResult, FreeEnergyLedger]:
    """observe -> step -> apply until the env reports terminal.

    The steps fold one ``EpisodeState`` from ``EpisodeState()``.
    Exhausting ``max_steps`` truncates the episode (outcome
    "truncated"). Nothing is refined here; call
    ``agent.propagate_refinement(result.events)`` for the summaries and
    the refined (model, config).
    """
    if max_steps < 0:
        raise ShapeError(f"max_steps must be >= 0, got {max_steps}")
    state = EpisodeState()
    channel = env.spec.start_channel
    for _ in range(max_steps):
        if env.is_terminal:
            break
        state, executed, _ = agent.step(state, env.observe(channel))
        env.apply(executed)
        channel = agent.actions[executed.name].observes
    events = state.events
    ledger = build_ledger(events, baseline=float(agent.model.d.entropy()))
    result = EpisodeResult(
        outcome=env.terminal_outcome or "truncated",
        steps=len(events),
        final_state=env.state,
        events=events,
    )
    return result, ledger
