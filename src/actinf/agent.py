"""Hierarchical three-level controller and the episode loop.

Each step runs bottom-up then top-down:

  sensorimotor  encodes the observation, scores its surprise against
                the expected surprise of the prediction it was holding,
                and raises a prediction-error message when the excess
                clears a rolling baseline plus the threshold.
  planner       asks the world-model provider for a posterior, and on a
                prediction error (or with no live plan) re-scores the
                candidate policies by expected free energy.
  executive     vetoes any winning policy that makes a near-forbidden
                outcome too likely, confirms the survivor, and owns the
                cross-episode task statistics.

Between steps the belief travels forward through the transition model
under the executed action; the initial state prior is used only before
the first observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dists import CategoricalDistribution
from .errors import ModelValidationError, ProviderError, ShapeError
from .inference import compute_vfe, surprise
from .lab import ActionSpec, ExecutedAction, LabState, Observation
# unused here, but the benchmark's tracer wraps actinf.agent.validate_model by name
from .model import GenerativeModel, validate_model
from .planning import argmin, enumerate_policies, expected_free_energy, rollout
from .providers import (
    RefinementSummary,
    WorldModelProvider,
    WorldModelQuery,
    validate_response,
)
from .trace import OpCounter, TraceEvent, FreeEnergyLedger, build_ledger

BOTTOM_UP_KINDS = ("prediction-error", "policy-proposal")
TOP_DOWN_KINDS = ("prediction", "policy-confirmation")


@dataclass(frozen=True)
class AgentConfig:
    """Tunables of the control loop, scenario-declared."""

    planning_horizon: int = 2
    max_candidates: int = 16
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
    frequency_lr: float = 2.0 / 19.0
    acidification_frequency: float = 0.05

    def __post_init__(self):
        if self.planning_horizon < 1:
            raise ModelValidationError("planning_horizon must be >= 1")
        if self.vfe_baseline_window < 1:
            raise ModelValidationError("vfe_baseline_window must be >= 1")
        if self.max_candidates < 1:
            raise ModelValidationError("max_candidates must be >= 1")
        if self.refinement_threshold < 0:
            raise ModelValidationError("refinement_threshold must be >= 0")
        if not 0 < self.veto_probability <= 1:
            raise ModelValidationError("veto_probability must be in (0, 1]")
        if self.pipette_step_ul <= 0:
            raise ModelValidationError("pipette_step_ul must be positive")
        for name in ("indicator_reliability_lr", "frequency_lr"):
            if not 0 <= getattr(self, name) <= 1:
                raise ModelValidationError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class Message:
    """One unit of inter-level traffic within a step."""

    direction: str  # "bottom-up" | "top-down"
    kind: str
    payload: dict
    step: int

    def __post_init__(self):
        allowed = {"bottom-up": BOTTOM_UP_KINDS, "top-down": TOP_DOWN_KINDS}.get(
            self.direction
        )
        if allowed is None:
            raise ShapeError(f"unknown message direction {self.direction!r}")
        if self.kind not in allowed:
            raise ShapeError(f"{self.direction} messages cannot carry kind {self.kind!r}")


@dataclass(frozen=True)
class EpisodeResult:
    outcome: str
    steps: int
    final_state: LabState
    events: tuple[TraceEvent, ...]
    refinements: tuple[RefinementSummary, ...]


class Agent:
    """Runs the control loop against a validated generative model.

    The model must already have passed ``validate_model`` where it was
    built, in ``load_scenario`` or by the caller; the agent does not
    audit it again. Only ``actions`` is checked here, since only the
    agent sees it.
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
        # mutable task statistics, refined between episodes
        self.effect_per_ul = config.effect_per_ul
        self.acidification_frequency = config.acidification_frequency
        self.reset()

    def reset(self) -> None:
        """Start a fresh episode; learned parameters are kept."""
        self.counter = OpCounter()
        self._t = 0
        self._posterior: CategoricalDistribution | None = None
        self._last_action: str | None = None
        self._plan = None
        self._cursor = 0
        self._history: list[Observation] = []
        self._excess_history: list[float] = []
        self._readings: dict[str, float] = {}
        self._refined_key: tuple | None = None

    # -- per-step control loop -----------------------------------------

    def step(self, obs: Observation) -> tuple[ExecutedAction, TraceEvent]:
        """One full bottom-up/top-down pass; returns the next action."""
        step_i = self._t
        messages: list[Message] = []

        prior = self._prior()
        predictive = self.model.a.predictive(obs.channel, prior.probs)
        observed_surprise = surprise(obs.outcome, predictive)
        expected_surprise = predictive.entropy()
        excess = max(0.0, observed_surprise - expected_surprise)
        window = self._excess_history[-self.config.vfe_baseline_window:]
        baseline = sum(window) / len(window) if window else 0.0
        prediction_error = excess > baseline + self.config.refinement_threshold
        self._excess_history.append(excess)
        self._remember_reading(obs)
        if prediction_error:
            messages.append(
                Message(
                    direction="bottom-up",
                    kind="prediction-error",
                    payload={
                        "channel": obs.channel,
                        "outcome": obs.outcome,
                        "surprise": observed_surprise,
                        "expectedSurprise": expected_surprise,
                        "excess": excess,
                        "baseline": baseline,
                    },
                    step=step_i,
                )
            )

        self._history.append(obs)
        posterior, provider_error = self._update_belief(prior)
        vfe = compute_vfe(
            posterior,
            prior,
            self.model.a.likelihood_column(obs.channel, obs.outcome),
        )

        efe_table = ()
        selected = None
        if provider_error is not None:
            self._plan = self.model.policy(self.config.fallback_policy)
            self._cursor = 0
            messages.append(
                Message(
                    direction="bottom-up",
                    kind="policy-proposal",
                    payload={"policy": self._plan.label, "reason": "provider failure"},
                    step=step_i,
                )
            )
            messages.append(
                Message(
                    direction="top-down",
                    kind="policy-confirmation",
                    payload={"policy": self._plan.label, "fallback": True},
                    step=step_i,
                )
            )
        elif (
            prediction_error
            or self._plan is None
            or self._cursor >= len(self._plan.actions)
        ):
            selected, efe_table = self._replan(posterior, messages, step_i)

        action_label = self._plan.actions[self._cursor]
        self._cursor += 1
        spec = self.actions[action_label]
        overrides = {}
        if spec.params.get("volume_ul") == "auto":
            overrides["volume_ul"] = self.planned_volume_ul()
        executed = spec.bind(**overrides)

        next_probs = self.model.b.push(posterior.probs, action_label)
        next_predictive = self.model.a.predictive(spec.observes, next_probs)
        messages.append(
            Message(
                direction="top-down",
                kind="prediction",
                payload={
                    "channel": spec.observes,
                    "mode": next_predictive.mode(),
                    "entropy": float(next_predictive.entropy()),
                },
                step=step_i,
            )
        )

        self._posterior = posterior
        self._last_action = action_label
        self._t += 1

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
            op_counts=self.counter.snapshot(),
            provider_error=provider_error,
        )
        return executed, event

    def _prior(self) -> CategoricalDistribution:
        if self._posterior is None:
            return self.model.d
        pushed = self.model.b.push(self._posterior.probs, self._last_action)
        return CategoricalDistribution(self.model.states, pushed)

    def _update_belief(
        self, prior: CategoricalDistribution
    ) -> tuple[CategoricalDistribution, str | None]:
        query = WorldModelQuery(
            observation_history=tuple(self._history), current_belief=prior
        )
        self.counter.provider_calls += 1
        try:
            response = self.provider.infer(query)
            validate_response(response, self.model.states)
        except ProviderError as exc:
            # keep the pushed prior; the executive takes over the policy
            return prior, str(exc)
        self.counter.belief_updates += 1
        return response.proposed_posterior, None

    def _replan(self, posterior: CategoricalDistribution, messages: list, step_i: int):
        candidates = enumerate_policies(
            self.model, self.config.planning_horizon, self.config.max_candidates
        )
        plan = rollout(self.model, posterior, candidates)
        table = expected_free_energy(self.model, plan)
        vetoes = self._vetoes(plan)
        self.counter.efe_evaluations += len(candidates)
        self.counter.rollout_steps += len(plan.states)
        totals = [row.total for row in table]
        allowed = [True] * len(candidates)
        chosen = None
        while (best := argmin(totals, allowed)) is not None:
            messages.append(
                Message(
                    direction="bottom-up",
                    kind="policy-proposal",
                    payload={
                        "policy": candidates[best].label,
                        "efeTotal": table[best].total,
                    },
                    step=step_i,
                )
            )
            if not vetoes[best]:
                chosen = best
                break
            allowed[best] = False

        if chosen is None:
            # every candidate predicted a near-forbidden outcome; hand off
            self._plan = self.model.policy(self.config.fallback_policy)
            confirmation = {"policy": self._plan.label, "fallback": True}
            selected = None
        else:
            self._plan = candidates[chosen]
            confirmation = {
                "policy": self._plan.label,
                "vetoed": [c.label for c, ok in zip(candidates, allowed) if not ok],
            }
            selected = self._plan.label
        self._cursor = 0
        messages.append(
            Message(
                direction="top-down",
                kind="policy-confirmation",
                payload=confirmation,
                step=step_i,
            )
        )
        marked = tuple(
            b if ok else replace(b, vetoed=True) for b, ok in zip(table, allowed)
        )
        return selected, marked

    def _vetoes(self, plan) -> np.ndarray:
        """Executive safety check: one flag per rolled-out candidate.

        A policy is rejected when any rollout step gives more than
        ``veto_probability`` to an outcome whose preference mass is at
        or below ``veto_outcome_mass`` (an effectively forbidden one).
        """
        forbidden = self.model.stacked.c <= self.config.veto_outcome_mass
        risky = ((plan.outcomes > self.config.veto_probability) & forbidden).any(axis=1)
        return np.logical_or.reduceat(risky, plan.starts)

    def _remember_reading(self, obs: Observation) -> None:
        try:
            self._readings[obs.channel] = float(obs.outcome)
        except ValueError:
            pass

    def planned_volume_ul(self) -> float:
        """Dose to reach the target pH, quantized to the pipette step.

        Without a probe reading the planner refuses to dose blind and
        returns zero volume.
        """
        reading = self._readings.get(self.config.probe_channel)
        if reading is None:
            return 0.0
        deficit = self.config.target_ph - reading
        if deficit <= 0:
            return 0.0
        step = self.config.pipette_step_ul
        return round(deficit / self.effect_per_ul / step) * step

    # -- post-episode refinement -----------------------------------------

    def level_errors(self, events) -> dict[str, float]:
        """Cumulative prediction error per level over one episode."""
        events = tuple(events)
        return {
            "sensorimotor": sum(
                max(0.0, e.surprise - e.expected_surprise) for e in events
            ),
            "planner": sum(
                max(0.0, e.vfe.total - e.expected_surprise) for e in events
            ),
            "executive": sum(e.vfe.complexity for e in events),
        }

    def propagate_refinement(self, events) -> tuple[RefinementSummary, ...]:
        """Recalibrate each level whose cumulative error reached theta.

        Re-running with the identical trace is a no-op, so accidental
        double application cannot compound the updates.
        """
        events = tuple(events)
        if not events:
            return ()
        key = tuple((e.step, e.observation.channel, e.observation.outcome) for e in events)
        if key == self._refined_key:
            return ()
        self._refined_key = key
        theta = self.config.refinement_threshold
        errors = self.level_errors(events)
        summaries: list[RefinementSummary] = []

        if errors["sensorimotor"] >= theta:
            summaries.extend(self.provider.refine(events))

        if errors["planner"] >= theta:
            old = self.effect_per_ul
            observed = titration_effect(events)
            if observed is not None:
                self.effect_per_ul = observed
                note = "per-microliter effect replaced by the measured rise"
            else:
                note = "no post-titration probe reading; nominal effect retained"
            summaries.append(
                RefinementSummary(
                    level="planner",
                    parameter="effect_per_ul",
                    old=old,
                    new=self.effect_per_ul,
                    note=note,
                )
            )

        if errors["executive"] >= theta:
            old = self.acidification_frequency
            self.acidification_frequency = old + self.config.frequency_lr * (1.0 - old)
            summaries.append(
                RefinementSummary(
                    level="executive",
                    parameter="acidification_frequency",
                    old=old,
                    new=self.acidification_frequency,
                    note="task-start statistics shifted toward the observed condition",
                )
            )
        return tuple(summaries)


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

    Exhausting ``max_steps`` truncates the episode (outcome
    "truncated"); refinement runs once at the end on the full trace.
    """
    if max_steps < 0:
        raise ShapeError(f"max_steps must be >= 0, got {max_steps}")
    agent.reset()
    events: list[TraceEvent] = []
    channel = env.spec.start_channel
    for _ in range(max_steps):
        if env.is_terminal:
            break
        obs = env.observe(channel)
        executed, event = agent.step(obs)
        env.apply(executed)
        agent.counter.env_steps += 1
        events.append(replace(event, op_counts=agent.counter.snapshot()))
        channel = agent.actions[executed.name].observes
    outcome = env.terminal_outcome or "truncated"
    refinements = agent.propagate_refinement(events) if events else ()
    ledger = build_ledger(events, baseline=float(agent.model.d.entropy()))
    result = EpisodeResult(
        outcome=outcome,
        steps=len(events),
        final_state=env.state,
        events=tuple(events),
        refinements=refinements,
    )
    return result, ledger
