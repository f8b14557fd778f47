"""Control-loop behavior: stepping, vetoes, fallbacks, refinement."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest

from actinf.agent import (
    Agent,
    AgentConfig,
    EpisodeState,
    Message,
    recalibrate_sensor,
    run_episode,
    titration_effect,
)
from actinf.dists import CategoricalDistribution, normalize
from actinf.errors import ModelValidationError, ProviderError, ShapeError
from actinf.inference import VfeReport, bayes_update, compute_vfe
from actinf.lab import ActionSpec, EnvSpec, LabEnv, LabState, Observation
from actinf.model import (
    MEMO_SIZE,
    GenerativeModel,
    ObservationModel,
    Policy,
    PreferenceModel,
    TransitionModel,
    validate_model,
)
from actinf.planning import expected_free_energy, rollout
from actinf.providers import (
    ScriptedProvider,
    TabularProvider,
    WorldModelProvider,
    WorldModelResponse,
    parse_response,
)
from actinf.scenario import resolve_scenario
from actinf.trace import TraceEvent, emit_trace, event_json, read_trace

from .make_golden import SWEEP_DIGESTS, SWEEP_SEEDS, sweep_line
from .oracles import efe_by_enumeration, prior_predictive_by_sums, random_model


DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture()
def assay():
    return resolve_scenario("lab_assay")


def make_agent(scenario, provider=None, config=None):
    provider = provider or TabularProvider(scenario.model)
    return Agent(scenario.model, config or scenario.agent, provider, scenario.actions)


def assay_episode(scenario, seed=42, provider=None, config=None, max_steps=20):
    agent = make_agent(scenario, provider=provider, config=config)
    env = LabEnv(scenario.env, scenario.model.channels, seed=seed)
    result, ledger = run_episode(agent, env, max_steps=max_steps)
    return agent, result, ledger


# -- config and message discipline --------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ModelValidationError):
        AgentConfig(vfe_baseline_window=0)
    with pytest.raises(ModelValidationError):
        AgentConfig(veto_probability=0.0)
    with pytest.raises(ModelValidationError):
        AgentConfig(refinement_threshold=-0.5)
    with pytest.raises(ModelValidationError):
        AgentConfig(indicator_reliability_lr=1.5)
    with pytest.raises(ModelValidationError, match="effect_per_ul must be positive"):
        dataclasses.replace(AgentConfig(), effect_per_ul=-0.1)


def test_messages_enforce_direction_kind_discipline():
    Message(direction="bottom-up", kind="prediction-error", payload={}, step=0)
    Message(direction="top-down", kind="prediction", payload={}, step=0)
    with pytest.raises(ShapeError):
        Message(direction="bottom-up", kind="prediction", payload={}, step=0)
    with pytest.raises(ShapeError):
        Message(direction="top-down", kind="policy-proposal", payload={}, step=0)
    with pytest.raises(ShapeError):
        Message(direction="sideways", kind="prediction", payload={}, step=0)


def test_agent_requires_action_specs_for_every_model_action(assay):
    incomplete = {k: v for k, v in assay.actions.items() if k != "mix"}
    with pytest.raises(ModelValidationError, match="without execution specs"):
        Agent(assay.model, assay.agent, TabularProvider(assay.model), incomplete)


# -- the golden assay episode -------------------------------------------


def test_seed_42_episode_structure(assay):
    agent, result, ledger = assay_episode(assay)
    assert result.outcome == "assay_complete"
    assert result.steps == 3

    first, second, third = result.events
    # step 0: startled by yellow, plans measure-then-titrate
    assert first.observation.outcome == "yellow"
    assert first.selected_policy == "measure_then_titrate"
    assert first.action == "measure_pH"
    assert any(m.kind == "prediction-error" for m in first.messages)
    assert first.belief.prob("ph_acidic") == pytest.approx(0.9437086, abs=1e-6)

    # step 1: plan continues without replanning, dose computed from 6.2
    assert second.observation.outcome == "6.2"
    assert second.selected_policy is None
    assert second.efe_table == ()
    assert second.action == "titrate_NaOH_careful"
    assert second.action_params["volume_ul"] == 6.0
    assert not any(m.kind == "prediction-error" for m in second.messages)

    # step 2: plan exhausted, replans, then the env reports completion
    assert third.observation.outcome == "green"
    assert third.selected_policy == "measure_then_titrate"
    assert third.efe_table

    state = result.final_state
    assert state.spill is False
    assert 7.28 <= state.ph <= 7.48
    assert state.reagent_used_ul == 6.0

    assert [row.stage for row in ledger.rows] == [
        "initial",
        "surprise observation",
        "post-measurement",
        "post-correction",
    ]
    assert ledger.totals == result.events[-1].op_counts


def test_efe_table_is_strictly_ordered_on_the_assay(assay):
    _, result, _ = assay_episode(assay)
    for event in result.events:
        if not event.efe_table:
            continue
        totals = {row.policy: row.total for row in event.efe_table}
        assert (
            totals["measure_then_titrate"]
            < totals["ask_human"]
            < totals["add_base_immediately"]
            < totals["discard_restart"]
        )


def test_message_ordering_within_each_step(assay):
    _, result, _ = assay_episode(assay)
    for event in result.events:
        kinds = [m.kind for m in event.messages]
        # the closing message is always the action's sensory prediction
        assert kinds[-1] == "prediction"
        if "policy-confirmation" in kinds:
            assert "policy-proposal" in kinds
            assert kinds.index("policy-proposal") < kinds.index("policy-confirmation")
        if "prediction-error" in kinds:
            assert kinds.index("prediction-error") == 0
        for message in event.messages:
            assert message.step == event.step


def test_op_counts_accumulate_monotonically(assay):
    _, result, _ = assay_episode(assay)
    last = {}
    for event in result.events:
        for key, value in event.op_counts.items():
            assert value >= last.get(key, 0)
        last = event.op_counts
    assert last["envSteps"] == result.steps
    assert last["providerCalls"] == result.steps


def test_refinement_is_pure_and_repeatable(assay):
    agent, result, _ = assay_episode(assay)
    refined = {(r.level, r.parameter): r for r in agent.propagate_refinement(result.events)[0]}
    assert set(level for level, _ in refined) == {"sensorimotor", "planner"}

    sensor = refined[("sensorimotor", "A[indicatorColor][ph_acidic][yellow]")]
    assert sensor.old == pytest.approx(0.95)
    assert sensor.new == pytest.approx(0.98)

    planner = refined[("planner", "effect_per_ul")]
    assert planner.old == planner.new == 0.2
    assert "retained" in planner.note

    # the refined (model, config) come back to the caller ...
    summaries, model, config = agent.propagate_refinement(result.events)
    assert summaries == tuple(refined.values())
    assert model.a.matrices["indicatorColor"][1, 0] == pytest.approx(0.98)
    assert config == assay.agent
    # ... and nothing the agent or its provider holds has moved
    assert agent.model is assay.model and agent.provider.model is assay.model
    assert agent.config is assay.agent
    assert assay.model.a.matrices["indicatorColor"][1, 0] == 0.95

    # the same trace again: the same answer, not a second step
    again, model_again, config_again = agent.propagate_refinement(result.events)
    assert again == summaries
    assert config_again == config
    for channel, matrix in model.a.matrices.items():
        assert np.array_equal(model_again.a.matrices[channel], matrix)


def test_level_errors_cover_the_two_refined_levels(assay):
    agent, result, _ = assay_episode(assay)
    errors = agent.level_errors(result.events)
    assert set(errors) == {"sensorimotor", "planner"}
    assert all(v >= assay.agent.refinement_threshold for v in errors.values())


def test_second_episode_reuses_learned_parameters(assay):
    agent, first, _ = assay_episode(assay)
    posterior_before = first.events[0].belief.prob("ph_acidic")

    # learning is carried by building the next agent and provider from
    # the refined model, so the two score with one A
    _, model, config = agent.propagate_refinement(first.events)
    carried = assay._replace(model=model, agent=config)
    agent, second, _ = assay_episode(carried, seed=7)
    assert second.outcome == "assay_complete"
    # recalibrated indicator: yellow is now stronger acid evidence
    posterior_after = second.events[0].belief.prob("ph_acidic")
    assert posterior_after > posterior_before
    assert abs(second.events[0].vfe.total - second.events[0].surprise) <= 1e-12
    # the second refinement starts where the first one ended
    sensor = agent.propagate_refinement(second.events)[0][0]
    assert sensor.old == pytest.approx(0.98)
    assert sensor.new == pytest.approx(0.98 + 0.6 * 0.02)


AGENT_ATTRIBUTES = {"model", "config", "provider", "actions"}


def test_agent_holds_only_what_it_was_built_with(assay):
    first, result, _ = assay_episode(assay)
    _, model, config = first.propagate_refinement(result.events)
    config = dataclasses.replace(config, effect_per_ul=0.25)
    carried = assay._replace(model=model, agent=config)
    assert set(vars(make_agent(carried))) == AGENT_ATTRIBUTES

    agent, _, _ = assay_episode(carried)
    # an episode writes nothing on the agent ...
    assert set(vars(agent)) == AGENT_ATTRIBUTES
    assert not hasattr(agent, "reset")
    # ... and the learned model and config it was given stay as they were
    assert agent.model is model and agent.config is config
    # 0.5 pH at 0.25 pH/uL
    assert agent.planned_volume_ul([Observation("phProbe", "6.9", 0)]) == 2.0


def test_a_step_leaves_its_state_as_it_was(assay):
    agent = make_agent(assay)
    env = LabEnv(assay.env, assay.model.channels, seed=42)
    state, executed, _ = agent.step(EpisodeState(), env.observe(env.spec.start_channel))
    env.apply(executed)
    obs = env.observe(agent.actions[executed.name].observes)
    given = [event_json(e) for e in state.events]
    counts = state.events[0].op_counts
    held = dict(counts)

    (one, action_one, event_one), (two, action_two, event_two) = (
        agent.step(state, obs) for _ in range(2)
    )
    assert action_one == action_two
    assert event_json(event_one) == event_json(event_two)
    assert [event_json(e) for e in one.events] == [event_json(e) for e in two.events]
    assert (one.plan, one.cursor) == (two.plan, two.cursor)
    assert one.prediction.entropy == two.prediction.entropy
    assert np.array_equal(one.prediction.prior.probs, two.prediction.prior.probs)
    # the given state, down to its events' op-count dicts, is as it was
    assert [event_json(e) for e in state.events] == given
    assert state.events[0].op_counts is counts and counts == held
    assert event_one.op_counts is not counts and event_one.op_counts["envSteps"] == 2


def test_interleaved_episodes_on_one_agent_trace_as_alone(assay):
    agent = make_agent(assay)
    seeds = (42, 7)
    envs = [LabEnv(assay.env, assay.model.channels, seed=seed) for seed in seeds]
    states = [EpisodeState() for _ in seeds]
    channels = [env.spec.start_channel for env in envs]
    while not all(env.is_terminal for env in envs):
        for i, env in enumerate(envs):
            if env.is_terminal:
                continue
            states[i], executed, _ = agent.step(states[i], env.observe(channels[i]))
            env.apply(executed)
            channels[i] = agent.actions[executed.name].observes
    assert all(len(state.events) >= 2 for state in states)
    for seed, state in zip(seeds, states):
        alone, _ = run_episode(agent, LabEnv(assay.env, assay.model.channels, seed=seed))
        assert emit_trace(state.events, scenario="lab_assay", seed=seed, provider="tabular") == (
            emit_trace(alone.events, scenario="lab_assay", seed=seed, provider="tabular")
        )


def test_max_steps_one_truncates(assay):
    _, result, _ = assay_episode(assay, max_steps=1)
    assert result.outcome == "truncated"
    assert result.steps == 1


def test_run_episode_rejects_negative_max_steps(assay):
    agent = make_agent(assay)
    env = LabEnv(assay.env, assay.model.channels, seed=1)
    with pytest.raises(ShapeError):
        run_episode(agent, env, max_steps=-1)


# -- titration arithmetic -----------------------------------------------


def test_planned_volume_from_a_measured_acidic_reading(assay):
    agent = make_agent(assay)
    state, _, _ = agent.step(EpisodeState(), Observation("phProbe", "6.2", 0))
    assert agent.planned_volume_ul(state.history) == 6.0


def probe(*outcomes):
    return [Observation("phProbe", outcome, t) for t, outcome in enumerate(outcomes)]


def test_planned_volume_edge_cases(assay):
    agent = make_agent(assay)
    assert agent.planned_volume_ul(()) == 0.0  # refuses to dose blind
    assert agent.planned_volume_ul(probe("7.5")) == 0.0  # already past target
    six = round((7.4 - 6.25) / 0.2 / 0.5) * 0.5
    assert agent.planned_volume_ul(probe("7.5", "6.25")) == six == 6.0
    assert agent.planned_volume_ul(probe("6.25", "7.39")) == 0.0  # deficit rounds below one step
    # the latest numeric probe reading counts; other channels and text do not
    history = [*probe("6.2"), Observation("indicatorColor", "7.39", 1),
               Observation("phProbe", "n/a", 2)]
    assert agent.planned_volume_ul(history) == 6.0


def event_for_effect(step, channel, outcome, primitive="measure", params=None):
    return TraceEvent(
        step=step,
        observation=Observation(channel, outcome, step),
        surprise=0.0,
        expected_surprise=0.0,
        belief=normalize([1.0], ("s",)),
        vfe=VfeReport(0.0, 0.0, 0.0),
        action="a",
        action_primitive=primitive,
        action_params=params or {},
    )


def test_titration_effect_from_a_bracketing_probe_pair():
    events = [
        event_for_effect(0, "phProbe", "6.2", "titrate", {"volume_ul": 6.0}),
        event_for_effect(1, "phProbe", "7.38"),
    ]
    assert titration_effect(events) == pytest.approx((7.38 - 6.2) / 6.0)
    assert titration_effect(events) == pytest.approx(0.197, abs=5e-4)


def test_titration_effect_needs_numeric_bracketing_readings():
    assert titration_effect([]) is None
    # no post-titration reading on the same channel
    assert titration_effect(
        [event_for_effect(0, "phProbe", "6.2", "titrate", {"volume_ul": 6.0})]
    ) is None
    # zero-volume titrations carry no dose information
    assert titration_effect(
        [
            event_for_effect(0, "phProbe", "6.2", "titrate", {"volume_ul": 0.0}),
            event_for_effect(1, "phProbe", "6.2"),
        ]
    ) is None
    # a titration observed on a textual channel cannot be bracketed
    assert titration_effect(
        [
            event_for_effect(0, "indicator", "yellow", "titrate", {"volume_ul": 6.0}),
            event_for_effect(1, "indicator", "green"),
        ]
    ) is None


def test_titration_effect_averages_multiple_doses():
    events = [
        event_for_effect(0, "phProbe", "6.0", "titrate", {"volume_ul": 5.0}),
        event_for_effect(1, "phProbe", "7.0", "titrate", {"volume_ul": 2.0}),
        event_for_effect(2, "phProbe", "7.4"),
    ]
    assert titration_effect(events) == pytest.approx((0.2 + 0.2) / 2)


# -- learning across episodes -------------------------------------------


def flagged_event(step=0, outcome="yellow"):
    belief = normalize([0.05, 0.95, 0.0, 0.0], ("ph_ok", "ph_acidic", "spill", "restarted"))
    message = Message(
        direction="bottom-up",
        kind="prediction-error",
        payload={"channel": "indicatorColor", "outcome": outcome},
        step=step,
    )
    return TraceEvent(
        step=step,
        observation=Observation("indicatorColor", outcome, step),
        surprise=1.9,
        expected_surprise=0.5,
        belief=belief,
        vfe=VfeReport(complexity=1.6, accuracy=-0.3, total=1.9),
        messages=(message,),
        action="measure_pH",
        action_primitive="measure",
    )


def test_sensor_recalibration_sharpens_the_flagged_row(assay):
    agent = make_agent(assay)
    before = assay.model.a.matrices["indicatorColor"].copy()
    summaries, model, _ = agent.propagate_refinement([flagged_event()])
    sensor = [r for r in summaries if r.level == "sensorimotor"]
    assert len(sensor) == 1
    summary = sensor[0]
    assert summary.parameter == "A[indicatorColor][ph_acidic][yellow]"
    assert summary.old == pytest.approx(0.95)
    assert summary.new == pytest.approx(0.98)
    after = model.a.matrices["indicatorColor"]
    assert after[1, 0] == pytest.approx(0.98)
    assert after[1].sum() == pytest.approx(1.0)
    # untouched rows and channels stay identical
    assert np.array_equal(after[0], before[0])
    assert np.array_equal(after[2], before[2])
    for channel in ("phProbe", "fluorescence", "tempProbe", "spillDetector"):
        assert np.array_equal(model.a.matrices[channel], assay.model.a.matrices[channel])
    # the model the agent and provider were built with is left as it was
    assert np.array_equal(assay.model.a.matrices["indicatorColor"], before)
    assert agent.model is assay.model and agent.provider.model is assay.model
    assert validate_model(model).ok


def test_sensor_recalibration_reads_the_config_rate_and_chains(assay):
    summaries, model = recalibrate_sensor(assay.model, [flagged_event()], 0.5)
    assert summaries[0].new == pytest.approx(0.975)
    # a model carried forward refines from where the last step ended
    (summary,), _ = recalibrate_sensor(model, [flagged_event(step=1)], 0.6)
    assert summary.old == pytest.approx(0.975)
    assert summary.new == pytest.approx(0.975 + 0.6 * 0.025)


def test_no_sensor_recalibration_without_a_prediction_error(assay):
    calm = TraceEvent(
        step=0,
        observation=Observation("indicatorColor", "green", 0),
        surprise=0.1,
        expected_surprise=0.5,
        belief=normalize([0.9, 0.1, 0.0, 0.0], assay.model.states),
        vfe=VfeReport(complexity=0.05, accuracy=-0.05, total=0.1),
    )
    assert recalibrate_sensor(assay.model, [calm], 0.6) == ((), assay.model)
    config = dataclasses.replace(assay.agent, refinement_threshold=0.0)
    agent = make_agent(assay, config=config)
    summaries, model, _ = agent.propagate_refinement([calm])
    assert [r.level for r in summaries] == ["planner"]
    assert model is assay.model


def test_planner_refinement_returns_the_measured_effect(assay):
    events = [
        event_for_effect(0, "phProbe", "6.2", "titrate", {"volume_ul": 6.0}),
        event_for_effect(1, "phProbe", "7.38"),
    ]
    events = [dataclasses.replace(e, vfe=VfeReport(1.0, 0.0, 1.0)) for e in events]
    agent = make_agent(assay)
    summaries, _, config = agent.propagate_refinement(events)
    (planner,) = summaries
    assert planner.old == 0.2
    assert planner.new == config.effect_per_ul == pytest.approx((7.38 - 6.2) / 6.0)
    assert "measured rise" in planner.note
    assert agent.config is assay.agent
    # the next agent doses with the measured effect
    nxt = make_agent(assay, config=config)
    state, _, _ = nxt.step(EpisodeState(), Observation("phProbe", "6.2", 0))
    volume = nxt.planned_volume_ul(state.history)
    assert volume == round(1.2 / config.effect_per_ul / 0.5) * 0.5 == 6.0


@pytest.mark.parametrize("post", ["6.0", "6.2"])
def test_planner_refinement_keeps_the_nominal_effect_without_a_rise(assay, post):
    # a falling or flat reading measures no positive effect_per_ul
    events = [
        event_for_effect(0, "phProbe", "6.2", "titrate", {"volume_ul": 6.0}),
        event_for_effect(1, "phProbe", post),
    ]
    events = [dataclasses.replace(e, vfe=VfeReport(1.0, 0.0, 1.0)) for e in events]
    assert titration_effect(events) <= 0
    summaries, _, config = make_agent(assay).propagate_refinement(events)
    (planner,) = summaries
    assert planner.old == planner.new == 0.2
    assert config is assay.agent
    assert "is not a rise; nominal effect retained" in planner.note


def test_carried_learning_keeps_vfe_equal_to_surprise(assay):
    """Agent and provider built from one carried model agree at every step."""
    model, config = assay.model, assay.agent
    for seed in range(1, 101):
        provider = TabularProvider(model)
        agent = Agent(model, config, provider, assay.actions)
        env = LabEnv(assay.env, model.channels, seed=seed)
        result, _ = run_episode(agent, env)
        for event in result.events:
            assert abs(event.vfe.total - event.surprise) <= 1e-12, (seed, event.step)
        _, model, config = agent.propagate_refinement(result.events)
        assert validate_model(model).ok, seed
    # the carried indicator row did sharpen, and the scenario's did not
    assert model.a.matrices["indicatorColor"][1, 0] > 0.98
    assert assay.model.a.matrices["indicatorColor"][1, 0] == 0.95


def test_one_agent_twice_on_one_seed_writes_identical_traces(assay):
    agent = make_agent(assay)
    traces = []
    for _ in range(2):
        result, _ = run_episode(agent, LabEnv(assay.env, assay.model.channels, seed=42))
        traces.append(emit_trace(result.events, scenario="lab_assay", seed=42, provider="tabular"))
    assert traces[0] == traces[1]


# -- provider failure falls back to assistance ---------------------------


class FailingProvider(WorldModelProvider):
    name = "failing"

    def infer(self, query):
        raise ProviderError("llm offline")


class WrongLabelsProvider(WorldModelProvider):
    name = "wrong-labels"

    def infer(self, query):
        return WorldModelResponse(normalize([1.0], ("elsewhere",)))


class NanPosteriorProvider(WorldModelProvider):
    name = "nan-posterior"

    def infer(self, query):
        labels = list(query.current_belief.labels)
        return parse_response({"posterior": {"labels": labels, "probs": [math.nan, 1.0, 0.0, 0.0]}})


@pytest.mark.parametrize("provider_cls", [FailingProvider, WrongLabelsProvider, NanPosteriorProvider])
def test_provider_failure_triggers_the_assistance_fallback(assay, provider_cls):
    agent, result, _ = assay_episode(assay, provider=provider_cls())
    assert result.outcome == "handed_off"
    assert result.steps == 1
    event = result.events[0]
    assert event.provider_error is not None
    assert event.selected_policy is None
    assert event.efe_table == ()
    assert event.action == "ask_human"
    assert event.action_primitive == "ask_human"
    # the pushed prior is kept when the posterior proposal is unusable
    assert np.array_equal(event.belief.probs, assay.model.d.probs)
    kinds = [m.kind for m in event.messages]
    assert "policy-proposal" in kinds and "policy-confirmation" in kinds
    confirmation = next(m for m in event.messages if m.kind == "policy-confirmation")
    assert confirmation.payload == {"policy": "ask_human", "fallback": True}
    assert event.op_counts["providerCalls"] == 1
    assert event.op_counts["beliefUpdates"] == 0


# -- executive veto on a crafted hazard model ----------------------------


def hazard_scenario():
    """Two policies; the information-seeking one risks a hot outcome.

    Preferences are uniform, so policy rank is decided by information
    gain alone and the risky probe wins. Only the executive veto layer
    knows its predicted hot reading is effectively forbidden.
    """
    states = ("calm", "hazard")
    outcomes = tuple(f"m{i}" for i in range(10))
    channels = {"meter": outcomes}
    matrices = {
        "meter": np.stack([np.full(10, 0.1), np.array([0.05] * 9 + [0.55])])
    }
    tensor = np.array(
        [
            [[0.2, 0.8], [0.1, 0.9]],  # poke: drives the bench into hazard
            [[1.0, 0.0], [0.0, 1.0]],  # wait
        ]
    )
    model = GenerativeModel(
        states=states,
        actions=("poke", "wait"),
        channels=channels,
        a=ObservationModel(states=states, channels=channels, matrices=matrices),
        b=TransitionModel(states=states, actions=("poke", "wait"), tensor=tensor),
        c=PreferenceModel.compile(channels, ()),
        d=normalize([0.9, 0.1], states),
        policies=(Policy("poke_once", ("poke",)), Policy("hold", ("wait",))),
    )
    actions = {
        "poke": ActionSpec("poke", "mix", "meter"),
        "wait": ActionSpec("wait", "wait", "meter"),
    }
    config = AgentConfig(
        fallback_policy="hold",
        veto_outcome_mass=0.12,   # uniform preference mass is 0.1
        veto_probability=0.35,
        probe_channel="meter",
    )
    return model, actions, config


def test_veto_rejects_the_efe_winner():
    model, actions, config = hazard_scenario()
    agent = Agent(model, config, TabularProvider(model), actions)
    _, _, event = agent.step(EpisodeState(), Observation("meter", "m0", 0))

    totals = {row.policy: row.total for row in event.efe_table}
    assert totals["poke_once"] < totals["hold"]  # the veto had to matter
    flags = {row.policy: row.vetoed for row in event.efe_table}
    assert flags == {"poke_once": True, "hold": False}
    assert event.selected_policy == "hold"
    assert event.action == "wait"

    proposals = [m for m in event.messages if m.kind == "policy-proposal"]
    assert [m.payload["policy"] for m in proposals] == ["poke_once", "hold"]
    confirmation = next(m for m in event.messages if m.kind == "policy-confirmation")
    assert confirmation.payload == {"policy": "hold", "vetoed": ["poke_once"]}


def test_all_candidates_vetoed_falls_back_without_selection():
    model, actions, config = hazard_scenario()
    config = dataclasses.replace(config, veto_probability=0.1)
    agent = Agent(model, config, TabularProvider(model), actions)
    _, _, event = agent.step(EpisodeState(), Observation("meter", "m0", 0))

    assert event.selected_policy is None
    assert all(row.vetoed for row in event.efe_table)
    assert event.action == "wait"  # the fallback plan still executes
    confirmation = next(m for m in event.messages if m.kind == "policy-confirmation")
    assert confirmation.payload == {"policy": "hold", "fallback": True}


def assert_one_rollout_per_candidate(events, model):
    candidates = model.policies
    last = {"efeEvaluations": 0, "rolloutSteps": 0}
    for event in events:
        if event.efe_table:
            counts = event.op_counts
            assert counts["efeEvaluations"] - last["efeEvaluations"] == len(candidates)
            assert counts["rolloutSteps"] - last["rolloutSteps"] == sum(
                p.horizon for p in candidates
            )
        last = event.op_counts


def test_each_replan_rolls_out_each_candidate_once(assay):
    _, result, _ = assay_episode(assay)
    assert_one_rollout_per_candidate(result.events, assay.model)

    # the veto reads the candidates' rollouts instead of rolling out again
    model, actions, config = hazard_scenario()
    agent = Agent(model, config, TabularProvider(model), actions)
    _, _, event = agent.step(EpisodeState(), Observation("meter", "m0", 0))
    assert any(row.vetoed for row in event.efe_table)
    assert_one_rollout_per_candidate([event], model)


def per_policy_veto(model, belief, policy, config):
    """The executive's check on one policy, one step and channel at a time."""
    probs = belief.probs
    for action in policy.actions:
        probs = probs @ model.b.matrix(action)
        for channel, a in model.a.matrices.items():
            w = probs @ a
            predicted = w / w.sum()
            c_mass = model.c.channel_priors[channel].probs
            if ((c_mass <= config.veto_outcome_mass) & (predicted > config.veto_probability)).any():
                return True
    return False


def test_mixed_horizon_table_and_vetoes_match_per_policy_checks():
    rng = np.random.default_rng(3)
    config = AgentConfig(veto_outcome_mass=0.3, veto_probability=0.4)
    flags = set()
    for _ in range(100):
        model, belief = random_model(rng)
        actions = {a: ActionSpec(a, "wait", next(iter(model.channels))) for a in model.actions}
        agent = Agent(model, config, TabularProvider(model), actions)
        candidates = tuple(
            Policy(f"p{i}", tuple(str(a) for a in rng.choice(model.actions, size=h)))
            for i, h in enumerate(rng.permutation([1, 2, 3]))
        )
        plan = rollout(model, belief, candidates)
        table = expected_free_energy(model, plan)
        vetoes = agent._vetoes(plan)
        assert len(table) == len(vetoes) == len(candidates)
        for policy, row, vetoed in zip(candidates, table, vetoes):
            epistemic, pragmatic, total = efe_by_enumeration(model, belief, policy)
            assert row.policy == policy.label
            assert row.epistemic == pytest.approx(epistemic, abs=1e-9)
            assert row.pragmatic == pytest.approx(pragmatic, abs=1e-9)
            assert row.total == pytest.approx(total, abs=1e-9)
            assert bool(vetoed) == per_policy_veto(model, belief, policy, config)
            flags.add(bool(vetoed))
    assert flags == {True, False}


def test_replanning_only_on_error_bootstrap_or_exhaustion():
    model, actions, config = hazard_scenario()
    agent = Agent(model, config, TabularProvider(model), actions)
    state, _, first = agent.step(EpisodeState(), Observation("meter", "m0", 0))
    assert first.selected_policy is not None  # bootstrap replans
    # horizon-1 plan is exhausted immediately, so the next step replans too
    _, _, second = agent.step(state, Observation("meter", "m1", 1))
    assert second.selected_policy is not None
    assert second.efe_table


# -- one score per distinct (config, belief) per model -------------------


def sweep_traces(scenario, seeds):
    """Each seed's trace, every episode run on the one given scenario."""
    traces = {}
    for seed in seeds:
        _, result, _ = assay_episode(scenario, seed=seed)
        traces[seed] = emit_trace(result.events, scenario=scenario.name, seed=seed,
                                  provider="tabular")
    return traces


def test_a_sweep_rolls_out_each_distinct_belief_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return rollout(*args)

    monkeypatch.setattr("actinf.agent.rollout", counting)
    shared = resolve_scenario("lab_assay")
    traces = sweep_traces(shared, range(1, 101))
    # step 0 reads yellow under D; step 2's belief follows the probe
    # reading, which snaps to 6.1, 6.2 or 6.3
    memo = shared.model.memo
    replans = [key for key in memo if isinstance(key[0], AgentConfig)]
    assert len(calls) == len(replans) == 4
    # each value is the EFE table, the read-only veto flags and the row count
    assert all(len(memo[key]) == 3 for key in replans)
    assert not any(memo[key][1].flags.writeable for key in replans)
    for seed, trace in traces.items():
        assert trace == sweep_traces(resolve_scenario("lab_assay"), [seed])[seed], seed


def test_a_sweep_matches_the_committed_digests():
    lines = SWEEP_DIGESTS.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == len(SWEEP_SEEDS)
    # seeds in order on one scenario and one provider, as `actinf sweep`
    # runs them, and each on a fresh load: the bytes make_golden.py wrote
    shared = resolve_scenario("lab_assay")
    provider = TabularProvider(shared.model)
    for seed, line in zip(SWEEP_SEEDS, lines):
        assert sweep_line(shared, provider, seed) == line, seed
        fresh = resolve_scenario("lab_assay")
        assert sweep_line(fresh, TabularProvider(fresh.model), seed) == line, seed


def test_sweep_order_does_not_change_a_trace():
    shared = resolve_scenario("lab_assay")
    forward = sweep_traces(shared, range(1, 21))
    # again on the warm model, and on a fresh one that meets the seeds reversed
    assert sweep_traces(shared, range(20, 0, -1)) == forward
    assert sweep_traces(resolve_scenario("lab_assay"), range(20, 0, -1)) == forward


def test_agents_sharing_a_model_get_their_own_config_scores():
    model, actions, config = hazard_scenario()
    # mixed horizons, a repeated action and the fallback last
    declared = (Policy("poke_twice", ("poke", "poke")), Policy("poke_once", ("poke",)),
                Policy("hold", ("wait",)))
    shared = dataclasses.replace(model, policies=declared)
    variants = [
        config,
        dataclasses.replace(config, veto_probability=0.5),
        dataclasses.replace(config, veto_outcome_mass=0.05),
        dataclasses.replace(config, veto_probability=0.1),
    ]
    obs = Observation("meter", "m0", 0)
    flags, actions_taken = set(), set()
    for variant in variants:
        got = Agent(shared, variant, TabularProvider(shared), actions).step(EpisodeState(), obs)[2]
        assert [row.policy for row in got.efe_table] == [p.label for p in declared]
        fresh = dataclasses.replace(model, policies=declared)
        want = Agent(fresh, variant, TabularProvider(fresh), actions).step(EpisodeState(), obs)[2]
        assert [(row, row.vetoed) for row in got.efe_table] == [
            (row, row.vetoed) for row in want.efe_table
        ]
        assert got.messages == want.messages
        flags.add(tuple(row.vetoed for row in got.efe_table))
        actions_taken.add(got.action)
    # one predictive, one posterior and one free energy for the shared
    # first observation, one score per config, one pushed prediction per
    # action taken
    assert len(shared.memo) == 3 + len(variants) + len(actions_taken)
    assert actions_taken == {"poke", "wait"}
    assert len(flags) == 3  # the variants score differently


class DriftingProvider(WorldModelProvider):
    """A posterior that moves with every observation, so no belief repeats."""

    name = "drifting"

    def infer(self, query):
        k = len(query.observation_history)
        return WorldModelResponse(normalize([1.0, float(k)], query.current_belief.labels))


def test_the_memo_never_outgrows_its_bound():
    model, actions, config = hazard_scenario()
    agent = Agent(model, config, DriftingProvider(), actions)
    state, keys = EpisodeState(), [("predict", model.d.probs.tobytes(), "meter")]
    for t in range(MEMO_SIZE):
        prior = (state.prediction.prior if state.prediction else model.d).probs.tobytes()
        # horizon-1 plans: every step replans, from a belief never seen before
        state, _, event = agent.step(state, Observation("meter", "m0", t))
        assert event.efe_table
        belief = event.belief.probs.tobytes()
        keys += [("vfe", belief, prior, "meter", "m0"), (config, belief),
                 ("push", belief, event.action, "meter")]
        # the first step also predicts from D; each step adds its free
        # energy, its scores and its pushed prediction
        assert len(model.memo) == min(1 + 3 * (t + 1), MEMO_SIZE)
    # the oldest went first
    assert list(model.memo) == keys[-MEMO_SIZE:]


class CountingProvider(WorldModelProvider):
    """Passes every query on to ``inner`` and counts them."""

    def __init__(self, inner):
        self.inner, self.calls, self.name = inner, 0, inner.name

    def infer(self, query):
        self.calls += 1
        return self.inner.infer(query)


def test_other_providers_are_asked_on_every_step_of_a_warm_model(assay):
    # the golden script on the seed-42 episode, run once to warm the memo
    script = ScriptedProvider.from_file(str(DATA / "golden_script_seed42.jsonl"))
    assay_episode(assay, provider=script)
    warm = list(assay.model.memo)
    counting = CountingProvider(script)
    _, result, _ = assay_episode(assay, provider=counting)
    assert list(assay.model.memo) == warm  # the memo held every key already
    assert counting.calls == result.steps == result.events[-1].op_counts["providerCalls"] == 3

    model, actions, config = hazard_scenario()

    def steps(provider):
        agent, state = Agent(model, config, provider, actions), EpisodeState()
        for t in range(6):
            state, _, _ = agent.step(state, Observation("meter", "m0", t))
        return state.events

    steps(DriftingProvider())
    warm = list(model.memo)
    counting = CountingProvider(DriftingProvider())
    events = steps(counting)
    assert list(model.memo) == warm
    assert counting.calls == len(events) == events[-1].op_counts["providerCalls"] == 6


class FixedProvider(WorldModelProvider):
    """The same posterior whatever the query."""

    name = "fixed"

    def infer(self, query):
        return WorldModelResponse(normalize([0.5, 0.5], query.current_belief.labels))


def test_the_free_energy_is_scored_against_each_steps_own_prior():
    model, actions, config = hazard_scenario()
    agent = Agent(model, config, FixedProvider(), actions)
    obs = Observation("meter", "m9", 0)
    column = model.a.likelihood_column("meter", "m9")
    # one posterior and one outcome, held against two priors, then the first again
    for probs in ([0.9, 0.1], [0.2, 0.8], [0.9, 0.1]):
        prior = CategoricalDistribution(model.states, probs)
        held = agent._predict(prior.probs, "meter")
        event = agent.step(EpisodeState(prediction=held), obs)[2]
        assert event.vfe == compute_vfe(event.belief, prior, column)
    assert sum(key[0] == "vfe" for key in model.memo) == 2


def test_a_refined_model_starts_with_an_empty_memo(assay):
    agent, result, _ = assay_episode(assay)
    assert assay.model.memo
    _, model, _ = agent.propagate_refinement(result.events)
    assert model is not assay.model
    assert model.memo == {}


def test_memoized_values_are_read_only_and_what_their_keys_compute(assay):
    sweep_traces(assay, range(1, 21))
    model = assay.model
    kinds = set()
    for key, value in model.memo.items():
        kinds.add(key[0] if isinstance(key[0], str) else "replan")
        if key[0] in ("predict", "push"):
            if key[0] == "push":
                _, posterior, action, channel = key
                prior = model.b.push(np.frombuffer(posterior), action)
            else:
                _, prior, channel = key
                prior = np.frombuffer(prior)
            want = model.a.predictive(channel, prior)
            assert value.channel == channel
            assert value.prior.probs.tobytes() == prior.tobytes()
            assert value.predictive.probs.tobytes() == want.probs.tobytes()
            assert value.entropy == want.entropy()
            for array in (value.prior.probs, value.predictive.probs):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.5
        elif key[0] == "bayes":
            _, labels, belief, channel, outcome = key
            want = bayes_update(CategoricalDistribution(labels, np.frombuffer(belief)),
                                model.a.likelihood_column(channel, outcome))
            posterior = value.proposed_posterior
            assert posterior.labels == labels
            assert posterior.probs.tobytes() == want.probs.tobytes()
            assert value.rationale == f"exact update on {channel}={outcome}"
            assert not posterior.probs.flags.writeable
            with pytest.raises(AttributeError):
                value.rationale = ""
        elif key[0] == "vfe":
            _, posterior, prior, channel, outcome = key
            want = compute_vfe(CategoricalDistribution(model.states, np.frombuffer(posterior)),
                               CategoricalDistribution(model.states, np.frombuffer(prior)),
                               model.a.likelihood_column(channel, outcome))
            assert isinstance(value, VfeReport)
            assert value == want
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.total = 0.0
    assert kinds == {"predict", "replan", "push", "bayes", "vfe"}


def test_agents_sharing_a_model_and_an_action_label_get_their_own_prediction(assay):
    # one agent reads the indicator after measuring, the other the probe
    rewired = dict(assay.actions)
    rewired["measure_pH"] = dataclasses.replace(
        assay.actions["measure_pH"], observes="indicatorColor"
    )
    obs = Observation("indicatorColor", "yellow", 0)
    for actions in (assay.actions, rewired, assay.actions):
        agent = Agent(assay.model, assay.agent, TabularProvider(assay.model), actions)
        state, _, event = agent.step(EpisodeState(), obs)
        fresh = resolve_scenario("lab_assay").model
        alone = Agent(fresh, assay.agent, TabularProvider(fresh), actions)
        want, _, want_event = alone.step(EpisodeState(), obs)
        assert event.action == "measure_pH"
        assert state.prediction.channel == actions["measure_pH"].observes
        assert prediction_of(event) == prediction_of(want_event)
        assert state.prediction.entropy == want.prediction.entropy
        assert event_json(event) == event_json(want_event)


def test_a_fallback_step_on_a_warm_model_traces_as_on_a_fresh_one():
    model, actions, config = hazard_scenario()
    # step 0 on the shared model: a belief moved away from D, then an
    # identity push under "wait", so the next step's prior is that belief
    answered = Agent(model, config, TabularProvider(model), actions)
    state, _, first = answered.step(EpisodeState(), Observation("meter", "m0", 0))
    assert first.action == "wait" and first.vfe.complexity > 0
    # the fallback keeps that belief as its posterior and pushes it under
    # "poke": the warm memo holds the same belief pushed under "wait"
    failing = dataclasses.replace(config, fallback_policy="poke_once")
    obs = Observation("meter", "m0", 1)
    warm = Agent(model, failing, FailingProvider(), actions).step(state, obs)
    fresh_model = hazard_scenario()[0]
    fresh = Agent(fresh_model, failing, FailingProvider(), actions).step(state, obs)
    assert warm[2].provider_error == "llm offline" and warm[2].action == "poke"
    # nothing shifted: no complexity
    assert warm[2].vfe == fresh[2].vfe and warm[2].vfe.complexity == 0.0
    assert event_json(warm[2]) == event_json(fresh[2])
    held, want = warm[0].prediction, fresh[0].prediction
    assert held.prior.probs.tobytes() == want.prior.probs.tobytes()
    assert (held.channel, held.entropy) == (want.channel, want.entropy)


def test_run_episode_refines_nothing(assay, monkeypatch):
    def refusing(self, events):
        raise AssertionError("run_episode refined the episode")

    monkeypatch.setattr(Agent, "propagate_refinement", refusing)
    _, result, _ = assay_episode(assay)
    assert result.outcome == "assay_complete"
    assert not hasattr(result, "refinements")


# -- degenerate world: nothing is ever surprising ------------------------


def certainty_scenario():
    states = ("steady",)
    channels = {"lamp": ("on",)}
    model = GenerativeModel(
        states=states,
        actions=("idle",),
        channels=channels,
        a=ObservationModel(
            states=states, channels=channels, matrices={"lamp": np.array([[1.0]])}
        ),
        b=TransitionModel(states=states, actions=("idle",), tensor=np.ones((1, 1, 1))),
        c=PreferenceModel.compile(channels, ()),
        d=normalize([1.0], states),
        policies=(Policy("hold", ("idle", "idle")),),
    )
    actions = {"idle": ActionSpec("idle", "wait", "lamp")}
    config = AgentConfig(fallback_policy="hold", probe_channel="lamp")
    return model, actions, config


class SteadyEnv:
    """Minimal episode host: always reads "on", ends after a few steps."""

    def __init__(self, steps_until_done=3, terminal="assay_complete"):
        self.spec = EnvSpec(start_channel="lamp")
        self.remaining = steps_until_done
        self.terminal_outcome = None if steps_until_done else terminal
        self._terminal = terminal
        self._t = 0
        self.state = LabState(
            ph=7.4, temp_c=22.0, enzyme_activity=1.0, volume_ml=1.0,
            spill=False, elapsed_min=0.0, reagent_used_ul=0.0,
        )

    @property
    def is_terminal(self):
        return self.terminal_outcome is not None

    def observe(self, channel):
        obs = Observation(channel, "on", self._t)
        self._t += 1
        return obs

    def apply(self, executed):
        self.remaining -= 1
        if self.remaining <= 0:
            self.terminal_outcome = self._terminal


def test_zero_surprise_episode_never_raises_prediction_errors():
    model, actions, config = certainty_scenario()
    agent = Agent(model, config, TabularProvider(model), actions)
    result, ledger = run_episode(agent, SteadyEnv(steps_until_done=3))

    assert result.steps == 3
    for event in result.events:
        assert event.surprise == 0.0
        assert event.expected_surprise == 0.0
        assert event.vfe.total == 0.0
        assert not any(m.kind == "prediction-error" for m in event.messages)
    assert agent.propagate_refinement(result.events)[0] == ()

    values = [row.vfe for row in ledger.rows]
    assert values[0] == 0.0  # a delta prior has no entropy to resolve
    assert all(b <= a for a, b in zip(values, values[1:]))  # never increases


def test_zero_threshold_opens_every_refinement_gate():
    model, actions, config = certainty_scenario()
    config = dataclasses.replace(config, refinement_threshold=0.0)
    agent = Agent(model, config, TabularProvider(model), actions)
    result, _ = run_episode(agent, SteadyEnv(steps_until_done=2))

    levels = [r.level for r in agent.propagate_refinement(result.events)[0]]
    # the sensorimotor gate opened too, but a surprise-free trace flags
    # no likelihood to recalibrate
    assert levels == ["planner"]
    summaries, refined_model, refined_config = agent.propagate_refinement(result.events)
    assert [r.level for r in summaries] == levels
    assert refined_model is model
    assert refined_config == config


def test_terminal_at_reset_gives_an_empty_episode():
    model, actions, config = certainty_scenario()
    agent = Agent(model, config, TabularProvider(model), actions)
    result, ledger = run_episode(agent, SteadyEnv(steps_until_done=0, terminal="handed_off"))
    assert result.outcome == "handed_off"
    assert result.steps == 0
    assert result.events == ()
    assert agent.propagate_refinement(result.events)[0] == ()
    assert ledger.rows == ()


# -- one prediction per step ----------------------------------------------


def prediction_of(event):
    (message,) = [m for m in event.messages if m.kind == "prediction"]
    return message.payload


def test_expected_surprise_is_the_entropy_sent_the_step_before(assay):
    traces = [read_trace(str(DATA / "golden_trace_seed42.jsonl"))[1]]
    for seed in range(1, 101):
        _, result, _ = assay_episode(assay, seed=seed)
        traces.append([event_json(e) for e in result.events])
    for events in traces:
        assert len(events) >= 2
        for before, event in zip(events, events[1:]):
            (sent,) = [m["payload"] for m in before["messages"] if m["kind"] == "prediction"]
            assert event["observation"]["channel"] == sent["channel"]
            # bit-equal: the step scores against the prediction it was sent
            assert event["expectedSurprise"] == sent["entropy"]


@pytest.mark.parametrize("seed", [1, 42])
def test_an_episode_builds_one_predictive_per_step_plus_one(assay, monkeypatch, seed):
    calls = []
    predictive = ObservationModel.predictive

    def counting(self, channel, state_probs):
        calls.append(channel)
        return predictive(self, channel, state_probs)

    monkeypatch.setattr(ObservationModel, "predictive", counting)
    _, result, _ = assay_episode(assay, seed=seed)
    assert len(calls) == result.steps + 1
    # the same seed again on the warm model reads every prediction back
    calls.clear()
    _, again, _ = assay_episode(assay, seed=seed)
    assert again.steps == result.steps
    assert calls == []

    calls.clear()
    model, actions, config = certainty_scenario()
    agent = Agent(model, config, TabularProvider(model), actions)
    result, _ = run_episode(agent, SteadyEnv(steps_until_done=5))
    assert result.steps == 5
    # one belief, one action: the first step's predictive and push, then
    # every later push repeats the first
    assert calls == ["lamp", "lamp"]


def test_first_steps_on_different_channels_score_against_their_own_predictive(assay):
    agent = make_agent(assay)
    d = assay.model.d.probs
    for channel, outcome in [("indicatorColor", "yellow"), ("phProbe", "6.2"),
                             ("indicatorColor", "yellow")]:
        _, _, event = agent.step(EpisodeState(), Observation(channel, outcome, 0))
        predictive = assay.model.a.predictive(channel, d)
        assert event.expected_surprise == predictive.entropy()
        assert event.surprise == -math.log(predictive.prob(outcome))


def test_a_step_on_another_channel_scores_against_the_pushed_prior(assay):
    agent = make_agent(assay)
    state, _, first = agent.step(EpisodeState(), Observation("indicatorColor", "yellow", 0))
    sent = prediction_of(first)
    assert sent["channel"] == "phProbe"  # the plan measures next

    # a caller reads the indicator again instead of the predicted probe
    _, _, second = agent.step(state, Observation("indicatorColor", "yellow", 1))
    q, entropy = prior_predictive_by_sums(
        assay.model, first.belief.probs, first.action, "indicatorColor"
    )
    assert second.expected_surprise == pytest.approx(entropy, abs=1e-12)
    assert second.expected_surprise != pytest.approx(sent["entropy"], abs=1e-3)
    yellow = assay.model.channels["indicatorColor"].index("yellow")
    assert second.surprise == pytest.approx(-math.log(q[yellow]), abs=1e-12)
