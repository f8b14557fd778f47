"""Scenario file parsing, validation addressing, and round trips."""

import configparser
import math
import pathlib
import re

import numpy as np
import pytest

from actinf.agent import Agent, run_episode
from actinf.errors import ScenarioError
from actinf.lab import ENV_RANGES, READERS, LabEnv, Observation
from actinf.providers import TabularProvider
from actinf.scenario import (
    FALLBACK_POLICY,
    MAX_SPAN_OUTCOMES,
    builtin_scenario_path,
    discretized_gaussian,
    load_scenario,
    read_sections,
    resolve_scenario,
    save_scenario,
)

from .channels import standard_channels
from .oracles import discretized_gaussian_by_bins, sections_by_configparser

MINIMAL = """\
[states]
labels = ok bad

[channels]
spillDetector = negative positive

[actions]
labels = look ask_for_help
look.primitive = measure
look.observes = spillDetector
ask_for_help.primitive = ask_human
ask_for_help.observes = spillDetector

[A]
spillDetector.ok = 0.9 0.1
spillDetector.bad = 0.2 0.8

[B]
look = identity
ask_for_help.ok = 1.0 0.0
ask_for_help.bad = absorb

[C]
calm.channel = spillDetector
calm.weight = 0.9
calm.prefer = negative
calm.avoid = positive

[D]
initial = 0.7 0.3

[policies]
watch = look look
ask_human = ask_for_help look

[environment]
start_channel = spillDetector

[agent]
fallback_policy = ask_human
probe_channel = spillDetector
"""


def probed(text):
    """MINIMAL's channel renamed to a probe, which the simulator reads as a number."""
    return text.replace("spillDetector", "tempProbe")


@pytest.fixture()
def assay():
    return resolve_scenario("lab_assay")


def test_minimal_inline_scenario_loads():
    scenario = load_scenario(MINIMAL)
    assert scenario.name == "inline"
    assert scenario.model.states == ("ok", "bad")
    assert scenario.model.actions == ("look", "ask_for_help")
    assert [p.label for p in scenario.model.policies] == ["watch", FALLBACK_POLICY]
    assert scenario.actions["look"].observes == "spillDetector"
    assert scenario.env.start_channel == "spillDetector"
    # identity and absorb shorthands
    assert np.array_equal(scenario.model.b.matrix("look"), np.eye(2))
    assert np.array_equal(scenario.model.b.matrix("ask_for_help")[1], [0.0, 1.0])


def test_load_from_path_names_after_the_file(tmp_path):
    path = tmp_path / "bench_demo.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    scenario = load_scenario(str(path))
    assert scenario.name == "bench_demo"


def test_missing_section_is_addressed():
    broken = MINIMAL.replace("[D]\ninitial = 0.7 0.3\n", "")
    with pytest.raises(ScenarioError, match=r"missing \[D\] section"):
        load_scenario(broken)


def test_wrong_row_width_is_addressed():
    broken = MINIMAL.replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = 0.9")
    with pytest.raises(ScenarioError, match=r"\[A\] spillDetector.ok: expected 2 entries"):
        load_scenario(broken)


def test_non_normalized_row_fails_model_validation():
    broken = MINIMAL.replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = 0.6 0.3")
    with pytest.raises(ScenarioError, match="invalid model"):
        load_scenario(broken)


def test_unknown_observed_channel_is_addressed():
    broken = MINIMAL.replace("look.observes = spillDetector", "look.observes = nope")
    with pytest.raises(ScenarioError, match=r"\[actions\] look.observes: unknown channel"):
        load_scenario(broken)


# MINIMAL plus a channel the simulator has no reader for
WITH_ODOR = (
    MINIMAL.replace("[channels]\n", "[channels]\nodor = faint strong\n")
    .replace("[A]\n", "[A]\nodor.ok = uniform\nodor.bad = uniform\n")
)


@pytest.mark.parametrize("line, broken, address", [
    ("look.observes = spillDetector", "look.observes = odor", "[actions] look.observes"),
    ("start_channel = spillDetector", "start_channel = odor", "[environment] start_channel"),
])
def test_a_channel_the_simulator_cannot_read_is_addressed(line, broken, address):
    # the model may declare it; an episode can never observe it
    assert load_scenario(WITH_ODOR).model.channels["odor"] == ("faint", "strong")
    with pytest.raises(ScenarioError) as info:
        load_scenario(WITH_ODOR.replace(line, broken))
    assert str(info.value) == (f"inline: {address}: the simulator cannot read channel 'odor'; "
                               f"it reads {', '.join(READERS)}")


def test_every_reader_reads_its_channel_and_minimal_runs():
    scenario = resolve_scenario("lab_assay")
    env = LabEnv(scenario.env, scenario.model.channels, seed=1)
    for channel in READERS:
        assert env.observe(channel).outcome in scenario.model.channels[channel]
    # the loader only passes channels an episode can observe
    minimal = load_scenario(MINIMAL)
    agent = Agent(minimal.model, minimal.agent, TabularProvider(minimal.model), minimal.actions)
    result, _ = run_episode(agent, LabEnv(minimal.env, minimal.model.channels, seed=1),
                            max_steps=4)
    assert result.steps >= 1


@pytest.mark.parametrize("channel, outcomes, message", [
    # a label reader: every label it returns, and no other
    ("spillDetector", "negative positive unknown",
     "declared negative positive unknown, but the simulator reads exactly negative positive here"),
    ("spillDetector", "negative",
     "declared negative, but the simulator reads exactly negative positive here"),
    # a probe reads a number and snaps it to the nearest outcome
    ("tempProbe", "negative positive",
     "the simulator reads a number here and snaps it to the nearest outcome, "
     "so every outcome must be a number; got 'negative'"),
])
def test_a_read_channel_whose_outcomes_its_reader_cannot_give_is_addressed(
        channel, outcomes, message):
    text = MINIMAL.replace("spillDetector", channel)
    broken = text.replace(f"{channel} = negative positive", f"{channel} = {outcomes}")
    broken = (broken.replace("0.9 0.1", "uniform").replace("0.2 0.8", "uniform")
              .replace("calm.avoid = positive", "calm.avoid ="))
    with pytest.raises(ScenarioError) as info:
        load_scenario(broken)
    assert str(info.value) == f"inline: [channels] {channel}: {message}"


def test_only_read_channels_must_match_their_reader():
    # listed in another order, the reader's labels pass
    swapped = MINIMAL.replace("spillDetector = negative positive", "spillDetector = positive negative")
    assert load_scenario(swapped).model.channels["spillDetector"] == ("positive", "negative")
    # a channel no action observes and the episode does not start on is not read
    unread = (
        MINIMAL.replace("[channels]\n", "[channels]\ntempProbe = cold hot\n")
        .replace("[A]\n", "[A]\ntempProbe.ok = uniform\ntempProbe.bad = uniform\n")
    )
    assert load_scenario(unread).model.channels["tempProbe"] == ("cold", "hot")
    with pytest.raises(ScenarioError, match=r"^inline: \[channels\] tempProbe: "):
        load_scenario(unread.replace("look.observes = spillDetector", "look.observes = tempProbe"))
    with pytest.raises(ScenarioError, match=r"^inline: \[channels\] tempProbe: "):
        load_scenario(unread.replace("start_channel = spillDetector", "start_channel = tempProbe"))


@pytest.mark.parametrize("line, message", [
    ("mx.seconds = 99", "names no declared action; declared: look ask_for_help"),
    ("look = measure", "names no declared action; declared: look ask_for_help"),
    ("look.primitve = measure", "primitive 'measure' reads no param 'primitve'; it reads: none"),
    ("look.seconds = 10", "primitive 'measure' reads no param 'seconds'; it reads: none"),
])
def test_an_action_key_nothing_reads_is_addressed(line, message):
    with pytest.raises(ScenarioError) as info:
        load_scenario(with_line("actions", line))
    key = line.split(" = ")[0]
    assert str(info.value) == f"inline: [actions] {key}: {message}"


def test_action_params_are_what_their_primitive_reads(assay):
    assert assay.actions["mix"].params == {"seconds": 10}
    assert assay.actions["titrate_NaOH_fast"].params == {
        "reagent": "NaOH", "volume_ul": 10, "rate_ul_per_s": 5.0, "mix_seconds": 0,
    }
    assert assay.actions["measure_pH"].params == {}
    # a label may hold a '.': its keys split after the whole label
    dotted = (
        MINIMAL.replace("labels = look ask_for_help", "labels = look look.slow ask_for_help")
        .replace("look.observes = spillDetector\n",
                 "look.observes = spillDetector\nlook.slow.primitive = mix\n"
                 "look.slow.observes = spillDetector\nlook.slow.seconds = 30\n")
        .replace("look = identity\n", "look = identity\nlook.slow = identity\n")
    )
    scenario = load_scenario(dotted)
    assert scenario.actions["look.slow"].params == {"seconds": 30}
    assert scenario.actions["look"].params == {}


def test_the_weights_of_one_channel_are_bounded_together():
    second = "\n".join(["loud.channel = spillDetector", "loud.weight = 60",
                        "loud.prefer = negative", "loud.avoid ="])
    assert load_scenario(with_line("C", second)).model.c.entries[0].weight == 60.0
    with pytest.raises(ScenarioError) as info:
        load_scenario(with_line("C", second.replace("= 60", "= 99.5")))
    assert str(info.value) == ("inline: [C] calm.weight: the weights on channel "
                               "'spillDetector' sum to 100.4, more than 100")


@pytest.mark.parametrize("line, value", [
    ("look.slow.seconds = 30", 30),
    ("look.slow.seconds = 2.5", 2.5),
    ("look.slow.seconds = 0", 0),
])
def test_an_action_param_keeps_the_number_its_file_writes(line, value):
    text = (
        MINIMAL.replace("labels = look ask_for_help", "labels = look look.slow ask_for_help")
        .replace("look.observes = spillDetector\n",
                 f"look.observes = spillDetector\nlook.slow.primitive = mix\n"
                 f"look.slow.observes = spillDetector\n{line}\n")
        .replace("look = identity\n", "look = identity\nlook.slow = identity\n")
    )
    (got,) = load_scenario(text).actions["look.slow"].params.values()
    assert got == value and type(got) is type(value)
    # and a save writes it back as read
    assert f"\n{line}\n" in save_scenario(load_scenario(text))


def test_an_auto_dose_is_bounded_from_the_lowest_probe_reading():
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")

    def with_effect(effect, source=text):
        changed, count = re.subn(r"^effect_per_ul = .*$", f"effect_per_ul = {effect}", source,
                                 flags=re.M)
        assert count == 1
        return changed

    # 1.9 pH below the target at 0.00019 per ul plans exactly the bound
    scenario = load_scenario(with_effect("0.00019"))
    agent = Agent(scenario.model, scenario.agent, TabularProvider(scenario.model), scenario.actions)
    assert agent.planned_volume_ul([Observation("phProbe", "5.5", 0)]) == 10000.0
    with pytest.raises(ScenarioError, match=r"\[agent\] effect_per_ul: an auto titration would dose"):
        load_scenario(with_effect("0.000189"))
    # an agent that never reads its probe never doses from it
    unread = text.replace("measure_pH.observes = phProbe", "measure_pH.observes = indicatorColor")
    assert load_scenario(with_effect("1e-320", unread)).agent.effect_per_ul == 1e-320


@pytest.mark.parametrize("primitive, line, message", [
    ("mix", "look.seconds = -1", "seconds must be >= 0 and finite, got '-1'"),
    ("mix", "look.seconds = inf", "seconds must be >= 0 and finite, got 'inf'"),
    ("heat", "look.minutes = true", "minutes must be >= 0 and finite, got 'true'"),
    ("wait", "look.minutes = nan", "minutes must be >= 0 and finite, got 'nan'"),
])
def test_every_numeric_action_param_is_range_checked(primitive, line, message):
    text = with_line("actions", line).replace("look.primitive = measure",
                                              f"look.primitive = {primitive}")
    with pytest.raises(ScenarioError) as info:
        load_scenario(text)
    assert str(info.value) == f"inline: [actions] {line.split(' = ')[0]}: {message}"


@pytest.mark.parametrize("raw", ["", "   "])
def test_an_empty_policy_is_addressed(raw):
    with pytest.raises(ScenarioError) as info:
        load_scenario(with_line("policies", f"nothing = {raw}"))
    assert str(info.value) == "inline: [policies] nothing: expected at least one action"


def test_a_policy_may_repeat_an_action():
    scenario = load_scenario(with_line("policies", "look_twice = look look look"))
    assert scenario.model.policy("look_twice").actions == ("look", "look", "look")


def test_unknown_agent_key_is_addressed():
    broken = MINIMAL + "mystery = 3\n"
    with pytest.raises(ScenarioError, match=r"\[agent\] mystery: unknown AgentConfig field"):
        load_scenario(broken)


def test_undeclared_probe_channel_is_addressed():
    # the dose would never find a reading, and every seed would hand off
    with pytest.raises(ScenarioError) as info:
        load_scenario(MINIMAL.replace("probe_channel = spillDetector", "probe_channel = phprobe"))
    assert str(info.value) == "inline: [agent] probe_channel: unknown channel 'phprobe'"


@pytest.mark.parametrize("line, broken, message", [
    ("fallback_policy = ask_human", "fallback_policy = nobody",
     "inline: [agent] fallback_policy: unknown policy 'nobody'"),
    ("start_channel = spillDetector", "start_channel = nope",
     "inline: [environment] start_channel: unknown channel 'nope'"),
])
def test_undeclared_fallback_and_start_channel_are_addressed(line, broken, message):
    assert MINIMAL.count(line) == 1
    with pytest.raises(ScenarioError) as info:
        load_scenario(MINIMAL.replace(line, broken))
    assert str(info.value) == message


def with_line(section: str, line: str) -> str:
    """MINIMAL with one more line at the top of ``[section]``."""
    return MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


@pytest.mark.parametrize("section, line, address", [
    ("environment", "noise_scale = x", "[environment] noise_scale: expected float, got 'x'"),
    ("agent", "vfe_baseline_window = 2.5", "[agent] vfe_baseline_window: expected int, got '2.5'"),
    ("agent", "vfe_baseline_window = two", "[agent] vfe_baseline_window: expected int, got 'two'"),
])
def test_spec_values_must_have_their_field_type(section, line, address):
    with pytest.raises(ScenarioError) as info:
        load_scenario(with_line(section, line))
    assert str(info.value) == f"inline: {address}"


# one out-of-range value for each range check of AgentConfig
AGENT_RANGE_CASES = [
    ("vfe_baseline_window", "0", "vfe_baseline_window must be >= 1"),
    ("refinement_threshold", "-0.5", "refinement_threshold must be >= 0"),
    ("veto_outcome_mass", "-1", "veto_outcome_mass must be in [0, 1]"),
    ("veto_probability", "0", "veto_probability must be in (0, 1]"),
    ("target_ph", "15", "target_ph must be in [0, 14]"),
    ("effect_per_ul", "0", "effect_per_ul must be positive"),
    ("pipette_step_ul", "0", "pipette_step_ul must be positive"),
    ("indicator_reliability_lr", "1.5", "indicator_reliability_lr must be in [0, 1]"),
]


@pytest.mark.parametrize("key, value, rule", AGENT_RANGE_CASES)
def test_out_of_range_agent_values_are_addressed(key, value, rule):
    with pytest.raises(ScenarioError) as info:
        load_scenario(with_line("agent", f"{key} = {value}"))
    assert str(info.value) == f"inline: [agent] {key}: {rule}"


@pytest.mark.parametrize("key", [
    "refinement_threshold", "veto_outcome_mass", "veto_probability", "target_ph",
    "effect_per_ul", "pipette_step_ul", "indicator_reliability_lr",
])
def test_nan_agent_values_are_out_of_range(key):
    with pytest.raises(ScenarioError, match=rf"^inline: \[agent\] {key}: {key} must be "):
        load_scenario(with_line("agent", f"{key} = nan"))


# out-of-range values of EnvSpec, one for each kind of range check
ENV_RANGE_CASES = [
    ("volume_ml", "0", "volume_ml must be positive"),
    ("probe_sd", "-1", "probe_sd must be >= 0"),
    ("effect_sd_per_ul", "-0.01", "effect_sd_per_ul must be >= 0"),
    ("spill_prob_over_rate", "1.5", "spill_prob_over_rate must be in [0, 1]"),
    ("max_safe_rate_ul_per_s", "0", "max_safe_rate_ul_per_s must be positive"),
    ("measure_minutes", "-0.5", "measure_minutes must be >= 0"),
    ("noise_scale", "-1", "noise_scale must be >= 0"),
    ("initial_ph", "15", "initial_ph must be in [0, 14]"),
    ("denature_factor", "2", "denature_factor must be in [0, 1]"),
    ("heat_c_per_min", "inf", "heat_c_per_min must be finite"),
]


@pytest.mark.parametrize("key, value, rule", ENV_RANGE_CASES)
def test_out_of_range_environment_values_are_addressed(key, value, rule):
    with pytest.raises(ScenarioError) as info:
        load_scenario(with_line("environment", f"{key} = {value}"))
    assert str(info.value) == f"inline: [environment] {key}: {rule}"


@pytest.mark.parametrize("key", [key for key, _, _ in ENV_RANGES])
def test_nan_environment_values_are_out_of_range(key):
    with pytest.raises(ScenarioError, match=rf"^inline: \[environment\] {key}: {key} must be "):
        load_scenario(with_line("environment", f"{key} = nan"))


def test_spec_values_are_read_as_their_field_type():
    scenario = load_scenario(with_line("environment", "noise_scale = 2"))
    assert type(scenario.env.noise_scale) is float and scenario.env.noise_scale == 2.0
    scenario = load_scenario(with_line("agent", "vfe_baseline_window = 1"))
    assert type(scenario.agent.vfe_baseline_window) is int


@pytest.mark.parametrize("section, line, owner", [
    ("environment", "target_ph = 7.4", "EnvSpec"),
    ("agent", "frequency_lr = 0.1", "AgentConfig"),
    ("agent", "acidification_frequency = 0.05", "AgentConfig"),
    ("agent", "planning_horizon = 2", "AgentConfig"),
    ("agent", "max_candidates = 16", "AgentConfig"),
])
def test_removed_write_only_fields_are_unknown(section, line, owner):
    key = line.split(" =")[0]
    with pytest.raises(ScenarioError, match=rf"\[{section}\] {key}: unknown {owner} field"):
        load_scenario(with_line(section, line))


def test_missing_fallback_policy_is_rejected():
    broken = MINIMAL.replace("ask_human = ask_for_help look", "helpline = ask_for_help look")
    with pytest.raises(ScenarioError, match="must declare the 'ask_human' fallback"):
        load_scenario(broken)


def test_policy_with_unknown_action_is_rejected():
    broken = MINIMAL.replace("watch = look look", "watch = look shake")
    with pytest.raises(ScenarioError, match="unknown action 'shake'"):
        load_scenario(broken)


def test_duplicate_keys_are_rejected():
    broken = MINIMAL.replace("[D]\ninitial = 0.7 0.3", "[D]\ninitial = 0.7 0.3\ninitial = 1 0")
    assert broken.splitlines()[30] == "initial = 1 0"
    with pytest.raises(ScenarioError, match=r"^inline: line 31: duplicate key 'initial'$"):
        load_scenario(broken)


def test_bad_gauss_spec_is_addressed():
    numeric = (
        MINIMAL.replace("spillDetector = negative positive", "spillDetector = 1.0 2.0")
        .replace("calm.prefer = negative", "calm.prefer = 1.0")
        .replace("calm.avoid = positive", "calm.avoid = 2.0")
    )
    broken = numeric.replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = gauss 7.4")
    with pytest.raises(ScenarioError, match=r"\[A\] spillDetector.ok: bad gauss spec"):
        load_scenario(broken)
    okay = numeric.replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = gauss 1.0 0.3")
    assert load_scenario(probed(okay)).model.a.matrices["tempProbe"][0].sum() == pytest.approx(1.0)


@pytest.mark.parametrize("sigma", ["0", "-0.3", "nan"])
def test_a_gauss_without_a_positive_sigma_is_addressed(sigma, monkeypatch):
    numeric = (
        MINIMAL.replace("spillDetector = negative positive", "spillDetector = 1.0 2.0")
        .replace("calm.prefer = negative", "calm.prefer = 1.0")
        .replace("calm.avoid = positive", "calm.avoid = 2.0")
    )
    # refused at its address before any row is computed
    monkeypatch.setattr("actinf.scenario.discretized_gaussian", None)
    broken = numeric.replace("spillDetector.bad = 0.2 0.8", f"spillDetector.bad = gauss 1.5 {sigma}")
    with pytest.raises(ScenarioError) as info:
        load_scenario(broken)
    assert str(info.value) == (
        f"inline: [A] spillDetector.bad: gauss needs sigma > 0, got {float(sigma)}"
    )


def test_gauss_on_textual_channel_is_rejected():
    broken = MINIMAL.replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = gauss 7.4 0.2")
    with pytest.raises(ScenarioError,
                       match=r"\[A\] spillDetector.ok: .*channel 'spillDetector' has non-numeric"):
        load_scenario(broken)


@pytest.mark.parametrize("spec, count", [
    ("span 0 1 1e-10", "1e+10"),  # was a 74.5 GiB allocation in np.arange
    ("span 0 1 5e-324", "inf"),  # the count overflows
    (f"span 0 {MAX_SPAN_OUTCOMES} 1 int", f"{MAX_SPAN_OUTCOMES + 1:.3g}"),
])
def test_a_span_with_too_many_outcomes_is_addressed(spec, count, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("np.arange reached")

    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(ScenarioError) as info:
        load_scenario(MINIMAL.replace("spillDetector = negative positive", f"spillDetector = {spec}"))
    assert str(info.value) == (f"inline: [channels] spillDetector: span gives {count} outcomes, "
                               f"more than {MAX_SPAN_OUTCOMES}")


def test_a_span_at_the_outcome_limit_loads():
    at_limit = (
        MINIMAL.replace("spillDetector = negative positive",
                        f"spillDetector = span 1 {MAX_SPAN_OUTCOMES} 1 int")
        .replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = uniform")
        .replace("spillDetector.bad = 0.2 0.8", "spillDetector.bad = uniform")
        .replace("calm.prefer = negative", "calm.prefer = le 10")
        .replace("calm.avoid = positive", "calm.avoid = 1")
    )
    assert len(load_scenario(probed(at_limit)).model.channels["tempProbe"]) == MAX_SPAN_OUTCOMES


def test_span_shorthand_builds_numeric_grids(assay):
    probe = assay.model.channels["phProbe"]
    assert len(probe) == 31
    assert probe[0] == "5.5" and probe[-1] == "8.5"
    fluor = assay.model.channels["fluorescence"]
    assert len(fluor) == 23
    assert fluor[0] == "0" and fluor[1] == "5" and fluor[-1] == "110"
    temp = assay.model.channels["tempProbe"]
    assert len(temp) == 121
    assert temp[0] == "15.0" and temp[-1] == "75.0"


def test_discretized_gaussian_sums_to_one_with_tail_absorption():
    values = np.arange(5.5, 8.55, 0.1)
    row = discretized_gaussian(values, mu=7.4, sigma=0.15)
    assert math.isclose(row.sum(), 1.0, abs_tol=1e-12)
    assert values[int(np.argmax(row))] == pytest.approx(7.4)
    # an off-grid mean pushes its mass into the nearest edge bin
    skewed = discretized_gaussian(values, mu=3.0, sigma=0.2)
    assert skewed[0] == pytest.approx(1.0)


def test_discretized_gaussian_rejects_bad_sigma():
    with pytest.raises(ScenarioError):
        discretized_gaussian(np.array([1.0, 2.0]), mu=1.5, sigma=0.0)


def test_uniform_shorthand(assay):
    spill_row = assay.model.a.matrices["phProbe"][2]  # spill state
    assert np.allclose(spill_row, 1.0 / 31)


def test_bundled_assay_shape(assay):
    model = assay.model
    assert model.states == ("ph_ok", "ph_acidic", "spill", "restarted")
    assert len(model.channels) == 5
    assert len(model.actions) == 6
    assert [p.label for p in model.policies] == [
        "measure_then_titrate",
        "add_base_immediately",
        "ask_human",
        "discard_restart",
    ]
    assert all(p.horizon == 2 for p in model.policies)
    assert np.array_equal(model.d.probs, [0.85, 0.15, 0.0, 0.0])
    assert {e.weight for e in model.c.entries} == {0.95, 0.90, 0.85, 0.80, 0.75}
    assert assay.agent.fallback_policy == "ask_human"
    assert assay.actions["titrate_NaOH_careful"].params["volume_ul"] == "auto"
    assert assay.actions["titrate_NaOH_careful"].observes == "indicatorColor"
    assert assay.actions["measure_pH"].observes == "phProbe"


def test_numeric_predicates_expand_to_outcome_sets(assay):
    by_name = {e.name: e for e in assay.model.c.entries}
    assert by_name["enzyme_integrity"].prefer == ("90", "95", "100", "105", "110")
    assert by_name["probe_in_band"].avoid == ("8.0", "8.1", "8.2", "8.3", "8.4", "8.5")
    assert by_name["no_alkaline_overshoot"].avoid == ("blue",)
    assert by_name["temp_stability"].prefer == ("21.5", "22.0", "22.5")


def test_predicate_with_unknown_literal_is_addressed():
    broken = MINIMAL.replace("calm.avoid = positive", "calm.avoid = weird")
    with pytest.raises(ScenarioError, match=r"\[C\] calm.avoid: unknown outcome 'weird'"):
        load_scenario(broken)


def test_compiled_preferences_downweight_avoided_outcomes(assay):
    indicator = assay.model.c.channel_priors["indicatorColor"]
    assert indicator.prob("blue") < 0.01
    assert indicator.prob("green") == indicator.prob("yellow")  # neither preferred
    assert math.isclose(float(np.sum(indicator.probs)), 1.0, abs_tol=1e-12)
    fluor = assay.model.c.channel_priors["fluorescence"]
    assert fluor.prob("100") > fluor.prob("0")  # bright readings preferred
    spill = assay.model.c.channel_priors["spillDetector"]
    assert spill.prob("positive") < 0.01


def test_save_load_round_trip_is_exact(assay):
    text = save_scenario(assay)
    again = load_scenario(text, name=assay.name)
    assert again.model.states == assay.model.states
    for ch in assay.model.channels:
        assert np.array_equal(again.model.a.matrices[ch], assay.model.a.matrices[ch])
    for action in assay.model.actions:
        assert np.array_equal(again.model.b.matrix(action), assay.model.b.matrix(action))
    assert np.array_equal(again.model.d.probs, assay.model.d.probs)
    for ch in assay.model.channels:
        assert np.array_equal(
            again.model.c.channel_priors[ch].probs,
            assay.model.c.channel_priors[ch].probs,
        )
    assert [p.label for p in again.model.policies] == [p.label for p in assay.model.policies]
    assert again.env == assay.env
    assert again.agent == assay.agent
    assert save_scenario(again) == text


def test_save_to_file(tmp_path, assay):
    path = tmp_path / "out.ini"
    text = save_scenario(assay, path=str(path))
    assert path.read_text(encoding="utf-8") == text


def test_resolve_bundled_and_unknown_names():
    assert resolve_scenario("lab_assay").name == "lab_assay"
    assert builtin_scenario_path("lab_assay").endswith("lab_assay.ini")
    with pytest.raises(ScenarioError, match="no bundled scenario named 'nope'"):
        resolve_scenario("nope")


@pytest.mark.parametrize("name", ["../scenarios/lab_assay", "scenarios/lab_assay",
                                  "..\\scenarios\\lab_assay", ".lab_assay", "..", ""])
def test_bundled_scenario_names_are_plain_names(name):
    with pytest.raises(ScenarioError, match=rf"^no bundled scenario named {re.escape(repr(name))}$"):
        resolve_scenario(name)


def test_a_fresh_load_saves_as_the_fixture(assay):
    # tests/make_golden.py writes the fixture; a drift at the loader shows here first
    fixture = pathlib.Path(__file__).parent / "data" / "golden_lab_assay_saved.ini"
    assert save_scenario(assay) == fixture.read_text(encoding="utf-8")


def test_missing_file_path_is_reported():
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario("/no/such/place.ini")


def assay_text() -> str:
    with open(builtin_scenario_path("lab_assay"), encoding="utf-8") as fh:
        return fh.read()


def replaced(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1, old
    return text.replace(old, new)


def test_discretized_gaussian_matches_the_bin_by_bin_oracle():
    rng = np.random.default_rng(2026)
    grids = [np.arange(15.0, 75.25, 0.5), np.arange(5.5, 8.55, 0.1), np.array([3.0])]
    for _ in range(300):
        n = int(rng.choice([1, 2, int(rng.integers(3, 130))]))
        grids.append(rng.uniform(-50, 50) + rng.uniform(1e-3, 10) * np.arange(n))
    for values in grids:
        lo, hi = values[0], values[-1]
        spread = hi - lo + 1.0
        # means inside the grid and beyond either end
        for mu in (rng.uniform(lo, hi), lo - rng.uniform(0, spread), hi + rng.uniform(0, spread)):
            sigma = float(rng.uniform(1e-3, 2.0) * spread)
            got = discretized_gaussian(values, mu, sigma)
            want = discretized_gaussian_by_bins(values, mu, sigma)
            assert got.tobytes() == want.tobytes(), (values, mu, sigma)


def test_assay_span_labels_are_unchanged(assay):
    assert {ch: assay.model.channels[ch] for ch in standard_channels()} == standard_channels()


@pytest.mark.parametrize("spec", ["span 5.5 8.5 -0.1", "span 8.5 5.5 0.1", "span 5.5 8.5 0",
                                  "span 5.5 8.5 x", "span 5.5 8.5"])
def test_bad_span_is_addressed(spec):
    broken = replaced(assay_text(), "phProbe = span 5.5 8.5 0.1", f"phProbe = {spec}")
    with pytest.raises(ScenarioError, match=r"\[channels\] phProbe: bad span spec"):
        load_scenario(broken)


def test_span_decimals_follow_both_start_and_step():
    numeric = (
        MINIMAL.replace("spillDetector = negative positive", "spillDetector = span 0 1 0.25")
        .replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = gauss 0.25 0.1")
        .replace("spillDetector.bad = 0.2 0.8", "spillDetector.bad = gauss 0.75 0.1")
        .replace("calm.prefer = negative", "calm.prefer = le 0.5")
        .replace("calm.avoid = positive", "calm.avoid = 1.00")
    )
    scenario = load_scenario(probed(numeric))
    assert scenario.model.channels["tempProbe"] == ("0.00", "0.25", "0.50", "0.75", "1.00")
    assert scenario.model.c.entries[0].prefer == ("0.00", "0.25", "0.50")
    # a whole step and a fractional start
    halves = (
        MINIMAL.replace("spillDetector = negative positive", "spillDetector = span 0.5 2 1")
        .replace("calm.prefer = negative", "calm.prefer = 0.5")
        .replace("calm.avoid = positive", "calm.avoid = 1.5")
    )
    assert load_scenario(probed(halves)).model.channels["tempProbe"] == ("0.5", "1.5")


@pytest.mark.parametrize("section, line", [
    ("A", "indicatorColor.ph_ok = 0.01 0.97 0.02"),
    ("B", "titrate_NaOH_careful.ph_ok = 0.99 0.01 0 0"),
    ("D", "initial = 0.85 0.15 0 0"),
])
def test_empty_row_is_addressed(section, line):
    key = line.split(" = ")[0]
    broken = replaced(assay_text(), line, f"{key} =")
    with pytest.raises(ScenarioError, match=rf"\[{section}\] {key}: empty row"):
        load_scenario(broken)


def test_nan_state_prior_is_addressed():
    broken = replaced(assay_text(), "initial = 0.85 0.15 0 0", "initial = 0.85 nan 0 0")
    with pytest.raises(ScenarioError, match=r"\[D\] initial: non-finite mass"):
        load_scenario(broken)


def random_document(rng: np.random.Generator) -> str:
    """A document inside the reader's grammar, with every form it allows."""
    name_chars = "abcXYZ019_.-"
    value_chars = "abc XYZ 019 _.-=:;#[]"

    def word(chars, lo, hi):
        return "".join(rng.choice(list(chars), size=int(rng.integers(lo, hi))))

    def junk():
        kind = int(rng.integers(3))
        if kind == 0:
            return ""
        if kind == 1:
            return " " * int(rng.integers(1, 4))
        return " " * int(rng.integers(0, 3)) + str(rng.choice(["#", ";"])) + word(value_chars, 0, 12)

    lines = [junk() for _ in range(int(rng.integers(0, 3)))]
    sections = {word(name_chars, 1, 6) for _ in range(int(rng.integers(0, 5)))}
    for section in sections:
        lines.append(f"[{section}]")
        keys = {word(name_chars, 1, 4) + word(name_chars + " ", 0, 4).rstrip()
                for _ in range(int(rng.integers(0, 6)))}
        for key in keys:
            value = word(value_chars, 0, 16)
            before, after = (" " * int(rng.integers(0, 3)) for _ in range(2))
            lines.append(f"{key}{before}={after}{value}" + " " * int(rng.integers(0, 2)))
            lines.extend(junk() for _ in range(int(rng.integers(0, 2))))
    newline = "\r\n" if rng.random() < 0.2 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.5 else "")


def test_reader_matches_configparser_inside_the_grammar():
    rng = np.random.default_rng(7)
    documents = [assay_text(), MINIMAL, save_scenario(resolve_scenario("lab_assay"))]
    documents += [random_document(rng) for _ in range(500)]
    for text in documents:
        got = read_sections(text, "doc")
        want = sections_by_configparser(text)
        assert got == want, text
        assert [list(keys) for keys in got.values()] == [list(keys) for keys in want.values()]


# (document, line, message, whether configparser also rejected it)
REJECTED = {
    "duplicate_section": ("[a]\nx = 1\n\n[a]\ny = 2\n", 4, "duplicate section [a]", True),
    "duplicate_key": ("[a]\nx = 1\n# note\nx = 2\n", 4, "duplicate key 'x'", True),
    "key_before_section": ("# header comment\nx = 1\n[a]\n", 2, "key before any section", True),
    "no_equals": ("[a]\nx = 1\njust words\n", 3, "expected 'key = value'", True),
    "empty_key": ("[a]\n= 1\n", 2, "empty key", True),
    "colon_delimiter": ("[a]\nx: 1\n", 2, "':' delimiter", False),
    "colon_before_equals": ("[a]\nurl:port = 1\n", 2, "':' delimiter", False),
    "continuation_line": ("[a]\nx = 1\n  2\n", 3, "indented line", False),
    "indented_key": ("[a]\n\n  x = 1\n", 3, "indented line", False),
    "text_after_header": ("[a]\n[b] ; comment\nx = 1\n", 2, "text after section header", False),
    "unclosed_header": ("[a]\nx = 1\n[b\n", 3, "unclosed section header", True),
    "empty_section_name": ("[]\nx = 1\n", 1, "empty section name", True),
}


@pytest.mark.parametrize("form", sorted(REJECTED))
def test_reader_rejects_with_a_line_address(form):
    text, line, message, configparser_rejected = REJECTED[form]
    with pytest.raises(ScenarioError, match=rf"^doc: line {line}: {re.escape(message)}"):
        read_sections(text, "doc")
    if configparser_rejected:
        with pytest.raises(configparser.Error):
            sections_by_configparser(text)
    else:  # accepted before, silently
        sections_by_configparser(text)


def test_load_scenario_addresses_a_rejected_line_by_file_name(tmp_path):
    path = tmp_path / "colon.ini"
    path.write_text(replaced(assay_text(), "measure_pH = identity", "measure_pH: identity"),
                    encoding="utf-8")
    line = path.read_text(encoding="utf-8").splitlines().index("measure_pH: identity") + 1
    with pytest.raises(ScenarioError, match=rf"^colon: line {line}: ':' delimiter"):
        load_scenario(str(path))


def test_decreasing_numeric_channel_is_addressed():
    broken = (
        MINIMAL.replace("spillDetector = negative positive", "spillDetector = 2 1")
        .replace("calm.prefer = negative", "calm.prefer = 2")
        .replace("calm.avoid = positive", "calm.avoid = 1")
    )
    with pytest.raises(ScenarioError,
                       match=r"^inline: \[channels\] spillDetector: numeric outcomes must increase$"):
        load_scenario(broken)


def test_uneven_grid_is_no_gauss_grid():
    uneven = (
        MINIMAL.replace("spillDetector = negative positive", "spillDetector = 0 100 200.001")
        .replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = gauss 0 5")
        .replace("spillDetector.bad = 0.2 0.8", "spillDetector.bad = 0.2 0.3 0.5")
        .replace("calm.prefer = negative", "calm.prefer = 0")
        .replace("calm.avoid = positive", "calm.avoid = 200.001")
    )
    with pytest.raises(ScenarioError, match=r"\[A\] spillDetector.ok: gauss needs a number grid: "
                                            r"channel 'spillDetector': outcome grid must be evenly spaced"):
        load_scenario(uneven)
    # an even grid written with a step that floats cannot hold exactly still passes
    even = uneven.replace("0 100 200.001", "0 0.1 0.2").replace("gauss 0 5", "gauss 0.1 0.05")
    even = probed(even.replace("= 200.001", "= 0.2"))
    assert load_scenario(even).model.channels["tempProbe"][2] == "0.2"


@pytest.mark.parametrize("outcomes, low, high", [("0 inf", "0", "inf"), ("-inf 0", "-inf", "0"),
                                                 ("1e999", "1e999", "")])
def test_non_finite_numeric_channel_is_addressed(outcomes, low, high):
    broken = (
        MINIMAL.replace("spillDetector = negative positive", f"spillDetector = {outcomes}")
        .replace("calm.prefer = negative", f"calm.prefer = {low}")
        .replace("calm.avoid = positive", f"calm.avoid = {high}")
        .replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = uniform")
        .replace("spillDetector.bad = 0.2 0.8", "spillDetector.bad = uniform")
    )
    with pytest.raises(ScenarioError,
                       match=r"^inline: \[channels\] spillDetector: numeric outcomes must be finite$"):
        load_scenario(broken)


def test_grid_spacing_tolerance_is_one_billionth():
    def with_top(top):
        return (
            MINIMAL.replace("spillDetector = negative positive", f"spillDetector = 0 1 {top}")
            .replace("spillDetector.ok = 0.9 0.1", "spillDetector.ok = gauss 1 0.5")
            .replace("spillDetector.bad = 0.2 0.8", "spillDetector.bad = 0.2 0.3 0.5")
            .replace("calm.prefer = negative", "calm.prefer = 0")
            .replace("calm.avoid = positive", f"calm.avoid = {top}")
        )

    # steps 1 and 1.0000000009 differ by less than 1e-9: still a grid
    row = load_scenario(probed(with_top("2.0000000009"))).model.a.matrices["tempProbe"][0]
    assert row.tobytes() == discretized_gaussian(np.array([0.0, 1.0, 2.0000000009]), 1.0, 0.5).tobytes()
    with pytest.raises(ScenarioError, match=r"\[A\] spillDetector.ok: gauss needs a number grid: "
                                            r"channel 'spillDetector': outcome grid must be evenly spaced"):
        load_scenario(with_top("2.0000000011"))


def test_repeated_rows_are_parsed_once_per_channel(monkeypatch, assay):
    import actinf.scenario as scenario_module

    calls = []
    real = scenario_module.discretized_gaussian
    monkeypatch.setattr(scenario_module, "discretized_gaussian",
                        lambda values, mu, sigma: calls.append((len(values), mu, sigma))
                        or real(values, mu, sigma))
    again = resolve_scenario("lab_assay")
    # tempProbe's four rows are one spec, fluorescence repeats one of its three
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == 3 + 3 + 1
    for ch, matrix in assay.model.a.matrices.items():
        assert again.model.a.matrices[ch].tobytes() == matrix.tobytes()


def test_readme_scenario_example_is_in_the_grammar_and_in_the_assay():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    example = read_sections(block, "README")
    assay_sections = read_sections(assay_text(), "lab_assay")
    assert example
    for section, entries in example.items():
        for key, value in entries.items():
            assert assay_sections[section][key] == value, (section, key)
