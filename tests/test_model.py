import dataclasses
import math

import numpy as np
import pytest

from actinf.dists import normalize, uniform
from actinf.model import (
    GenerativeModel,
    ObservationModel,
    Policy,
    PreferenceEntry,
    PreferenceModel,
    TransitionModel,
    validate_model,
)
from actinf.errors import ShapeError


def make_assay_like_model(break_row=False, bad_policy=False):
    states = ("ph_ok", "ph_acidic")
    actions = ("measure_pH", "titrate_NaOH_careful")
    channels = {"indicatorColor": ("yellow", "green", "blue")}
    a = {"indicatorColor": np.array([[0.01, 0.97, 0.02], [0.95, 0.04, 0.01]])}
    tensor = np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.97, 0.03], [0.9, 0.1]],
        ]
    )
    if break_row:
        tensor = tensor.copy()
        tensor[1, 1] = [0.8, 0.1]  # sums to 0.9
    entries = (
        PreferenceEntry(name="stay_neutral", channel="indicatorColor", weight=0.85,
                        prefer=("green",), avoid=("blue",)),
    )
    policies = (
        Policy("measure_then_titrate", ("measure_pH", "titrate_NaOH_careful")),
    )
    if bad_policy:
        policies = (Policy("measure_then_titrate", ("measure_pH", "titrate_HCl")),)
    return GenerativeModel(
        states=states,
        actions=actions,
        channels=channels,
        a=ObservationModel(states=states, channels=channels, matrices=a),
        b=TransitionModel(states=states, actions=actions, tensor=tensor),
        c=PreferenceModel.compile(channels, entries),
        d=normalize([0.85, 0.15], states),
        policies=policies,
    )


def test_validate_clean_model():
    report = validate_model(make_assay_like_model())
    assert report.ok
    assert report.render() == "model valid"


def test_validate_flags_unnormalized_transition_row():
    report = validate_model(make_assay_like_model(break_row=True))
    assert not report.ok
    assert len(report.violations) == 1
    path, message = report.violations[0]
    assert path == "b.titrate_NaOH_careful.ph_acidic"
    assert "0.9" in message


def test_validate_flags_unknown_policy_action():
    report = validate_model(make_assay_like_model(bad_policy=True))
    assert not report.ok
    assert report.violations[0][0] == "policies.measure_then_titrate.actions[1]"


def test_preference_compile_masses():
    channels = {"spillDetector": ("negative", "positive")}
    entries = (
        PreferenceEntry(name="no_spill", channel="spillDetector", weight=0.95,
                        prefer=("negative",), avoid=("positive",)),
    )
    c = PreferenceModel.compile(channels, entries)
    prior = c.channel_priors["spillDetector"]
    expected_neg = math.exp(0.95) / (math.exp(0.95) + 0.01)
    assert prior.prob("negative") == pytest.approx(expected_neg, abs=1e-12)
    assert prior.prob("positive") <= 0.01
    assert float(prior.probs.sum()) == pytest.approx(1.0, abs=1e-9)


def test_preference_compile_unmentioned_outcomes_keep_neutral_mass():
    channels = {"indicatorColor": ("yellow", "green", "blue")}
    entries = (
        PreferenceEntry(name="neutral_band", channel="indicatorColor", weight=0.85,
                        prefer=("green",), avoid=("blue",)),
    )
    c = PreferenceModel.compile(channels, entries)
    prior = c.channel_priors["indicatorColor"]
    total = math.exp(0.85) + 1.0 + 0.01
    assert prior.prob("green") == pytest.approx(math.exp(0.85) / total)
    assert prior.prob("yellow") == pytest.approx(1.0 / total)
    assert prior.prob("blue") == pytest.approx(0.01 / total)


def test_preference_compile_higher_weight_higher_mass():
    channels = {"ch": ("good", "bad")}
    lo = PreferenceModel.compile(
        channels, (PreferenceEntry("e", "ch", 0.5, prefer=("good",), avoid=("bad",)),)
    )
    hi = PreferenceModel.compile(
        channels, (PreferenceEntry("e", "ch", 2.0, prefer=("good",), avoid=("bad",)),)
    )
    assert hi.channel_priors["ch"].prob("good") > lo.channel_priors["ch"].prob("good")


def test_likelihood_column_lookup():
    model = make_assay_like_model()
    col = model.a.likelihood_column("indicatorColor", "yellow")
    assert col == pytest.approx([0.01, 0.95])
    with pytest.raises(ShapeError):
        model.a.likelihood_column("indicatorColor", "purple")


def test_observation_model_predictive():
    model = make_assay_like_model()
    pred = model.a.predictive("indicatorColor", np.array([0.85, 0.15]))
    assert pred.prob("yellow") == pytest.approx(0.85 * 0.01 + 0.15 * 0.95)


def test_transition_push():
    model = make_assay_like_model()
    out = model.b.push(np.array([0.0, 1.0]), "titrate_NaOH_careful")
    assert out == pytest.approx([0.9, 0.1])
    with pytest.raises(ShapeError):
        model.b.matrix("no_such_action")


def test_policy_requires_actions():
    with pytest.raises(ShapeError):
        Policy("empty", ())


def test_validate_reports_every_broken_row_in_order():
    model = make_assay_like_model()
    channels = {"indicatorColor": ("yellow", "green", "blue"), "spill": ("no", "yes")}
    matrices = {
        "indicatorColor": np.array([[1.2, -0.1, -0.1], [0.5, 0.4, 0.0]]),
        # off by 1.5e-9 (flagged) and by 0.5e-9 (within tolerance)
        "spill": np.array([[0.9, 0.1 + 1.5e-9], [0.7, 0.3 + 0.5e-9]]),
    }
    tensor = np.array([[[0.5, 0.4], [0.0, 1.0]], [[0.97, 0.03], [-0.2, 1.2]]])
    broken = dataclasses.replace(
        model,
        channels=channels,
        a=ObservationModel(states=model.states, channels=channels, matrices=matrices),
        b=TransitionModel(states=model.states, actions=model.actions, tensor=tensor),
    )
    assert validate_model(broken).violations == (
        ("a.indicatorColor.ph_ok", "entries outside [0, 1]: [1.2, -0.1, -0.1]"),
        ("a.indicatorColor.ph_acidic", "row sums to 0.9, expected 1.0 +/- 1e-09"),
        ("a.spill.ph_ok", "row sums to 1.0000000015000001, expected 1.0 +/- 1e-09"),
        ("b.measure_pH.ph_ok", "row sums to 0.9, expected 1.0 +/- 1e-09"),
        ("b.titrate_NaOH_careful.ph_acidic", "entries outside [0, 1]: [-0.2, 1.2]"),
        ("c.spill", "missing channel prior"),
    )


@pytest.mark.parametrize("row", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0]])
def test_validate_flags_non_finite_rows(row):
    model = make_assay_like_model()
    matrices = {"indicatorColor": np.array([row, [0.95, 0.04, 0.01]])}
    broken = dataclasses.replace(
        model, a=ObservationModel(states=model.states, channels=model.channels, matrices=matrices)
    )
    (path, message), = validate_model(broken).violations
    assert path == "a.indicatorColor.ph_ok"
    assert message.startswith("entries outside [0, 1]")
