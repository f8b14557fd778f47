import numpy as np
import pytest

from actinf.errors import ScenarioError, ShapeError
from actinf.lab import PRIMITIVE_PARAMS, READERS, EnvSpec, ExecutedAction, LabEnv, indicator_color

from .channels import standard_channels


def make_env(seed=0, rng=None, **spec_overrides):
    return LabEnv(EnvSpec(**spec_overrides), standard_channels(), seed=seed, rng=rng)


def titrate(volume, rate=1.0, reagent="NaOH", mix_seconds=0.0):
    return ExecutedAction(
        name="titrate",
        primitive="titrate",
        params={
            "volume_ul": volume,
            "rate_ul_per_s": rate,
            "reagent": reagent,
            "mix_seconds": mix_seconds,
        },
    )


class RecordingParams(dict):
    """An empty params dict that records the names it is asked for."""

    def __init__(self):
        super().__init__()
        self.asked = set()

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)


def test_each_primitive_reads_exactly_its_declared_params():
    for primitive, declared in PRIMITIVE_PARAMS.items():
        params = RecordingParams()
        make_env().apply(ExecutedAction(name=primitive, primitive=primitive, params=params))
        assert params.asked == set(declared), primitive


def test_each_label_reader_returns_exactly_its_declared_labels():
    labels = {ch: reader.labels for ch, reader in READERS.items() if reader.labels is not None}
    assert set(labels) == {"indicatorColor", "spillDetector"}
    colors = {make_env(initial_ph=ph).observe("indicatorColor").outcome
              for ph in np.linspace(0.0, 14.0, 141)}
    assert colors == set(labels["indicatorColor"])
    env = make_env(spill_prob_over_rate=1.0)
    readings = {env.observe("spillDetector").outcome}
    env.apply(titrate(2.0, rate=5.0))
    readings.add(env.observe("spillDetector").outcome)
    assert readings == set(labels["spillDetector"])


def test_indicator_bands():
    assert indicator_color(6.2) == "yellow"
    assert indicator_color(7.38) == "green"
    assert indicator_color(8.2) == "blue"
    assert indicator_color(7.0) == "green"
    assert indicator_color(8.0) == "green"


def test_numeric_channels_must_increase_outside_a_scenario():
    channels = {**standard_channels(), "tempProbe": ("30.0", "20.0")}
    for _ in range(2):  # a failure is not memoised away
        with pytest.raises(ScenarioError, match="channel 'tempProbe': numeric outcomes must increase"):
            LabEnv(EnvSpec(), channels)


def test_bins_are_parsed_once_and_read_only():
    first, second = make_env(seed=1), make_env(seed=2)
    assert first._bins["indicatorColor"] is None
    assert first._bins["phProbe"] is second._bins["phProbe"]
    assert first._bins["phProbe"][0] == 5.5
    with pytest.raises(ValueError, match="read-only"):
        first._bins["phProbe"][0] = 0.0


def test_initial_observation_is_yellow():
    env = make_env(seed=1)
    assert env.observe("indicatorColor").outcome == "yellow"


def test_zero_noise_titration_hits_nominal_effect():
    env = make_env(seed=5, noise_scale=0.0)
    env.apply(titrate(6.0))
    assert env.state.ph == pytest.approx(7.4, abs=1e-9)
    assert env.state.reagent_used_ul == pytest.approx(6.0)


class _FixedNoise:
    """Generator stub: fixed normal draws, never spills."""

    def __init__(self, normal_value):
        self.normal_value = normal_value

    def normal(self, loc, scale):
        return self.normal_value

    def random(self):
        return 1.0


def test_replayed_realized_effect():
    # six draws of 0.2 - 0.02/6 add up to 1.18 total
    env = make_env(rng=_FixedNoise(-0.02 / 6))
    env.apply(titrate(6.0))
    assert env.state.ph == pytest.approx(7.38, abs=1e-9)


def test_seeded_probe_reading_bins_to_true_ph():
    env = make_env(seed=42)
    assert env.observe("phProbe").outcome == "6.2"


def test_probe_calibration():
    env = make_env(seed=7)
    readings = np.array([float(env.observe("phProbe").outcome) for _ in range(10_000)])
    assert abs(readings.mean() - 6.2) < 0.01
    assert 0.02 < readings.std() < 0.03


def test_titration_monotonicity():
    rng = np.random.default_rng(19)
    for _ in range(200):
        env = make_env(seed=int(rng.integers(0, 10_000)))
        before = env.state.ph
        env.apply(titrate(float(rng.uniform(0.5, 10.0))))
        assert env.state.ph >= before
    for _ in range(200):
        env = make_env(seed=int(rng.integers(0, 10_000)))
        before = env.state.ph
        env.apply(titrate(float(rng.uniform(0.5, 10.0)), reagent="HCl"))
        assert env.state.ph <= before


def test_fast_dispensing_spills_at_declared_rate():
    spills = 0
    for seed in range(1000):
        env = make_env(seed=seed)
        env.apply(titrate(10.0, rate=5.0))
        spills += env.state.spill
        assert env.observe("spillDetector").outcome == ("positive" if env.state.spill else "negative")
    assert 0.25 < spills / 1000 < 0.35


def test_safe_dispensing_never_spills():
    for seed in range(200):
        env = make_env(seed=seed)
        env.apply(titrate(10.0, rate=1.0))
        assert not env.state.spill


def test_sustained_heat_denatures_enzyme():
    env = make_env(seed=3)
    env.apply(ExecutedAction("heat", "heat", {"minutes": 3.0}))
    assert env.state.temp_c == pytest.approx(67.0)
    assert env.state.enzyme_activity == pytest.approx(1.0)
    env.apply(ExecutedAction("wait", "wait", {"minutes": 2.0}))
    assert env.state.enzyme_activity == pytest.approx(0.05)
    # back at low fluorescence; reading stays in the declared label set
    env2 = make_env(seed=3, noise_scale=0.0)
    env2.state = env.state
    assert float(env2.observe("fluorescence").outcome) == 5.0


def test_brief_heat_does_not_denature():
    env = make_env(seed=3)
    env.apply(ExecutedAction("heat", "heat", {"minutes": 3.0}))
    env.apply(ExecutedAction("wait", "wait", {"minutes": 1.0}))
    assert env.state.enzyme_activity == pytest.approx(1.0)


def test_time_accounting():
    env = make_env(seed=0, noise_scale=0.0)
    env.apply(ExecutedAction("measure_pH", "measure", {}))
    assert env.state.elapsed_min == pytest.approx(0.5)
    env.apply(ExecutedAction("mix", "mix", {"seconds": 10.0}))
    assert env.state.elapsed_min == pytest.approx(0.5 + 10 / 60)
    env.apply(titrate(6.0, rate=1.0, mix_seconds=10.0))
    assert env.state.elapsed_min == pytest.approx(0.5 + 10 / 60 + 16 / 60)


def test_ask_human_hands_off():
    env = make_env(seed=0)
    env.apply(ExecutedAction("ask_human", "ask_human", {}))
    assert env.is_terminal
    assert env.terminal_outcome == "handed_off"


def test_discard_resets_buffer_and_loses_enzyme():
    env = make_env(seed=0)
    env.apply(ExecutedAction("discard_restart", "discard", {}))
    assert env.state.ph == pytest.approx(7.4)
    assert env.state.enzyme_activity == 0.0
    assert env.state.elapsed_min == pytest.approx(10.0)
    assert not env.is_terminal


def test_verified_correction_completes_assay():
    env = make_env(seed=42)
    assert env.observe("indicatorColor").outcome == "yellow"
    assert not env.is_terminal
    env.apply(titrate(6.0))
    obs = env.observe("indicatorColor")
    assert obs.outcome == "green"
    assert env.terminal_outcome == "assay_complete"


def test_green_before_titration_does_not_complete():
    env = make_env(seed=1, initial_ph=7.4)
    assert env.observe("indicatorColor").outcome == "green"
    assert not env.is_terminal


def test_same_seed_replays_identically():
    def run(seed):
        env = make_env(seed=seed)
        out = [env.observe("phProbe").outcome]
        env.apply(titrate(6.0))
        out.append(env.observe("phProbe").outcome)
        out.append(env.state)
        return out

    assert run(9) == run(9)
    assert run(9) != run(10)


def test_reset_restores_initial_state():
    env = make_env(seed=4)
    env.apply(titrate(6.0))
    state = env.reset(4)
    assert state.ph == pytest.approx(6.2)
    assert state.elapsed_min == 0.0
    assert not env.is_terminal
    assert env.observe("phProbe").outcome == env.observe("phProbe").outcome or True


def test_readings_snap_to_declared_labels():
    env = make_env(seed=0, noise_scale=0.0, initial_ph=4.9)
    assert env.observe("phProbe").outcome == "5.5"
    env2 = make_env(seed=0, noise_scale=0.0, initial_ph=9.9)
    assert env2.observe("phProbe").outcome == "8.5"


def test_unknown_channel_and_reagent_rejected():
    env = make_env(seed=0)
    with pytest.raises(ShapeError):
        env.observe("massSpec")
    with pytest.raises(ShapeError):
        env.apply(titrate(1.0, reagent="KOH"))


@pytest.mark.parametrize("volume, rate", [(-1.0, 1.0), (1e9, 1.0), (1.0, 0.0), (1.0, float("nan"))])
def test_a_hand_built_titration_out_of_range_is_refused(volume, rate):
    # a scenario's params are checked at load; an action built in code,
    # or an agent's computed dose, is checked here, before any dosing
    with pytest.raises(ShapeError, match="bad titration parameters"):
        make_env(seed=0).apply(titrate(volume, rate=rate))
