"""Deterministic seeded bench-chemistry simulator for the assay task.

The environment owns the true pH, temperature, enzyme activity and
spill flag, and answers observation requests channel by channel. All
stochasticity flows from one ``numpy`` generator seeded at reset, so a
fixed (spec, seed, action sequence) replays byte-for-byte.

Sensor conventions: quoted "+/-" tolerances are treated as 2-sigma
Gaussian bands, and continuous readings snap to the nearest declared
outcome label of their channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ScenarioError, ShapeError

INDICATOR_YELLOW_BELOW = 7.0
INDICATOR_BLUE_ABOVE = 8.0

PRIMITIVES = ("measure", "titrate", "mix", "heat", "wait", "ask_human", "discard")


@dataclass(frozen=True)
class LabState:
    """Snapshot of the true bench state."""

    ph: float
    temp_c: float
    enzyme_activity: float
    volume_ml: float
    spill: bool
    elapsed_min: float
    reagent_used_ul: float


@dataclass(frozen=True)
class Observation:
    """One sensor reading: a channel and a discrete outcome label."""

    channel: str
    outcome: str
    t: int


@dataclass(frozen=True)
class ExecutedAction:
    """A named scenario action resolved to an env primitive with params."""

    name: str
    primitive: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.primitive not in PRIMITIVES:
            raise ShapeError(f"unknown primitive {self.primitive!r}")


@dataclass(frozen=True)
class ActionSpec:
    """Scenario action template: primitive, declared params, and the
    channel the agent reads after executing it."""

    label: str
    primitive: str
    observes: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.primitive not in PRIMITIVES:
            raise ShapeError(f"unknown primitive {self.primitive!r}")

    def bind(self, **overrides) -> ExecutedAction:
        """Fill template params (e.g. an auto titration volume)."""
        return ExecutedAction(
            name=self.label,
            primitive=self.primitive,
            params={**self.params, **overrides},
        )


@dataclass(frozen=True)
class EnvSpec:
    """Physical constants of the simulated bench, scenario-declared."""

    initial_ph: float = 6.2
    target_ph: float = 7.4
    fresh_ph: float = 7.4
    initial_temp_c: float = 22.0
    volume_ml: float = 1.0
    naoh_effect_per_ul: float = 0.2
    effect_sd_per_ul: float = 0.01
    probe_sd: float = 0.025
    temp_sd: float = 0.25
    fluor_sd: float = 2.5
    spill_prob_over_rate: float = 0.3
    max_safe_rate_ul_per_s: float = 1.0
    measure_minutes: float = 0.5
    ask_minutes: float = 5.0
    discard_minutes: float = 10.0
    heat_c_per_min: float = 15.0
    denature_temp_c: float = 60.0
    denature_minutes: float = 2.0
    denature_factor: float = 0.05
    start_channel: str = "indicatorColor"
    noise_scale: float = 1.0


def indicator_color(ph: float) -> str:
    if ph < INDICATOR_YELLOW_BELOW:
        return "yellow"
    if ph > INDICATOR_BLUE_ABOVE:
        return "blue"
    return "green"


class LabEnv:
    """Laboratory assay simulator with channelwise observation requests."""

    def __init__(
        self,
        spec: EnvSpec,
        channels: dict[str, tuple[str, ...]],
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ):
        self.spec = spec
        self.channels = channels
        self._bins = {
            name: self._parse_bins(name, outcomes) for name, outcomes in channels.items()
        }
        self._injected_rng = rng
        self.reset(seed)

    @staticmethod
    def _parse_bins(name: str, outcomes: tuple[str, ...]) -> np.ndarray | None:
        try:
            values = np.array([float(o) for o in outcomes])
        except ValueError:
            return None
        if np.any(np.diff(values) <= 0):
            raise ScenarioError(f"channel {name!r}: numeric outcomes must increase")
        return values

    def reset(self, seed: int = 0) -> LabState:
        self.rng = self._injected_rng or np.random.default_rng(seed)
        self.state = LabState(
            ph=self.spec.initial_ph,
            temp_c=self.spec.initial_temp_c,
            enzyme_activity=1.0,
            volume_ml=self.spec.volume_ml,
            spill=False,
            elapsed_min=0.0,
            reagent_used_ul=0.0,
        )
        self._hot_minutes = 0.0
        self._denatured = False
        self._titrated = False
        self._outcome: str | None = None
        self._observed = 0
        return self.state

    # -- observations ------------------------------------------------

    def observe(self, channel: str) -> Observation:
        if channel not in self.channels:
            raise ShapeError(f"unknown channel {channel!r}")
        outcome = getattr(self, f"_read_{_snake(channel)}")()
        obs = Observation(channel=channel, outcome=outcome, t=self._observed)
        self._observed += 1
        if (
            channel == "indicatorColor"
            and outcome == "green"
            and self._titrated
            and self._outcome is None
        ):
            self._outcome = "assay_complete"
        return obs

    def _snap(self, channel: str, value: float) -> str:
        values = self._bins[channel]
        if values is None:
            raise ShapeError(f"channel {channel!r} has no numeric bins")
        return self.channels[channel][int(np.argmin(np.abs(values - value)))]

    def _noise(self, sd: float) -> float:
        return float(self.rng.normal(0.0, sd)) * self.spec.noise_scale

    def _read_indicator_color(self) -> str:
        return indicator_color(self.state.ph)

    def _read_ph_probe(self) -> str:
        return self._snap("phProbe", self.state.ph + self._noise(self.spec.probe_sd))

    def _read_fluorescence(self) -> str:
        signal = 100.0 * self.state.enzyme_activity + self._noise(self.spec.fluor_sd)
        return self._snap("fluorescence", max(0.0, signal))

    def _read_temp_probe(self) -> str:
        return self._snap("tempProbe", self.state.temp_c + self._noise(self.spec.temp_sd))

    def _read_spill_detector(self) -> str:
        return "positive" if self.state.spill else "negative"

    # -- dynamics ----------------------------------------------------

    def apply(self, action: ExecutedAction) -> LabState:
        handler = getattr(self, f"_do_{action.primitive}")
        handler(action.params)
        return self.state

    def _advance(self, minutes: float) -> None:
        """Advance the clock; sustained heat denatures the enzyme once."""
        if self.state.temp_c > self.spec.denature_temp_c:
            self._hot_minutes += minutes
            if self._hot_minutes >= self.spec.denature_minutes and not self._denatured:
                self._denatured = True
                self._set(enzyme_activity=self.state.enzyme_activity * self.spec.denature_factor)
        self._set(elapsed_min=self.state.elapsed_min + minutes)

    def _set(self, **changes) -> None:
        self.state = replace(self.state, **changes)

    def _do_measure(self, params: dict) -> None:
        self._advance(self.spec.measure_minutes)

    def _do_titrate(self, params: dict) -> None:
        volume = float(params.get("volume_ul", 0.0))
        rate = float(params.get("rate_ul_per_s", 1.0))
        reagent = str(params.get("reagent", "NaOH"))
        mix_seconds = float(params.get("mix_seconds", 0.0))
        if volume < 0 or rate <= 0:
            raise ShapeError(f"bad titration parameters: volume={volume}, rate={rate}")
        sign = {"NaOH": 1.0, "HCl": -1.0}.get(reagent)
        if sign is None:
            raise ShapeError(f"unknown reagent {reagent!r}")

        delta = 0.0
        remaining = volume
        while remaining > 1e-9:
            dose = min(1.0, remaining)
            # per-microliter effect never reverses direction
            per_ul = max(0.0, self.spec.naoh_effect_per_ul + self._noise(self.spec.effect_sd_per_ul))
            delta += sign * per_ul * dose
            remaining -= dose
        self._advance((volume / rate + mix_seconds) / 60.0)
        spill = self.state.spill
        if rate > self.spec.max_safe_rate_ul_per_s and volume > 0:
            if float(self.rng.random()) < self.spec.spill_prob_over_rate:
                spill = True
        self._set(
            ph=float(np.clip(self.state.ph + delta / self.state.volume_ml, 0.0, 14.0)),
            reagent_used_ul=self.state.reagent_used_ul + volume,
            spill=spill,
        )
        if volume > 0:
            self._titrated = True

    def _do_mix(self, params: dict) -> None:
        self._advance(float(params.get("seconds", 10.0)) / 60.0)

    def _do_heat(self, params: dict) -> None:
        minutes = float(params.get("minutes", 1.0))
        self._advance(minutes)
        self._set(temp_c=self.state.temp_c + self.spec.heat_c_per_min * minutes)

    def _do_wait(self, params: dict) -> None:
        self._advance(float(params.get("minutes", 1.0)))

    def _do_ask_human(self, params: dict) -> None:
        self._advance(self.spec.ask_minutes)
        if self._outcome is None:
            self._outcome = "handed_off"

    def _do_discard(self, params: dict) -> None:
        self._advance(self.spec.discard_minutes)
        # the loaded sample goes to waste; a fresh buffer has no enzyme yet
        self._set(
            ph=self.spec.fresh_ph,
            enzyme_activity=0.0,
            volume_ml=self.spec.volume_ml,
        )
        self._titrated = False

    # -- episode bookkeeping ------------------------------------------

    @property
    def terminal_outcome(self) -> str | None:
        return self._outcome

    @property
    def is_terminal(self) -> bool:
        return self._outcome is not None


def _snake(name: str) -> str:
    out = []
    for ch in name:
        if ch.isupper():
            out.append("_")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)
