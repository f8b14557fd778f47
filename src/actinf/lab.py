"""Deterministic seeded bench-chemistry simulator for the assay task.

The environment owns the true pH, temperature, enzyme activity and
spill flag, and answers observation requests channel by channel. All
stochasticity flows from one ``numpy`` generator seeded at reset, so a
fixed (spec, seed, action sequence) replays byte-for-byte.

Sensor conventions: quoted "+/-" tolerances are treated as 2-sigma
Gaussian bands, and continuous readings snap to the nearest declared
outcome label of their channel.

Each primitive reads named params, each with a parse and a range rule
(``PRIMITIVE_PARAMS``) that ``load_scenario`` applies to a scenario's
actions; the simulator's state and readings are NamedTuple records.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ScenarioError, ShapeError, check_ranges

INDICATOR_YELLOW_BELOW = 7.0
INDICATOR_BLUE_ABOVE = 8.0

# the pH change per microliter of each reagent, as a multiple of
# EnvSpec.naoh_effect_per_ul
REAGENT_SIGN = {"NaOH": 1.0, "HCl": -1.0}

# the most reagent one titration may add; the simulator draws one dose
# per microliter, so this also bounds the work of one step
MAX_TITRATION_UL = 10_000


def _number(text: str) -> int | float:
    """A param's number as the file writes it: an int when it reads as one."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _volume(text: str) -> int | float | str:
    return text if text == "auto" else _number(text)


_DURATION = (_number, lambda v: 0 <= v < math.inf, ">= 0 and finite")

# each primitive and the params it reads from its action, by name, each
# with (parse, test, rule): how its text is read, and the test its value
# must pass, written so that NaN fails it, with the rule that test states
PRIMITIVE_PARAMS = {
    "measure": {},
    "titrate": {
        "volume_ul": (_volume, lambda v: v == "auto" or 0 <= v <= MAX_TITRATION_UL,
                      f"in [0, {MAX_TITRATION_UL}] or auto"),
        "rate_ul_per_s": (_number, lambda v: 0 < v < math.inf, "positive and finite"),
        "reagent": (str, REAGENT_SIGN.__contains__, f"one of {' '.join(REAGENT_SIGN)}"),
        "mix_seconds": _DURATION,
    },
    "mix": {"seconds": _DURATION},
    "heat": {"minutes": _DURATION},
    "wait": {"minutes": _DURATION},
    "ask_human": {},
    "discard": {},
}
PRIMITIVES = tuple(PRIMITIVE_PARAMS)


class LabState(NamedTuple):
    """Snapshot of the true bench state."""

    ph: float
    temp_c: float
    enzyme_activity: float
    volume_ml: float
    spill: bool
    elapsed_min: float
    reagent_used_ul: float


class Observation(NamedTuple):
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


# (field, test, rule) for each range check of EnvSpec, in order; each
# test is written so that NaN fails it
ENV_RANGES = (
    ("initial_ph", lambda v: 0 <= v <= 14, "in [0, 14]"),
    ("fresh_ph", lambda v: 0 <= v <= 14, "in [0, 14]"),
    ("volume_ml", lambda v: v > 0, "positive"),
    ("spill_prob_over_rate", lambda v: 0 <= v <= 1, "in [0, 1]"),
    ("max_safe_rate_ul_per_s", lambda v: v > 0, "positive"),
    ("denature_factor", lambda v: 0 <= v <= 1, "in [0, 1]"),
    *((key, lambda v: v >= 0, ">= 0") for key in (
        "naoh_effect_per_ul", "effect_sd_per_ul", "probe_sd", "temp_sd", "fluor_sd",
        "noise_scale", "measure_minutes", "ask_minutes", "discard_minutes",
        "denature_minutes",
    )),
    *((key, math.isfinite, "finite") for key in (
        "initial_temp_c", "heat_c_per_min", "denature_temp_c",
    )),
)


@dataclass(frozen=True)
class EnvSpec:
    """Physical constants of the simulated bench, scenario-declared."""

    initial_ph: float = 6.2
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

    def __post_init__(self):
        check_ranges(self, ENV_RANGES)


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
            name: _parse_bins(name, tuple(outcomes)) for name, outcomes in channels.items()
        }
        self._injected_rng = rng
        self.reset(seed)

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
        if channel not in READERS:
            raise ShapeError(f"no reader for channel {channel!r}")
        outcome = READERS[channel].read(self)
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
        self.state = self.state._replace(**changes)

    def _do_measure(self, params: dict) -> None:
        self._advance(self.spec.measure_minutes)

    def _do_titrate(self, params: dict) -> None:
        # a scenario's params, and the largest "auto" dose its agent can
        # plan, are checked at load; these checks are for actions and
        # agent configs built in code, which no load sees
        volume = float(params.get("volume_ul", 0.0))
        rate = float(params.get("rate_ul_per_s", 1.0))
        reagent = str(params.get("reagent", "NaOH"))
        mix_seconds = float(params.get("mix_seconds", 0.0))
        if not (0 <= volume <= MAX_TITRATION_UL and 0 < rate < math.inf):
            raise ShapeError(f"bad titration parameters: volume={volume}, rate={rate}")
        sign = REAGENT_SIGN.get(reagent)
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
            ph=min(max(self.state.ph + delta / self.state.volume_ml, 0.0), 14.0),
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


@functools.lru_cache(maxsize=64)
def _parse_bins(name: str, outcomes: tuple[str, ...]) -> np.ndarray | None:
    """A channel's outcomes as read-only numbers, or None if one is not a number.

    Memoised: every episode of a sweep builds its environment from the
    same channels.
    """
    try:
        values = np.array([float(o) for o in outcomes])
    except ValueError:
        return None
    if np.any(np.diff(values) <= 0):
        raise ScenarioError(f"channel {name!r}: numeric outcomes must increase")
    values.flags.writeable = False
    return values


class Reader(NamedTuple):
    """How the simulator reads one channel, and what the reading can be."""

    read: Callable[[LabEnv], str]
    # the fixed labels the reader returns, or None for a number that it
    # snaps to the nearest of the channel's (numeric) outcomes
    labels: tuple[str, ...] | None


# the channels the simulator can read, each with its reader
READERS = {
    "indicatorColor": Reader(LabEnv._read_indicator_color, ("yellow", "green", "blue")),
    "phProbe": Reader(LabEnv._read_ph_probe, None),
    "fluorescence": Reader(LabEnv._read_fluorescence, None),
    "tempProbe": Reader(LabEnv._read_temp_probe, None),
    "spillDetector": Reader(LabEnv._read_spill_detector, ("negative", "positive")),
}
