"""Scenario files: one INI-style document per task, loaded into a bundle.

A scenario carries the agent's generative model ([states] [channels]
[A] [B] [C] [D] [policies]), the bench physics ([environment]), the
action vocabulary ([actions]) and the agent configuration ([agent]).
Matrix rows are written one named row per key; a few shorthands keep
hand-edited files compact:

    span 5.5 8.5 0.1      outcome labels on a numeric grid
    gauss 7.4 0.15        discretized normal over a numeric channel
    uniform               equal mass over the channel's outcomes
    identity / absorb     transition rows that keep the state put
    ge 90 / lt 90 ...     numeric outcome predicates in [C]
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .agent import AgentConfig
from .dists import CategoricalDistribution
from .errors import DegenerateDistributionError, ScenarioError
from .lab import ActionSpec, EnvSpec, PRIMITIVES
from .model import (
    GenerativeModel,
    ObservationModel,
    Policy,
    PreferenceEntry,
    PreferenceModel,
    TransitionModel,
    validate_model,
)

REQUIRED_SECTIONS = (
    "states", "channels", "actions", "A", "B", "C", "D",
    "policies", "environment", "agent",
)

# every scenario must declare the assistance fallback under this label
FALLBACK_POLICY = "ask_human"


@dataclass(frozen=True)
class Scenario:
    name: str
    model: GenerativeModel
    env: EnvSpec
    actions: dict[str, ActionSpec]
    agent: AgentConfig


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF at each z (numpy has no erf; math.erf runs per element)."""
    erf = np.array(list(map(math.erf, (z / math.sqrt(2.0)).tolist())))
    return 0.5 * (1.0 + erf)


def discretized_gaussian(values: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Normal mass per bin; edge bins absorb their open tail.

    Bin i spans c_i +/- width/2; the lower edge of bin i + 1 and the
    upper edge of bin i are computed apart, in that order of operations,
    so that every bit matches a bin-by-bin evaluation.
    """
    if not sigma > 0:
        raise ScenarioError(f"gauss needs sigma > 0, got {sigma}")
    values = np.asarray(values, dtype=float)
    width = float(values[1] - values[0]) if len(values) > 1 else 1.0
    upper = np.append(_phi((values[:-1] + width / 2 - mu) / sigma), 1.0)
    lower = np.append(0.0, _phi((values[1:] - width / 2 - mu) / sigma))
    return upper - lower


def _numeric_grid(owner: str, outcomes: tuple[str, ...]) -> np.ndarray | str:
    """The outcomes as an evenly spaced number grid, or why they are not one."""
    try:
        values = np.array([float(o) for o in outcomes])
    except ValueError:
        return f"{owner} has non-numeric outcomes"
    steps = np.diff(values)
    if len(steps) and not np.allclose(steps, steps[0], atol=1e-9):
        return f"{owner}: outcome grid must be evenly spaced"
    return values


class _Doc:
    """The required sections, each read once, and section/key-addressed errors."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.sections: dict[str, dict[str, str]] = {}
        for section in REQUIRED_SECTIONS:
            if not parser.has_section(section):
                raise ScenarioError(f"{name}: missing [{section}] section")
            self.sections[section] = dict(parser.items(section))

    def section(self, name: str) -> dict[str, str]:
        return self.sections[name]

    def fail(self, section: str, key: str, message: str):
        raise ScenarioError(f"{self.name}: [{section}] {key}: {message}")


def _parse_labels(doc: _Doc, section: str, key: str, raw: str) -> tuple[str, ...]:
    labels = tuple(raw.split())
    if not labels:
        doc.fail(section, key, "expected at least one label")
    if len(set(labels)) != len(labels):
        doc.fail(section, key, f"duplicate labels in {labels}")
    return labels


def _decimals(x: float) -> int:
    """The fewest decimals (at most 9) that write x to within 1e-9."""
    d = 0
    while d < 9 and abs(round(x, d) - x) > 1e-9:
        d += 1
    return d


def _parse_channel(doc: _Doc, key: str, raw: str) -> tuple[str, ...]:
    parts = raw.split()
    if parts and parts[0] == "span":
        well_formed = len(parts) == 4 or (len(parts) == 5 and parts[4] == "int")
        try:
            lo, hi, step = (float(p) for p in parts[1:4])
        except ValueError:
            lo = hi = step = math.nan
        if not (well_formed and math.isfinite(lo) and lo <= hi < math.inf and 0 < step < math.inf):
            doc.fail("channels", key, f"bad span spec {raw!r}")
        values = np.arange(lo, hi + step / 2, step)
        if parts[-1] == "int":
            return tuple(str(int(round(v))) for v in values)
        decimals = max(_decimals(lo), _decimals(step))
        return tuple(f"{v:.{decimals}f}" for v in values)
    return _parse_labels(doc, "channels", key, raw)


def _parse_row(doc: _Doc, section: str, key: str, raw: str, outcomes: tuple[str, ...],
               grid: np.ndarray | str) -> np.ndarray:
    """One matrix row; ``grid`` is the outcomes' number grid or why there is none."""
    parts = raw.split()
    if not parts:
        doc.fail(section, key, f"empty row, expected {len(outcomes)} entries")
    if parts[0] == "gauss":
        if isinstance(grid, str):
            doc.fail(section, key, f"gauss needs a number grid: {grid}")
        try:
            mu, sigma = float(parts[1]), float(parts[2])
        except (IndexError, ValueError):
            doc.fail(section, key, f"bad gauss spec {raw!r}")
        return discretized_gaussian(grid, mu, sigma)
    if parts[0] == "uniform":
        return np.full(len(outcomes), 1.0 / len(outcomes))
    try:
        row = np.array([float(p) for p in parts])
    except ValueError:
        doc.fail(section, key, f"expected numbers, got {raw!r}")
    if row.shape[0] != len(outcomes):
        doc.fail(section, key, f"expected {len(outcomes)} entries, got {row.shape[0]}")
    return row


def _parse_predicate(doc: _Doc, key: str, raw: str, channel: str,
                     outcomes: tuple[str, ...], grid: np.ndarray | str) -> tuple[str, ...]:
    parts = raw.split()
    if not parts:
        return ()
    if parts[0] in ("ge", "gt", "le", "lt"):
        if len(parts) != 2:
            doc.fail("C", key, f"bad predicate {raw!r}")
        try:
            bound = float(parts[1])
        except ValueError:
            bound = math.nan
        if math.isnan(bound):
            doc.fail("C", key, f"bad predicate {raw!r}: {parts[1]!r} is not a number")
        if isinstance(grid, str):
            doc.fail("C", key, f"{parts[0]} needs a number grid: {grid}")
        op = {"ge": np.greater_equal, "gt": np.greater,
              "le": np.less_equal, "lt": np.less}[parts[0]]
        return tuple(o for o, keep in zip(outcomes, op(grid, bound)) if keep)
    for label in parts:
        if label not in outcomes:
            doc.fail("C", key, f"unknown outcome {label!r} on channel {channel!r}")
    return tuple(parts)


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


def load_scenario(path_or_text, name: str = "") -> Scenario:
    """Parse and validate one scenario document.

    Accepts a filesystem path or raw text. Raises ScenarioError with a
    section/key address for malformed content, and with the full
    validation report when the generative model is inconsistent.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str
    text = str(path_or_text)
    if "\n" not in text and text.endswith(".ini"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                content = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {text!r}: {exc}") from exc
        name = name or text.rsplit("/", 1)[-1].removesuffix(".ini")
    else:
        content = text
        name = name or "inline"
    try:
        parser.read_string(content)
    except configparser.Error as exc:
        raise ScenarioError(f"{name}: {exc}") from exc
    doc = _Doc(parser, name)

    states = _parse_labels(doc, "states", "labels", doc.section("states").get("labels", ""))
    channels = {
        key: _parse_channel(doc, key, raw) for key, raw in doc.section("channels").items()
    }
    grids = {ch: _numeric_grid(f"channel {ch!r}", outcomes) for ch, outcomes in channels.items()}
    state_grid = _numeric_grid("[states]", states)

    # [actions]
    actions_raw = doc.section("actions")
    action_labels = _parse_labels(doc, "actions", "labels", actions_raw.get("labels", ""))
    actions: dict[str, ActionSpec] = {}
    for label in action_labels:
        primitive = actions_raw.get(f"{label}.primitive")
        observes = actions_raw.get(f"{label}.observes")
        if primitive not in PRIMITIVES:
            doc.fail("actions", f"{label}.primitive", f"expected one of {PRIMITIVES}, got {primitive!r}")
        if observes not in channels:
            doc.fail("actions", f"{label}.observes", f"unknown channel {observes!r}")
        params = {}
        prefix = f"{label}."
        for key, raw in actions_raw.items():
            if key.startswith(prefix) and key not in (f"{label}.primitive", f"{label}.observes"):
                params[key[len(prefix):]] = _coerce(raw)
        actions[label] = ActionSpec(label=label, primitive=primitive, observes=observes, params=params)

    # [A]
    a_raw = doc.section("A")
    matrices = {}
    for ch, outcomes in channels.items():
        rows = []
        for state in states:
            key = f"{ch}.{state}"
            if key not in a_raw:
                doc.fail("A", key, "missing likelihood row")
            rows.append(_parse_row(doc, "A", key, a_raw[key], outcomes, grids[ch]))
        matrices[ch] = np.stack(rows)

    # [B]
    b_raw = doc.section("B")
    n = len(states)
    tensor = np.zeros((len(action_labels), n, n))
    for ai, action in enumerate(action_labels):
        if b_raw.get(action, "").strip() == "identity":
            tensor[ai] = np.eye(n)
            continue
        for si, state in enumerate(states):
            key = f"{action}.{state}"
            if key not in b_raw:
                doc.fail("B", key, "missing transition row")
            if b_raw[key].strip() == "absorb":
                tensor[ai, si, si] = 1.0
            else:
                tensor[ai, si] = _parse_row(doc, "B", key, b_raw[key], states, state_grid)

    # [C]
    c_raw = doc.section("C")
    entry_names = []
    for key in c_raw:
        base = key.split(".", 1)[0]
        if base not in entry_names:
            entry_names.append(base)
    entries = []
    for entry in entry_names:
        channel = c_raw.get(f"{entry}.channel")
        if channel not in channels:
            doc.fail("C", f"{entry}.channel", f"unknown channel {channel!r}")
        try:
            weight = float(c_raw.get(f"{entry}.weight", ""))
        except ValueError:
            weight = math.nan
        if not math.isfinite(weight):
            doc.fail("C", f"{entry}.weight", "expected a finite number")
        entries.append(PreferenceEntry(
            name=entry,
            channel=channel,
            weight=weight,
            prefer=_parse_predicate(doc, f"{entry}.prefer", c_raw.get(f"{entry}.prefer", ""),
                                    channel, channels[channel], grids[channel]),
            avoid=_parse_predicate(doc, f"{entry}.avoid", c_raw.get(f"{entry}.avoid", ""),
                                   channel, channels[channel], grids[channel]),
        ))

    # [D]
    d_raw = doc.section("D")
    if "initial" not in d_raw:
        doc.fail("D", "initial", "missing initial state prior")
    try:
        d = CategoricalDistribution(
            states, _parse_row(doc, "D", "initial", d_raw["initial"], states, state_grid)
        )
    except DegenerateDistributionError as exc:
        doc.fail("D", "initial", str(exc))

    # [policies] (declaration order is candidate order)
    policies = tuple(
        Policy(label, tuple(raw.split())) for label, raw in doc.section("policies").items()
    )

    env = _build_spec(doc, "environment", EnvSpec)
    agent = _build_spec(doc, "agent", AgentConfig)

    model = GenerativeModel(
        states=states,
        actions=action_labels,
        channels=channels,
        a=ObservationModel(states=states, channels=channels, matrices=matrices),
        b=TransitionModel(states=states, actions=action_labels, tensor=tensor),
        c=PreferenceModel.compile(channels, tuple(entries)),
        d=d,
        policies=policies,
    )
    report = validate_model(model)
    if not report.ok:
        raise ScenarioError(f"{name}: invalid model\n{report.render()}")
    labels = {p.label for p in policies}
    if FALLBACK_POLICY not in labels:
        raise ScenarioError(f"{name}: [policies] must declare the {FALLBACK_POLICY!r} fallback")
    if agent.fallback_policy not in labels:
        raise ScenarioError(f"{name}: fallback policy {agent.fallback_policy!r} not declared")
    if env.start_channel not in channels:
        raise ScenarioError(f"{name}: start channel {env.start_channel!r} not declared")
    return Scenario(name=name, model=model, env=env, actions=actions, agent=agent)


def _build_spec(doc: _Doc, section: str, cls):
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, raw in doc.section(section).items():
        if key not in known:
            doc.fail(section, key, f"unknown {cls.__name__} field")
        value = _coerce(raw)
        expected = known[key].type
        if expected in ("float", float) and isinstance(value, int):
            value = float(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ScenarioError(f"[{section}]: {exc}") from exc


def save_scenario(scenario: Scenario, path: str | None = None) -> str:
    """Render a scenario back to its file format, shorthand-free.

    Numbers are written with full repr precision so a load/save/load
    round trip reproduces every matrix exactly.
    """
    model = scenario.model
    out = io.StringIO()

    def sec(title):
        out.write(f"[{title}]\n")

    def kv(key, value):
        out.write(f"{key} = {value}\n")

    def row(values):
        return " ".join(repr(float(v)) for v in values)

    sec("states")
    kv("labels", " ".join(model.states))
    out.write("\n")
    sec("channels")
    for ch, outcomes in model.channels.items():
        kv(ch, " ".join(outcomes))
    out.write("\n")
    sec("actions")
    kv("labels", " ".join(model.actions))
    for label in model.actions:
        spec = scenario.actions[label]
        kv(f"{label}.primitive", spec.primitive)
        kv(f"{label}.observes", spec.observes)
        for pkey, pval in spec.params.items():
            kv(f"{label}.{pkey}", pval)
    out.write("\n")
    sec("A")
    for ch in model.channels:
        for si, state in enumerate(model.states):
            kv(f"{ch}.{state}", row(model.a.matrices[ch][si]))
    out.write("\n")
    sec("B")
    for action in model.actions:
        m = model.b.matrix(action)
        for si, state in enumerate(model.states):
            kv(f"{action}.{state}", row(m[si]))
    out.write("\n")
    sec("C")
    for entry in model.c.entries:
        kv(f"{entry.name}.channel", entry.channel)
        kv(f"{entry.name}.weight", repr(entry.weight))
        kv(f"{entry.name}.prefer", " ".join(entry.prefer))
        kv(f"{entry.name}.avoid", " ".join(entry.avoid))
    out.write("\n")
    sec("D")
    kv("initial", row(model.d.probs))
    out.write("\n")
    sec("policies")
    for p in model.policies:
        kv(p.label, " ".join(p.actions))
    out.write("\n")
    sec("environment")
    for f in fields(EnvSpec):
        kv(f.name, getattr(scenario.env, f.name))
    out.write("\n")
    sec("agent")
    for f in fields(AgentConfig):
        kv(f.name, getattr(scenario.agent, f.name))

    text = out.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def builtin_scenario_path(name: str) -> str:
    import importlib.resources

    resource = importlib.resources.files("actinf.scenarios").joinpath(f"{name}.ini")
    if not resource.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return str(resource)


def resolve_scenario(ref: str) -> Scenario:
    """Load either a bundled scenario name or a path to an .ini file."""
    if ref.endswith(".ini"):
        return load_scenario(ref)
    return load_scenario(builtin_scenario_path(ref), name=ref)
