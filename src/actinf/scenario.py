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

Outcomes that all read as numbers must be finite and strictly
increasing; ``gauss`` and the predicates also need them evenly spaced
(every step within 1e-9 of the first). A ``span`` gives at most
MAX_SPAN_OUTCOMES outcomes and a ``gauss`` needs sigma > 0. A channel
that an action observes, or that the environment starts on, must be one
the simulator reads (``lab.READERS``), with the outcomes its reader
gives: that reader's labels, or numbers for a probe. Each [actions] key
other than ``labels`` is ``<action>.primitive``, ``<action>.observes``
or a param that the action's primitive reads (``lab.PRIMITIVE_PARAMS``),
read and range-checked by its rule there; the largest ``auto`` dose
the agent could plan is bounded like a declared one. A [C] weight is in
[0, MAX_WEIGHT], and one channel's weights sum to at most MAX_WEIGHT.
A policy lists at least one action; an action may repeat. A bundled
scenario is named plainly: a name with '/' or '\\' in it, or starting
with '.', names none.

The document grammar is line-based and deliberately small:

    [section]             a header, alone on its line
    key = value           split at the first '='; both sides stripped,
                          the value may be empty
    # or ; ...            a comment, on its own line only
                          (a ';' after a value is part of the value)

Blank lines are skipped. Everything else is rejected with a
``<name>: line N:`` address: a duplicate section, a duplicate key in a
section, a key before any section, a line without '=', a ':' delimiter,
an indented (continuation) line and text after a section header.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from .agent import AgentConfig
from .dists import CategoricalDistribution
from .errors import DegenerateDistributionError, ModelValidationError, ScenarioError
from .lab import MAX_TITRATION_UL, PRIMITIVE_PARAMS, PRIMITIVES, READERS, ActionSpec, EnvSpec
from .model import (
    MAX_WEIGHT,
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

# the most outcomes one ``span`` may give
MAX_SPAN_OUTCOMES = 10_000

# how an [environment] or [agent] value is read, by its field's type;
# float() also reads an integer
SPEC_TYPES = {"int": int, "float": float, "str": str}


class Scenario(NamedTuple):
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
    so that every bit matches a bin-by-bin evaluation. One CDF pass
    covers both edge arrays.
    """
    if not sigma > 0:
        raise ScenarioError(f"gauss needs sigma > 0, got {sigma}")
    values = np.asarray(values, dtype=float)
    inner = len(values) - 1
    half = (float(values[1] - values[0]) if inner else 1.0) / 2
    cdf = _phi((np.concatenate((values[:-1] + half, values[1:] - half)) - mu) / sigma)
    # upper edge CDF minus lower edge CDF; the last upper and first lower are open
    row = np.ones(inner + 1)
    row[:-1] = cdf[:inner]
    row[1:] -= cdf[inner:]
    return row


def read_sections(text: str, name: str) -> dict[str, dict[str, str]]:
    """The document as ``{section: {key: value}}`` in file order (grammar above)."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for number, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace():
            problem = "indented line (continuation lines are not supported)"
        elif stripped[0] == "[":
            title = stripped[1:-1]
            if stripped[-1] != "]":
                problem = ("text after section header" if "]" in stripped
                           else "unclosed section header")
            elif not title:
                problem = "empty section name"
            elif title in sections:
                problem = f"duplicate section [{title}]"
            else:
                current = sections[title] = {}
                continue
        elif current is None:
            problem = "key before any section"
        else:
            key, eq, value = stripped.partition("=")
            key = key.strip()
            if ":" in key:
                problem = "':' delimiter, expected 'key = value'"
            elif not eq:
                problem = "expected 'key = value'"
            elif not key:
                problem = "empty key"
            elif key in current:
                problem = f"duplicate key {key!r}"
            else:
                current[key] = value.strip()
                continue
        raise ScenarioError(f"{name}: line {number}: {problem}")
    return sections


def _numeric_grid(doc: _Doc, section: str, key: str, owner: str,
                  outcomes: tuple[str, ...]) -> np.ndarray | str:
    """The outcomes as an evenly spaced number grid, or why they are not one.

    Numbers that do not strictly increase, or that are not finite, are
    no grid of any kind (the environment snaps readings onto a
    channel's grid), so they fail at ``[section] key``.
    """
    try:
        numbers = [float(o) for o in outcomes]
    except ValueError:
        return f"{owner} has non-numeric outcomes"
    values = np.array(numbers)
    steps = values[1:] - values[:-1]
    if not (steps > 0).all():
        doc.fail(section, key, "numeric outcomes must increase")
    # increasing numbers are all finite when both ends are
    if not (math.isfinite(numbers[0]) and math.isfinite(numbers[-1])):
        doc.fail(section, key, "numeric outcomes must be finite")
    if len(steps) and abs(steps - steps[0]).max() > 1e-9:
        return f"{owner}: outcome grid must be evenly spaced"
    return values


class _Doc:
    """The required sections, each read once, and section/key-addressed errors."""

    def __init__(self, sections: dict[str, dict[str, str]], name: str):
        self.name = name
        self.sections = sections
        for section in REQUIRED_SECTIONS:
            if section not in sections:
                raise ScenarioError(f"{name}: missing [{section}] section")

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


def _parse_channel(doc: _Doc, key: str, raw: str) -> tuple[tuple[str, ...], np.ndarray | str]:
    """A channel's outcome labels and their number grid (or why they have none)."""
    parts = raw.split()
    if parts and parts[0] == "span":
        well_formed = len(parts) == 4 or (len(parts) == 5 and parts[4] == "int")
        try:
            lo, hi, step = (float(p) for p in parts[1:4])
        except ValueError:
            lo = hi = step = math.nan
        if not (well_formed and math.isfinite(lo) and lo <= hi < math.inf and 0 < step < math.inf):
            doc.fail("channels", key, f"bad span spec {raw!r}")
        # bounded before np.arange allocates; an overflowing count is inf
        count = (hi - lo) / step + 1
        if not count <= MAX_SPAN_OUTCOMES:
            doc.fail("channels", key,
                     f"span gives {count:.3g} outcomes, more than {MAX_SPAN_OUTCOMES}")
        values = np.arange(lo, hi + step / 2, step).tolist()
        if parts[-1] == "int":
            labels = tuple([str(round(v)) for v in values])
        else:
            spec = f".{max(_decimals(lo), _decimals(step))}f"
            labels = tuple([format(v, spec) for v in values])
    else:
        labels = _parse_labels(doc, "channels", key, raw)
    return labels, _numeric_grid(doc, "channels", key, f"channel {key!r}", labels)


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
        if not sigma > 0:
            doc.fail(section, key, f"gauss needs sigma > 0, got {sigma}")
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


def load_scenario(path_or_text, name: str = "") -> Scenario:
    """Parse and validate one scenario document.

    Accepts a filesystem path or raw text. Raises ScenarioError with a
    section/key address for malformed content, and with the full
    validation report when the generative model is inconsistent.
    """
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
    doc = _Doc(read_sections(content, name), name)

    states = _parse_labels(doc, "states", "labels", doc.section("states").get("labels", ""))
    channels = {}
    grids = {}
    for key, raw in doc.section("channels").items():
        channels[key], grids[key] = _parse_channel(doc, key, raw)
    state_grid = _numeric_grid(doc, "states", "labels", "[states]", states)

    # [actions]
    actions_raw = doc.section("actions")
    action_labels = _parse_labels(doc, "actions", "labels", actions_raw.get("labels", ""))
    primitives = {}
    for label in action_labels:
        primitive = primitives[label] = actions_raw.get(f"{label}.primitive")
        if primitive not in PRIMITIVES:
            doc.fail("actions", f"{label}.primitive", f"expected one of {PRIMITIVES}, got {primitive!r}")
        _check_readable(doc, "actions", f"{label}.observes",
                        actions_raw.get(f"{label}.observes"), channels)
    params: dict[str, dict] = {label: {} for label in action_labels}
    for key, raw in actions_raw.items():
        if key != "labels":
            _read_action_key(doc, key, raw, primitives, params)
    actions = {
        label: ActionSpec(label=label, primitive=primitives[label],
                          observes=actions_raw[f"{label}.observes"], params=params[label])
        for label in action_labels
    }

    # [A]
    a_raw = doc.section("A")
    matrices = {}
    for ch, outcomes in channels.items():
        # a row spec often repeats within a channel: parse each text once
        parsed: dict[str, np.ndarray] = {}
        rows = []
        for state in states:
            key = f"{ch}.{state}"
            if key not in a_raw:
                doc.fail("A", key, "missing likelihood row")
            raw = a_raw[key]
            if raw not in parsed:
                parsed[raw] = _parse_row(doc, "A", key, raw, outcomes, grids[ch])
            rows.append(parsed[raw])
        matrices[ch] = np.array(rows)

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
    channel_weights: dict[str, float] = {}
    for entry in entry_names:
        channel = c_raw.get(f"{entry}.channel")
        if channel not in channels:
            doc.fail("C", f"{entry}.channel", f"unknown channel {channel!r}")
        try:
            weight = float(c_raw.get(f"{entry}.weight", ""))
        except ValueError:
            weight = math.nan
        if not 0 <= weight <= MAX_WEIGHT:
            doc.fail("C", f"{entry}.weight", f"expected a finite number in [0, {MAX_WEIGHT:g}]")
        total = channel_weights[channel] = channel_weights.get(channel, 0.0) + weight
        if total > MAX_WEIGHT:
            doc.fail("C", f"{entry}.weight", f"the weights on channel {channel!r} sum to "
                                             f"{total:g}, more than {MAX_WEIGHT:g}")
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
    policies = []
    for label, raw in doc.section("policies").items():
        sequence = tuple(raw.split())
        if not sequence:
            doc.fail("policies", label, "expected at least one action")
        policies.append(Policy(label, sequence))

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
        policies=tuple(policies),
    )
    report = validate_model(model)
    if not report.ok:
        raise ScenarioError(f"{name}: invalid model\n{report.render()}")
    labels = {p.label for p in policies}
    if FALLBACK_POLICY not in labels:
        raise ScenarioError(f"{name}: [policies] must declare the {FALLBACK_POLICY!r} fallback")
    if agent.fallback_policy not in labels:
        doc.fail("agent", "fallback_policy", f"unknown policy {agent.fallback_policy!r}")
    _check_readable(doc, "environment", "start_channel", env.start_channel, channels)
    read = {spec.observes for spec in actions.values()} | {env.start_channel}
    for channel, outcomes in channels.items():
        if channel in read:
            _check_outcomes(doc, channel, outcomes)
    if agent.probe_channel not in channels:
        doc.fail("agent", "probe_channel", f"unknown channel {agent.probe_channel!r}")
    _check_dose(doc, agent, actions, channels, read)
    return Scenario(name=name, model=model, env=env, actions=actions, agent=agent)


def _check_dose(doc: _Doc, agent: AgentConfig, actions: dict[str, ActionSpec],
                channels: dict[str, tuple[str, ...]], read: set[str]) -> None:
    """Fail at ``[agent] effect_per_ul`` if an ``auto`` titration could dose
    more than MAX_TITRATION_UL.

    ``Agent.planned_volume_ul`` doses from the latest reading of its
    probe channel, so its largest dose is the one planned from that
    channel's lowest outcome; it is computed here as there.
    """
    probe = agent.probe_channel
    if (probe not in read or READERS[probe].labels is not None
            or all(spec.params.get("volume_ul") != "auto" for spec in actions.values())):
        return  # no auto dose, or no number it could be planned from
    lowest = float(channels[probe][0])  # a read probe's outcomes are increasing numbers
    step = agent.pipette_step_ul
    steps = (agent.target_ph - lowest) / agent.effect_per_ul / step
    # the first test keeps an infinite count away from round()
    if steps > MAX_TITRATION_UL / step + 1 or round(steps) * step > MAX_TITRATION_UL:
        doc.fail("agent", "effect_per_ul",
                 f"an auto titration would dose {steps * step:.6g} ul from a {probe} reading "
                 f"of {lowest:g}, more than the {MAX_TITRATION_UL} ul one titration may add")


def _read_action_key(doc: _Doc, key: str, raw: str, primitives: dict[str, str],
                     params: dict[str, dict]) -> None:
    """File one ``<label>.<field>`` key of [actions] under its action.

    A label may hold a '.', so every '.' that ends a declared label is
    tried. The key fails at its address unless at least one split names
    ``primitive``, ``observes`` or a param that the action's primitive
    reads; each such param is parsed and range-checked by its rule in
    ``PRIMITIVE_PARAMS`` and kept.
    """
    splits = []
    dot = key.find(".")
    while dot >= 0:
        if key[:dot] in primitives:
            splits.append((key[:dot], key[dot + 1:]))
        dot = key.find(".", dot + 1)
    if not splits:
        doc.fail("actions", key, f"names no declared action; declared: {' '.join(primitives)}")
    read = False
    for label, name in splits:
        reads = PRIMITIVE_PARAMS[primitives[label]]
        if name in reads:
            parse, valid, rule = reads[name]
            try:
                value = parse(raw)
            except ValueError:
                value = math.nan
            if not valid(value):
                doc.fail("actions", key, f"{name} must be {rule}, got {raw!r}")
            params[label][name] = value
        read = read or name in reads or name in ("primitive", "observes")
    if not read:
        label, name = splits[-1]
        primitive = primitives[label]
        reads = " ".join(PRIMITIVE_PARAMS[primitive]) or "none"
        doc.fail("actions", key, f"primitive {primitive!r} reads no param {name!r}; "
                                 f"it reads: {reads}")


def _check_readable(doc: _Doc, section: str, key: str, channel, channels) -> None:
    """Fail at ``[section] key`` unless ``channel`` is declared and simulated."""
    if channel not in channels:
        doc.fail(section, key, f"unknown channel {channel!r}")
    if channel not in READERS:
        doc.fail(section, key, f"the simulator cannot read channel {channel!r}; "
                               f"it reads {', '.join(READERS)}")


def _check_outcomes(doc: _Doc, channel: str, outcomes: tuple[str, ...]) -> None:
    """Fail at ``[channels] channel`` unless its outcomes are what its reader gives."""
    labels = READERS[channel].labels
    if labels is None:
        for outcome in outcomes:
            try:
                float(outcome)
            except ValueError:
                doc.fail("channels", channel,
                         f"the simulator reads a number here and snaps it to the nearest "
                         f"outcome, so every outcome must be a number; got {outcome!r}")
    elif set(outcomes) != set(labels):
        doc.fail("channels", channel, f"declared {' '.join(outcomes)}, but the simulator "
                                      f"reads exactly {' '.join(labels)} here")


def _build_spec(doc: _Doc, section: str, cls):
    """The section as a ``cls``, each value read as its field's type."""
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, raw in doc.section(section).items():
        if key not in known:
            doc.fail(section, key, f"unknown {cls.__name__} field")
        # a field's type is its annotation's text under `from __future__ import annotations`
        expected = getattr(known[key].type, "__name__", known[key].type)
        try:
            kwargs[key] = SPEC_TYPES[expected](raw)
        except ValueError:
            doc.fail(section, key, f"expected {expected}, got {raw!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ScenarioError(f"{doc.name}: [{section}]: {exc}") from exc
    except ModelValidationError as exc:  # a value out of its field's range
        doc.fail(section, exc.field, str(exc))


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
    """The path of the bundled scenario ``name``: a plain name, no path."""
    path = os.path.join(os.path.dirname(__file__), "scenarios", f"{name}.ini")
    if "/" in name or "\\" in name or name.startswith(".") or not os.path.isfile(path):
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return path


def resolve_scenario(ref: str) -> Scenario:
    """Load either a bundled scenario name or a path to an .ini file."""
    if ref.endswith(".ini"):
        return load_scenario(ref)
    return load_scenario(builtin_scenario_path(ref), name=ref)
