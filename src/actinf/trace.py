"""Episode traces and the free-energy ledger.

Every agent step produces one TraceEvent; emit_trace writes them as
line-delimited JSON behind a schema-version header, and build_ledger
folds the same events into a per-stage free energy table with the
episode's cumulative operation counts, which render_ledger writes out.

Serialization relies on dict insertion order and repr-float rendering,
so equal inputs always produce byte-identical files. ``json`` is
imported by emit_trace and read_trace, not by importing this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .dists import CategoricalDistribution
from .errors import ShapeError
from .inference import VfeReport
from .lab import Observation
from .planning import EfeBreakdown

SCHEMA = "trace/v1"

# the keys of an event's cumulative operation counts (the episode's
# energy proxy), in emission order
COUNTER_KEYS = (
    "beliefUpdates",
    "efeEvaluations",
    "rolloutSteps",
    "envSteps",
    "providerCalls",
)


@dataclass(frozen=True)
class TraceEvent:
    """Everything one agent step decided and why."""

    step: int
    observation: Observation
    surprise: float
    expected_surprise: float
    belief: CategoricalDistribution
    vfe: VfeReport
    messages: tuple = ()
    efe_table: tuple[EfeBreakdown, ...] = ()
    selected_policy: str | None = None
    action: str = ""
    action_primitive: str = ""
    action_params: dict = field(default_factory=dict)
    op_counts: dict = field(default_factory=dict)
    provider_error: str | None = None

    def __post_init__(self):
        if self.selected_policy is not None and not self.efe_table:
            raise ShapeError(
                f"step {self.step}: selected policy {self.selected_policy!r} "
                "without a scored candidate table"
            )


class LedgerRow(NamedTuple):
    stage: str
    vfe: float
    explanation: str
    step: int | None = None


class FreeEnergyLedger(NamedTuple):
    """Chronological free-energy accounting plus operation totals."""

    rows: tuple[LedgerRow, ...]
    totals: dict[str, int]


def _message_json(message) -> dict:
    return {
        "direction": message.direction,
        "kind": message.kind,
        "step": message.step,
        "payload": message.payload,
    }


def _breakdown_json(b: EfeBreakdown) -> dict:
    return {
        "policy": b.policy,
        "epistemic": b.epistemic,
        "pragmatic": b.pragmatic,
        "total": b.total,
        "vetoed": b.vetoed,
    }


def event_json(event: TraceEvent) -> dict:
    """One event as a JSON-ready dict with stable key order."""
    return {
        "step": event.step,
        "observation": {
            "channel": event.observation.channel,
            "outcome": event.observation.outcome,
            "t": event.observation.t,
        },
        "surprise": event.surprise,
        "expectedSurprise": event.expected_surprise,
        "belief": {
            "labels": list(event.belief.labels),
            "probs": [float(p) for p in event.belief.probs],
        },
        "messages": [_message_json(m) for m in event.messages],
        "efeTable": [_breakdown_json(b) for b in event.efe_table],
        "selectedPolicy": event.selected_policy,
        "action": event.action,
        "actionPrimitive": event.action_primitive,
        "actionParams": dict(event.action_params),
        "vfe": {
            "complexity": event.vfe.complexity,
            "accuracy": event.vfe.accuracy,
            "total": event.vfe.total,
        },
        "opCounts": dict(event.op_counts),
        "providerError": event.provider_error,
    }


def emit_trace(
    events,
    *,
    scenario: str,
    seed: int,
    provider: str = "tabular",
    path: str | None = None,
) -> str:
    """Render events as JSONL: a header line, then one line per step."""
    import json

    header = {"schema": SCHEMA, "scenario": scenario, "seed": seed, "provider": provider}
    lines = [json.dumps(header)]
    lines.extend(json.dumps(event_json(e)) for e in events)
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_trace(path: str) -> tuple[dict, list[dict]]:
    """Load a JSONL trace back into (header, event dicts)."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("schema") != SCHEMA:
        raise ShapeError(f"{path}: not a {SCHEMA} trace")
    return lines[0], lines[1:]


# corrective bench work; an observation right after one of these is a
# check on the action's predicted outcome
_CORRECTIVE = ("titrate", "mix", "heat", "discard")


def _stage(event: TraceEvent, previous: TraceEvent | None) -> tuple[str, str]:
    obs = event.observation
    if any(m.kind == "prediction-error" for m in event.messages):
        return (
            "surprise observation",
            f"{obs.outcome} on {obs.channel} exceeded the expected-surprise baseline",
        )
    if previous is not None and previous.action_primitive == "measure":
        return ("post-measurement", f"{obs.channel} read {obs.outcome}")
    if previous is not None and previous.action_primitive in _CORRECTIVE:
        return (
            "post-correction",
            f"{obs.outcome} on {obs.channel} matched the post-action prediction",
        )
    return ("observation", f"{obs.outcome} on {obs.channel} in line with prediction")


def build_ledger(events, baseline: float) -> FreeEnergyLedger:
    """Fold a trace into stage rows; VFE totals are copied exactly.

    ``baseline`` is the entropy of the initial state prior: what being
    uncertain costs before any evidence arrives. An empty episode has
    an empty ledger body.
    """
    events = tuple(events)
    if not events:
        return FreeEnergyLedger(rows=(), totals={})
    rows = [LedgerRow("initial", baseline, "prior uncertainty before any observation")]
    previous = None
    for event in events:
        stage, explanation = _stage(event, previous)
        rows.append(LedgerRow(stage, event.vfe.total, explanation, step=event.step))
        previous = event
    return FreeEnergyLedger(rows=tuple(rows), totals=dict(events[-1].op_counts))


def render_ledger(ledger: FreeEnergyLedger) -> str:
    """Fixed-width four-column table plus one totals line."""
    header = ("step", "stage", "free energy (nats)", "explanation")
    body = [
        ("-" if row.step is None else str(row.step), row.stage, repr(row.vfe), row.explanation)
        for row in ledger.rows
    ]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(4)] if body else None
    lines = []
    if widths:
        for r in [header, *body]:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip())
    totals = " ".join(f"{k}={ledger.totals.get(k, 0)}" for k in COUNTER_KEYS)
    lines.append(f"operations: {totals}" if ledger.totals else "operations: none")
    return "\n".join(lines) + "\n"
