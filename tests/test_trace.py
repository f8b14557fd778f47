"""Trace serialization and free-energy ledger tests."""

import json
import pathlib

import pytest

from actinf.agent import Message
from actinf.dists import normalize
from actinf.errors import ShapeError
from actinf.inference import VfeReport
from actinf.lab import Observation
from actinf.planning import EfeBreakdown
from actinf.trace import (
    COUNTER_KEYS,
    SCHEMA,
    FreeEnergyLedger,
    LedgerRow,
    TraceEvent,
    build_ledger,
    emit_trace,
    event_json,
    read_trace,
    render_ledger,
)

DATA = pathlib.Path(__file__).parent / "data"

EVENT_KEY_ORDER = [
    "step", "observation", "surprise", "expectedSurprise", "belief",
    "messages", "efeTable", "selectedPolicy", "action", "actionPrimitive",
    "actionParams", "vfe", "opCounts", "providerError",
]


def make_event(step=0, channel="indicator", outcome="yellow", *, messages=(),
               action="look", primitive="measure", vfe_total=0.3, **kw):
    return TraceEvent(
        step=step,
        observation=Observation(channel, outcome, step),
        surprise=vfe_total,
        expected_surprise=0.1,
        belief=normalize([0.25, 0.75], ("ok", "bad")),
        vfe=VfeReport(complexity=vfe_total - 0.2, accuracy=-0.2, total=vfe_total),
        messages=messages,
        action=action,
        action_primitive=primitive,
        **kw,
    )


def pe_message(step=0):
    return Message(
        direction="bottom-up",
        kind="prediction-error",
        payload={"channel": "indicator"},
        step=step,
    )


def test_counter_snapshot_key_order():
    _, docs = read_trace(str(DATA / "golden_trace_seed42.jsonl"))
    for doc in docs:
        assert tuple(doc["opCounts"]) == COUNTER_KEYS
    assert docs[-1]["opCounts"]["envSteps"] == len(docs)


def test_event_rejects_selection_without_table():
    with pytest.raises(ShapeError):
        make_event(selected_policy="watch")


def test_event_accepts_selection_with_table():
    table = (EfeBreakdown(policy="watch", epistemic=0.2, pragmatic=-0.1, total=-0.1),)
    event = make_event(selected_policy="watch", efe_table=table)
    assert event.selected_policy == "watch"


def test_event_json_key_order():
    doc = event_json(make_event())
    assert list(doc) == EVENT_KEY_ORDER
    assert list(doc["vfe"]) == ["complexity", "accuracy", "total"]
    assert list(doc["observation"]) == ["channel", "outcome", "t"]


def test_emit_trace_header_then_events(tmp_path):
    path = tmp_path / "t.jsonl"
    text = emit_trace(
        [make_event(0), make_event(1, outcome="green")],
        scenario="demo", seed=7, provider="tabular", path=str(path),
    )
    assert path.read_text(encoding="utf-8") == text
    lines = text.splitlines()
    assert len(lines) == 3
    header = json.loads(lines[0])
    assert header == {"schema": SCHEMA, "scenario": "demo", "seed": 7, "provider": "tabular"}
    assert json.loads(lines[2])["observation"]["outcome"] == "green"


def test_emit_trace_empty_episode_is_header_only():
    text = emit_trace([], scenario="demo", seed=0)
    assert len(text.splitlines()) == 1


def test_read_trace_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    events = [make_event(0), make_event(1)]
    emit_trace(events, scenario="demo", seed=3, path=str(path))
    header, docs = read_trace(str(path))
    assert header["seed"] == 3
    assert [d["step"] for d in docs] == [0, 1]
    assert docs == [event_json(e) for e in events]


def test_read_trace_rejects_foreign_schema(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"schema": "other/v9"}\n', encoding="utf-8")
    with pytest.raises(ShapeError):
        read_trace(str(path))


def test_ledger_copies_vfe_exactly_and_starts_at_baseline():
    events = [make_event(0, vfe_total=1.75), make_event(1, vfe_total=0.25)]
    ledger = build_ledger(events, baseline=0.5)
    assert ledger.rows[0].stage == "initial"
    assert ledger.rows[0].vfe == 0.5
    assert ledger.rows[0].step is None
    assert [row.vfe for row in ledger.rows[1:]] == [1.75, 0.25]
    assert [row.step for row in ledger.rows[1:]] == [0, 1]


def test_ledger_stage_labels_follow_the_previous_action():
    events = [
        make_event(0, messages=(pe_message(0),), primitive="measure"),
        make_event(1, outcome="6.2", primitive="titrate"),
        make_event(2, outcome="green", primitive="ask_human"),
        make_event(3, outcome="green", primitive="wait"),
    ]
    ledger = build_ledger(events, baseline=0.4)
    assert [row.stage for row in ledger.rows] == [
        "initial",
        "surprise observation",   # prediction-error message wins
        "post-measurement",       # previous primitive was measure
        "post-correction",        # previous primitive was titrate
        "observation",            # previous primitive was ask_human
    ]
    assert "exceeded the expected-surprise baseline" in ledger.rows[1].explanation
    assert ledger.rows[2].explanation == "indicator read 6.2"


def test_ledger_totals_are_the_final_event_counts():
    events = [
        make_event(0, op_counts={"beliefUpdates": 1, "envSteps": 1}),
        make_event(1, op_counts={"beliefUpdates": 2, "envSteps": 2}),
    ]
    ledger = build_ledger(events, baseline=0.1)
    assert ledger.totals == {"beliefUpdates": 2, "envSteps": 2}


def test_empty_trace_gives_empty_ledger():
    ledger = build_ledger([], baseline=0.9)
    assert ledger.rows == ()
    assert render_ledger(ledger) == "operations: none\n"


def test_render_ledger_layout_and_determinism():
    events = [make_event(0, vfe_total=1.5, op_counts=dict(zip(COUNTER_KEYS, (1, 4, 8, 1, 1))))]
    text = render_ledger(build_ledger(events, baseline=0.5))
    lines = text.splitlines()
    assert lines[0].split() == ["step", "stage", "free", "energy", "(nats)", "explanation"]
    assert lines[1].startswith("-     initial")
    assert "1.5" in lines[2]
    assert lines[-1] == "operations: beliefUpdates=1 efeEvaluations=4 rolloutSteps=8 envSteps=1 providerCalls=1"
    again = render_ledger(build_ledger(events, baseline=0.5))
    assert again == text


def test_render_ledger_uses_repr_floats():
    ledger = FreeEnergyLedger(
        rows=(LedgerRow("initial", 0.42270908780599087, "prior"),),
        totals={},
    )
    assert "0.42270908780599087" in render_ledger(ledger)


def test_golden_trace_counters_never_decrease():
    header, docs = read_trace(str(DATA / "golden_trace_seed42.jsonl"))
    assert header["schema"] == SCHEMA
    assert header["scenario"] == "lab_assay"
    for key in COUNTER_KEYS:
        series = [doc["opCounts"][key] for doc in docs]
        assert series == sorted(series)
        assert series[0] >= 0
    assert [doc["step"] for doc in docs] == list(range(len(docs)))


def test_golden_trace_selection_always_carries_a_table():
    _, docs = read_trace(str(DATA / "golden_trace_seed42.jsonl"))
    for doc in docs:
        if doc["selectedPolicy"] is not None:
            assert doc["efeTable"], f"step {doc['step']} selected without scores"
