"""World-model provider contract tests: tabular, scripted, remote."""

import json
import os
import pathlib
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import actinf
from actinf.agent import Message
from actinf.dists import normalize
from actinf.errors import ProviderError, ReplayExhaustedError, ShapeError
from actinf.inference import VfeReport, bayes_update
from actinf.lab import Observation
from actinf.providers import (
    RemoteProvider,
    ScriptedProvider,
    TabularProvider,
    WorldModelQuery,
    WorldModelResponse,
    parse_response,
    query_wire_format,
    response_wire_format,
    save_script,
    validate_response,
)
from actinf.scenario import resolve_scenario
from actinf.trace import TraceEvent

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture()
def assay():
    return resolve_scenario("lab_assay")


def query_for(model, *observations):
    return WorldModelQuery(
        observation_history=tuple(observations), current_belief=model.d
    )


# -- query/response plumbing -------------------------------------------


def test_query_requires_strictly_increasing_timestamps(assay):
    obs = (Observation("indicatorColor", "yellow", 1), Observation("phProbe", "6.2", 1))
    with pytest.raises(ShapeError, match="strictly increase"):
        WorldModelQuery(observation_history=obs, current_belief=assay.model.d)


def test_query_wire_format_carries_history_and_belief(assay):
    query = query_for(assay.model, Observation("indicatorColor", "yellow", 0))
    doc = query_wire_format(query)
    assert set(doc) == {"history", "belief"}
    assert doc["history"] == [{"channel": "indicatorColor", "outcome": "yellow", "t": 0}]
    assert doc["belief"]["labels"] == list(assay.model.states)
    assert doc["belief"]["probs"] == [0.85, 0.15, 0.0, 0.0]


def test_response_wire_format_round_trips_ignoring_unknown_keys(assay):
    posterior = bayes_update(
        assay.model.d,
        assay.model.a.likelihood_column("indicatorColor", "yellow"),
    )
    doc = response_wire_format(WorldModelResponse(posterior, rationale="why"))
    assert set(doc) == {"posterior", "rationale"}
    # an endpoint may still send a rollout of its own; it is not read
    doc["rollout"] = [{"states": {"ph_ok": 1.0}, "observations": {}}]
    parsed = parse_response(json.loads(json.dumps(doc)))
    assert parsed.rationale == "why"
    assert parsed.proposed_posterior.allclose(posterior)


def test_parse_response_rejects_missing_posterior():
    with pytest.raises(ProviderError, match="no posterior") as err:
        parse_response({"rationale": "oops"})
    assert err.value.payload == {"rationale": "oops"}


def test_parse_response_never_renormalizes():
    doc = {"posterior": {"labels": ["a", "b"], "probs": [0.45, 0.45]}}
    with pytest.raises(ProviderError, match="invalid posterior") as err:
        parse_response(doc)
    # the offending payload is preserved untouched for the trace
    assert err.value.payload["posterior"]["probs"] == [0.45, 0.45]


def test_parse_response_rejects_a_nan_posterior():
    doc = json.loads('{"posterior": {"labels": ["a", "b"], "probs": [NaN, 1.0]}}')
    with pytest.raises(ProviderError, match="invalid posterior: non-finite"):
        parse_response(doc)


def test_parse_response_rejects_garbled_probs():
    doc = {"posterior": {"labels": ["a"], "probs": "lots"}}
    with pytest.raises(ProviderError, match="unreadable posterior"):
        parse_response(doc)


def test_validate_response_rejects_foreign_labels(assay):
    response = WorldModelResponse(normalize([1.0], ("elsewhere",)))
    with pytest.raises(ProviderError, match="do not match model states"):
        validate_response(response, assay.model.states)


# -- tabular provider ---------------------------------------------------


def test_tabular_matches_direct_bayes_update(assay):
    provider = TabularProvider(assay.model)
    obs = Observation("indicatorColor", "yellow", 0)
    response = provider.infer(query_for(assay.model, obs))
    direct = bayes_update(
        assay.model.d,
        assay.model.a.likelihood_column("indicatorColor", "yellow"),
        obs=obs,
    )
    assert response.proposed_posterior.labels == assay.model.states
    assert np.array_equal(response.proposed_posterior.probs, direct.probs)
    assert response.proposed_posterior.prob("ph_acidic") == pytest.approx(0.9437086, abs=1e-6)
    assert response.rationale == "exact update on indicatorColor=yellow"


def test_tabular_rejects_empty_history(assay):
    provider = TabularProvider(assay.model)
    with pytest.raises(ProviderError, match="empty history"):
        provider.infer(query_for(assay.model))


def test_tabular_wraps_unknown_outcomes(assay):
    provider = TabularProvider(assay.model)
    with pytest.raises(ProviderError):
        provider.infer(query_for(assay.model, Observation("indicatorColor", "purple", 0)))


def test_tabular_rejects_bad_learning_rate(assay):
    with pytest.raises(ShapeError):
        TabularProvider(assay.model, reliability_lr=1.5)


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


def test_tabular_refine_recalibrates_the_flagged_row(assay):
    provider = TabularProvider(assay.model, reliability_lr=0.6)
    before = assay.model.a.matrices["indicatorColor"].copy()
    summaries = provider.refine([flagged_event()])
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary.level == "sensorimotor"
    assert summary.parameter == "A[indicatorColor][ph_acidic][yellow]"
    assert summary.old == pytest.approx(0.95)
    assert summary.new == pytest.approx(0.98)
    after = provider.model.a.matrices["indicatorColor"]
    assert after[1, 0] == pytest.approx(0.98)
    assert after[1].sum() == pytest.approx(1.0)
    # untouched rows stay identical
    assert np.array_equal(after[0], before[0])
    assert np.array_equal(after[2], before[2])
    # the model the provider was built with is left as it was
    assert np.array_equal(assay.model.a.matrices["indicatorColor"], before)


def test_tabular_refine_is_idempotent_per_trace(assay):
    provider = TabularProvider(assay.model)
    events = [flagged_event()]
    assert provider.refine(events)
    assert provider.refine(events) == ()
    # a different trace is a genuinely new episode and refines again
    assert provider.refine([flagged_event(step=1)])[0].old == pytest.approx(0.98)


def test_tabular_refine_without_prediction_error_is_a_no_op(assay):
    provider = TabularProvider(assay.model)
    calm = TraceEvent(
        step=0,
        observation=Observation("indicatorColor", "green", 0),
        surprise=0.1,
        expected_surprise=0.5,
        belief=normalize([0.9, 0.1, 0.0, 0.0], assay.model.states),
        vfe=VfeReport(complexity=0.05, accuracy=-0.05, total=0.1),
    )
    assert provider.refine([calm]) == ()


# -- scripted provider --------------------------------------------------


def canned(probs, labels=("ph_ok", "ph_acidic", "spill", "restarted"), rationale=""):
    return WorldModelResponse(normalize(probs, labels), rationale=rationale)


def test_scripted_replays_in_order_and_exhausts(assay):
    provider = ScriptedProvider([canned([0.1, 0.9, 0, 0]), canned([0.6, 0.4, 0, 0])])
    query = query_for(assay.model, Observation("indicatorColor", "yellow", 0))
    first = provider.infer(query)
    second = provider.infer(query)
    assert first.proposed_posterior.prob("ph_acidic") == pytest.approx(0.9)
    assert second.proposed_posterior.prob("ph_acidic") == pytest.approx(0.4)
    with pytest.raises(ReplayExhaustedError) as err:
        provider.infer(query)
    assert isinstance(err.value, ProviderError)
    assert "after 2 responses" in str(err.value)


def test_scripted_save_and_load_round_trip(tmp_path, assay):
    path = tmp_path / "script.jsonl"
    save_script([canned([0.2, 0.8, 0, 0], rationale="beat one")], str(path))
    provider = ScriptedProvider.from_file(str(path))
    response = provider.infer(query_for(assay.model, Observation("phProbe", "6.2", 0)))
    assert response.rationale == "beat one"
    assert response.proposed_posterior.prob("ph_acidic") == pytest.approx(0.8)


def test_golden_script_matches_the_golden_trace():
    provider = ScriptedProvider.from_file(str(DATA / "golden_script_seed42.jsonl"))
    assert len(provider.responses) == 3
    from actinf.trace import read_trace

    _, docs = read_trace(str(DATA / "golden_trace_seed42.jsonl"))
    for response, doc in zip(provider.responses, docs):
        assert list(response.proposed_posterior.probs) == doc["belief"]["probs"]


# -- remote provider ----------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    script: list = []
    seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        type(self).seen.append(json.loads(self.rfile.read(length)))
        status, body = type(self).script.pop(0)
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.script = []
    _StubHandler.seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/wm", _StubHandler
    server.shutdown()
    thread.join(timeout=5)


def test_remote_round_trip(assay, stub_server):
    url, handler = stub_server
    handler.script.append(
        (200, json.dumps({
            "posterior": {
                "labels": ["ph_ok", "ph_acidic", "spill", "restarted"],
                "probs": [0.3, 0.7, 0.0, 0.0],
            },
            "rationale": "model call",
        }))
    )
    provider = RemoteProvider(url, timeout=5.0)
    response = provider.infer(query_for(assay.model, Observation("indicatorColor", "yellow", 0)))
    assert response.proposed_posterior.prob("ph_acidic") == pytest.approx(0.7)
    assert response.rationale == "model call"
    sent = handler.seen[0]
    assert sent["history"][0]["outcome"] == "yellow"
    assert sent["belief"]["probs"] == [0.85, 0.15, 0.0, 0.0]


def test_remote_http_error_is_a_provider_error(assay, stub_server):
    url, handler = stub_server
    handler.script.append((503, "busy"))
    with pytest.raises(ProviderError, match="HTTP 503") as err:
        RemoteProvider(url, timeout=5.0).infer(
            query_for(assay.model, Observation("indicatorColor", "yellow", 0))
        )
    assert err.value.payload == "busy"


def test_remote_non_json_is_a_provider_error(assay, stub_server):
    url, handler = stub_server
    handler.script.append((200, "<html>hello</html>"))
    with pytest.raises(ProviderError, match="non-JSON"):
        RemoteProvider(url, timeout=5.0).infer(
            query_for(assay.model, Observation("indicatorColor", "yellow", 0))
        )


def test_remote_invalid_posterior_is_rejected_not_repaired(assay, stub_server):
    url, handler = stub_server
    handler.script.append(
        (200, json.dumps({"posterior": {
            "labels": ["ph_ok", "ph_acidic", "spill", "restarted"],
            "probs": [0.45, 0.45, 0.0, 0.0],
        }}))
    )
    with pytest.raises(ProviderError, match="invalid posterior") as err:
        RemoteProvider(url, timeout=5.0).infer(
            query_for(assay.model, Observation("indicatorColor", "yellow", 0))
        )
    assert err.value.payload["posterior"]["probs"] == [0.45, 0.45, 0.0, 0.0]


def test_remote_unreachable_is_a_provider_error(assay):
    provider = RemoteProvider("http://127.0.0.1:9/wm", timeout=0.2)
    with pytest.raises(ProviderError, match="unreachable"):
        provider.infer(query_for(assay.model, Observation("indicatorColor", "yellow", 0)))


class _RecordingSession:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


def test_remote_close_closes_only_a_session_it_created(monkeypatch):
    supplied = _RecordingSession()
    RemoteProvider("http://127.0.0.1:9/wm", session=supplied).close()
    assert not supplied.closed

    monkeypatch.setattr("requests.Session", _RecordingSession)
    provider = RemoteProvider("http://127.0.0.1:9/wm")
    provider.close()
    assert provider.session.closed


def test_import_loads_the_http_stack_only_for_a_remote_provider():
    code = (
        "import sys, actinf; print('requests' in sys.modules); "
        "actinf.RemoteProvider('http://127.0.0.1:9/wm').close(); print('requests' in sys.modules)"
    )
    src = pathlib.Path(actinf.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == ["False", "True"]
