"""Command-line behavior: exit codes, output files, provider wiring."""

import json
import pathlib

import pytest

from actinf.agent import Agent, run_episode
from actinf.cli import build_provider, main
from actinf.errors import ScenarioError
from actinf.lab import LabEnv
from actinf.model import validate_model
from actinf.providers import RemoteProvider, ScriptedProvider, TabularProvider
from actinf.scenario import builtin_scenario_path, resolve_scenario
from actinf.trace import emit_trace, read_trace

DATA = pathlib.Path(__file__).parent / "data"

BROKEN_SCENARIO = """\
[states]
labels = ok bad
"""


def test_run_writes_trace_and_ledger(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    ledger = tmp_path / "l.txt"
    code = main([
        "run", "--scenario", "lab_assay", "--seed", "42",
        "--trace", str(trace), "--ledger", str(ledger),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=assay_complete" in out
    assert "steps=3" in out
    assert "refined sensorimotor" in out
    assert trace.read_bytes() == (DATA / "golden_trace_seed42.jsonl").read_bytes()
    assert ledger.read_bytes() == (DATA / "golden_ledger_seed42.txt").read_bytes()


def test_run_twice_is_byte_identical(tmp_path):
    paths = []
    for tag in ("a", "b"):
        trace = tmp_path / f"{tag}.jsonl"
        ledger = tmp_path / f"{tag}.txt"
        assert main([
            "run", "--scenario", "lab_assay", "--seed", "42",
            "--trace", str(trace), "--ledger", str(ledger),
        ]) == 0
        paths.append((trace, ledger))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_validate_reports_the_model_shape(capsys):
    assert main(["validate", "--scenario", "lab_assay"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "lab_assay: OK (4 states, 5 channels, 6 actions, 4 policies)"


def test_validate_broken_scenario_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text(BROKEN_SCENARIO, encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "missing" in capsys.readouterr().err


def test_validate_rejects_a_nan_likelihood_row(tmp_path, capsys):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    path = tmp_path / "nan_row.ini"
    path.write_text(text.replace("indicatorColor.ph_ok = 0.01 0.97 0.02",
                                 "indicatorColor.ph_ok = nan 0.5 0.5"), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert "a.indicatorColor.ph_ok: entries outside [0, 1]" in captured.err


@pytest.mark.parametrize("line, broken, address", [
    ("enzyme_integrity.prefer = ge 90", "enzyme_integrity.prefer = ge ninety",
     "[C] enzyme_integrity.prefer: bad predicate 'ge ninety'"),
    ("containment_safety.weight = 0.95", "containment_safety.weight = nan",
     "[C] containment_safety.weight: expected a finite number"),
    ("containment_safety.weight = 0.95", "containment_safety.weight = inf",
     "[C] containment_safety.weight: expected a finite number"),
])
def test_validate_addresses_a_bad_preference_entry(tmp_path, capsys, line, broken, address):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    assert text.count(line) == 1
    path = tmp_path / "bad_preference.ini"
    path.write_text(text.replace(line, broken), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert address in captured.err


def test_missing_scenario_file_exits_1(capsys):
    assert main(["run", "--scenario", "/no/such.ini", "--seed", "1"]) == 1
    assert "cannot read scenario" in capsys.readouterr().err


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "lab_assay", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--scenario", "lab_assay", "--seeds", "5..1"])
    assert err.value.code == 2


def test_sweep_summary(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    code = main([
        "sweep", "--scenario", "lab_assay", "--seeds", "1..5",
        "--summary", str(summary_path),
    ])
    assert code == 0
    assert "5 episodes" in capsys.readouterr().out
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["scenario"] == "lab_assay"
    assert summary["seeds"] == "1..5"
    assert summary["episodes"] == 5
    assert summary["outcomes"] == {"assay_complete": 5}
    assert summary["firstPolicies"] == {"measure_then_titrate": 5}
    assert summary["unsafeFirstSelections"] == 0
    assert summary["spillEpisodes"] == 0
    assert [row["seed"] for row in summary["perSeed"]] == [1, 2, 3, 4, 5]


def test_sweep_validates_the_model_once(monkeypatch, capsys):
    # the model is audited where it is loaded; agents take it as given
    calls = []

    def counting(model):
        calls.append(model)
        return validate_model(model)

    for name in ("actinf.scenario.validate_model", "actinf.agent.validate_model"):
        monkeypatch.setattr(name, counting)
    assert main(["sweep", "--scenario", "lab_assay", "--seeds", "1..3"]) == 0
    assert "3 episodes" in capsys.readouterr().out
    assert len(calls) == 1


def test_sweep_seeds_do_not_depend_on_earlier_seeds():
    # `actinf sweep` shares one scenario across its seeds, with a fresh
    # provider and agent per seed; each seed must trace as if run alone
    shared = resolve_scenario("lab_assay")
    for seed in (1, 2, 3):
        traces = []
        for scenario in (shared, resolve_scenario("lab_assay")):
            provider = build_provider("tabular", scenario)
            agent = Agent(scenario.model, scenario.agent, provider, scenario.actions)
            env = LabEnv(scenario.env, scenario.model.channels, seed=seed)
            result, _ = run_episode(agent, env)
            traces.append(
                emit_trace(result.events, scenario=scenario.name, seed=seed, provider="tabular")
            )
        assert traces[0] == traces[1], f"seed {seed}"


def test_build_provider_dispatch():
    scenario = resolve_scenario("lab_assay")
    assert isinstance(build_provider("tabular", scenario), TabularProvider)
    scripted = build_provider(f"scripted:{DATA / 'golden_script_seed42.jsonl'}", scenario)
    assert isinstance(scripted, ScriptedProvider)
    remote = build_provider("remote:http://127.0.0.1:9/wm", scenario)
    assert isinstance(remote, RemoteProvider)
    assert remote.url == "http://127.0.0.1:9/wm"
    with pytest.raises(ScenarioError, match="unknown provider"):
        build_provider("psychic", scenario)


def test_scripted_provider_replays_the_golden_episode(tmp_path, capsys):
    trace = tmp_path / "scripted.jsonl"
    code = main([
        "run", "--scenario", "lab_assay", "--seed", "42",
        "--provider", f"scripted:{DATA / 'golden_script_seed42.jsonl'}",
        "--trace", str(trace),
    ])
    assert code == 0
    assert "outcome=assay_complete" in capsys.readouterr().out
    header, events = read_trace(str(trace))
    golden_header, golden_events = read_trace(str(DATA / "golden_trace_seed42.jsonl"))
    assert header["provider"] == "scripted"
    assert golden_header["provider"] == "tabular"
    assert events == golden_events


def test_exhausted_script_degrades_to_assistance(tmp_path, capsys):
    # one scripted response cannot cover the episode; later steps fall
    # back to the assistance policy instead of crashing
    script = tmp_path / "short.jsonl"
    script.write_text(
        (DATA / "golden_script_seed42.jsonl").read_text(encoding="utf-8").splitlines()[0]
        + "\n",
        encoding="utf-8",
    )
    trace = tmp_path / "t.jsonl"
    code = main([
        "run", "--scenario", "lab_assay", "--seed", "42",
        "--provider", f"scripted:{script}", "--trace", str(trace),
    ])
    assert code == 0
    assert "outcome=handed_off" in capsys.readouterr().out
    _, events = read_trace(str(trace))
    assert events[0]["providerError"] is None
    assert "exhausted" in events[1]["providerError"]
    assert events[1]["action"] == "ask_human"


def test_unreachable_remote_degrades_to_assistance(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    code = main([
        "run", "--scenario", "lab_assay", "--seed", "42",
        "--provider", "remote:http://127.0.0.1:9/wm",
        "--trace", str(trace),
    ])
    assert code == 0
    assert "outcome=handed_off" in capsys.readouterr().out
    _, events = read_trace(str(trace))
    assert "unreachable" in events[0]["providerError"]
    assert events[0]["action"] == "ask_human"


@pytest.mark.parametrize("url", ["localhost:9", "ftp://x/wm"])
def test_malformed_remote_url_is_rejected_before_the_episode(tmp_path, capsys, url):
    trace = tmp_path / "t.jsonl"
    code = main([
        "run", "--scenario", "lab_assay", "--seed", "42",
        "--provider", f"remote:{url}", "--trace", str(trace),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "outcome=" not in captured.out
    assert f"bad remote URL {url!r}" in captured.err
    assert not trace.exists()


def test_every_provider_the_cli_builds_is_closed(monkeypatch):
    closed = []

    class Closing(TabularProvider):
        def close(self):
            closed.append(self)

    class Crashing(Closing):
        def infer(self, query):
            raise RuntimeError("provider bug")

    provider_class = Closing

    def build(ref, scenario):
        return provider_class(scenario.model)

    monkeypatch.setattr("actinf.cli.build_provider", build)
    assert main(["run", "--scenario", "lab_assay", "--seed", "42"]) == 0
    assert main(["sweep", "--scenario", "lab_assay", "--seeds", "1..3"]) == 0
    assert len(closed) == 4

    provider_class = Crashing
    with pytest.raises(RuntimeError, match="provider bug"):
        main(["run", "--scenario", "lab_assay", "--seed", "42"])
    assert len(closed) == 5
