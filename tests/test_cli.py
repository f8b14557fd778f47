"""Command-line behavior: exit codes, output files, provider wiring."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from actinf.agent import Agent, run_episode
from actinf.cli import build_provider, main
from actinf.errors import ScenarioError
from actinf.lab import LabEnv
from actinf.model import validate_model
from actinf.providers import RemoteProvider, ScriptedProvider, TabularProvider
from actinf.scenario import builtin_scenario_path, resolve_scenario
from actinf.trace import emit_trace, read_trace

from .test_scenario import AGENT_RANGE_CASES

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
    assert "refined executive" not in out
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


@pytest.mark.parametrize("line, broken, address", [
    ("noise_scale = 1.0", "noise_scale = x",
     "bad_spec: [environment] noise_scale: expected float, got 'x'"),
    ("vfe_baseline_window = 5", "vfe_baseline_window = 2.5",
     "bad_spec: [agent] vfe_baseline_window: expected int, got '2.5'"),
    ("vfe_baseline_window = 5", "vfe_baseline_window = five",
     "bad_spec: [agent] vfe_baseline_window: expected int, got 'five'"),
    # the candidates are the declared policies; the two knobs that once
    # chose them are gone, and a file that still sets one is refused
    ("vfe_baseline_window = 5", "vfe_baseline_window = 5\nplanning_horizon = 2",
     "bad_spec: [agent] planning_horizon: unknown AgentConfig field"),
    ("vfe_baseline_window = 5", "vfe_baseline_window = 5\nmax_candidates = 16",
     "bad_spec: [agent] max_candidates: unknown AgentConfig field"),
])
def test_validate_addresses_a_bad_spec_value(tmp_path, capsys, line, broken, address):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    assert text.count(line) == 1
    path = tmp_path / "bad_spec.ini"
    path.write_text(text.replace(line, broken), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert address in captured.err


@pytest.mark.parametrize("key, value, rule", AGENT_RANGE_CASES)
def test_validate_addresses_an_out_of_range_agent_value(tmp_path, capsys, key, value, rule):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    broken, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    path = tmp_path / "bad_range.ini"
    path.write_text(broken, encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert f"bad_range: [agent] {key}: {rule}" in captured.err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key, value, rule", [
    ("volume_ml", "0", "positive"),  # was a ZeroDivisionError in a titration
    ("probe_sd", "-1", ">= 0"),  # was numpy's "scale < 0"
    ("effect_sd_per_ul", "-0.01", ">= 0"),
    ("volume_ml", "nan", "positive"),  # was a silent run
    ("spill_prob_over_rate", "nan", "in [0, 1]"),
])
def test_out_of_range_environment_value_fails_validate_and_run(tmp_path, capsys, command,
                                                               key, value, rule):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    broken, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    path = tmp_path / "bad_env.ini"
    path.write_text(broken, encoding="utf-8")
    seed = ["--seed", "42"] if command == "run" else []
    assert main([command, "--scenario", str(path), *seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad_env: [environment] {key}: {key} must be {rule}\n"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key, value, rule", [
    ("effect_per_ul", "0", "effect_per_ul must be positive"),  # was a ZeroDivisionError
    ("effect_per_ul", "nan", "effect_per_ul must be positive"),  # was a ValueError
    ("effect_per_ul", "-0.2", "effect_per_ul must be positive"),  # was an exit 2 from LabEnv
    # an auto dose past the titration bound; the second was an OverflowError from round()
    ("effect_per_ul", "0.00001", "an auto titration would dose 190000 ul from a phProbe "
                                 "reading of 5.5, more than the 10000 ul one titration may add"),
    ("effect_per_ul", "1e-320", "an auto titration would dose inf ul from a phProbe "
                                "reading of 5.5, more than the 10000 ul one titration may add"),
    ("target_ph", "nan", "target_ph must be in [0, 14]"),
    ("veto_outcome_mass", "nan", "veto_outcome_mass must be in [0, 1]"),  # was no veto
    ("veto_outcome_mass", "-1", "veto_outcome_mass must be in [0, 1]"),
    ("probe_channel", "phprobe", "unknown channel 'phprobe'"),  # was a dose never taken
    ("fallback_policy", "nobody", "unknown policy 'nobody'"),  # was unaddressed
])
def test_bad_agent_value_fails_validate_and_run(tmp_path, capsys, command, key, value, rule):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    broken, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    path = tmp_path / "bad_agent.ini"
    path.write_text(broken, encoding="utf-8")
    seed = ["--seed", "42"] if command == "run" else []
    assert main([command, "--scenario", str(path), *seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad_agent: [agent] {key}: {rule}\n"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_undeclared_start_channel_fails_validate_and_run(tmp_path, capsys, command):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    broken, count = re.subn(r"^start_channel = .*$", "start_channel = nope", text, flags=re.M)
    assert count == 1
    path = tmp_path / "bad_start.ini"
    path.write_text(broken, encoding="utf-8")
    seed = ["--seed", "42"] if command == "run" else []
    assert main([command, "--scenario", str(path), *seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad_start: [environment] start_channel: unknown channel 'nope'\n"



@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_a_channel_the_simulator_cannot_read_fails_validate_and_run(tmp_path, capsys, command):
    # validate said OK, and run and sweep ended in an AttributeError traceback
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    odor = (
        text.replace("spillDetector = negative positive\n",
                     "spillDetector = negative positive\nodor = faint strong\n")
        .replace("[B]\n", "".join(f"odor.{s} = uniform\n" for s in
                                  ("ph_ok", "ph_acidic", "spill", "restarted")) + "\n[B]\n")
        .replace("measure_pH.observes = phProbe", "measure_pH.observes = odor")
    )
    path = tmp_path / "odor.ini"
    path.write_text(odor, encoding="utf-8")
    seeds = {"run": ["--seed", "42"], "sweep": ["--seeds", "1..2"]}.get(command, [])
    assert main([command, "--scenario", str(path), *seeds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: odor: [actions] measure_pH.observes: the simulator cannot read channel 'odor'; "
    )


@pytest.mark.parametrize("line, address", [
    # each was read silently: the first dropped, the second kept as a mix param
    ("mx.seconds = 99", "[actions] mx.seconds: names no declared action; declared: "),
    ("mix.primitve = mix", "[actions] mix.primitve: primitive 'mix' reads no param 'primitve'; "
                           "it reads: seconds"),
])
def test_an_action_key_nothing_reads_fails_validate_with_its_address(tmp_path, capsys, line, address):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    path = tmp_path / "stray_key.ini"
    path.write_text(text.replace("mix.seconds = 10\n", f"mix.seconds = 10\n{line}\n"),
                    encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: stray_key: {address}")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_indicator_outcomes_the_simulator_never_reads_fail_validate_and_run(tmp_path, capsys, command):
    # validate said OK, and run exited 2: "unknown outcome 'yellow'", no address
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    path = tmp_path / "amber.ini"
    path.write_text(text.replace("indicatorColor = yellow green blue",
                                 "indicatorColor = amber green blue"), encoding="utf-8")
    seed = ["--seed", "1"] if command == "run" else []
    assert main([command, "--scenario", str(path), *seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: amber: [channels] indicatorColor: declared amber green blue, "
                            "but the simulator reads exactly yellow green blue here\n")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("line, broken, rule", [
    # each validated OK; run then exited 2 unaddressed, raised a
    # ValueError, ran with the spill rule off, or never finished
    ("titrate_NaOH_careful.volume_ul = auto", "titrate_NaOH_careful.volume_ul = -5",
     "volume_ul must be in [0, 10000] or auto, got '-5'"),
    ("titrate_NaOH_careful.reagent = NaOH", "titrate_NaOH_careful.reagent = KOH",
     "reagent must be one of NaOH HCl, got 'KOH'"),
    ("titrate_NaOH_careful.volume_ul = auto", "titrate_NaOH_careful.volume_ul = mix",
     "volume_ul must be in [0, 10000] or auto, got 'mix'"),
    ("titrate_NaOH_careful.rate_ul_per_s = 1.0", "titrate_NaOH_careful.rate_ul_per_s = nan",
     "rate_ul_per_s must be positive and finite, got 'nan'"),
    ("titrate_NaOH_careful.volume_ul = auto", "titrate_NaOH_careful.volume_ul = 1e9",
     "volume_ul must be in [0, 10000] or auto, got '1e9'"),
])
def test_a_bad_action_param_fails_validate_and_run_with_its_address(tmp_path, capsys, command,
                                                                    line, broken, rule):
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    assert text.count(line) == 1
    path = tmp_path / "bad_param.ini"
    path.write_text(text.replace(line, broken), encoding="utf-8")
    seed = ["--seed", "42"] if command == "run" else []
    assert main([command, "--scenario", str(path), *seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key = broken.split(" = ")[0]
    assert captured.err == f"error: bad_param: [actions] {key}: {rule}\n"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("weight", ["1e9", "710", "-1"])
def test_a_preference_weight_out_of_range_fails_validate_and_run(tmp_path, capsys, command,
                                                                 weight):
    # 1e9 and 710 ended both in an OverflowError traceback from math.exp
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    line = "containment_safety.weight = 0.95"
    assert text.count(line) == 1
    path = tmp_path / "heavy.ini"
    path.write_text(text.replace(line, f"containment_safety.weight = {weight}"),
                    encoding="utf-8")
    seed = ["--seed", "42"] if command == "run" else []
    assert main([command, "--scenario", str(path), *seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: heavy: [C] containment_safety.weight: "
                            "expected a finite number in [0, 100]\n")


def test_an_empty_policy_fails_validate_with_its_address(tmp_path, capsys):
    # was exit 2 with "policy 'nothing' has no actions", no scenario, no address
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    path = tmp_path / "empty_policy.ini"
    path.write_text(text.replace("[policies]\n", "[policies]\nnothing =\n"), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty_policy: [policies] nothing: expected at least one action\n"

def spill_detector_reads(path: pathlib.Path, negative: str, positive: str) -> str:
    """Write the assay to ``path`` with spillDetector's outcomes renamed; return the path."""
    text = pathlib.Path(builtin_scenario_path("lab_assay")).read_text(encoding="utf-8")
    for line, broken in [("spillDetector = negative positive", f"spillDetector = {negative} {positive}"),
                         ("containment_safety.prefer = negative", f"containment_safety.prefer = {negative}"),
                         ("containment_safety.avoid = positive", f"containment_safety.avoid = {positive}")]:
        assert text.count(line) == 1
        text = text.replace(line, broken)
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_decreasing_numeric_channel_fails_validate_as_run_does(tmp_path, capsys, command):
    path = spill_detector_reads(tmp_path / "descending.ini", "1", "0")
    assert main([command, "--scenario", path]) == 1
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert "descending: [channels] spillDetector: numeric outcomes must increase" in captured.err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("negative, positive", [("0", "inf"), ("-inf", "0")])
def test_non_finite_numeric_channel_fails_validate_and_run(tmp_path, capsys, command,
                                                           negative, positive):
    path = spill_detector_reads(tmp_path / "infinite.ini", negative, positive)
    assert main([command, "--scenario", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: infinite: [channels] spillDetector: numeric outcomes must be finite\n"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name", ["../scenarios/lab_assay", "..\\scenarios\\lab_assay", ".lab_assay"])
def test_bundled_scenario_name_with_a_path_exits_1(tmp_path, capsys, command, name):
    trace = tmp_path / "trace.jsonl"
    extra = ["--seed", "1", "--trace", str(trace)] if command == "run" else []
    assert main([command, "--scenario", name, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no bundled scenario named {name!r}\n"
    assert not trace.exists()


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


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_seed_must_be_a_non_negative_integer(capsys, seed):
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "lab_assay", "--seed", seed])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("steps", ["-1", "x", "2.5"])
def test_max_steps_must_be_a_non_negative_integer(capsys, monkeypatch, command, steps):
    # refused by argparse, before the scenario is loaded
    monkeypatch.setattr("actinf.cli.resolve_scenario", None)
    with pytest.raises(SystemExit) as err:
        main([command, "--scenario", "lab_assay", "--max-steps", steps])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --max-steps: expected a non-negative integer, got '{steps}'" in captured.err
    assert "Traceback" not in captured.err


def test_json_is_loaded_only_to_write_a_file(tmp_path):
    summary = tmp_path / "summary.json"
    code = (
        "import sys\n"
        "from actinf.cli import main\n"
        "main(['validate', '--scenario', 'lab_assay'])\n"
        "main(['run', '--scenario', 'lab_assay', '--seed', '42'])\n"
        "main(['sweep', '--scenario', 'lab_assay', '--seeds', '1..2'])\n"
        "print('json loaded:', 'json' in sys.modules)\n"
        f"main(['sweep', '--scenario', 'lab_assay', '--seeds', '1..2', '--summary', {str(summary)!r}])\n"
        "print('json loaded:', 'json' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = [line for line in done.stdout.splitlines() if line.startswith("json loaded:")]
    assert loaded == ["json loaded: False", "json loaded: True"]
    assert json.loads(summary.read_text(encoding="utf-8"))["episodes"] == 2


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
    # agent per seed; each seed must trace as if run alone
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
    built, closed = [], []

    class Closing(TabularProvider):
        def close(self):
            closed.append(self)

    class Crashing(Closing):
        def infer(self, query):
            raise RuntimeError("provider bug")

    provider_class = Closing

    def build(ref, scenario):
        built.append(provider_class(scenario.model))
        return built[-1]

    monkeypatch.setattr("actinf.cli.build_provider", build)
    assert main(["run", "--scenario", "lab_assay", "--seed", "42"]) == 0
    # a sweep builds one provider for all its seeds
    assert main(["sweep", "--scenario", "lab_assay", "--seeds", "1..3"]) == 0
    assert len(built) == 2 and closed == built

    provider_class = Crashing
    for command in (["run", "--seed", "42"], ["sweep", "--seeds", "1..3"]):
        with pytest.raises(RuntimeError, match="provider bug"):
            main([command[0], "--scenario", "lab_assay", *command[1:]])
    assert len(built) == 4 and closed == built
