"""End-to-end acceptance gate.

Each test contributes exactly one PASS/FAIL line to the checklist that
conftest prints after the run, so the terminal output reads as a
criterion-by-criterion report.
"""

import contextlib
import pathlib
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from actinf.agent import Agent, run_episode
from actinf.dists import CategoricalDistribution, normalize, uniform
from actinf.inference import bayes_update, compute_vfe, kl_divergence, surprise
from actinf.lab import LabEnv, Observation
from actinf.model import Policy, PreferenceModel, TransitionModel
from actinf.planning import TIE_ATOL, expected_free_energy, rollout, select_policy
from actinf.providers import ScriptedProvider, TabularProvider
from actinf.scenario import resolve_scenario
from actinf.trace import emit_trace

from .conftest import ACCEPTANCE_RESULTS
from .oracles import efe_by_enumeration, random_model, random_policy

DATA = pathlib.Path(__file__).parent / "data"

POLICY_ORDER = (
    "measure_then_titrate",
    "ask_human",
    "add_base_immediately",
    "discard_restart",
)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, "FAIL", label))
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    ACCEPTANCE_RESULTS.append((number, "PASS", label))
    print(f"criterion {number:2d} PASS  {label}")


def fresh_episode(seed=42, max_steps=20):
    scenario = resolve_scenario("lab_assay")
    agent = Agent(scenario.model, scenario.agent, TabularProvider(scenario.model), scenario.actions)
    env = LabEnv(scenario.env, scenario.model.channels, seed=seed)
    result, ledger = run_episode(agent, env, max_steps=max_steps)
    return scenario, agent, result, ledger


@pytest.fixture(scope="module")
def golden_run():
    return fresh_episode(seed=42)


@pytest.fixture(scope="module")
def sweep100():
    """Seeds 1..100 through the production path: one scenario, a fresh
    provider and agent per seed."""
    scenario = resolve_scenario("lab_assay")
    episodes = []
    started = time.perf_counter()
    for seed in range(1, 101):
        agent = Agent(
            scenario.model, scenario.agent, TabularProvider(scenario.model), scenario.actions
        )
        env = LabEnv(scenario.env, scenario.model.channels, seed=seed)
        result, _ = run_episode(agent, env)
        episodes.append(result)
    elapsed = time.perf_counter() - started
    return episodes, elapsed


def test_criterion_1_bayes_posterior_value_and_speed():
    with criterion(1, "yellow posterior 0.944 +/- 0.005, under 1 ms"):
        prior = normalize([0.85, 0.15], ("ph_ok", "ph_acidic"))
        likelihood = np.array([0.01, 0.95])
        posterior = bayes_update(prior, likelihood)
        assert posterior.prob("ph_acidic") == pytest.approx(0.944, abs=0.005)

        best = min(
            _timed(lambda: bayes_update(prior, likelihood)) for _ in range(200)
        )
        assert best < 1e-3, f"single update took {best * 1e3:.3f} ms"


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_criterion_2_policy_order_holds_for_every_seed(sweep100):
    episodes, elapsed = sweep100
    with criterion(2, "EFE strictly orders the four policies, seeds 1..100, < 5 s"):
        checked = 0
        for result in episodes:
            for event in result.events:
                if not event.efe_table:
                    continue
                totals = {row.policy: row.total for row in event.efe_table}
                ordered = [totals[name] for name in POLICY_ORDER]
                assert all(a < b for a, b in zip(ordered, ordered[1:])), (
                    f"ordering broken: {totals}"
                )
                checked += 1
        assert checked >= 100
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"


def test_criterion_3_titration_arithmetic():
    with criterion(3, "pH 6.2 -> 7.4 at 0.2/uL plans exactly 6 uL"):
        scenario = resolve_scenario("lab_assay")
        agent = Agent(
            scenario.model, scenario.agent, TabularProvider(scenario.model), scenario.actions
        )
        agent.step(Observation("phProbe", "6.2", 0))
        assert agent.planned_volume_ul() == 6.0


def test_criterion_4_seed_42_episode_outcome(golden_run):
    with criterion(4, "seed-42 run completes safely within 8 steps"):
        _, _, result, _ = golden_run
        state = result.final_state
        assert result.outcome == "assay_complete"
        assert 7.28 <= state.ph <= 7.48
        assert state.spill is False
        assert state.elapsed_min <= 30.0
        assert result.steps <= 8


def test_criterion_5_ledger_shape(golden_run):
    with criterion(5, "ledger spikes >= 4x baseline at yellow, ends below baseline"):
        _, _, result, ledger = golden_run
        baseline = ledger.rows[0].vfe
        yellow_row = next(
            row for row in ledger.rows if row.step == 0
        )
        assert result.events[0].observation.outcome == "yellow"
        assert yellow_row.vfe >= 4.0 * baseline
        assert ledger.rows[-1].vfe < baseline


def test_criterion_6_oracle_equivalence():
    with criterion(6, "EFE matches path enumeration on 200 random models, < 30 s"):
        rng = np.random.default_rng(20240814)
        started = time.perf_counter()
        for _ in range(200):
            model, belief = random_model(rng)
            policy = random_policy(rng, model)
            (mine,) = expected_free_energy(model, rollout(model, belief, (policy,)))
            epistemic, pragmatic, total = efe_by_enumeration(model, belief, policy)
            assert mine.epistemic == pytest.approx(epistemic, abs=1e-6)
            assert mine.pragmatic == pytest.approx(pragmatic, abs=1e-6)
            assert mine.total == pytest.approx(total, abs=1e-6)
        assert time.perf_counter() - started < 30.0


def test_criterion_7_property_suites():
    with criterion(7, "five property suites, 1000 randomized instances each"):
        rng = np.random.default_rng(7)

        # KL >= 0 with equality iff the distributions are equal
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            labels = tuple(f"s{i}" for i in range(n))
            p = normalize(rng.random(n) + 1e-6, labels)
            q = normalize(rng.random(n) + 1e-6, labels)
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) <= 1e-9
            if not np.allclose(p.probs, q.probs, atol=1e-9):
                assert kl_divergence(p, q) > 0.0

        # information gain is never negative
        for _ in range(1000):
            model, belief = random_model(rng)
            policy = random_policy(rng, model)
            (row,) = expected_free_energy(model, rollout(model, belief, (policy,)))
            assert row.epistemic >= -1e-12

        # uniform preferences reduce the argmin to information gain
        for _ in range(1000):
            model, belief = random_model(rng)
            flat = _with_priors(
                model, {ch: uniform(out) for ch, out in model.channels.items()}
            )
            horizon = int(rng.integers(1, 3))
            candidates = tuple(
                _fixed_horizon_policy(rng, model, horizon, i) for i in range(3)
            )
            chosen, table = select_policy(flat, belief, candidates)
            assert chosen.label == _argmin_by(
                [-row.epistemic for row in table], candidates
            )

        # a delta belief under identity dynamics has nothing left to learn
        for _ in range(1000):
            model, _ = random_model(rng)
            frozen = _with_identity_dynamics(model)
            at = int(rng.integers(0, len(model.states)))
            probs = np.zeros(len(model.states))
            probs[at] = 1.0
            belief = normalize(probs, model.states)
            policy = random_policy(rng, frozen)
            (row,) = expected_free_energy(frozen, rollout(frozen, belief, (policy,)))
            assert abs(row.epistemic) < 1e-12

        # adding a constant to every log-preference cannot move the argmin
        for _ in range(1000):
            model, belief = random_model(rng)
            candidates = tuple(random_policy(rng, model) for _ in range(3))
            shift = float(rng.uniform(-3, 3))
            shifted = _with_priors(
                model,
                {
                    ch: normalize(np.exp(np.log(p.probs) + shift), p.labels)
                    for ch, p in model.c.channel_priors.items()
                },
            )
            base_choice, _ = select_policy(model, belief, candidates)
            shifted_choice, _ = select_policy(shifted, belief, candidates)
            assert base_choice.label == shifted_choice.label


def _with_priors(model, priors):
    return replace(model, c=PreferenceModel(entries=(), channel_priors=priors))


def _with_identity_dynamics(model):
    n = len(model.states)
    tensor = np.broadcast_to(np.eye(n), (len(model.actions), n, n)).copy()
    return replace(
        model, b=TransitionModel(states=model.states, actions=model.actions, tensor=tensor)
    )


def _fixed_horizon_policy(rng, model, horizon, tag):
    actions = tuple(str(rng.choice(model.actions)) for _ in range(horizon))
    return Policy(label=f"p{tag}-" + "-".join(actions), actions=actions)


def _argmin_by(keys, candidates):
    best = 0
    for i in range(1, len(keys)):
        if keys[i] < keys[best] - TIE_ATOL:
            best = i
    return candidates[best].label


def test_criterion_8_safety_sweep(sweep100):
    with criterion(8, "no unsafe first policy and no spills, seeds 1..100"):
        episodes, _ = sweep100
        for result in episodes:
            first = next(
                (e.selected_policy for e in result.events if e.selected_policy), None
            )
            assert first != "add_base_immediately"
            assert result.final_state.spill is False
            assert result.outcome == "assay_complete"


def test_criterion_9_byte_identical_reruns(tmp_path):
    with criterion(9, "two seed-42 CLI runs emit byte-identical files"):
        outputs = []
        for tag in ("first", "second"):
            trace = tmp_path / f"{tag}.jsonl"
            ledger = tmp_path / f"{tag}.txt"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "actinf",
                    "run", "--scenario", "lab_assay", "--seed", "42",
                    "--trace", str(trace), "--ledger", str(ledger),
                ],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((trace.read_bytes(), ledger.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]


def test_criterion_10_provider_substitutability(golden_run):
    with criterion(10, "tabular trace == direct engine; scripted replays the fixture"):
        _, _, result, _ = golden_run

        # the tabular-provider trace must be what the equations dictate;
        # reload the scenario because end-of-episode refinement already
        # recalibrated the run's own model copy
        scenario = resolve_scenario("lab_assay")
        model = scenario.model
        belief = model.d
        for event in result.events:
            obs = event.observation
            column = model.a.likelihood_column(obs.channel, obs.outcome)
            predictive = model.a.predictive(obs.channel, belief.probs)
            assert event.surprise == surprise(obs.outcome, predictive)
            assert event.expected_surprise == float(predictive.entropy())
            posterior = bayes_update(belief, column, obs=obs)
            assert np.array_equal(event.belief.probs, posterior.probs)
            vfe = compute_vfe(posterior, belief, column)
            assert event.vfe == vfe
            if event.efe_table:
                _, table = select_policy(model, posterior, model.policies)
                assert [row.total for row in event.efe_table] == [
                    row.total for row in table
                ]
            pushed = model.b.push(posterior.probs, event.action)
            belief = CategoricalDistribution(model.states, pushed)

        # a scripted provider replaying the recorded responses reproduces
        # the golden trace event for event
        scripted = ScriptedProvider.from_file(str(DATA / "golden_script_seed42.jsonl"))
        agent = Agent(model, scenario.agent, scripted, scenario.actions)
        env = LabEnv(scenario.env, model.channels, seed=42)
        replay, _ = run_episode(agent, env)
        golden_lines = (
            (DATA / "golden_trace_seed42.jsonl").read_text(encoding="utf-8").splitlines()
        )
        replay_text = emit_trace(
            replay.events, scenario=scenario.name, seed=42, provider="tabular"
        )
        assert replay_text.splitlines() == golden_lines
