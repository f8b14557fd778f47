"""Regenerate the frozen fixtures under tests/data/.

Run manually after an intentional engine change:

    python3 tests/make_golden.py

The fixtures pin the bundled assay scenario as a fresh load saves it
(every matrix at full precision), byte-exact trace/ledger output and
the provider response script for it at seed 42, and the sha256 of the
trace and of the ledger of every seed of a 1..100 sweep run in order
on one scenario and one provider, as ``actinf sweep`` runs it.
"""

from __future__ import annotations

import hashlib
import pathlib

from actinf.agent import Agent, run_episode
from actinf.lab import LabEnv
from actinf.providers import TabularProvider, WorldModelProvider, save_script
from actinf.scenario import resolve_scenario, save_scenario
from actinf.trace import emit_trace, render_ledger

DATA = pathlib.Path(__file__).parent / "data"
SEED = 42
SWEEP_SEEDS = range(1, 101)
SWEEP_DIGESTS = DATA / "golden_sweep_1_100.sha256"


class RecordingProvider(WorldModelProvider):
    """Pass-through wrapper that keeps every response it forwarded."""

    def __init__(self, inner):
        self.inner = inner
        self.responses = []

    @property
    def name(self):
        return self.inner.name

    def infer(self, query):
        response = self.inner.infer(query)
        self.responses.append(response)
        return response


def sweep_line(scenario, provider, seed: int) -> str:
    """``<seed> <sha256 of the trace> <sha256 of the ledger>`` for one episode."""
    agent = Agent(scenario.model, scenario.agent, provider, scenario.actions)
    env = LabEnv(scenario.env, scenario.model.channels, seed=seed)
    result, ledger = run_episode(agent, env)
    trace = emit_trace(result.events, scenario=scenario.name, seed=seed, provider=provider.name)
    digests = (hashlib.sha256(text.encode("utf-8")).hexdigest()
               for text in (trace, render_ledger(ledger)))
    return f"{seed} {' '.join(digests)}\n"


def main() -> None:
    DATA.mkdir(exist_ok=True)
    scenario = resolve_scenario("lab_assay")
    save_scenario(scenario, str(DATA / "golden_lab_assay_saved.ini"))
    provider = RecordingProvider(TabularProvider(scenario.model))
    agent = Agent(scenario.model, scenario.agent, provider, scenario.actions)
    env = LabEnv(scenario.env, scenario.model.channels, seed=SEED)
    result, ledger = run_episode(agent, env)

    trace = emit_trace(
        result.events, scenario=scenario.name, seed=SEED, provider=provider.name
    )
    (DATA / "golden_trace_seed42.jsonl").write_text(trace, encoding="utf-8")
    (DATA / "golden_ledger_seed42.txt").write_text(render_ledger(ledger), encoding="utf-8")

    save_script(provider.responses, str(DATA / "golden_script_seed42.jsonl"))
    print(
        f"wrote {len(result.events)} events, {len(ledger.rows)} ledger rows, "
        f"{len(provider.responses)} scripted responses -> {DATA}"
    )

    shared = resolve_scenario("lab_assay")
    sweep_provider = TabularProvider(shared.model)
    lines = [sweep_line(shared, sweep_provider, seed) for seed in SWEEP_SEEDS]
    SWEEP_DIGESTS.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} sweep digests -> {SWEEP_DIGESTS}")


if __name__ == "__main__":
    main()
