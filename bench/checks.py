"""Output checks computed apart from the program.

Every figure the checks compare against is recomputed here in plain
numpy from the scenario's arrays: the exact Bayes belief chain, the
free-energy identity of an exact posterior, the ledger's copy of the
trace, a path-enumeration expected free energy and the selection rule.
None of it calls into ``actinf.inference`` or ``actinf.planning``; the
program only supplies the parsed scenario, whose arrays are copied
before any episode can touch them.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

# Floor substituted for zero preference mass before a logarithm.
FLOOR = 1e-12

# Tolerance of every floating-point comparison except the ledger copy,
# which must be exact.
ATOL = 1e-9

_LEDGER_SPLIT = re.compile(r" {2,}")


class Reference:
    """The scenario's model arrays, copied at load time."""

    def __init__(self, scenario):
        model = scenario.model
        self.name = scenario.name
        self.states = tuple(model.states)
        self.outcomes = {ch: tuple(o) for ch, o in model.channels.items()}
        self.a = {ch: np.array(model.a.matrices[ch], dtype=float) for ch in self.outcomes}
        self.b = {
            action: np.array(model.b.tensor[i], dtype=float)
            for i, action in enumerate(model.b.actions)
        }
        self.log_c = {
            ch: np.log(np.clip(np.array(model.c.channel_priors[ch].probs, dtype=float), FLOOR, 1.0))
            for ch in self.outcomes
        }
        self.d = np.array(model.d.probs, dtype=float)
        self.policies = {p.label: tuple(p.actions) for p in model.policies}
        self.fallback = scenario.agent.fallback_policy

    def prior_entropy(self) -> float:
        p = self.d[self.d > 0]
        return float(-np.sum(p * np.log(p)))

    def column(self, channel: str, outcome: str) -> np.ndarray:
        return self.a[channel][:, self.outcomes[channel].index(outcome)]


def efe_by_paths(ref: Reference, belief: np.ndarray, actions) -> tuple[float, float, float]:
    """(epistemic, pragmatic, total) by enumerating every state path.

    The predicted state marginals come from summing path probabilities,
    not from pushing the belief through the transition matrices, and
    the information gain from the joint table of each step and channel.
    It is written apart from ``tests/oracles.py`` so that the benchmark
    imports nothing from the test suite.
    """
    n = len(ref.states)
    horizon = len(actions)
    marginals = np.zeros((horizon, n))
    for path in itertools.product(range(n), repeat=horizon + 1):
        p = belief[path[0]]
        for k, action in enumerate(actions):
            p *= ref.b[action][path[k], path[k + 1]]
        for k in range(horizon):
            marginals[k, path[k + 1]] += p
    epistemic = 0.0
    pragmatic = 0.0
    for marg in marginals:
        for channel, a in ref.a.items():
            joint = marg[:, None] * a
            q = joint.sum(axis=0)
            independent = marg[:, None] * q[None, :]
            mask = joint > 0.0
            epistemic += float(np.sum(joint[mask] * np.log(joint[mask] / independent[mask])))
            pragmatic += float(q @ ref.log_c[channel])
    return epistemic, pragmatic, -epistemic - pragmatic


def _expected_selection(table: list[dict]) -> str | None:
    """The first lowest-total row that is not vetoed."""
    best = None
    for row in table:
        if row["vetoed"]:
            continue
        if best is None or row["total"] < best["total"] - ATOL:
            best = row
    return None if best is None else best["policy"]


def _ledger_problems(ref: Reference, events: list[dict], ledger_text: str) -> list[str]:
    lines = ledger_text.splitlines()
    if len(lines) != len(events) + 3:
        return [f"ledger has {len(lines)} lines for {len(events)} steps"]
    problems = []
    values = [float(_LEDGER_SPLIT.split(line)[2]) for line in lines[2:-1]]
    if abs(float(_LEDGER_SPLIT.split(lines[1])[2]) - ref.prior_entropy()) > ATOL:
        problems.append("ledger baseline is not the entropy of the state prior")
    if values != [ev["vfe"]["total"] for ev in events]:
        problems.append("ledger VFE column differs from the trace's vfe.total")
    totals = dict(item.split("=") for item in lines[-1].removeprefix("operations: ").split())
    if events and {k: int(v) for k, v in totals.items()} != events[-1]["opCounts"]:
        problems.append("ledger operation totals differ from the last opCounts")
    return problems


def check_episode(
    ref: Reference,
    trace_text: str,
    ledger_text: str,
    *,
    seed: int,
    provider: str,
    outcome: str,
    spill: bool,
    efe_step: int | None = None,
) -> tuple[list[str], list[dict]]:
    """Problems found in one episode's trace and ledger, and its events.

    ``efe_step`` picks the step whose EFE table is compared with the
    path enumeration; None skips that comparison.
    """
    lines = trace_text.splitlines()
    header = json.loads(lines[0])
    events = [json.loads(line) for line in lines[1:]]
    problems = []
    expected_header = {"schema": "trace/v1", "scenario": ref.name, "seed": seed, "provider": provider}
    if header != expected_header:
        problems.append(f"trace header {header} != {expected_header}")

    posterior = None
    for k, ev in enumerate(events):
        prior = ref.d if k == 0 else posterior @ ref.b[events[k - 1]["action"]]
        obs = ev["observation"]
        column = ref.column(obs["channel"], obs["outcome"])
        answered = ev["providerError"] is None
        posterior = prior * column / float(prior @ column) if answered else prior
        belief = ev["belief"]
        if tuple(belief["labels"]) != ref.states or not np.allclose(
            belief["probs"], posterior, atol=ATOL, rtol=0.0
        ):
            problems.append(f"step {k}: belief is not the exact Bayes update")
        if answered and abs(ev["vfe"]["total"] - ev["surprise"]) > ATOL:
            problems.append(f"step {k}: vfe.total != surprise under an exact posterior")
        table = ev["efeTable"]
        selected = ev["selectedPolicy"]
        if selected != (_expected_selection(table) if table else None):
            problems.append(f"step {k}: selected {selected!r} is not the best unvetoed row")
        if selected is not None and ev["action"] != ref.policies[selected][0]:
            problems.append(f"step {k}: action {ev['action']!r} does not start {selected!r}")
        if k == efe_step and table:
            belief_probs = np.array(belief["probs"], dtype=float)
            for row in table:
                want = efe_by_paths(ref, belief_probs, ref.policies[row["policy"]])
                got = (row["epistemic"], row["pragmatic"], row["total"])
                if max(abs(g - w) for g, w in zip(got, want)) > ATOL:
                    problems.append(f"step {k}: EFE of {row['policy']} {got} != paths {want}")

    problems.extend(_ledger_problems(ref, events, ledger_text))

    if spill:
        problems.append("episode spilled")
    errors = [k for k, ev in enumerate(events) if ev["providerError"] is not None]
    if not errors:
        if outcome != "assay_complete":
            problems.append(f"outcome {outcome!r} without a provider error")
    else:
        k = errors[0]
        last_obs = events[-1]["observation"]
        completed_on_last = (last_obs["channel"], last_obs["outcome"]) == ("indicatorColor", "green")
        if events[k]["action"] != ref.policies[ref.fallback][0] or k != len(events) - 1:
            problems.append(f"step {k}: provider error not followed by {ref.fallback}")
        elif outcome != "handed_off" and not (outcome == "assay_complete" and completed_on_last):
            problems.append(f"outcome {outcome!r} after a provider error")
    return [f"seed {seed}: {p}" for p in problems], events


def efe_sample_step(events_count: int, rng) -> int | None:
    """One step in ten episodes, chosen by the run's seeded generator."""
    if rng.random() >= 0.1:
        return None
    return rng.randrange(events_count) if events_count else None
