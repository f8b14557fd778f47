"""Command-line interface: run episodes, validate scenarios, sweep seeds.

Exit codes: 0 success, 1 scenario validation failure, 2 runtime error
(including bad usage, which argparse reports itself).
"""

from __future__ import annotations

import argparse
import re
import sys

from .agent import Agent, run_episode
from .errors import EngineError, ScenarioError
from .lab import LabEnv
from .providers import RemoteProvider, ScriptedProvider, TabularProvider, WorldModelProvider
from .scenario import Scenario, resolve_scenario
from .trace import emit_trace, render_ledger


def build_provider(ref: str, scenario: Scenario):
    if ref == "tabular":
        return TabularProvider(scenario.model)
    if ref.startswith("scripted:"):
        return ScriptedProvider.from_file(ref.split(":", 1)[1])
    if ref.startswith("remote:"):
        return RemoteProvider(ref.split(":", 1)[1])
    raise ScenarioError(
        f"unknown provider {ref!r}; expected tabular, scripted:<path> or remote:<url>"
    )


def _non_negative(text: str) -> int:
    if not re.fullmatch(r"\d+", text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _seed_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return lo, hi


def _run_one(scenario: Scenario, provider: WorldModelProvider, seed: int, max_steps: int):
    """One sweep episode on a fresh agent and env; returns (result, ledger).

    A provider answers each query from the query alone, so one provider
    serves any number of episodes, each traced as if it were the first.
    """
    agent = Agent(scenario.model, scenario.agent, provider, scenario.actions)
    env = LabEnv(scenario.env, scenario.model.channels, seed=seed)
    return run_episode(agent, env, max_steps=max_steps)


def _cmd_run(args) -> int:
    scenario = resolve_scenario(args.scenario)
    provider = build_provider(args.provider, scenario)
    try:
        agent = Agent(scenario.model, scenario.agent, provider, scenario.actions)
        env = LabEnv(scenario.env, scenario.model.channels, seed=args.seed)
        result, ledger = run_episode(agent, env, max_steps=args.max_steps)
    finally:
        provider.close()
    state = result.final_state
    print(
        f"outcome={result.outcome} steps={result.steps} "
        f"elapsed_min={state.elapsed_min:.2f} final_ph={state.ph:.3f} "
        f"spill={state.spill} reagent_ul={state.reagent_used_ul:g}"
    )
    # what the episode taught; a run carries no learning to another episode
    for r in agent.propagate_refinement(result.events)[0]:
        print(f"refined {r.level}: {r.parameter} {r.old:.6g} -> {r.new:.6g} ({r.note})")
    if args.trace:
        emit_trace(
            result.events,
            scenario=scenario.name,
            seed=args.seed,
            provider=provider.name,
            path=args.trace,
        )
        print(f"trace -> {args.trace}")
    if args.ledger:
        with open(args.ledger, "w", encoding="utf-8") as fh:
            fh.write(render_ledger(ledger))
        print(f"ledger -> {args.ledger}")
    return 0


def _cmd_validate(args) -> int:
    scenario = resolve_scenario(args.scenario)
    model = scenario.model
    print(
        f"{scenario.name}: OK "
        f"({len(model.states)} states, {len(model.channels)} channels, "
        f"{len(model.actions)} actions, {len(model.policies)} policies)"
    )
    return 0


def _cmd_sweep(args) -> int:
    scenario = resolve_scenario(args.scenario)
    lo, hi = args.seeds
    per_seed = []
    outcomes: dict[str, int] = {}
    first_policies: dict[str, int] = {}
    spills = 0
    # one provider, and for remote:<url> one connection, for the whole sweep
    provider = build_provider(args.provider, scenario)
    try:
        for seed in range(lo, hi + 1):
            result, _ = _run_one(scenario, provider, seed, args.max_steps)
            first = next((e.selected_policy for e in result.events if e.selected_policy), None)
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            if first is not None:
                first_policies[first] = first_policies.get(first, 0) + 1
            spills += int(result.final_state.spill)
            per_seed.append(
                {
                    "seed": seed,
                    "outcome": result.outcome,
                    "firstPolicy": first,
                    "steps": result.steps,
                    "spill": result.final_state.spill,
                }
            )
    finally:
        provider.close()
    summary = {
        "scenario": scenario.name,
        "seeds": f"{lo}..{hi}",
        "episodes": len(per_seed),
        "outcomes": dict(sorted(outcomes.items())),
        "firstPolicies": dict(sorted(first_policies.items())),
        "spillEpisodes": spills,
        "unsafeFirstSelections": first_policies.get("add_base_immediately", 0),
        "perSeed": per_seed,
    }
    if args.summary:
        import json

        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"summary -> {args.summary}")
    print(
        f"{summary['episodes']} episodes: outcomes={summary['outcomes']} "
        f"unsafe_first_selections={summary['unsafeFirstSelections']} "
        f"spills={summary['spillEpisodes']}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actinf",
        description="Active-inference episodes on scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one seeded episode")
    run.add_argument("--scenario", required=True, help="bundled name or path to .ini")
    run.add_argument("--seed", type=_non_negative, default=0)
    run.add_argument("--trace", help="write the JSONL trace here")
    run.add_argument("--ledger", help="write the rendered free-energy ledger here")
    run.add_argument("--provider", default="tabular",
                     help="tabular | scripted:<path> | remote:<url>")
    run.add_argument("--max-steps", type=_non_negative, default=20)
    run.set_defaults(func=_cmd_run)

    validate = sub.add_parser("validate", help="load and validate a scenario")
    validate.add_argument("--scenario", required=True)
    validate.set_defaults(func=_cmd_validate)

    sweep = sub.add_parser("sweep", help="run a seed range and tally safety")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--seeds", type=_seed_range, default=(1, 100), metavar="a..b")
    sweep.add_argument("--summary", help="write the JSON summary here")
    sweep.add_argument("--provider", default="tabular")
    sweep.add_argument("--max-steps", type=_non_negative, default=20)
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
