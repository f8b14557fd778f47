"""Benchmark of actinf on the bundled ``lab_assay`` scenario.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory. Workloads (see README.md for why each exists):

  sweep     the loop of ``actinf sweep``: one scenario per round of
            seeds, a fresh provider, agent and env per seed
  cold_run  ``actinf validate`` then ``actinf run --trace --ledger``,
            called in process through ``actinf.cli.main``
  remote    ``RemoteProvider`` against a keep-alive HTTP endpoint on
            127.0.0.1 served from one thread, with a fixed fault schedule

Each workload is a closed loop with one client. Episodes run in whole
rounds over the same ROUND seeds until the timed section reaches
``--seconds`` and holds at least MIN_EPISODES episodes. Outputs are
checked after each round, outside the timed section. Times are scaled
to a fixed machine speed by a probe run between episodes (see
speed.py). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs TRACED_ROUNDS rounds untraced and then the same rounds traced, and
prints the per-layer metrics and the tracing overhead. The last line of
stdout is a JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import io
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SCENARIO = "lab_assay"
# Seeds per round: the default seed range of `actinf sweep`. A sweep
# round shares one scenario, as `actinf sweep` does, so the failure
# share of the leak below is (ROUND - 1) / ROUND whatever the seed.
ROUND = 100
# At least ten rounds, so that each seed's episode is timed ten times.
MIN_EPISODES = 10 * ROUND
SETUP_REPEATS = 5
# fresh interpreters in which the import of actinf is timed
IMPORT_REPEATS = 7
TRACED_ROUNDS = 2
# Episode i of every round has seed seed * SEED_STRIDE + i.
SEED_STRIDE = 1_000_000

LEAK_CAUSE = (
    "TabularProvider.refine (src/actinf/providers.py) writes a sharpened matrix into "
    "scenario.model.a.matrices, which every seed of a sweep shares"
)

PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")


class Api:
    """The actinf modules, looked up at call time so that tracing wrappers apply."""

    def __init__(self):
        import actinf.agent
        import actinf.cli
        import actinf.lab
        import actinf.scenario
        import actinf.trace

        self.agent = actinf.agent
        self.cli = actinf.cli
        self.lab = actinf.lab
        self.scenario = actinf.scenario
        self.trace = actinf.trace

    def load(self):
        return self.scenario.resolve_scenario(SCENARIO)

    def episode(self, scenario, provider_ref: str, seed: int):
        """One episode as `actinf sweep` runs it; returns (provider name, result, ledger)."""
        provider = self.cli.build_provider(provider_ref, scenario)
        agent = self.agent.Agent(scenario.model, scenario.agent, provider, scenario.actions)
        env = self.lab.LabEnv(scenario.env, scenario.model.channels, seed=seed)
        result, ledger = self.agent.run_episode(agent, env)
        return provider.name, result, ledger

    def render(self, seed: int, provider: str, result, ledger) -> tuple[str, str]:
        """The trace and ledger text `actinf run` would write for this episode."""
        text = self.trace.emit_trace(result.events, scenario=SCENARIO, seed=seed, provider=provider)
        return text, self.trace.render_ledger(ledger)


class Round:
    def __init__(self, seeds):
        self.seeds = seeds
        self.outputs: list = []
        # (start, end) of each episode and each scenario load
        self.episodes: list[tuple[float, float]] = []
        self.loads: list[tuple[float, float]] = []
        self.ids: list[int] = []
        self.traced = False
        self.scenario = None


class Checked:
    """What the checks of one or more rounds found."""

    def __init__(self):
        self.problems: list[str] = []
        self.failed = 0
        self.steps = 0
        self.replans = 0
        self.provider_errors = 0
        self.trace_bytes = 0
        self.ops: Counter = Counter()
        # the program fault behind the failures counted, if any
        self.cause = ""

    def add_events(self, events: list[dict]) -> None:
        self.steps += len(events)
        self.replans += sum(1 for ev in events if ev["efeTable"])
        self.provider_errors += sum(1 for ev in events if ev["providerError"] is not None)
        if events:
            self.ops.update(events[-1]["opCounts"])


class Workload:
    name = ""

    def __init__(self, api: Api, tracer, speed, work: pathlib.Path):
        from checks import Reference

        self.api = api
        self.tracer = tracer
        self.speed = speed
        self.work = work
        self.episodes = 0
        self.setup_loads: list[tuple[float, float]] = []
        # loaded before any episode and never handed to the program:
        # isolated reruns get deep copies of it
        self.pristine = api.load()
        self.ref = Reference(self.pristine)

    def _timed_load(self, into: list):
        start = time.perf_counter()
        scenario = self.api.load()
        into.append((start, time.perf_counter()))
        return scenario

    def setup(self) -> tuple[float, float]:
        """One set-up: what a user pays before the first episode."""
        start = time.perf_counter()
        self._setup()
        end = time.perf_counter()
        self.speed.probe()
        return start, end

    def _setup(self) -> None:
        raise NotImplementedError

    def run_round(self, seeds) -> Round:
        """Episodes of one round, each timed alone, with speed probes between them."""
        rnd = Round(seeds)
        rnd.traced = self.tracer.active
        self._start_round(rnd)
        self.speed.probe()
        for i, seed in enumerate(seeds):
            self.tracer.episode = self.episodes
            rnd.ids.append(self.episodes)
            self.episodes += 1
            start = time.perf_counter()
            rnd.outputs.append(self._episode(rnd, i, seed))
            rnd.episodes.append((start, time.perf_counter()))
            self.speed.probe()
        return rnd

    def _start_round(self, rnd: Round) -> None:
        pass

    def _episode(self, rnd: Round, index: int, seed: int):
        raise NotImplementedError

    def check(self, rnd: Round, rng: random.Random, checked: Checked) -> None:
        raise NotImplementedError

    def endpoint_stats(self) -> tuple[int, int, int, int]:
        return 0, 0, 0, 0

    def close(self) -> None:
        pass

    def _check(self, checked, rng, seed, provider, text, ledger_text, outcome, spill, steps) -> list[dict]:
        from checks import check_episode, efe_sample_step

        problems, events = check_episode(
            self.ref, text, ledger_text, seed=seed, provider=provider,
            outcome=outcome, spill=spill, efe_step=efe_sample_step(steps, rng),
        )
        checked.problems.extend(problems)
        if steps != len(events):
            checked.problems.append(f"seed {seed}: {steps} steps reported, {len(events)} traced")
        return events

    def _emit(self, rnd: Round, i: int, checked: Checked) -> tuple[str, str]:
        """Trace and ledger text of the round's episode i, as `actinf run` writes them.

        `sweep` and `remote` write no files: in a traced pass this
        rendering, which the checks need, is what their trace layer costs.
        """
        provider, result, ledger = rnd.outputs[i]
        self.tracer.episode, self.tracer.active = rnd.ids[i], rnd.traced
        try:
            text, ledger_text = self.api.render(rnd.seeds[i], provider, result, ledger)
        finally:
            self.tracer.episode, self.tracer.active = None, False
        checked.trace_bytes += len(text.encode()) + len(ledger_text.encode())
        return text, ledger_text


class Sweep(Workload):
    """The loop of `actinf sweep`, with no files written."""

    name = "sweep"

    def __init__(self, *args):
        super().__init__(*args)
        # seed -> trace and ledger text of the seed run alone
        self.isolated: dict[int, tuple[str, str]] = {}

    def _setup(self) -> None:
        self.api.episode(self._timed_load(self.setup_loads), "tabular", 0)

    def _start_round(self, rnd) -> None:
        rnd.scenario = self._timed_load(rnd.loads)

    def _episode(self, rnd, index, seed):
        return self.api.episode(rnd.scenario, "tabular", seed)

    def _run_alone(self, seed: int, rng, checked) -> tuple[str, str]:
        """Trace and ledger of the seed run on a fresh scenario, checked once."""
        if seed not in self.isolated:
            provider, result, ledger = self.api.episode(copy.deepcopy(self.pristine), "tabular", seed)
            self.isolated[seed] = self.api.render(seed, provider, result, ledger)
            self._check(checked, rng, seed, provider, *self.isolated[seed],
                        result.outcome, result.final_state.spill, result.steps)
        return self.isolated[seed]

    def check(self, rnd, rng, checked) -> None:
        """Each episode must equal the same seed run alone on a fresh scenario."""
        import numpy as np

        mismatched = 0
        for i, seed in enumerate(rnd.seeds):
            shared = self._emit(rnd, i, checked)
            checked.add_events([json.loads(line) for line in shared[0].splitlines()[1:]])
            if shared == self._run_alone(seed, rng, checked):
                continue
            if i == 0:
                # nothing ran on the round's scenario before this episode
                checked.problems.append(f"seed {seed}: rerun gave a different trace or ledger")
            else:
                mismatched += 1
        changed = {
            ch: rows for ch, rows in rnd.scenario.model.a.matrices.items()
            if not np.array_equal(rows, self.ref.a[ch])
        }
        if mismatched and not changed:
            checked.problems.append(
                f"{mismatched} sweep episodes differ from their isolated runs, "
                "but the shared A matrices are unchanged"
            )
        elif mismatched:
            checked.failed += mismatched
            row = changed["indicatorColor"][self.ref.states.index("ph_acidic")].tolist()
            checked.cause = (
                "sweep episodes differ from the same seed run alone on a freshly loaded "
                f"scenario. Cause: {LEAK_CAUSE}; after the last round "
                f"A[indicatorColor][ph_acidic] = {row}."
            )


class ColdRun(Workload):
    """`actinf validate` then `actinf run --trace --ledger`, in process."""

    name = "cold_run"

    def _cold_episode(self, seed: int, tag: str):
        trace_path = self.work / f"trace-{tag}.jsonl"
        ledger_path = self.work / f"ledger-{tag}.txt"
        main = self.api.cli.main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            t0 = time.perf_counter()
            validate_rc = main(["validate", "--scenario", SCENARIO])
            t1 = time.perf_counter()
            run_rc = main([
                "run", "--scenario", SCENARIO, "--seed", str(seed),
                "--trace", str(trace_path), "--ledger", str(ledger_path),
            ])
        return (validate_rc, run_rc, out.getvalue(), trace_path, ledger_path), (t0, t1)

    def _setup(self) -> None:
        self._cold_episode(0, "setup")

    def _episode(self, rnd, index, seed):
        output, load = self._cold_episode(seed, str(index))
        rnd.loads.append(load)
        return output

    def check(self, rnd, rng, checked) -> None:
        for seed, (validate_rc, run_rc, out, trace_path, ledger_path) in zip(rnd.seeds, rnd.outputs):
            lines = out.splitlines()
            if validate_rc or run_rc or not lines[0].startswith(f"{SCENARIO}: OK"):
                checked.problems.append(f"seed {seed}: exit codes {validate_rc}, {run_rc}: {out!r}")
                continue
            # outcome=... steps=... elapsed_min=... final_ph=... spill=... reagent_ul=...
            fields = dict(item.split("=", 1) for item in lines[1].split())
            text = trace_path.read_text(encoding="utf-8")
            ledger_text = ledger_path.read_text(encoding="utf-8")
            checked.trace_bytes += len(text.encode()) + len(ledger_text.encode())
            checked.add_events(self._check(
                checked, rng, seed, "tabular", text, ledger_text,
                fields["outcome"], fields["spill"] == "True", int(fields["steps"]),
            ))
        seed, first = rnd.seeds[0], rnd.outputs[0]
        again, _ = self._cold_episode(seed, "rerun")
        for a, b in ((first[3], again[3]), (first[4], again[4])):
            if a.read_bytes() != b.read_bytes():
                checked.problems.append(f"seed {seed}: rerun wrote different {a.name} bytes")


class Remote(Workload):
    """Episodes whose belief updates go over HTTP to the local endpoint."""

    name = "remote"
    endpoint = None

    def _setup(self) -> None:
        from endpoint import Endpoint

        if self.endpoint is not None:
            self.endpoint.close()
        scenario = self._timed_load(self.setup_loads)
        self.endpoint = Endpoint(self.ref)
        self.api.episode(scenario, f"remote:{self.endpoint.url}/0", 0)

    def _start_round(self, rnd) -> None:
        rnd.scenario = self._timed_load(rnd.loads)

    def _episode(self, rnd, index, seed):
        return self.api.episode(rnd.scenario, f"remote:{self.endpoint.url}/{index}", seed)

    def check(self, rnd, rng, checked) -> None:
        for i, (seed, (provider, result, ledger)) in enumerate(zip(rnd.seeds, rnd.outputs)):
            checked.add_events(self._check(
                checked, rng, seed, provider, *self._emit(rnd, i, checked),
                result.outcome, result.final_state.spill, result.steps,
            ))
        seed, first = rnd.seeds[0], rnd.outputs[0]
        again = self.api.episode(copy.deepcopy(self.pristine), f"remote:{self.endpoint.url}/0", seed)
        if self.api.render(seed, *first) != self.api.render(seed, *again):
            checked.problems.append(f"seed {seed}: rerun gave a different trace or ledger")

    def endpoint_stats(self):
        return self.endpoint.stats()

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None


WORKLOADS = {w.name: w for w in (Sweep, ColdRun, Remote)}


class Pass:
    """The rounds of one timed section and what their checks found."""

    def __init__(self):
        self.episodes: list[tuple[float, float]] = []
        self.loads: list[tuple[float, float]] = []
        self.checked = Checked()
        self.endpoint = (0, 0, 0, 0)

    def latencies(self, speed) -> list[float]:
        return [speed.scaled(*interval) for interval in self.episodes]


def run_pass(workload: Workload, seed: int, *, seconds=None, rounds=None, traced=False) -> Pass:
    rng = random.Random(seed)
    result = Pass()
    endpoint = [0, 0, 0, 0]
    timed = 0.0
    r = 0
    # every round runs the same seeds (for `sweep`, the same
    # `actinf sweep --seeds a..b`), so that each seed's episode is timed
    # once per round and its isolated rerun made once per run
    seeds = [seed * SEED_STRIDE + i for i in range(ROUND)]
    while True:
        # start each round from a collected heap, so that the garbage of
        # the previous round's checks is not collected inside this one
        gc.collect()
        before = workload.endpoint_stats()
        workload.tracer.active = traced
        rnd = workload.run_round(seeds)
        workload.tracer.active = False
        workload.tracer.episode = None
        endpoint = [n + b - a for n, a, b in zip(endpoint, before, workload.endpoint_stats())]
        workload.check(rnd, rng, result.checked)
        result.episodes += rnd.episodes
        result.loads += rnd.loads
        timed += sum(end - start for start, end in rnd.episodes)
        r += 1
        if rounds is not None:
            if r == rounds:
                break
        elif timed >= seconds and len(result.episodes) >= MIN_EPISODES:
            break
    result.endpoint = tuple(endpoint)
    return result


def end_to_end(p: Pass, setup_s: float, speed) -> dict:
    latencies = p.latencies(speed)
    wall = sum(latencies)
    # Bursts of host interference too short for the probes to see land
    # on single episodes, and in busy stretches fill the top percent of
    # all episodes. Episode i of every round runs the same seed, hence
    # the same work: the lower quartile of its times over the rounds is
    # its time with such bursts left out. The percentiles are taken over
    # the seeds of those times.
    per_seed = [statistics.quantiles(latencies[i::ROUND], n=4)[0] for i in range(ROUND)]
    p99 = statistics.quantiles(per_seed, n=100, method="inclusive")[98]
    return {
        "setup_s": (setup_s, "s"),
        "episodes_per_s": (len(latencies) / wall, "1/s"),
        "steps_per_s": (p.checked.steps / wall, "1/s"),
        "episode_ms_p50": (1e3 * statistics.median(per_seed), "ms"),
        "episode_ms_p99": (1e3 * p99, "ms"),
        "scenario_load_ms_p50": (1e3 * statistics.median(speed.scaled(*i) for i in p.loads), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_figures(p: Pass) -> str:
    """The unscaled wall-clock figures, for the report."""
    raw = [end - start for start, end in p.episodes]
    return (
        f"unscaled: {len(raw) / sum(raw):.2f} episodes/s, p50 {1e3 * statistics.median(raw):.3f} ms, "
        f"p99 {1e3 * statistics.quantiles(raw, n=100)[98]:.3f} ms over {len(raw)} episodes"
    )


def per_layer(traced: Pass, untraced: Pass, tracer, speed) -> dict:
    from tracing import SpanTotals

    st = SpanTotals(tracer.spans, speed)
    e = len(traced.episodes)
    steps = st.in_episodes["agent.step"]
    ops = traced.checked.ops
    connections, requests, request_bytes, response_bytes = traced.endpoint

    def per_episode_ms(name):
        return 1e3 * st.episode_seconds[name] / e

    def per_step_ms(name):
        return 1e3 * st.episode_seconds[name] / steps

    def per_request(n):
        return n / requests if requests else 0.0

    overhead = 100.0 * (sum(traced.latencies(speed)) / sum(untraced.latencies(speed)) - 1.0)
    return {
        "scenario.load_ms": (st.ms_per_call("scenario.load"), "ms/call"),
        "model.validate_calls": (st.in_episodes["model.validate"] / e, "count/episode"),
        "model.validate_ms": (per_episode_ms("model.validate"), "ms/episode"),
        "model.predictive_calls": (tracer.counts["model.predictive"] / e, "count/episode"),
        "dists.distributions_built": (tracer.counts["dists.built"] / e, "count/episode"),
        "agent.init_ms": (per_episode_ms("agent.init"), "ms/episode"),
        "agent.step_ms": (per_step_ms("agent.step"), "ms/step"),
        "agent.step_self_ms": (1e3 * st.self_seconds["agent.step"] / steps, "ms/step"),
        "agent.replans": (traced.checked.replans / e, "count/episode"),
        "agent.veto_rollouts": (st.in_episodes["agent.veto"] / e, "count/episode"),
        "agent.veto_ms": (per_episode_ms("agent.veto"), "ms/episode"),
        "agent.refine_ms": (per_episode_ms("agent.refine"), "ms/episode"),
        "planning.efe_ms": (per_episode_ms("planning.efe"), "ms/episode"),
        "planning.efe_evaluations": (ops["efeEvaluations"] / e, "count/episode"),
        "planning.rollout_steps": (ops["rolloutSteps"] / e, "count/episode"),
        "inference.vfe_ms": (per_step_ms("inference.vfe"), "ms/step"),
        "providers.infer_ms": (st.ms_per_call("providers.infer"), "ms/call"),
        "providers.calls": (ops["providerCalls"], "count/run"),
        "providers.errors": (traced.checked.provider_errors, "count/run"),
        "providers.request_bytes": (per_request(request_bytes), "B/call"),
        "providers.response_bytes": (per_request(response_bytes), "B/call"),
        "providers.connections": (connections, "count/run"),
        "lab.observe_ms": (per_step_ms("lab.observe"), "ms/step"),
        "lab.apply_ms": (per_step_ms("lab.apply"), "ms/step"),
        "lab.env_steps": (ops["envSteps"], "count/run"),
        "trace.emit_ms": (per_episode_ms("trace.emit"), "ms/episode"),
        "trace.bytes": (traced.checked.trace_bytes / e, "B/episode"),
        "cli.self_ms": (1e3 * st.self_seconds["cli"] / e, "ms/episode"),
        "tracing.overhead_pct": (overhead, "%"),
    }


def import_actinf() -> Api:
    sys.path.insert(0, str(SRC))
    import actinf

    if pathlib.Path(actinf.__file__).resolve().parent != SRC / "actinf":
        raise SystemExit(f"error: imported actinf from {actinf.__file__}, not from {SRC}")
    return Api()


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool):
    """Returns the metrics, the passes run and the unscaled figures."""
    api = import_actinf()
    from speed import Speed, import_seconds
    from tracing import Tracer

    import_s = None if trace else import_seconds(SRC, IMPORT_REPEATS)
    speed = Speed()
    speed.probe()
    WORK.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    tracer = Tracer()
    workload = WORKLOADS[workload_name](api, tracer, speed, work)
    try:
        setups = [workload.setup() for _ in range(1 if trace else SETUP_REPEATS)]
        if not trace:
            main = run_pass(workload, seed, seconds=seconds)
            main.loads += workload.setup_loads
            setup_s = import_s + statistics.median(speed.scaled(*i) for i in setups)
            return end_to_end(main, setup_s, speed), [main], raw_figures(main)
        untraced = run_pass(workload, seed, rounds=TRACED_ROUNDS)
        tracer.install()
        traced = run_pass(workload, seed, rounds=TRACED_ROUNDS, traced=True)
        tracer.write(WORK / f"spans-{workload_name}.jsonl")
        return per_layer(traced, untraced, tracer, speed), [untraced, traced], raw_figures(traced)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "actinf" / "__init__.py").is_file():
        print(f"error: no actinf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in PROXY_VARS:
        # the endpoint is on loopback; a proxy from the environment would intercept it
        os.environ.pop(var, None)

    metrics, passes, raw = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(len(p.episodes) for p in passes)
    failed = sum(p.checked.failed for p in passes)
    problems = [problem for p in passes for problem in p.checked.problems]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {raw}")
    print(f"  episodes attempted {attempted}, failed {failed}")
    if passes[-1].checked.cause:
        print(f"  failed: {passes[-1].checked.cause}")
    for problem in problems[:20]:
        print(f"  check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
