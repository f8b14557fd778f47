"""Spans and counts around the calls into each actinf module.

``Tracer.install`` replaces the names a calling module looks up, for
example ``actinf.agent.expected_free_energy``, with wrappers that time
the call. A span records its name, start, end, parent span and episode
id; spans stay in memory until the run ends. Calls made thousands of
times per run (predictive distributions, distribution construction)
are counted instead of timed, so that tracing does not swamp them.
Nothing is recorded while the tracer is inactive, which is how the
benchmark keeps its own output checks out of the figures.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module, attribute path, span name): each wrapped name is the one the
# calling module looks up, so a call from elsewhere is not counted.
SPANS = (
    ("actinf.scenario", "load_scenario", "scenario.load"),
    ("actinf.scenario", "validate_model", "model.validate"),
    ("actinf.agent", "validate_model", "model.validate"),
    ("actinf.agent", "Agent.__init__", "agent.init"),
    ("actinf.agent", "Agent.step", "agent.step"),
    ("actinf.agent", "Agent.propagate_refinement", "agent.refine"),
    ("actinf.agent", "rollout", "agent.veto"),
    ("actinf.agent", "expected_free_energy", "planning.efe"),
    ("actinf.agent", "compute_vfe", "inference.vfe"),
    ("actinf.agent", "surprise", "inference.vfe"),
    ("actinf.providers", "TabularProvider.infer", "providers.infer"),
    ("actinf.providers", "RemoteProvider.infer", "providers.infer"),
    ("actinf.lab", "LabEnv.observe", "lab.observe"),
    ("actinf.lab", "LabEnv.apply", "lab.apply"),
    ("actinf.cli", "emit_trace", "trace.emit"),
    ("actinf.cli", "render_ledger", "trace.emit"),
    ("actinf.trace", "emit_trace", "trace.emit"),
    ("actinf.trace", "render_ledger", "trace.emit"),
    ("actinf.cli", "main", "cli"),
    ("actinf.cli", "build_provider", "cli"),
)

COUNTS = (
    ("actinf.model", "ObservationModel.predictive", "model.predictive"),
    ("actinf.dists", "CategoricalDistribution.__post_init__", "dists.built"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.episode: int | None = None
        # [name, start, end, parent index, episode]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.episode]
            self.spans.append(record)
            self._open.append(index)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active and self.episode is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, path, name in table:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                setattr(owner, attr, make(name, getattr(owner, attr)))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, episode in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "episode": episode}) + "\n")


class SpanTotals:
    """Per-name call count, total time and self time, within episodes or not.

    Durations are scaled to the reference speed like every other time.
    """

    def __init__(self, spans, speed):
        seconds = [speed.scaled(start, end) for _, start, end, _, _ in spans]
        child_time = [0.0] * len(spans)
        for (_, _, _, parent, _), duration in zip(spans, seconds):
            if parent is not None:
                child_time[parent] += duration
        self.calls: Counter = Counter()
        self.in_episodes: Counter = Counter()
        self.seconds: Counter = Counter()
        self.episode_seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        for (name, _, _, _, episode), duration, children in zip(spans, seconds, child_time):
            self.calls[name] += 1
            self.seconds[name] += duration
            self.self_seconds[name] += duration - children
            if episode is not None:
                self.in_episodes[name] += 1
                self.episode_seconds[name] += duration

    def ms_per_call(self, name: str) -> float:
        return 1e3 * self.seconds[name] / self.calls[name] if self.calls[name] else 0.0
