"""The machine's speed over a run, to report times at a fixed reference speed.

On a shared host other tenants slow this process by up to twice, for
seconds at a time, and the slow stretches fall differently in every
run: raw episode times of ten runs spread by a quarter of their median.
The benchmark therefore runs a fixed probe loop before the first
episode and after every episode, and scales each measured interval by
PROBE_REF_S over the slower of the two probe times around it. A time so
scaled reads as the time the interval would take on a machine where the
probe takes PROBE_REF_S: an undisturbed 2-CPU sandbox. A small-array
numpy loop slows by the same factor as an episode does, where a pure
interpreter loop slows less.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

# Probe time on the undisturbed 2-CPU sandbox the benchmark was tuned on.
PROBE_REF_S = 0.5e-3
PROBE_LOOP = 50

# Imports slow with the host's load by a factor of their own, which the
# probe does not follow: over eight trials, the median import time of
# actinf in nine fresh interpreters spread by 0.19 of its median when
# scaled by the probe and by 0.21 unscaled, but by 0.06 when divided by
# the import time of these standard-library modules in the next fresh
# interpreter. REF_IMPORT_S is their import time on the sandbox above,
# about the fastest seen there.
REF_IMPORT = "asyncio, decimal, email.mime.multipart, http.client, xml.dom.minidom, unittest, argparse, logging"
REF_IMPORT_S = 0.07
_TIMED_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
)


class Speed:
    def __init__(self):
        self._ends: list[float] = []
        self._seconds: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        a = np.full((4, 121), 1.0 / 121)
        v = np.full(4, 0.25)
        out = []
        for i in range(PROBE_LOOP):
            w = v @ a
            w = w / w.sum()
            out.append({"i": i, "h": float(-np.sum(np.where(w > 0, w * np.log(w), 0.0)))})
        end = time.perf_counter()
        self._ends.append(end)
        self._seconds.append(end - start)

    def scaled(self, start: float, end: float) -> float:
        """The interval's seconds at the reference speed."""
        before = bisect.bisect_right(self._ends, start) - 1
        after = bisect.bisect_left(self._ends, end)
        around = [self._seconds[i] for i in (before, after) if 0 <= i < len(self._seconds)]
        return (end - start) * PROBE_REF_S / max(around)


def _child_import_seconds(modules: str, src: str) -> float:
    code = _TIMED_IMPORT.format(modules)
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def import_seconds(src, repeats: int) -> float:
    """Import time of actinf from ``src`` in a fresh interpreter, at the reference speed.

    The median over ``repeats`` pairs of fresh interpreters of the
    actinf import over the reference import, times REF_IMPORT_S.
    """
    ratios = [
        _child_import_seconds("actinf", str(src)) / _child_import_seconds(REF_IMPORT, str(src))
        for _ in range(repeats)
    ]
    return REF_IMPORT_S * statistics.median(ratios)
