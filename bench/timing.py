"""Timing against an adjacent reference task, and spans for the traced run.

On a small shared VM the speed of one CPU drifts by up to 1.8x within
seconds, so raw seconds do not repeat from run to run. Every timed call
is therefore reported in ``ref``: its seconds divided by the mean seconds
of a fixed reference task run right before, after and (for in-process
calls) during it. The process is pinned to one CPU first, so that the
reference, the call and any child process it starts share that CPU.
"""

from __future__ import annotations

import json
import math
import os
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

_MASK64 = (1 << 64) - 1


def ref_loop() -> int:
    """Fixed work of about a millisecond: integer arithmetic and dict updates."""
    table: dict[int, int] = {}
    x = 0x9E3779B97F4A7C15
    for _ in range(1700):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        key = x >> 54
        table[key] = table.get(key, 0) ^ (x & 0xFFFF) | x.bit_count()
    return len(table)


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass(frozen=True)
class Timed:
    """One call: its seconds, and the same in ``ref`` units."""

    value: Any
    seconds: float
    ref_seconds: float

    @property
    def refs(self) -> float:
        return self.seconds / self.ref_seconds


class Clock:
    """Times calls in units of an adjacent reference task.

    The reference task runs ``brackets`` times right before each call and
    as often right after it. With ``sample_every`` a timer signal also runs
    it every that many seconds during the call; those runs are taken out
    of the call's seconds and join the mean, so that a long call is
    weighed against the speed the CPU had while it ran.
    """

    def __init__(self, reference: Callable[[], object], brackets: int, sample_every: float | None = None):
        self.reference = reference
        self.brackets = brackets
        self.sample_every = sample_every
        self._samples: list[float] = []

    def _run_reference(self) -> float:
        start = time.perf_counter()
        self.reference()
        return time.perf_counter() - start

    def _on_timer(self, _signum, _frame) -> None:
        self._samples.append(self._run_reference())

    def timed(self, fn: Callable[[], Any]) -> Timed:
        refs = [self._run_reference() for _ in range(self.brackets)]
        self._samples = []
        if self.sample_every:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        start = time.perf_counter()
        try:
            value = fn()
        finally:
            seconds = time.perf_counter() - start
            if self.sample_every:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        during = self._samples
        refs += during
        refs += [self._run_reference() for _ in range(self.brackets)]
        return Timed(value, seconds - sum(during), sum(refs) / len(refs))


#: The reference of the in-process workloads and of the per-layer timings.
LOOP_CLOCK = Clock(ref_loop, brackets=2, sample_every=0.025)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list, 0 < p <= 1."""
    rank = math.ceil(p * len(sorted_values) - 1e-9)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span is a call from the benchmark into one layer of revca. Spans of
    one operation share its ``op`` number; ``parent`` is the enclosing span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = 0

    def span(self, layer: str, name: str):
        if not self.enabled:
            return nullcontext()
        return self._span(layer, name)

    @contextmanager
    def _span(self, layer: str, name: str) -> Iterator[None]:
        if not self._stack:
            self._op += 1
        sid = len(self.spans)
        record = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "layer": layer,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, self_seconds=self.self_seconds(), spans=self.spans)
        path.write_text(json.dumps(payload, indent=1) + "\n")
