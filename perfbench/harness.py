"""Load generation for the serving workloads: paced input, timed output, phases.

A serving phase hands one of the public stream entry points
(``serve_jsonl`` / ``serve_concurrent_jsonl``) an *input iterator* that
releases pre-generated JSONL lines on a schedule and an *output sink* that
timestamps every response line as the server writes it.  A whole JSONL line
therefore goes in and a response comes out inside the measurement.

* Open loop (:class:`OpenLoopInput`): line ``i`` is released at
  ``start + due[i]``.  A serial server pulls the next line only when it is
  free, so a stall shows up as lateness of the following lines, and latency
  is always timed from the *due* time, never from the release.
* Closed loop (:class:`ClosedLoopInput`): a line is released as soon as
  fewer than ``window`` responses are outstanding, until a deadline.  The
  serial loop writes each response before it pulls the next line, so its
  window is one by construction.

This module uses only the standard library, so the harness tests run without
the program under test.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import resource
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

Clock = Callable[[], float]


# --------------------------------------------------------------------------- #
# Arrival schedules (seconds from phase start, one entry per line)
# --------------------------------------------------------------------------- #
def poisson_schedule(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Due times of a Poisson arrival process at ``rate`` lines/s."""
    due, t = [], rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def burst_schedule(rng: random.Random, rate: float, duration: float,
                   burst: int, jitter: float = 0.25) -> List[float]:
    """Bursts of ``burst`` lines due together, mean ``rate`` lines/s.

    Gaps between bursts are uniform on ``(1 ± jitter)`` times the mean gap,
    not exponential: with Poisson spacing the tail is set by the few bursts
    that land on top of each other, which differ from seed to seed, so the
    p95 of one run measured the schedule's luck.  Bounded gaps keep every
    burst's own queueing and remove collisions between bursts.
    """
    mean_gap = burst / rate
    due, t = [], rng.uniform(0.0, mean_gap)
    while t < duration:
        due.extend([t] * burst)
        t += mean_gap * rng.uniform(1.0 - jitter, 1.0 + jitter)
    return due


def spin_sleep(seconds: float) -> None:
    """Sleep, then busy-wait the last millisecond.

    A timer wake-up on a shared virtual machine costs a variable fraction of
    a millisecond, which an open-loop line would count as latency although
    the program never saw it.  Only a generator that runs on the serving
    thread itself (the serial loop) may spin; one that shares the
    interpreter lock with worker threads must sleep.
    """
    end = time.perf_counter() + seconds
    if seconds > 1e-3:
        time.sleep(seconds - 1e-3)
    while time.perf_counter() < end:
        pass


# --------------------------------------------------------------------------- #
# Output side
# --------------------------------------------------------------------------- #
class TimestampSink:
    """A text stream that records ``(time, line)`` for every response write.

    Both serve loops write each response as one ``write`` call; the
    concurrent loop calls it from worker threads, hence the condition that
    also lets a closed-loop input wait for the outstanding count to drop.
    """

    def __init__(self, clock: Clock = time.perf_counter):
        self.clock = clock
        self.records: List[tuple] = []
        self._cond = threading.Condition()

    def write(self, text: str) -> int:
        stamp = self.clock()
        with self._cond:
            self.records.append((stamp, text))
            self._cond.notify_all()
        return len(text)

    def flush(self) -> None:
        pass

    def count(self) -> int:
        with self._cond:
            return len(self.records)

    def wait_for_count(self, target: int, until: float) -> bool:
        """Block until ``target`` responses arrived or ``until`` passed."""
        with self._cond:
            while len(self.records) < target:
                remaining = until - self.clock()
                if remaining <= 0:
                    return False
                self._cond.wait(None if math.isinf(remaining) else remaining)
            return True


# --------------------------------------------------------------------------- #
# Input side
# --------------------------------------------------------------------------- #
class _PacedInput:
    """Shared bookkeeping: release times and the per-line trace span."""

    def __init__(self, lines: Sequence[str], ids: Sequence, clock: Clock,
                 tracer=None):
        self.lines = lines
        self.ids = ids
        self.clock = clock
        self.tracer = tracer
        self.released: List[float] = []
        self.start: Optional[float] = None
        self._span = None

    def __iter__(self):
        return self

    def _end_span(self) -> None:
        if self._span is not None:
            self.tracer.end(self._span)
            self._span = None

    def _release(self) -> str:
        index = len(self.released)
        self.released.append(self.clock())
        if self.tracer is not None and self.tracer.enabled:
            self._span = self.tracer.begin("serve.line", request=self.ids[index])
        return self.lines[index]


class OpenLoopInput(_PacedInput):
    """Release line ``i`` at ``start + due[i]``; never earlier."""

    def __init__(self, lines, ids, due: Sequence[float],
                 clock: Clock = time.perf_counter, sleep=time.sleep, tracer=None):
        super().__init__(lines, ids, clock, tracer)
        if len(due) != len(lines):
            raise ValueError("one due time per line")
        self.due = due
        self.sleep = sleep

    def __next__(self) -> str:
        self._end_span()
        now = self.clock()
        if self.start is None:
            self.start = now
        index = len(self.released)
        if index == len(self.lines):
            raise StopIteration
        wait = self.start + self.due[index] - now
        if wait > 0:
            self.sleep(wait)
        return self._release()

    def due_at(self, index: int) -> float:
        return self.start + self.due[index]


class ClosedLoopInput(_PacedInput):
    """Release the next line once fewer than ``window`` are outstanding.

    Stops at ``duration`` seconds after the first pull (or when the pool of
    lines runs out).  The window is the admission guarantee of the
    concurrent phase: keeping it below the router's ``max_inflight`` means
    no line is refused by design.
    """

    def __init__(self, lines, ids, sink: TimestampSink, window: int,
                 duration: Optional[float], clock: Clock = time.perf_counter,
                 tracer=None):
        super().__init__(lines, ids, clock, tracer)
        if window < 1:
            raise ValueError("window must be positive")
        self.sink = sink
        self.window = window
        self.duration = duration
        self.max_outstanding = 0
        self._base = sink.count()

    def __next__(self) -> str:
        self._end_span()
        now = self.clock()
        if self.start is None:
            self.start = now
        deadline = math.inf if self.duration is None else self.start + self.duration
        index = len(self.released)
        if index == len(self.lines) or now >= deadline:
            raise StopIteration
        # Outstanding after this release must stay within the window.
        target = self._base + index + 1 - self.window
        if target > self._base and not self.sink.wait_for_count(target, deadline):
            raise StopIteration
        outstanding = index + 1 - (self.sink.count() - self._base)
        self.max_outstanding = max(self.max_outstanding, outstanding)
        return self._release()


# --------------------------------------------------------------------------- #
# Phase accounting
# --------------------------------------------------------------------------- #
def response_id(text: str):
    """The envelope id a response line carries (errors carry it inside)."""
    body = json.loads(text)
    if "error" in body:
        return body["error"].get("id"), body["error"].get("code", "error")
    return body.get("id"), None


@dataclass
class PhaseResult:
    """Counts, timings and the raw responses of one phase."""

    name: str
    sent: int
    succeeded: int
    failed: int
    elapsed: float
    responses: Dict[object, str]
    error_codes: Dict[str, int] = field(default_factory=dict)
    #: Open loop only: per-line latency from due time (ms), failures set to
    #: the phase end, and how late each line was released (ms).
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    lines: Sequence[str] = ()

    def counts(self) -> dict:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed}


def run_phase(name: str, serve: Callable, source: _PacedInput,
              sink: TimestampSink) -> PhaseResult:
    """Drive ``serve(source, sink)`` and account every released line.

    A line counts as succeeded when a non-error response with its id came
    back; an error response (``overloaded``, ``timeout``, ...) or no response
    at all is a failure.  In an open-loop phase a failed line is given the
    latency of the whole remaining phase, so it misses any latency limit.
    """
    first = sink.count()
    started = source.clock()
    serve(source, sink)
    ended = source.clock()
    sent = len(source.released)
    ids = source.ids[:sent]
    answered: Dict[object, tuple] = {}
    codes: Counter = Counter()
    for stamp, text in sink.records[first:]:
        request_id, code = response_id(text)
        answered[request_id] = (stamp, text, code)
        if code is not None:
            codes[code] += 1
    ok = [i for i, request_id in enumerate(ids)
          if request_id in answered and answered[request_id][2] is None]
    result = PhaseResult(
        name=name, sent=sent, succeeded=len(ok), failed=sent - len(ok),
        elapsed=ended - started,
        responses={request_id: answered[request_id][1]
                   for request_id in ids if request_id in answered},
        error_codes=dict(codes), lines=source.lines[:sent])
    if isinstance(source, OpenLoopInput):
        ok_set = set(ok)
        for i, request_id in enumerate(ids):
            due = source.due_at(i)
            done = answered[request_id][0] if i in ok_set else ended
            result.latencies_ms.append((done - due) * 1e3)
            result.late_ms.append((source.released[i] - due) * 1e3)
    return result


# --------------------------------------------------------------------------- #
# Statistics and stamps
# --------------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def repeat_trials(trial: Callable[[], float], min_trials: int = 5,
                  min_seconds: float = 1.0) -> List[float]:
    """Samples of ``trial()`` (which returns the seconds it timed itself),
    taken at least ``min_trials`` times and until ``min_seconds`` passed, so
    a millisecond-scale operation still yields a steady median.

    Every object alive before the trials is frozen out of the cyclic garbage
    collector while they run: a restart runs in a fresh process, and the
    collector must not charge it for walking the benchmark's own heap.
    """
    samples: List[float] = []
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        while len(samples) < min_trials or time.perf_counter() - started < min_seconds:
            samples.append(trial())
    finally:
        gc.unfreeze()
    return samples


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_fingerprint() -> dict:
    """Cores, numpy, BLAS and python: what a result record is stamped with."""
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "cores": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
