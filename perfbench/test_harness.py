"""Tests of the benchmark harness itself (load generator, spans, accounting)."""

import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench.compare import verdict
from perfbench.harness import (
    ClosedLoopInput,
    OpenLoopInput,
    TimestampSink,
    burst_schedule,
    run_phase,
)
from perfbench.layers import layer_metrics
from perfbench.tracing import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock that only moves when told to (sleeping moves it too)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def response(request_id, error=None) -> str:
    if error:
        return json.dumps({"error": {"code": error, "message": "", "id": request_id}}) + "\n"
    return json.dumps({"v": 1, "head": "score", "id": request_id,
                       "result": {"score": 0.0}}) + "\n"


def lines_for(count):
    ids = list(range(count))
    return [json.dumps({"v": 1, "id": i, "payload": {}}) for i in ids], ids


def test_open_loop_latency_is_timed_from_due_time():
    # Lines are due every 1 ms; the fake server needs 10 ms per line, so each
    # line waits behind the previous ones and is released later and later.
    clock = FakeClock()
    sink = TimestampSink(clock)
    lines, ids = lines_for(5)
    source = OpenLoopInput(lines, ids, [i * 1e-3 for i in range(5)],
                           clock=clock, sleep=clock.sleep)

    def slow_server(stream, out):
        for line in stream:
            clock.now += 10e-3
            out.write(response(json.loads(line)["id"]))

    phase = run_phase("open", slow_server, source, sink)
    assert phase.sent == phase.succeeded == 5
    # Line i is released when line i-1 finished (10·i ms), answered at
    # 10·(i+1) ms, and was due at i ms.
    assert phase.latencies_ms == pytest.approx([10 + 9 * i for i in range(5)])
    assert phase.late_ms == pytest.approx([9 * i for i in range(5)])


def test_open_loop_never_releases_early():
    clock = FakeClock()
    lines, ids = lines_for(3)
    source = OpenLoopInput(lines, ids, [0.5, 0.5, 2.0], clock=clock, sleep=clock.sleep)
    released = [(next(source), clock.now) for _ in range(3)]
    assert [at for _, at in released] == [0.5, 0.5, 2.0]
    with pytest.raises(StopIteration):
        next(source)


def test_closed_loop_window_never_exceeds_max_inflight():
    window = 6
    sink = TimestampSink()
    lines, ids = lines_for(400)
    source = ClosedLoopInput(lines, ids, sink, window, duration=5.0)
    inflight = 0
    peak = 0
    lock = threading.Lock()
    rng = random.Random(3)

    def answer(request_id, delay):
        nonlocal inflight
        time.sleep(delay)
        with lock:
            inflight -= 1
        sink.write(response(request_id))

    def server(stream, out):
        nonlocal inflight, peak
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = []
            for line in stream:
                with lock:
                    inflight += 1
                    peak = max(peak, inflight)
                futures.append(pool.submit(answer, json.loads(line)["id"],
                                           rng.uniform(0, 0.002)))
            for future in futures:
                future.result(timeout=10)

    phase = run_phase("closed", server, source, sink)
    assert phase.sent == 400 and phase.succeeded == 400
    assert peak <= window
    assert source.max_outstanding == window  # the window is actually used


def test_closed_loop_stops_at_its_deadline():
    clock = FakeClock()
    sink = TimestampSink(clock)
    lines, ids = lines_for(100)
    source = ClosedLoopInput(lines, ids, sink, window=1, duration=0.05, clock=clock)

    def server(stream, out):
        for line in stream:
            clock.now += 0.01
            out.write(response(json.loads(line)["id"]))

    phase = run_phase("closed", server, source, sink)
    assert phase.sent == 5


def test_failures_are_counted_and_miss_every_latency_limit():
    clock = FakeClock()
    sink = TimestampSink(clock)
    lines, ids = lines_for(6)
    source = OpenLoopInput(lines, ids, [0.0] * 6, clock=clock, sleep=clock.sleep)

    def flaky_server(stream, out):
        for line in stream:
            request_id = json.loads(line)["id"]
            clock.now += 1e-3
            if request_id == 1:
                out.write(response(request_id, error="overloaded"))
            elif request_id == 2:
                out.write(response(request_id, error="timeout"))
            elif request_id != 3:  # line 3 is never answered
                out.write(response(request_id))
        clock.now += 1.0  # the phase ends a second later

    phase = run_phase("open", flaky_server, source, sink)
    assert (phase.sent, phase.succeeded, phase.failed) == (6, 3, 3)
    assert phase.error_codes == {"overloaded": 1, "timeout": 1}
    ended_ms = 1006.0
    assert phase.latencies_ms == pytest.approx([1, ended_ms, ended_ms, ended_ms, 5, 6])


def test_burst_schedule_groups_lines():
    due = burst_schedule(random.Random(1), rate=800, duration=1.0, burst=16)
    assert len(due) % 16 == 0
    assert all(len(set(due[i:i + 16])) == 1 for i in range(0, len(due), 16))
    gaps = [b - a for a, b in zip(due[::16], due[16::16])]
    assert min(gaps) >= 0.75 * 16 / 800 and max(gaps) <= 1.25 * 16 / 800


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "parent", 0.0, None, "r", end=10.0),
        Span(2, "a", 1.0, 1, "r", end=3.0),
        Span(3, "b", 2.0, 1, "r", end=5.0),      # overlaps a: union is [1, 5]
        Span(4, "a.child", 1.5, 2, "r", end=2.0),
        Span(5, "other", 20.0, None, "s", end=21.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 6.0, 2: 1.5, 3: 3.0, 4: 0.5, 5: 1.0})


def test_tracer_nests_spans_and_inherits_the_request_id():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enabled = True

    class Engine:
        def score(self, rows):
            clock.now += 2.0
            return rows

    class Router:
        engine = Engine()

        def execute(self, rows):
            clock.now += 1.0
            return self.engine.score(rows)

    tracer.wrap(Engine, "score", "engine.score", lambda a, k, r, s: {"rows": r})
    tracer.wrap(Router, "execute", "router.execute")
    line = tracer.begin("serve.line", request=42)
    Router().execute(3)
    clock.now += 0.5
    tracer.end(line)
    tracer.unpatch_all()
    assert Router().execute(1) == 1 and tracer.spans[-1].name == "serve.line"
    spans = {span.name: span for span in tracer.take()}
    assert spans["engine.score"].parent == spans["router.execute"].sid
    assert spans["router.execute"].parent == spans["serve.line"].sid
    assert {span.request for span in spans.values()} == {42}
    assert spans["engine.score"].attrs == {"rows": 3}
    selfs = self_times(list(spans.values()))
    assert selfs[spans["serve.line"].sid] == pytest.approx(0.5)
    assert selfs[spans["router.execute"].sid] == pytest.approx(1.0)


def test_layer_metrics_cover_every_declared_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = layer_metrics([], {})
    assert list(metrics) == [entry["name"] for entry in spec["per_layer"]]
    assert all(value == 0 for value in metrics.values())  # bypassed layers read 0


def test_compare_applies_the_gain_regression_and_unresolved_rules():
    parent = {seed: 100.0 + seed % 3 for seed in range(10)}       # spread ~2%
    faster = {seed: 120.0 + seed % 3 for seed in range(10)}
    slower = {seed: 80.0 + seed % 3 for seed in range(10)}
    same = {seed: 100.5 + seed % 3 for seed in range(10)}
    noisy = {seed: 100.0 + 40 * (seed % 2) for seed in range(10)}  # spread 40%
    assert verdict(parent, faster, "higher", 0.1)[0] == "gain"
    assert verdict(parent, slower, "higher", 0.1)[0] == "REGRESSION"
    assert verdict(parent, slower, "lower", 0.1)[0] == "gain"
    assert verdict(parent, same, "higher", 0.1)[0] == "within bound"
    assert verdict(noisy, same, "higher", 0.1)[0] == "unresolved"
    assert verdict(noisy, {s: 500.0 for s in range(10)}, "higher", 0.1)[0] == "gain"
