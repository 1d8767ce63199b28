"""The layer map: which public methods are traced, and the per-layer metrics.

:func:`instrument` wraps every method below (layers a workload never
reaches simply record nothing); :func:`layer_metrics` reduces one traced
run's spans plus the counters the workload read at phase boundaries into
the ``per_layer`` metrics of ``BENCHMARK.json``.  A layer a workload
bypasses reports zero.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, List

from perfbench.harness import quantile
from perfbench.tracing import Span, Tracer, self_times


def _defining(base: type, attr: str) -> List[type]:
    """``base`` and every subclass whose own body defines ``attr``."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attr in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap the public methods of every layer (see the module docstring)."""
    import repro.online.retrain as retrain_module
    import repro.serving.concurrent as concurrent_module
    import repro.serving.protocol as protocol_module
    import repro.serving.service as service_module
    from repro.autograd.tensor import Tensor
    from repro.core.tasks import TaskModel
    from repro.nn.optim import Adam
    from repro.online.gate import EvalGate
    from repro.online.log_reader import InteractionLogReader
    from repro.online.promotion import PromotionPipeline
    from repro.online.trainer import IncrementalTrainer
    from repro.retrieval.index import ExactIndex, IVFIndex
    from repro.retrieval.query import QueryEncoder
    from repro.serving.batcher import MicroBatcher
    from repro.serving.cache import UserSequenceStore
    from repro.serving.concurrent import ConcurrentServingRouter
    from repro.serving.durability import DurableSequenceStore, WriteAheadLog
    from repro.serving.engine import InferenceEngine
    from repro.serving.protocol import Head, ServingRouter

    # Parsed request objects → (object, parse time, line id): a worker's
    # queue wait is the start of the unit carrying a request minus this time.
    submitted: Dict[int, tuple] = {}

    def note_parsed(args, kwargs, result, span):
        for request in result:
            submitted[id(request)] = (request, span.end, span.request)
        return {}

    def unit(args, kwargs, result, span):
        requests = args[2]
        in_worker = threading.current_thread().name.startswith("serve-worker")
        attrs = {"rows": len(requests), "worker": in_worker}
        if in_worker:
            seen = [submitted[id(r)] for r in requests if id(r) in submitted]
            attrs["waits"] = [span.start - parsed for _, parsed, _ in seen]
            if seen:
                span.request = seen[0][2]
        return attrs

    for module in (service_module, concurrent_module):
        tracer.wrap(module, "parse_envelope", "protocol.parse_envelope")
    tracer.wrap(ServingRouter, "parse_requests", "protocol.parse_requests",
                note_parsed)
    tracer.wrap(ServingRouter, "batcher_for", "protocol.batcher_for")
    for module in (protocol_module, concurrent_module):
        tracer.wrap(module, "render_response", "protocol.render_response")
    for cls in _defining(Head, "execute"):
        tracer.wrap(cls, "execute", "head.execute", unit)
    tracer.wrap(ConcurrentServingRouter, "submit", "concurrent.submit")

    tracer.wrap(MicroBatcher, "collate", "batcher.collate",
                lambda a, k, r, s: {"rows": len(a[1])})
    for cls in (UserSequenceStore, DurableSequenceStore):
        for method in ("encode", "encode_stored", "record", "history"):
            tracer.wrap(cls, method, f"cache.{method}")

    tracer.wrap(InferenceEngine, "score", "engine.score",
                lambda a, k, r, s: {"rows": int(a[1].static_indices.shape[0])})
    tracer.wrap(InferenceEngine, "prepare_ranking", "engine.prepare_ranking")
    tracer.wrap(InferenceEngine, "rank_candidates", "engine.rank_candidates",
                lambda a, k, r, s: {"candidates": int(len(r))})

    def probes(args, kwargs, result, span):
        index = args[0].index
        count = index.probe_positions.shape[0]
        if index.has_partitions:
            count += index.representative_positions.shape[0]
        return {"probe_items": int(count)}

    tracer.wrap(QueryEncoder, "encode", "retrieval.query_encode", probes)
    for cls in (ExactIndex, IVFIndex):
        tracer.wrap(cls, "search", "retrieval.search")

    original_append = WriteAheadLog.append

    def append(wal, record):
        if not tracer.enabled:
            return original_append(wal, record)
        before = wal.status()["fsyncs"]
        span = tracer.begin("durability.append")
        try:
            return original_append(wal, record)
        finally:
            tracer.end(span)
            span.attrs["fsynced"] = wal.status()["fsyncs"] != before

    tracer.patch(WriteAheadLog, "append", append)
    tracer.wrap(WriteAheadLog, "sync", "durability.sync")

    tracer.wrap(InteractionLogReader, "tail", "online.tail")
    tracer.wrap(retrain_module, "build_training_examples", "online.build_examples")
    tracer.wrap(retrain_module, "base_histories_from_split", "online.base_histories")
    tracer.wrap(IncrementalTrainer, "fit_tail", "online.fit_tail",
                lambda a, k, r, s: {"examples": int(r.examples_used)})
    for cls in _defining(TaskModel, "fused_loss"):
        tracer.wrap(cls, "fused_loss", "core.tasks.fused_loss")
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap(Adam, "step", "nn.optim.step")
    tracer.wrap(EvalGate, "evaluate_candidate", "online.gate")
    tracer.wrap(PromotionPipeline, "promote", "online.promote")


def layer_metrics(spans: List[Span], ctx: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``ctx`` carries what spans cannot: ``late_ms`` of the traced open-loop
    lines, cache ``hits``/``misses``/``evictions`` and WAL ``fsyncs`` /
    ``bytes`` deltas over the traced phases, ``replay_records_per_s``,
    ``overloaded`` lines, retrain ``cycles`` and ``overhead_frac``.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    names = {span.sid: span.name for span in spans}
    for span in spans:
        by_name[span.name].append(span)

    def self_total(*span_names) -> float:
        return sum(selfs[s.sid] for name in span_names for s in by_name[name])

    def per(total, count, scale=1.0) -> float:
        return total / count * scale if count else 0.0

    def mean_attr(name, key) -> float:
        values = [s.attrs[key] for s in by_name[name] if key in s.attrs]
        return per(sum(values), len(values))

    def q(values, p, scale=1.0) -> float:
        return quantile(values, p) * scale if values else 0.0

    lines = len(by_name["serve.line"])
    cache_spans = [s for s in spans if s.name.startswith("cache.")]
    cache_calls = sum(1 for s in cache_spans
                      if not names.get(s.parent, "").startswith("cache."))
    units = [s for s in by_name["head.execute"] if s.attrs.get("worker")]
    waits = [w for s in units for w in s.attrs.get("waits", ())]
    appends = by_name["durability.append"]
    hits, misses = ctx.get("hits", 0), ctx.get("misses", 0)
    cycles = ctx.get("cycles", 0)
    fit = by_name["online.fit_tail"]

    def per_cycle(*span_names) -> float:
        return per(sum(s.duration for n in span_names for s in by_name[n]), cycles)

    us, ms = 1e6, 1e3
    return {
        "loadgen.late_p99_ms": q(ctx.get("late_ms", []), 0.99),
        "loadgen.traced_lines": lines,
        "serve.loop_self_us_per_line": per(self_total("serve.line"), lines, us),
        "protocol.decode_us_per_line": per(
            self_total("protocol.parse_envelope", "protocol.parse_requests"), lines, us),
        "protocol.route_us_per_line": per(self_total("protocol.batcher_for"), lines, us),
        "protocol.render_us_per_line": per(self_total("protocol.render_response"), lines, us),
        "batcher.collate_us_per_call": per(
            self_total("batcher.collate"), len(by_name["batcher.collate"]), us),
        "batcher.rows_per_call": mean_attr("batcher.collate", "rows"),
        "cache.self_us_per_call": per(sum(selfs[s.sid] for s in cache_spans),
                                      cache_calls, us),
        "cache.hit_rate": per(hits, hits + misses),
        "cache.evictions": ctx.get("evictions", 0),
        "engine.score_calls": len(by_name["engine.score"]),
        "engine.score_rows_per_call": mean_attr("engine.score", "rows"),
        "engine.score_us_per_row": per(
            self_total("engine.score"),
            sum(s.attrs.get("rows", 0) for s in by_name["engine.score"]), us),
        "engine.rank_calls": len(by_name["engine.rank_candidates"]),
        "engine.rank_candidates_per_call": mean_attr("engine.rank_candidates", "candidates"),
        "engine.rank_self_ms_per_call": per(
            self_total("engine.rank_candidates"), len(by_name["engine.rank_candidates"]), ms),
        "retrieval.query_encode_self_ms": per(
            self_total("retrieval.query_encode"), len(by_name["retrieval.query_encode"]), ms),
        "retrieval.query_probe_items": mean_attr("retrieval.query_encode", "probe_items"),
        "retrieval.search_self_ms": per(
            self_total("retrieval.search"), len(by_name["retrieval.search"]), ms),
        "retrieval.search_calls": len(by_name["retrieval.search"]),
        "concurrent.submit_us_per_line": per(
            self_total("concurrent.submit"), len(by_name["concurrent.submit"]), us),
        "concurrent.queue_wait_p50_ms": q(waits, 0.5, ms),
        "concurrent.queue_wait_p99_ms": q(waits, 0.99, ms),
        "concurrent.rows_per_unit": per(sum(s.attrs["rows"] for s in units), len(units)),
        "concurrent.overloaded": ctx.get("overloaded", 0),
        "durability.append_us_per_record": per(self_total("durability.append"),
                                               len(appends), us),
        "durability.records_per_line": per(len(appends), lines),
        "durability.bytes_per_record": per(ctx.get("wal_bytes", 0), len(appends)),
        "durability.fsyncs": ctx.get("fsyncs", 0),
        "durability.fsync_ms_p50": q(
            [s.duration for s in appends if s.attrs.get("fsynced")], 0.5, ms),
        "durability.replay_records_per_s": ctx.get("replay_records_per_s", 0.0),
        "online.tail_s": per_cycle("online.tail"),
        "online.build_examples_s": per_cycle("online.build_examples",
                                             "online.base_histories"),
        "online.fit_tail_s": per_cycle("online.fit_tail"),
        "online.fit_examples_per_s": per(sum(s.attrs.get("examples", 0) for s in fit),
                                         sum(s.duration for s in fit)),
        "autograd.backward_s": per_cycle("autograd.backward"),
        "core.tasks.fused_loss_s": per_cycle("core.tasks.fused_loss"),
        "nn.optim.step_s": per_cycle("nn.optim.step"),
        "online.gate_s": per_cycle("online.gate"),
        "online.promote_s": per_cycle("online.promote"),
        "tracing.overhead_frac": ctx.get("overhead_frac", 0.0),
    }
