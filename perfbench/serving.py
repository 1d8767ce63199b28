"""The two serving workloads: serve-mixed and serve-burst.

Each drives a public stream entry point (``serve_jsonl`` or
``serve_concurrent_jsonl``) with seeded, pre-generated JSONL lines through
the phases of :func:`ServingWorkload.run`:

* warm-up: fixed probe lines and a fixed number of lines, unpaced, untimed;
* rounds of a closed-loop segment (lines released as soon as the window
  allows; gives ``throughput_rps``) and an open-loop segment (lines due on
  a seeded arrival schedule at the workload's fixed absolute ``rate``; gives
  ``p50_ms``/``p95_ms`` timed from each due time), each timing being the
  median over rounds.

A traced run (``--trace 1``) runs an untraced closed segment, then a traced
closed and a traced open segment (the closed throughput ratio is
``tracing.overhead_frac``).  The model, catalog and store contents at setup
are fixed; only the traffic depends on the seed.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from perfbench.harness import (
    ClosedLoopInput,
    OpenLoopInput,
    PhaseResult,
    TimestampSink,
    burst_schedule,
    median,
    peak_rss_mb,
    poisson_schedule,
    quantile,
    repeat_trials,
    run_phase,
    spin_sleep,
)
from perfbench.layers import instrument, layer_metrics
from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.core.serialization import save_seqfm
from repro.data.features import FeatureBatch, pad_sequences
from repro.serving import (
    DurableSequenceStore,
    ModelRegistry,
    serve_concurrent_jsonl,
    serve_jsonl,
)

MAX_SEQ_LEN = 20
EMBED_DIM = 32
WARMUP_LINES = 300
#: Open-loop arrivals (lines, or bursts of lines) per round: enough that a
#: round's p95 has 15 arrivals beyond it (see ``ServingWorkload.run``).
ARRIVALS_PER_ROUND = 300
#: At least this many rounds, so the median survives three spoiled ones.
MIN_ROUNDS = 7
PROBE_SEED = 20200420


def build_model(static_vocab: int, dynamic_vocab: int, catalog=None,
                clusters: int = 0, seed: int = 0) -> SeqFM:
    """A fixed, seed-independent SeqFM with perturbed weights (the shape the
    repository's serving benchmarks use); ``clusters`` > 0 clusters the
    embeddings of the ``catalog`` rows."""
    config = SeqFMConfig(static_vocab_size=static_vocab,
                         dynamic_vocab_size=dynamic_vocab, max_seq_len=MAX_SEQ_LEN,
                         embed_dim=EMBED_DIM, ffn_layers=1, dropout=0.0, seed=seed)
    model = SeqFM(config)
    rng = np.random.default_rng(seed + 1)
    for parameter in model.parameters():
        parameter.data += rng.normal(0.0, 0.1, parameter.data.shape)
    model.dynamic_embedding.reset_padding()
    if clusters:
        # Clustered item embeddings: the regime trained catalogs converge to
        # and the one IVF partitioning is designed for.
        centers = rng.normal(0.0, 0.5, (clusters, EMBED_DIM))
        members = rng.integers(0, clusters, len(catalog))
        model.static_embedding.weight.data[catalog] = (
            centers[members] + rng.normal(0.0, 0.08, (len(catalog), EMBED_DIM)))
    return model


def envelope(head: str, request_id: int, payload: dict) -> str:
    return json.dumps({"v": 1, "head": head, "id": request_id, "payload": payload})


class ServingWorkload:
    """Shared phase runner; subclasses define the system and the traffic."""

    name = ""
    #: Open-loop offered load, lines/s: a fixed absolute number, about a third
    #: of the closed-loop throughput measured when the benchmark was defined
    #: (at half, the median line already queues behind a slow one and p50
    #: jumps between runs on a noisy host).
    rate = 0.0
    #: Lines due together in one open-loop arrival (1: plain Poisson).
    burst = 1
    #: Closed-loop outstanding-line window (the serial loop is always 1).
    window = 1
    #: Upper bound on closed-loop lines/s, sizing the pre-generated pool.
    pool_rate = 0.0
    #: Whether the open-loop generator may spin (see ``harness.spin_sleep``).
    spin = True

    def __init__(self):
        self.registry: Optional[ModelRegistry] = None
        self.workdir: Optional[Path] = None
        self.tracer = None

    # -- to define -------------------------------------------------------- #
    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def documents(self, rng: random.Random) -> Iterator[tuple]:
        """Endless ``(head, payload)`` traffic for one seed."""
        raise NotImplementedError

    def serve(self, source, sink) -> None:
        raise NotImplementedError

    def probes(self) -> List[tuple]:
        """Fixed ``(head, payload)`` lines sent first in the warm-up."""
        return []

    def finish(self, phases: List[PhaseResult], extras: dict) -> list:
        """Run the checks; fill ``extras`` with ``quality`` and ``recovery_samples``."""
        raise NotImplementedError

    # -- shared ------------------------------------------------------------ #
    def _take(self, stream: Iterator[tuple], count: int) -> tuple:
        lines, ids = [], []
        for _ in range(count):
            head, payload = next(stream)
            request_id = self._next_id
            self._next_id += 1
            lines.append(envelope(head, request_id, payload))
            ids.append(request_id)
        return lines, ids

    def _closed(self, name, stream, seconds, sink, traced=False) -> PhaseResult:
        lines, ids = self._take(stream, max(1, int(self.pool_rate * seconds)))
        source = ClosedLoopInput(lines, ids, sink, self.window, seconds,
                                 tracer=self.tracer if traced else None)
        return run_phase(name, self.serve, source, sink)

    def _open(self, name, stream, schedule_rng, seconds, sink, traced=False):
        if self.burst > 1:
            due = burst_schedule(schedule_rng, self.rate, seconds, self.burst)
        else:
            due = poisson_schedule(schedule_rng, self.rate, seconds)
        lines, ids = self._take(stream, len(due))
        source = OpenLoopInput(lines, ids, due, tracer=self.tracer if traced else None,
                               sleep=spin_sleep if self.spin else time.sleep)
        return run_phase(name, self.serve, source, sink)

    def run(self, seed: int, seconds: float, trace: bool) -> dict:
        self._next_id = 0
        stream = self.documents(random.Random(seed))
        schedule_rng = random.Random(seed * 7919 + 1)
        sink = TimestampSink()
        probes = self.probes()
        self.probe_ids = list(range(len(probes)))
        lines, ids = self._take(itertools.chain(probes, stream), len(probes) + WARMUP_LINES)
        phases = [run_phase("warm-up", self.serve,
                            ClosedLoopInput(lines, ids, sink, self.window, None), sink)]
        self.after_warmup()
        layers = None
        if not trace:
            # Interleaved closed/open rounds; each timing is the median over
            # rounds, so a host stall (a slow fsync, a preempted vCPU) spoils
            # the rounds it hits, not the run.
            arrivals = 0.7 * seconds * self.rate / self.burst
            rounds = max(MIN_ROUNDS, round(arrivals / ARRIVALS_PER_ROUND))
            for number in range(1, rounds + 1):
                phases.append(self._closed(f"closed-{number}", stream,
                                           0.3 * seconds / rounds, sink))
                phases.append(self._open(f"open-{number}", stream, schedule_rng,
                                         0.7 * seconds / rounds, sink))
        else:
            from perfbench.tracing import Tracer

            phases.append(self._closed("closed", stream, 0.25 * seconds, sink))
            self.tracer = Tracer()
            instrument(self.tracer)
            before = self.counters()
            self.tracer.enabled = True
            phases.append(self._closed("closed-traced", stream, 0.25 * seconds, sink,
                                       traced=True))
            phases.append(self._open("open-traced", stream, schedule_rng, 0.5 * seconds,
                                     sink, traced=True))
            self.tracer.enabled = False
            after = self.counters()
            self.tracer.unpatch_all()
            untraced, traced = phases[1], phases[2]
            ctx = {key: after[key] - before[key] for key in after}
            ctx["late_ms"] = phases[3].late_ms
            ctx["overloaded"] = sum(p.error_codes.get("overloaded", 0) for p in phases[2:])
            ctx["overhead_frac"] = (_rate(untraced) / _rate(traced) - 1.0
                                    if _rate(traced) else 0.0)
            layers = (self.tracer.take(), ctx)
        extras = {"peak_rss_mb": peak_rss_mb()}  # before the checks allocate
        checks = self.finish(phases, extras)
        timed = phases[1:]
        closed = [p for p in timed if p.name.startswith("closed")]
        opened = [p for p in timed if p.name.startswith("open")]
        sent = sum(p.sent for p in timed)
        failed = sum(p.failed for p in timed)
        extras.update({
            "failed_frac": failed / sent if sent else 1.0,
            "open_samples_min": min(len(p.latencies_ms) for p in opened),
            "late_p99_ms": median([quantile(p.late_ms, 0.99) for p in opened]),
            "p99_ms": median([quantile(p.latencies_ms, 0.99) for p in opened]),
            "recovery_s": median(extras.pop("recovery_samples")),
        })
        metrics = {
            "throughput_rps": median([_rate(p) for p in closed]),
            "p50_ms": median([quantile(p.latencies_ms, 0.5) for p in opened]),
            "p95_ms": median([quantile(p.latencies_ms, 0.95) for p in opened]),
            "success_frac": (sent - failed) / sent if sent else 0.0,
            "quality": extras["quality"],
        }
        if layers is not None:
            spans, ctx = layers
            ctx["replay_records_per_s"] = extras.get("replay_records_per_s", 0.0)
            metrics = layer_metrics(spans, ctx)
            self.spans = spans
        return {"phases": phases, "metrics": metrics, "extras": extras,
                "checks": checks, "attempted": sent, "failed": failed}

    def counters(self) -> Dict[str, float]:
        """Program counters read at traced-phase boundaries."""
        stats = self.registry.get("m").sequence_store.stats
        return {"hits": stats.hits, "misses": stats.misses,
                "evictions": stats.evictions}

    def after_warmup(self) -> None:
        """Hook run right after the warm-up phase."""

    def close(self) -> None:
        pass


def _rate(phase: PhaseResult) -> float:
    return phase.succeeded / phase.elapsed if phase.elapsed > 0 else 0.0


def _payloads(phases: List[PhaseResult], head: str) -> Iterator[tuple]:
    """``(request id, payload, response body)`` of every answered ``head`` line."""
    for phase in phases:
        for line in phase.lines:
            document = json.loads(line)
            if document["head"] != head or document["id"] not in phase.responses:
                continue
            yield document["id"], document["payload"], json.loads(
                phase.responses[document["id"]])


def recall_check(engine, catalog, warmup: PhaseResult, probe_ids, checks: list) -> float:
    """Recall@10 of the probe recommend lines against brute-force ranking.

    The reference scores the *whole* catalog exactly for the same profile
    and history.  The probes are a fixed, seed-independent sample answered
    during warm-up, so the metric measures the retrieval path, not the luck
    of one seed's traffic.
    """
    overlaps = []
    for line in warmup.lines[:len(probe_ids)]:
        document = json.loads(line)
        body = json.loads(warmup.responses.get(document["id"], '{"error": {}}'))
        if "error" in body:
            continue
        payload = document["payload"]
        scores = np.concatenate([
            engine.rank_candidates(payload["static_indices"], catalog[start:start + 4096],
                                   payload["history"])
            for start in range(0, len(catalog), 4096)])
        top = catalog[np.argsort(-scores, kind="stable")[:10]]
        overlaps.append(len(set(body["result"]["candidates"]) & set(top.tolist())) / 10)
    recall = sum(overlaps) / len(overlaps) if overlaps else 0.0
    checks.append(("recall_at_10 from a brute-force reference",
                   len(overlaps) == len(probe_ids) and recall >= 0.5,
                   f"{len(overlaps)} probes, recall {recall:.3f} (floor 0.5)"))
    return recall


def recall_probes(users: int, static_vocab: int, dynamic_vocab: int,
                  count: int) -> List[tuple]:
    """``count`` fixed recommend requests (k=10) for :func:`recall_check`."""
    rng = random.Random(PROBE_SEED)
    probes = []
    for _ in range(count):
        user = rng.randrange(users)
        probes.append(("recommend", {
            "static_indices": [user, rng.randrange(users, static_vocab)],
            "history": [rng.randrange(1, dynamic_vocab)
                        for _ in range(rng.randrange(5, 25))],
            "user_id": user, "k": 10}))
    return probes


def restart_samples(registry: ModelRegistry, workdir: Path, backend: str,
                    options: dict) -> List[float]:
    """Seconds to restart a stateless replica from its checkpoint and index."""
    checkpoint = workdir / "restart.npz"
    index_path = workdir / "restart-index.npz"
    save_seqfm(registry.get("m").model, checkpoint)
    registry.save_index("m", index_path)

    def restart() -> float:
        started = time.perf_counter()
        fresh = ModelRegistry()
        fresh.load("m", checkpoint)
        fresh.load_index("m", index_path, backend=backend, **options)
        return time.perf_counter() - started

    return repeat_trials(restart)


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
class ServeMixed(ServingWorkload):
    """Serial router over the WAL-backed store, 40k-item IVF catalog."""

    name = "serve-mixed"
    rate = 250.0
    pool_rate = 3000.0
    USERS = 16384
    CAPACITY = 8192            # half the users: evictions are journaled, reads miss
    ITEMS = 40_000
    DYNAMIC_VOCAB = 4096
    N_RETRIEVE = 100
    PARITY_SAMPLE = 128
    RECALL_SAMPLE = 12         # brute force costs ~0.5 s per probe here

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.catalog = np.arange(self.USERS, self.USERS + self.ITEMS, dtype=np.int64)
        model = build_model(self.USERS + self.ITEMS, self.DYNAMIC_VOCAB, self.catalog,
                            clusters=80)
        self.registry = ModelRegistry(cache_capacity=self.CAPACITY)
        self.registry.register("m", model)
        self.registry.build_index("m", self.catalog, backend="ivf",
                                  n_retrieve=self.N_RETRIEVE)
        self.store = self.registry.enable_durability("m", workdir / "store")
        self.reopen_checks: List[tuple] = []
        # A store that has been serving for a while: full, so evictions start
        # at once, and checkpointed.
        rng = random.Random(PROBE_SEED)
        for user in range(0, self.USERS, 2):
            self.store.record(user, [rng.randrange(1, self.DYNAMIC_VOCAB) for _ in range(10)])
        self.store.checkpoint()

    def documents(self, rng: random.Random) -> Iterator[tuple]:
        histories = [[rng.randrange(1, self.DYNAMIC_VOCAB)
                      for _ in range(rng.randrange(5, 25))] for _ in range(self.USERS)]
        first, last = self.USERS, self.USERS + self.ITEMS - 1
        for position in itertools.count():
            user = rng.randrange(self.USERS)
            item = rng.randint(first, last)
            slot = position % 16  # a fixed pattern: every window has the same mix
            if slot == 12:  # a click, logged server-side and kept by the client
                events = [rng.randrange(1, self.DYNAMIC_VOCAB) for _ in range(2)]
                histories[user] = histories[user] + events
                yield "update", {"user_id": user, "events": events}
                continue
            if slot == 13:  # a read of the stored sequence (history omitted)
                yield "score", {"static_indices": [user, item], "user_id": user}
                continue
            if rng.random() < 0.2:  # the session moved on: a new event
                histories[user] = histories[user] + [rng.randrange(1, self.DYNAMIC_VOCAB)]
            base = {"static_indices": [user, item], "history": histories[user],
                    "user_id": user}
            if slot < 12:
                yield "score", base
            elif slot == 14:
                yield "rank-topk", {**base, "k": 4, "candidates": [
                    rng.randint(first, last) for _ in range(8)]}
            else:
                yield "recommend", {**base, "k": 10}

    def serve(self, source, sink) -> None:
        serve_jsonl(self.registry, "m", source, sink)

    def probes(self) -> List[tuple]:
        return recall_probes(self.USERS, self.USERS + self.ITEMS, self.DYNAMIC_VOCAB,
                             self.RECALL_SAMPLE)

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        self.store.sync()
        status = self.store.wal_status()
        counters.update(fsyncs=status["fsyncs"],
                        wal_bytes=Path(status["path"]).stat().st_size)
        return counters

    def after_warmup(self) -> None:
        # The timed crash: after setup's checkpoint and the warm-up, so every
        # run reopens the same volume (the snapshot plus the warm-up's WAL)
        # from the same process state.
        self.recovery_samples = self._crash_and_reopen()

    def _crash_and_reopen(self, repeat: bool = True) -> List[float]:
        """Seconds to reopen a copy of the store as a crash would leave it
        (WAL synced, no checkpoint); the reopened state must equal it."""
        self.store.sync()
        before = self.store.snapshot()
        crashed = self.workdir / "crashed"
        reopens = []

        def reopen() -> float:
            shutil.copytree(self.workdir / "store", crashed)
            started = time.perf_counter()
            reopened = DurableSequenceStore(crashed, MAX_SEQ_LEN, capacity=self.CAPACITY)
            elapsed = time.perf_counter() - started
            reopens.append((reopened.recovery.replayed, reopened.snapshot() == before))
            reopened.close()
            shutil.rmtree(crashed)
            return elapsed

        samples = repeat_trials(reopen) if repeat else [reopen()]
        self.reopen_checks.append((reopens[0][0], all(equal for _, equal in reopens)))
        self.replay_records_per_s = reopens[0][0] / median(samples)
        return samples

    def finish(self, phases, extras) -> list:
        checks: list = []
        entry = self.registry.get("m")
        worst, count = 0.0, 0
        for _, payload, body in _payloads(phases[1:], "score"):
            if "error" in body or "history" not in payload:
                continue
            indices, mask = pad_sequences([payload["history"]], MAX_SEQ_LEN)
            batch = FeatureBatch(
                static_indices=np.asarray([payload["static_indices"]], dtype=np.int64),
                dynamic_indices=indices, dynamic_mask=mask,
                labels=np.zeros(1), user_ids=np.asarray([payload["user_id"]]),
                object_ids=np.asarray([-1]))
            worst = max(worst, abs(float(entry.model.score(batch)[0])
                                   - body["result"]["score"]))
            count += 1
            if count == self.PARITY_SAMPLE:
                break
        checks.append(("score matches SeqFM.score to 1e-10",
                       count == self.PARITY_SAMPLE and worst <= 1e-10,
                       f"{count} lines, max |diff| {worst:.2e}"))
        extras["recall_at_10"] = extras["quality"] = recall_check(
            entry.engine, self.catalog, phases[0], self.probe_ids, checks)

        # The end state survives a crash too (timed: only the warm-up crash).
        self._crash_and_reopen(repeat=False)
        for point, (replayed, equal) in zip(("warm-up", "end"), self.reopen_checks):
            checks.append((f"reopened snapshot() equals the pre-crash one ({point})",
                           equal, f"{replayed} records replayed"))
        extras["recovery_samples"] = self.recovery_samples
        extras["replay_records_per_s"] = self.replay_records_per_s
        return checks

    def close(self) -> None:
        self.store.close()


# --------------------------------------------------------------------------- #
# serve-burst
# --------------------------------------------------------------------------- #
class ServeBurst(ServingWorkload):
    """Concurrent router (2 workers, coalescing) over a 200-item exact catalog."""

    name = "serve-burst"
    rate = 400.0
    burst = 16
    #: Admission budget: four times the default, so a host stall that backs
    #: up a few bursts queues them instead of refusing them.
    MAX_INFLIGHT = 256
    window = 48                # closed loop: well below MAX_INFLIGHT
    spin = False
    pool_rate = 10000.0
    USERS = 64
    ITEMS = 200
    STATIC_VOCAB = 512
    DYNAMIC_VOCAB = 256
    N_RETRIEVE = 32
    RECALL_SAMPLE = 64

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.catalog = np.arange(self.USERS, self.USERS + self.ITEMS, dtype=np.int64)
        model = build_model(self.STATIC_VOCAB, self.DYNAMIC_VOCAB, self.catalog)
        self.registry = ModelRegistry()
        self.registry.register("m", model)
        self.registry.build_index("m", self.catalog, n_retrieve=self.N_RETRIEVE)

    def documents(self, rng: random.Random) -> Iterator[tuple]:
        histories = [[rng.randrange(1, self.DYNAMIC_VOCAB)
                      for _ in range(rng.randrange(5, MAX_SEQ_LEN + 5))]
                     for _ in range(self.USERS)]
        catalog = self.catalog.tolist()
        for position in itertools.count():
            user = rng.randrange(self.USERS)
            base = {"static_indices": [user, rng.randrange(self.USERS, self.STATIC_VOCAB)],
                    "history": histories[user], "user_id": user}
            if position % 16 < 14:
                yield "score", base
            elif position % 16 == 14:
                yield "rank-topk", {**base, "k": 4, "candidates": rng.sample(catalog, 8)}
            else:
                yield "recommend", {**base, "k": 10}

    def serve(self, source, sink) -> None:
        serve_concurrent_jsonl(self.registry, "m", source, sink, workers=2,
                               coalesce=True, max_inflight=self.MAX_INFLIGHT)

    def probes(self) -> List[tuple]:
        return recall_probes(self.USERS, self.STATIC_VOCAB, self.DYNAMIC_VOCAB,
                             self.RECALL_SAMPLE)

    def finish(self, phases, extras) -> list:
        checks: list = []
        serial = ModelRegistry()
        serial.register("m", self.registry.get("m").model)
        serial.build_index("m", self.catalog, n_retrieve=self.N_RETRIEVE)
        lines = [line for phase in phases for line in phase.lines]
        out = io.StringIO()
        serve_jsonl(serial, "m", iter([line + "\n" for line in lines]), out)
        reference = dict(zip([json.loads(line)["id"] for line in lines],
                             out.getvalue().splitlines()))
        mismatched = compared = 0
        for phase in phases:
            for request_id, text in phase.responses.items():
                body = json.loads(text)
                if "error" in body:
                    continue
                compared += 1
                expected = reference[request_id]
                if body["head"] != "score":
                    mismatched += text.rstrip("\n") != expected
                    continue
                want = json.loads(expected)
                mismatched += (abs(body["result"]["score"] - want["result"]["score"]) > 1e-9
                               or {**body, "result": None} != {**want, "result": None})
        checks.append(("responses equal the serial router's (scores to 1e-9)",
                       mismatched == 0 and compared > 0,
                       f"{compared} compared, {mismatched} differ"))
        extras["recall_at_10"] = extras["quality"] = recall_check(
            self.registry.get("m").engine, self.catalog, phases[0], self.probe_ids,
            checks)
        extras["recovery_samples"] = restart_samples(
            self.registry, self.workdir, "exact", {"n_retrieve": self.N_RETRIEVE})
        return checks
