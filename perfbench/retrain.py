"""The retrain workload: ``repro.online.retrain_once`` cycles over a growing WAL.

A serving process logs click events to its WAL; the online loop tails them,
fits a warm-started candidate, gates it and promotes it.  Each cycle here
appends a seeded batch of ``record`` entries (the shape
``DurableSequenceStore`` journals for the ``update`` head; untimed) and then
times one ``retrain_once`` on the ``gowalla`` quick context.  Cycles repeat,
closed loop, until ``--seconds`` is spent; one untimed cycle warms up first.

The serving-shaped end-to-end metrics map onto cycles: an operation is one
logged event consumed, ``p50_ms`` is the median cycle, ``p95_ms`` the
slowest cycle (the highest percentile a dozen cycles support),
``success_frac`` the share of cycles promoted and ``quality`` the promoted
candidate's gate ``HR@10``.  The extra ``recovery_s`` is the time to bring
the online loop back after a crash (context, manifest, promoted checkpoint,
index, cursor).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from perfbench.harness import PhaseResult, median, peak_rss_mb, repeat_trials
from perfbench.layers import instrument, layer_metrics
from repro.core.model import SeqFM
from repro.core.tasks import make_task_model
from repro.core.trainer import Trainer
from repro.experiments.registry import build_context
from repro.online import (
    GateConfig,
    IncrementalTrainerConfig,
    InteractionLogReader,
    retrain_once,
)
from repro.online.log_reader import CURSOR_NAME
from repro.online.promotion import ModelLineage
from repro.serving import ModelRegistry
from repro.serving.durability import WAL_NAME, WriteAheadLog

RECORDS_PER_CYCLE = 2000
EVENTS_PER_RECORD = 4
MAX_EXAMPLES = 2000


class Retrain:
    name = "retrain"
    tracer = None

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.context = context = build_context("gowalla", "quick")
        model = SeqFM(context.seqfm_config())
        Trainer(make_task_model(model, context.task), context.encoder,
                sampler=context.sampler,
                config=context.trainer_config(epochs=1)).fit(context.train_examples)
        self.registry = ModelRegistry()
        self.registry.register("m", model)
        encoder = context.encoder
        self.registry.build_index("m", range(encoder.num_users,
                                             encoder.num_users + encoder.num_objects))
        self.wal = WriteAheadLog(workdir / WAL_NAME)

    def _log_clicks(self, rng: random.Random) -> None:
        """Append one cycle's click events, as the serving WAL would hold them."""
        users = self._users
        vocab = self.context.encoder.dynamic_vocab_size
        for _ in range(RECORDS_PER_CYCLE):
            seq = self.wal.last_seq
            self.wal.append({"op": "record", "user": rng.choice(users), "fp": [0],
                             "stamp": float(seq),
                             "events": [rng.randrange(1, vocab)
                                        for _ in range(EVENTS_PER_RECORD)]})
        self.wal.sync()

    def _cycle(self, rng: random.Random, checks: list, traced: bool = False) -> tuple:
        self._log_clicks(rng)  # the input: logged before, and never traced
        if self.tracer is not None:
            self.tracer.enabled = traced
        context = self.context
        started = time.perf_counter()
        report = retrain_once(
            self.registry, "m", wal_path=self.workdir / WAL_NAME,
            online_dir=self.workdir / "online", encoder=context.encoder,
            log=context.log, split=context.split, task=context.task,
            gate_config=GateConfig(tolerance=5.0),
            trainer_config=IncrementalTrainerConfig(epochs=1, max_examples=MAX_EXAMPLES))
        elapsed = time.perf_counter() - started
        if self.tracer is not None:
            self.tracer.enabled = False
        events = RECORDS_PER_CYCLE * EVENTS_PER_RECORD
        expected = min(events, MAX_EXAMPLES)
        ok = (report.status == "promoted" and report.end_seq == self.wal.last_seq
              and report.events == events and report.dropped_events == 0
              and report.examples == expected
              and report.examples_capped == events - expected)
        if not ok:
            checks.append((f"retrain cycle ending at seq {self.wal.last_seq}", False,
                           str(report.as_dict())))
        return elapsed, report

    def run(self, seed: int, seconds: float, trace: bool) -> dict:
        rng = random.Random(seed)
        self._users = [int(user) for user in self.context.encoder.known_users()]
        checks: list = []
        warmup_seconds, warmup = self._cycle(rng, checks)
        untraced, traced, reports, flags = [], [], [], []
        self.tracer = tracer = None
        if trace:
            from perfbench.tracing import Tracer

            self.tracer = tracer = Tracer()
            instrument(tracer)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(untraced) < 2:
            # A traced run alternates, so both sides see the same drift.
            on = tracer is not None and len(traced) < len(untraced)
            elapsed, report = self._cycle(rng, checks, traced=on)
            (traced if on else untraced).append(elapsed)
            reports.append(report)
            flags.append(on)
        if tracer is not None:
            tracer.unpatch_all()
        promoted = sum(report.status == "promoted" for report in reports)
        hr10 = [report.verdict.candidate["HR@10"] for report in reports]
        extras = {"peak_rss_mb": peak_rss_mb(),
                  "retrain_s": median(untraced), "gate_hr10": median(hr10),
                  "failed_frac": 1 - promoted / len(reports),
                  "recovery_s": median(self._recover(checks))}
        metrics = {
            "throughput_rps": RECORDS_PER_CYCLE * EVENTS_PER_RECORD / median(untraced),
            "p50_ms": median(untraced) * 1e3,
            "p95_ms": max(untraced) * 1e3,
            "success_frac": promoted / len(reports),
            "quality": extras["gate_hr10"],
        }
        if tracer is not None:
            self.spans = tracer.take()
            metrics = layer_metrics(self.spans, {
                "cycles": len(traced),
                "overhead_frac": median(traced) / median(untraced) - 1.0})
        checks.append(("every cycle promoted with matching cursor and counts",
                       promoted == len(reports), f"{promoted}/{len(reports)} promoted"))

        def phase(name, seconds, cycle_reports) -> PhaseResult:
            ok = sum(report.status == "promoted" for report in cycle_reports)
            return PhaseResult(name, len(cycle_reports), ok, len(cycle_reports) - ok,
                               sum(seconds), {})

        phases = [phase("warm-up", [warmup_seconds], [warmup]),
                  phase("cycles", untraced, [r for r, t in zip(reports, flags) if not t])]
        if tracer is not None:
            phases.append(phase("cycles-traced", traced,
                                [r for r, t in zip(reports, flags) if t]))
        return {"phases": phases, "metrics": metrics, "extras": extras,
                "checks": checks, "attempted": len(reports),
                "failed": len(reports) - promoted}

    def _recover(self, checks: list) -> list:
        """Seconds to bring the online loop back after a crash: its context,
        the promoted model and index, and the cursor."""
        online = self.workdir / "online"
        cursors = []

        def reopen() -> float:
            started = time.perf_counter()
            encoder = build_context("gowalla", "quick").encoder
            lineage = ModelLineage(online, name="m")
            registry = ModelRegistry()
            registry.load("m", lineage.checkpoint_path(lineage.active.version))
            registry.build_index("m", range(encoder.num_users,
                                            encoder.num_users + encoder.num_objects))
            cursors.append(InteractionLogReader(self.workdir / WAL_NAME,
                                                cursor_path=online / CURSOR_NAME).cursor.seq)
            return time.perf_counter() - started

        samples = repeat_trials(reopen)
        checks.append(("recovered cursor sits at the WAL's last seq",
                       set(cursors) == {self.wal.last_seq},
                       f"cursor {cursors[0]}, wal {self.wal.last_seq}"))
        return samples

    def close(self) -> None:
        self.wal.close()
