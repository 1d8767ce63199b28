"""One benchmark run of one workload; the repository's benchmark command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Builds the workload's system from ``src/`` (setup is timed from the first
statement of this file: imports plus registry, index and store
construction), runs it for ``--seconds`` on inputs generated from
``--seed``, checks the outputs, prints a human-readable report and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
with every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or
every ``per_layer`` metric (``--trace 1``).  A result record stamped with
the seed and the machine fingerprint lands in ``perfbench/out/records/``,
the spans of a traced run in ``perfbench/out/spans/``.  Exit status: 0 when
every correctness check passed, 1 when one failed, 2 when the program
cannot be imported.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("serve-mixed", "serve-burst", "retrain")
#: Setup is timed in this process and in this many fresh ones; the median counts.
EXTRA_SETUPS = 2


def make_workload(name: str):
    if name == "retrain":
        from perfbench.retrain import Retrain

        return Retrain()
    from perfbench.serving import ServeBurst, ServeMixed

    return {"serve-mixed": ServeMixed, "serve-burst": ServeBurst}[name]()


def fresh_setup_seconds(name: str) -> float:
    """Setup time of the workload in a new interpreter (imports included)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"setup of {name} failed in a fresh process:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def report(name, args, fingerprint, result, metrics, units) -> None:
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace} | "
          + " ".join(f"{key}={value}" for key, value in fingerprint.items()))
    print(f"{'phase':<16}{'sent':>8}{'succeeded':>11}{'failed':>8}{'seconds':>10}")
    for phase in result["phases"]:
        print(f"{phase.name:<16}{phase.sent:>8}{phase.succeeded:>11}{phase.failed:>8}"
              f"{phase.elapsed:>10.3f}")
    for key, value in metrics.items():
        print(f"  {key:<36}{value:>16.6g} {units[key]}")
    for key, value in result["extras"].items():
        print(f"  extra {key:<30}{value:>16.6g}")
    for check, ok, detail in result["checks"]:
        print(f"  check [{'ok' if ok else 'FAILED'}] {check}: {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's system, print its setup time, exit")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench.harness import machine_fingerprint, median

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = make_workload(args.workload)
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload.setup(workdir)
        setup_seconds = time.perf_counter() - STARTED
        if args.setup_only:
            workload.close()
            print(json.dumps({"setup_s": setup_seconds}))
            return 0
        setups = [setup_seconds] + [fresh_setup_seconds(args.workload)
                                    for _ in range(EXTRA_SETUPS)]
        result = workload.run(args.seed, args.seconds, bool(args.trace))
        workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics.update(setup_s=median(setups), peak_rss_mb=result["extras"]["peak_rss_mb"])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    metrics = {name: float(metrics[name]) for name in units}
    correct = all(ok for _, ok, _ in result["checks"])
    fingerprint = machine_fingerprint()
    report(args.workload, args, fingerprint, result, metrics, units)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": fingerprint, "correct": correct,
        "phases": [{"name": phase.name, **phase.counts(), "seconds": phase.elapsed,
                    "error_codes": phase.error_codes} for phase in result["phases"]],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "extras": result["extras"], "setup_samples": setups,
        "checks": [{"check": check, "ok": ok, "detail": detail}
                   for check, ok, detail in result["checks"]],
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    if args.trace:
        from perfbench.tracing import Tracer

        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        Tracer.dump(workload.spans, OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
