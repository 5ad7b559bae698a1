"""The repository's benchmark: four workloads over the service and the
solver ladder, checked for correctness, measured end to end and, in a
separate traced run, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``serve-mixed``, ``serve-churn``, ``solve``, ``shard`` (see
``perfbench/README.md``).  Run from the repository root.  The program
under test is imported from ``src/``; nothing under ``src/`` is changed.

Every run sets up ``SETUPS`` times, each set-up followed by a timed
window of ``--seconds / SETUPS``; it reports the median set-up time as
``setup_s`` and every other end-to-end metric over the pooled samples
of the windows, then checks every output outside the windows.  Times
and rates are given at a reference host speed, from a probe timed next
to every sample (``hostspeed.py``); the figures as measured go to the
result file as ``e2e_raw``.  ``--trace 1``
adds one traced window of the same length on a fresh set-up: it
reports the per-layer metrics, the per-layer self-time table and the
tracing overhead of each end-to-end metric.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero
when any check failed or any operation errored.  Human-readable tables
go above it; full results and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import Ledger, Metric  # noqa: E402
from hostspeed import probe_ms, slowdown  # noqa: E402

SETUPS = 3
WORKLOADS = ("serve-mixed", "serve-churn", "solve", "shard")


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def workload_class(name: str):
    from serve import ServeChurn, ServeMixed
    from solve import Shard, Solve
    return {"serve-mixed": ServeMixed, "serve-churn": ServeChurn,
            "solve": Solve, "shard": Shard}[name]


def host_meta(seed: int) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def _table(title: str, metrics: dict) -> str:
    lines = [title]
    for name, m in metrics.items():
        lines.append(f"  {name:<32} {m.value:>14.6g} {m.unit:<8} "
                     f"n={m.samples}")
    return "\n".join(lines)


def measure(name: str, seed: int, seconds: float, trace: bool,
            inject: bool, out_dir: Path):
    """Set up ``SETUPS`` times, each followed by a window of
    ``seconds / SETUPS``; check every window; returns the result record.

    Each window runs on its own set-up (for the serve workloads, its
    own daemon process); the end-to-end figures pool the samples of all
    windows.
    """
    ledger = Ledger()
    wl = workload_class(name)(seed, out_dir)
    # import the program once, so every timed set-up does the same work
    import repro.scenarios  # noqa: F401
    import repro.service  # noqa: F401
    import repro.topologies.generators  # noqa: F401
    setup_times, setup_slow, windows = [], [], []
    part = seconds / SETUPS
    try:
        for _ in range(SETUPS):
            gc.collect()
            before = probe_ms(wl.PROBE_EVERY_CPU)
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
            setup_slow.append(slowdown(before,
                                       probe_ms(wl.PROBE_EVERY_CPU)))
            windows.append(wl.window(part, ledger))
            wl.teardown()
    except BaseException:
        wl.abort()
        raise
    if inject:
        wl.inject_fault(windows[0])
    wl.verify(windows, ledger)
    missing = [c for c in wl.CHECKS if c not in ledger.checks]
    for c in missing:
        ledger.error(c, "check did not run")
    e2e = {"setup_s": Metric(statistics.median(
        t / f for t, f in zip(setup_times, setup_slow)), "s",
        len(setup_times))}
    e2e.update(wl.e2e(windows))
    e2e["error_rate"] = Metric(ledger.error_rate, "ratio",
                               ledger.attempted)
    raw = {"setup_s": Metric(statistics.median(setup_times), "s",
                             len(setup_times))}
    raw.update(wl.e2e(windows, raw=True))
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "meta": dict(host_meta(seed), **wl.meta()),
              "setup_runs_s": setup_times, "setup_slowdown": setup_slow,
              "windows": [{k: m.as_dict() for k, m in wl.e2e([w]).items()}
                          for w in windows],
              "e2e_raw": {k: m.as_dict() for k, m in raw.items()},
              "e2e": {k: m.as_dict() for k, m in e2e.items()}}
    layers = None
    if trace:
        from traced import traced_window
        layers, overhead, extra = traced_window(wl, part, ledger, e2e,
                                                out_dir)
        record.update(extra)
        record["layers"] = {k: m.as_dict() for k, m in layers.items()}
        record["overhead"] = overhead
        e2e["error_rate"] = Metric(ledger.error_rate, "ratio",
                                   ledger.attempted)
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  refused=ledger.refused, checks=ledger.checks,
                  problems=ledger.problems)
    return record, e2e, layers, ledger


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one recorded output before the checks "
                         "run (the self-test uses it to prove the checks "
                         "fail the run)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    spec = _load_spec()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        record, e2e, layers, ledger = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.inject_fault, out_dir)
    except Exception:
        traceback.print_exc()
        return 3
    print(f"workload {args.workload}  seed {args.seed}  "
          f"window {args.seconds}s  trace {args.trace}")
    print(json.dumps(record["meta"], sort_keys=True))
    print(_table(f"end-to-end ({SETUPS} untraced windows pooled; times "
                 "and rates at reference host speed)", e2e))
    print(f"  error_rate numerator {ledger.failed} / "
          f"denominator {ledger.attempted} (refused {ledger.refused})")
    print("checks run: " + ", ".join(
        f"{k} {v[0] - v[1]}/{v[0]} ok" for k, v in ledger.checks.items()))
    for p in ledger.problems:
        print(f"  FAIL {p}")
    if layers is not None:
        print(_table("per-layer (traced window)", layers))
        print("self time by layer (ms in the traced window): "
              + json.dumps(record["self_ms"], sort_keys=True))
        print("tracing overhead (traced/untraced - 1): "
              + json.dumps(record["overhead"], sort_keys=True))
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"result-{suffix}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for entry in wanted:
        m = source[entry["name"]]
        metrics[entry["name"]] = {"value": m.value, "unit": entry["unit"]}
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    from procs import stop_helpers
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)
