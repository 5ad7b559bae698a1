"""The traced window: per-layer metrics, self time, tracing overhead.

Runs after the untraced window on a fresh set-up.  In-process
workloads patch their layers here; the serve workloads start a daemon
that patches its own (``daemon_main.py --trace-out``).  The spans are
written to ``perfbench/out/`` when the window ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Dict

from common import Ledger, Metric, p50
from hostspeed import probe_ms, slowdown
from layers import BATCHED_GRID, GATHER, instrument
from spans import (Tracer, durations_ms, layer_self_ms, load_spans,
                   summarize)


def _per_call(summary, name: str) -> Metric:
    """Mean milliseconds per call of one wrapped function."""
    row = summary.get(name)
    if not row:
        return Metric(0.0, "ms", 0)
    return Metric(row["total_ms"] / row["calls"], "ms", row["calls"])


def _span_p50(spans, name: str) -> Metric:
    ms = durations_ms(spans, name)
    return Metric(p50(ms), "ms", len(ms))


def span_layers(spans, counters) -> Dict[str, Metric]:
    """Per-layer metrics that come from span timings alone."""
    s = summarize(spans)
    gather = s.get(GATHER, {"calls": 0})
    refresh = s.get("core.vectorized:refresh", {"calls": 0, "total_ms": 0})
    # σ calls made by the caller, not the re-solves inside a replay
    name_of = {sp[0]: sp[3] for sp in spans}
    top_sigma = [sp for sp in spans if sp[3] == "session:sigma"
                 and name_of.get(sp[1]) != "session:replay"]
    sigma = summarize(top_sigma + [sp for sp in spans
                                   if name_of.get(sp[1]) == "session:sigma"]
                      ).get("session:sigma")
    covered = sigma["child_ms"] / sigma["total_ms"] if sigma and \
        sigma["total_ms"] else 0.0
    sigma_ms = [(t1 - t0) * 1e3 for _s, _p, _t, _n, t0, t1 in top_sigma]
    return {
        "session.sigma_ms": Metric(p50(sigma_ms), "ms", len(sigma_ms)),
        "session.sigma_covered_share": Metric(
            covered, "ratio", sigma["calls"] if sigma else 0),
        "vectorized.encode_ms": _per_call(s, "core.vectorized:encode_state"),
        "vectorized.decode_ms": _per_call(s, "core.vectorized:decode_state"),
        "vectorized.gather_ms": _per_call(s, GATHER),
        "vectorized.gather_calls": Metric(gather["calls"], "count",
                                          gather["calls"]),
        "vectorized.gather_bytes_computed": Metric(
            counters.get("gather_bytes_computed", 0.0), "B",
            gather["calls"]),
        "vectorized.fold_ms": _per_call(s, "core.vectorized:fold_edge_tables"),
        "vectorized.refresh_ms": Metric(refresh["total_ms"], "ms",
                                        refresh["calls"]),
        "batched.grid_ms": _per_call(s, BATCHED_GRID),
        "batched.steps": Metric(counters.get("batched_steps", 0.0), "steps",
                                s.get(BATCHED_GRID, {"calls": 0})["calls"]),
        "schedule.compile_ms": _per_call(s, "core.schedule:compile"),
        "parallel.sigma_ms": _span_p50(spans, "core.parallel:sigma"),
        "parallel.delta_ms": _span_p50(spans, "core.parallel:delta"),
        "remote.sigma_ms": _span_p50(spans, "core.remote:sigma"),
        "remote.delta_ms": _span_p50(spans, "core.remote:delta"),
        "wire.encode_ms": _per_call(s, "core.wire:encode_update"),
        "wire.decode_ms": _per_call(s, "core.wire:decode_update"),
        "scenarios.compile_ms": _per_call(s, "scenarios:compile_event"),
    }


def traced_window(wl, seconds: float, ledger: Ledger,
                  untraced: Dict[str, Metric], out_dir: Path):
    """Set up again, measure one traced window, check it; returns
    ``(layer metrics, overhead per end-to-end metric, record extras)``."""
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    in_process = wl.IN_PROCESS
    tracer = Tracer()
    before = probe_ms(wl.PROBE_EVERY_CPU)
    t0 = perf_counter()
    if in_process:
        wl.setup()
        instrument(tracer)
    else:
        wl.setup(traced=True)
    setup_s = perf_counter() - t0
    setup_s /= slowdown(before, probe_ms(wl.PROBE_EVERY_CPU))
    try:
        try:
            win = wl.window(seconds, ledger)
        finally:
            tracer.unpatch()
        trace_file = None
        if not in_process:
            trace_file = wl.daemon.trace_out
        wl.teardown()
    except BaseException:
        wl.abort()
        raise
    wl.verify([win], ledger)
    suffix = f"{wl.name}-seed{wl.seed}"
    if in_process:
        spans = tracer.spans
        trace_file = out_dir / f"spans-{suffix}.jsonl"
        tracer.dump(trace_file)
        counters = tracer.counters
    else:
        spans = load_spans(trace_file)
        counters = json.loads(Path(f"{trace_file}.counters.json")
                              .read_text(encoding="utf-8"))
    layers = span_layers(spans, counters)
    if in_process:
        layers.update(wl.report_layers(win))
    else:
        layers.update(wl.layer_metrics(win, spans))
    traced_e2e = {"setup_s": Metric(setup_s, "s", 1)}
    traced_e2e.update(wl.e2e([win]))
    overhead = {}
    for name, m in untraced.items():
        t = traced_e2e.get(name)
        if t is not None and m.value:
            overhead[name] = t.value / m.value - 1.0
    self_ms = layer_self_ms(summarize(spans))
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name.startswith("selftime."):
            layers[name] = Metric(self_ms.get(name[len("selftime."):], 0.0),
                                  "ms", len(spans))
        elif name.startswith("overhead."):
            layers[name] = Metric(overhead.get(name[len("overhead."):], 0.0),
                                  "ratio", 2)
        elif name not in layers:
            # the layer does not run on this workload
            layers[name] = Metric(0.0, entry["unit"], 0)
    extra = {"self_ms": self_ms, "span_file": str(trace_file),
             "spans": len(spans), "spans_dropped": tracer.dropped,
             "traced_e2e": {k: m.as_dict() for k, m in traced_e2e.items()},
             "span_summary": summarize(spans)}
    return layers, overhead, extra

