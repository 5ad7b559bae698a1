"""Smoke coverage for benchmarks/run_benchmarks.py.

Tier-1 runs only the tiny ``smoke`` scale (a second or two); the real
suites are invoked explicitly (``--quick`` / full) and the full-scale
pytest entry is gated behind the ``perfbench`` marker, which
``pytest.ini`` deselects by default.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import run_benchmarks  # noqa: E402


class TestSmokeSuite:
    def test_smoke_suite_agrees_and_bounds_memory(self):
        report = run_benchmarks.run_suite("smoke", repeats=1)
        assert report["meta"]["all_fixed_points_equal"]
        assert report["sigma"] and report["delta"]
        # smoke stays pool-free, but the columns must exist in the schema
        assert "parallel" in report
        assert "batched" in report
        assert "remote" in report
        assert "service" in report
        assert "windowed_ipc" in report
        assert "scenarios" in report
        assert report["meta"]["cpu_count"] >= 1
        for row in report["sigma"]:
            assert row["fixed_points_equal"], row["case"]
            assert row["converged"], row["case"]
        for row in report["delta"]:
            assert row["fixed_points_equal"], row["case"]
            assert row["memory_bounded"], row["case"]
            assert (row["bounded_history_retained"]
                    <= row["max_read_back"] + 2), row["case"]

    def test_main_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = run_benchmarks.main(["--smoke", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["meta"]["scale"] == "smoke"
        assert capsys.readouterr().out      # the table was printed

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks.run_suite("galactic")


class TestCommittedBaseline:
    """BENCH_core.json is the committed perf trajectory; keep it honest."""

    def test_committed_report_meets_acceptance(self):
        path = BENCH_DIR.parent / "BENCH_core.json"
        report = json.loads(path.read_text())
        assert report["meta"]["all_fixed_points_equal"]
        headline = [r for r in report["sigma"] if r.get("headline")]
        assert headline, "headline n=100 sparse random case missing"
        for row in headline:
            assert row["n"] >= 100
            assert row["speedup"] >= 10, row
        for row in report["delta"]:
            assert row["memory_bounded"], row
            assert (row["bounded_history_retained"]
                    <= row["max_read_back"] + 2), row

    def test_committed_parallel_column(self):
        """The PR 3 column: a headline row must exist, carry agreement
        evidence, and meet the hardware-aware floor (the full ≥ 2×
        acceptance floor when the baseline host's σ-kernel scaling
        ceiling allows it, 80% of the measured memory-bandwidth ceiling
        otherwise — see ``run_benchmarks.parallel_floor``)."""
        path = BENCH_DIR.parent / "BENCH_core.json"
        report = json.loads(path.read_text())
        rows = report.get("parallel", [])
        headline = [r for r in rows if r.get("headline_parallel")]
        assert headline, "parallel headline (n >= 400) case missing"
        for row in rows:
            assert row["fixed_points_equal"], row["case"]
        floor, _reason = run_benchmarks.parallel_floor(report["meta"])
        for row in headline:
            assert row["n"] >= 400
            if row.get("skipped"):
                # single-core baseline host: the skip must say why
                assert "single-core" in row["skipped"]
                continue
            if floor is not None:
                best = max((p["vs_vectorized"] or 0.0)
                           for p in row["scaling"] if p["workers"] >= 4)
                assert best >= floor, (row, floor)


class TestCommittedBatchedColumn:
    """The PR 4 columns: batched-grid headline and windowed-δ IPC."""

    def test_committed_batched_headline(self):
        path = BENCH_DIR.parent / "BENCH_core.json"
        report = json.loads(path.read_text())
        rows = report.get("batched", [])
        headline = [r for r in rows if r.get("headline_batched")]
        assert headline, "batched headline (n=100 grid) case missing"
        for row in rows:
            assert row["fixed_points_equal"], row["case"]
        for row in headline:
            assert row["n"] >= 100
            assert row["trials"] >= 16
            assert row["batched_vs_loop"] >= \
                run_benchmarks.BATCHED_HEADLINE_FLOOR, row

    def test_committed_remote_headline(self):
        """The PR 6 column: the gnp-400 remote headline must carry
        bit-identity evidence and keep the delta-encoded σ updates at
        least ``REMOTE_COMPRESSION_FLOOR`` times smaller than a naive
        full-column transfer."""
        path = BENCH_DIR.parent / "BENCH_core.json"
        report = json.loads(path.read_text())
        rows = report.get("remote", [])
        headline = [r for r in rows if r.get("headline_remote")]
        assert headline, "remote headline (gnp-400) case missing"
        for row in rows:
            assert row["fixed_points_equal"], row["case"]
        for row in headline:
            assert row["n"] >= 400
            if row.get("skipped"):
                continue
            assert row["workers"] >= 2
            assert row["compression_ratio"] >= \
                run_benchmarks.REMOTE_COMPRESSION_FLOOR, row
            assert row["bytes_per_round"] <= \
                row["bytes_per_round_ceiling"], row
            # protocol barriers include the init/fetch cycles, so the
            # wire round count can only exceed the σ round count
            assert row["sigma_wire"]["rounds"] >= row["rounds"]

    def test_committed_service_headline(self):
        """The PR 7 column: the 200-client service headline must serve
        warm-cache repeated queries ≥ ``SERVICE_CACHE_FLOOR`` times
        faster than cold computes, error-free, with the served fixed
        point bit-identical to a direct session run."""
        path = BENCH_DIR.parent / "BENCH_core.json"
        report = json.loads(path.read_text())
        rows = report.get("service", [])
        headline = [r for r in rows if r.get("headline_service")]
        assert headline, "service headline (200 clients) case missing"
        for row in rows:
            assert row["fixed_points_equal"], row["case"]
            assert row["server_errors"] == 0, row["case"]
        for row in headline:
            assert row["clients"] >= 100
            assert row["cache_hit_speedup"] >= \
                run_benchmarks.SERVICE_CACHE_FLOOR, row
            assert 0.0 < row["cache_hit_ratio"] <= 1.0
            assert row["warm_ms"]["p99"] >= row["warm_ms"]["p50"]

    def test_committed_scenarios_column(self):
        """The PR 10 column: the full (topology × event × algebra)
        survey headline must run every cell through the per-trial
        session-replay oracle with zero failures — bit-identity between
        the batched grid path and ``RoutingSession.replay``."""
        path = BENCH_DIR.parent / "BENCH_core.json"
        report = json.loads(path.read_text())
        rows = report.get("scenarios", [])
        headline = [r for r in rows if r.get("headline_scenarios")]
        assert headline, "scenarios headline (full survey grid) missing"
        for row in rows:
            assert row["fixed_points_equal"], row["case"]
            assert row["failed_cells"] == 0, row["case"]
            assert row["failures"] == [], row["case"]
        for row in headline:
            # acceptance floor: >= 6 topologies x >= 4 events x
            # >= 2 algebras, every cell oracle-checked
            assert row["cells"] >= 48, row
            assert row["oracle_checked"] == row["cells"], row

    def test_committed_windowed_ipc(self):
        path = BENCH_DIR.parent / "BENCH_core.json"
        report = json.loads(path.read_text())
        rows = report.get("windowed_ipc", [])
        assert rows, "windowed-IPC row missing"
        for row in rows:
            assert row["fixed_points_equal"], row["case"]
            if row["delta_steps"] >= 4 * row["window"]:
                assert row["steps_per_command"] >= \
                    run_benchmarks.WINDOWED_IPC_FLOOR, row


class TestBenchmarkPatchTargets:
    """The traced benchmark (``perfbench/layers.py``) wraps engine,
    kernel, wire and daemon names by exact lookup; moving one of them
    breaks every traced run.  Both instrumentations must apply and
    cleanly undo."""

    def test_tracer_patches_apply_and_unpatch(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(BENCH_DIR.parent / "perfbench"))
        import layers
        from spans import Tracer

        from repro.core.parallel import ParallelVectorizedEngine
        from repro.core.remote import RemoteVectorizedEngine

        originals = [cls.__dict__[verb]
                     for cls in (ParallelVectorizedEngine,
                                 RemoteVectorizedEngine)
                     for verb in ("iterate", "delta")]
        for instrument in (layers.instrument, layers.instrument_daemon):
            tracer = Tracer()
            try:
                instrument(tracer)
                assert tracer._patches, instrument.__name__
            finally:
                tracer.unpatch()
            assert [cls.__dict__[verb]
                    for cls in (ParallelVectorizedEngine,
                                RemoteVectorizedEngine)
                    for verb in ("iterate", "delta")] == originals


@pytest.mark.perfbench
class TestFullQuickSuite:
    """Deselected in tier-1 (see pytest.ini); run with -m perfbench."""

    def test_quick_suite(self):
        report = run_benchmarks.run_suite("quick", repeats=1)
        assert report["meta"]["all_fixed_points_equal"]
