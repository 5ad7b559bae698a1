"""Self-test of the benchmark: a short mode of every workload.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default):

* a short traced run must exit 0, print every end-to-end metric that
  applies to the workload with its unit and sample count, run every
  correctness check the workload declares, and end with a JSON line
  holding every per-layer metric of ``BENCHMARK.json``;
* a short run with ``--inject-fault`` must exit nonzero.

Finally ``run.py`` must exit nonzero without printing a result in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Exits nonzero if anything failed.  Takes a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import workload_class  # noqa: E402

ALL = ("setup_s", "peak_rss_mb", "error_rate", "ops_per_s", "sigma_p50_ms")
SERVE = ALL + ("read_rps", "read_p50_ms", "read_p99_ms")
SOLVER = ALL + ("sigma_per_s", "delta_per_s")
EXPECTED = {
    "serve-mixed": SERVE + ("hit_p50_ms", "miss_p50_ms"),
    "serve-churn": SERVE + ("fresh_read_p50_ms", "fresh_read_p99_ms"),
    "solve": SOLVER + ("grid_trials_per_s", "replay_phases_per_s"),
    "shard": SOLVER,
}
SECONDS = "1.5"


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_workload(workload: str, spec: dict) -> list:
    problems = []
    out = _run(["--workload", workload, "--seed", "7", "--seconds",
                SECONDS, "--trace", "1"])
    if out.returncode != 0:
        return [f"{workload}: traced run exited {out.returncode}: "
                f"{out.stderr[-1500:]}"]
    lines = out.stdout.splitlines()
    for name in EXPECTED[workload]:
        pat = re.compile(rf"^\s+{re.escape(name)}\s+\S+\s+\S+\s+n=\d+$")
        if not any(pat.match(line) for line in lines):
            problems.append(f"{workload}: end-to-end metric {name} not "
                            "printed with unit and sample count")
    checks = next((line for line in lines
                   if line.startswith("checks run:")), "")
    for check in workload_class(workload).CHECKS:
        m = re.search(rf"{re.escape(check)} (\d+)/(\d+) ok", checks)
        if not m or int(m.group(2)) == 0 or m.group(1) != m.group(2):
            problems.append(f"{workload}: check {check} did not run "
                            f"cleanly ({checks!r})")
    result = json.loads(lines[-1])
    want = {m["name"] for m in spec["per_layer"]}
    if set(result["metrics"]) != want:
        problems.append(f"{workload}: traced JSON metrics differ from "
                        f"per_layer: {sorted(want ^ set(result['metrics']))}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload}: traced run not correct")
    bad = _run(["--workload", workload, "--seed", "7", "--seconds",
                SECONDS, "--trace", "0", "--inject-fault"])
    if bad.returncode == 0:
        problems.append(f"{workload}: --inject-fault run exited 0")
    return problems


def check_bare_directory() -> list:
    """Without the program beside it, ``run.py`` must fail fast and
    print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    try:
        out = _run(["--workload", "solve", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or "{" in out.stdout:
        return [f"bare directory: exit {out.returncode}, "
                f"stdout {out.stdout[-300:]!r}"]
    return []


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = argv or list(EXPECTED)
    problems = []
    for workload in workloads:
        found = check_workload(workload, spec)
        print(f"{workload}: {'ok' if not found else 'FAIL'}", flush=True)
        problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
