"""Smoke tests: every shipped example must run clean end-to-end.

Examples are documentation that executes; a broken example is a broken
promise to the first user.  Each is run in a subprocess (fresh
interpreter, no test-suite state) and its key output lines checked.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Theorem 7" in out
        assert "absolute=True" in out

    def test_bgp_wedgie(self):
        out = run_example("bgp_wedgie.py")
        assert "DISAGREE: 2 stable state(s)" in out
        assert "wedged = True" in out
        assert "limit cycle: True" in out
        assert "stable states reachable: 1" in out

    def test_count_to_infinity(self):
        out = run_example("count_to_infinity.py")
        assert "it never will" in out
        assert "path-vector lift: converged in" in out

    def test_safe_by_design(self):
        out = run_example("safe_by_design_bgp.py")
        assert "strictly increasing: True" in out
        assert "increasing: False" in out          # the SetPref control

    def test_datacenter(self):
        out = run_example("datacenter_bgp.py")
        assert "Theorem 11" in out
        assert "deterministic outcome: True" in out

    def test_vectorized_rip(self):
        out = run_example("vectorized_rip.py")
        assert "vectorizable: True" in out
        assert "engines agree: True" in out
        assert "δ engines agree: True" in out
        assert "vectorized skipped [no-finite-encoding]" in out

    def test_custom_algebra(self):
        out = run_example("custom_algebra.py")
        assert "✗ F increasing" in out             # the buggy round
        assert "Theorem 7" in out                  # the fixed round

    def test_scenario_replay(self):
        out = run_example("scenario_replay.py")
        assert "abilene" in out
        assert "Seattle" in out                    # corpus labels survive
        assert "link-down" in out and "node-up" in out
        assert "all converged: True" in out

    def test_batched_grid(self):
        out = run_example("batched_grid.py")
        assert "absolute convergence      : True" in out
        assert "absolute=True" in out

    def test_service_quickstart(self):
        out = run_example("service_quickstart.py")
        assert "new digest matches" in out
        assert "daemon stopped cleanly: True" in out
