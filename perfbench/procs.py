"""Process accounting from ``/proc`` (peak RSS, CPU seconds) and the
final reaping of every process the benchmark started."""

from __future__ import annotations

import multiprocessing
import os
import resource

_TICK = os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Summed peak RSS of this process's live multiprocessing children
    (the parallel rung's pool and the remote rung's loopback workers)."""
    return sum(peak_rss_mb(p.pid) for p in multiprocessing.active_children())


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3 of stat); utime/stime are 14/15
    return (int(fields[11]) + int(fields[12])) / _TICK


def stop_helpers() -> None:
    """Reap every multiprocessing child still alive, then stop the
    ``multiprocessing`` resource tracker and wait for it to exit.

    The parallel rung's shared memory starts the tracker on first use;
    left alone it outlives this process by however long it takes to
    notice the exit.  Called on every path out of the benchmark."""
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for proc in children:
        proc.terminate()
    for proc in children:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
