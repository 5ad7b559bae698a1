"""Shared-memory parallel σ/δ engine: destination-column sharding.

The ``parallel`` rung of the six-engine ladder (naive → incremental →
vectorized → **parallel** → batched → remote).  The vectorized engine
already turned σ into a numpy table-gather min-product over the dirty
columns of an ``(n, n)`` int code matrix; this module distributes that
product over a persistent pool of worker *processes*, exploiting the
same structural fact one level up: entry ``(i, j)`` of σ(X) only ever
reads **column j** of ``X``, so destination columns are fully
independent and can be sharded with zero cross-worker synchronisation
inside a round.

What a shard computes — the column split, the per-shard snapshot, the
σ round over a block, the δ window over a ring of blocks, the
coordinator's δ window planner — is :mod:`repro.core.shard`, shared
with the TCP rung (:mod:`repro.core.remote`).  This module is the
transport: shared memory for the matrices, one pipe per worker for
the commands.

Architecture
------------

* The code matrix ``C``, the edge lookup tables, the per-round dirty /
  next-dirty bitmaps and (for δ) a ring of ``window`` historical code
  matrices live in :mod:`multiprocessing.shared_memory` segments; every
  process maps them as numpy views, so no matrix bytes are ever
  pickled.
* Each worker owns a contiguous block of destination columns
  ``[lo, hi)``.  One σ round is: read the shared dirty bitmap over the
  owned block, run :func:`~repro.core.shard.sigma_round` on that block
  of the shared ``C`` **in place** (sound because no other worker reads
  it), and flag the changed columns in the shared next-dirty bitmap.
  Only the tiny per-round command tuple and a changed-column count
  cross the pipe.
* An empty union of per-worker dirty sets is exactly σ-stability
  (Definition 4), so fixed-point detection stays free, as in the
  incremental and vectorized engines.
* δ is **windowed**: the master plans a window of steps
  (:class:`~repro.core.shard.DeltaPlan`, :data:`~repro.core.shard.DELTA_WINDOW`
  by default) and sends it as one command; each worker runs it on its
  block of the shared history ring (:func:`~repro.core.shard.delta_window`)
  and replies with per-step changed flags.  One pipe round-trip per
  window instead of per step amortises what dominated
  high-activation-rate schedules, with bit-identical results.

Fallback & selection
--------------------

``engine="parallel"`` is safe to request anywhere: the selectors call
:func:`parallel_workers`, which returns ``None`` (→ vectorized
fallback, which itself falls back to incremental for non-finite
algebras) when the algebra has no finite encoding, when shared memory
or the platform's process support is missing, when ``workers`` resolves
to ≤ 1, or — in auto mode (``workers=None``) — when the host has a
single CPU or the problem is too small (``n <`` :data:`PARALLEL_MIN_N`)
for process fan-out to pay.  Passing an explicit ``workers >= 2``
overrides the size heuristics (tests and benchmarks do), but never the
capability checks.  Constructing :class:`ParallelVectorizedEngine`
directly raises :class:`~repro.core.algebra.UnsupportedAlgebraError`
with the reason, mirroring :class:`~repro.core.vectorized.VectorizedEngine`.

Cache discipline & cleanup
--------------------------

Topology mutations are handled by the same ``adjacency.version``
contract as the vectorized engine: :meth:`ParallelVectorizedEngine.refresh`
(called at the top of every public entry point) rebuilds the edge-table
snapshot and **republishes** it — a fresh shared-memory segment plus a
``reload`` command to every worker, acknowledged before the old segment
is unlinked — so a mid-run ``set_edge`` / ``remove_edge`` can never
leave a worker computing against stale tables.

Worker processes and shared-memory segments are released by
:meth:`~ParallelVectorizedEngine.close` (idempotent; also a context
manager), by a ``weakref.finalize`` hook when the engine is garbage
collected, and by :class:`~repro.session.RoutingSession` when the
session closes — an exception anywhere in a run must never leak a
segment or a process (``tests/core/test_parallel.py`` holds the engine
to that).
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, List, Optional, Sequence

try:
    import numpy as np
except ImportError:                      # pragma: no cover - numpy is baked in
    np = None

try:
    import multiprocessing as _mp
    from multiprocessing import shared_memory as _shm
except ImportError:                      # pragma: no cover - stdlib
    _mp = None
    _shm = None

from .algebra import UnsupportedAlgebraError
from .asynchronous import AsyncResult
from .capabilities import Capabilities, register_engine
from .schedule import Schedule
from .shard import (
    DELTA_WINDOW,
    DeltaPlan,
    EdgeSnapshot,
    delta_window,
    sigma_round,
    split_columns,
)
from .state import Network, RoutingState
from .synchronous import SyncResult
from .vectorized import _DTYPE, VectorizedEngine, supports_vectorized
# the benchmark tracer patches these two names on this module by name
from .vectorized import fold_edge_tables, gather_min_reduce  # noqa: F401

#: auto-mode floor: below this many destinations the per-round IPC and
#: process fan-out outweigh the numpy work being sharded — the
#: committed BENCH_core.json measures the pool *losing* to the serial
#: vectorized engine at n=200 (0.8×) and winning at n=400 (1.3×) on a
#: memory-bandwidth-limited host, so auto mode only engages from the
#: size class where the win is demonstrated.  Explicit ``workers``
#: overrides it (the differential tests and benchmarks do).
PARALLEL_MIN_N = 256

#: seconds to wait on a worker reply before declaring the pool dead.
_REPLY_TIMEOUT = 120.0


def _mp_context():
    """Fork where available (cheap, inherits the numpy import), else
    spawn; ``None`` when multiprocessing is unusable on this platform."""
    if _mp is None or _shm is None:
        return None
    try:
        methods = _mp.get_all_start_methods()
    except Exception:                    # pragma: no cover - exotic platforms
        return None
    if "fork" in methods:
        return _mp.get_context("fork")
    if "spawn" in methods:               # pragma: no cover - non-posix
        return _mp.get_context("spawn")
    return None                          # pragma: no cover - no methods


def supports_parallel(algebra) -> bool:
    """True when the parallel engine *could* run this algebra here.

    Capability only (finite encoding + numpy + shared memory + a
    process start method); whether fan-out is worthwhile for a given
    ``(n, workers)`` is decided by :func:`parallel_workers`.
    """
    return _mp_context() is not None and supports_vectorized(algebra)


def parallel_workers(network: Network,
                     workers: Optional[int] = None) -> Optional[int]:
    """Resolve the effective worker count, or ``None`` to fall back.

    ``None`` means "the selector should silently drop to the vectorized
    engine": no capability, an explicit ``workers=1`` request, or auto
    mode on a single-CPU host / a problem smaller than
    :data:`PARALLEL_MIN_N`.  Explicit ``workers >= 2`` skips the size
    heuristics but is still clamped to ``n`` (every worker needs at
    least one column).

    Caveat: auto mode trusts ``os.cpu_count()``, which containers
    routinely clamp to 1 even when the hypervisor schedules several
    vCPUs (the benchmark harness's ``usable_cpus()`` probe measures the
    difference empirically — too slow to run inside a library call).
    On such hosts pass an explicit ``workers`` count to engage the
    pool.
    """
    if not supports_parallel(network.algebra):
        return None
    if workers is None:
        cpus = os.cpu_count() or 1
        if cpus < 2 or network.n < PARALLEL_MIN_N:
            return None
        workers = cpus
    workers = min(int(workers), network.n)
    return workers if workers >= 2 else None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _WorkerState:
    """Everything one worker holds: shm attachments + numpy views."""

    def __init__(self):
        self.segments: Dict[str, "_shm.SharedMemory"] = {}
        self.C = None                    # (n, n) view of the code matrix
        self.dirty = None                # (n,) uint8 view (round input)
        self.next_dirty = None           # (n,) uint8 view (round output)
        self.ring: List = []             # δ ring: (n, width) block views
        self.snap: Optional[EdgeSnapshot] = None
        self.lo = 0
        self.hi = 0

    def attach(self, key: str, name: str, shape, dtype):
        old = self.segments.pop(key, None)
        if old is not None:
            old.close()
        seg = _shm.SharedMemory(name=name)
        self.segments[key] = seg
        return np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    def close(self):
        for seg in self.segments.values():
            try:
                seg.close()
            except OSError:              # pragma: no cover - already gone
                pass
        self.segments.clear()


def _worker_load(state: _WorkerState, meta: dict) -> None:
    """Attach the base segments and install the edge-table snapshot."""
    n = meta["n"]
    state.lo, state.hi = meta["block"]
    state.C = state.attach("C", meta["C"], (n, n), _DTYPE)
    state.dirty = state.attach("dirty", meta["dirty"], (n,), np.uint8)
    state.next_dirty = state.attach(
        "next_dirty", meta["next_dirty"], (n,), np.uint8)
    _worker_reload_tables(state, meta)


def _worker_reload_tables(state: _WorkerState, meta: dict) -> None:
    """(Re)install the topology snapshot after a publish/republish."""
    tables = state.attach("tables", meta["tables"],
                          tuple(meta["tables_shape"]), _DTYPE)
    state.snap = EdgeSnapshot.from_meta(meta, tables)


def _worker_sigma(state: _WorkerState, full: bool) -> int:
    """One σ round over this worker's dirty columns; returns #changed.

    The block is a view of the shared ``C``; the shared dirty bitmaps
    carry the round's input and output."""
    lo, hi = state.lo, state.hi
    cols = np.arange(hi - lo) if full else np.nonzero(state.dirty[lo:hi])[0]
    changed = sigma_round(state.snap, state.C[:, lo:hi], lo, cols)
    state.next_dirty[lo + changed] = 1
    return int(changed.size)


def _worker_history(state: _WorkerState, names: Sequence[str]) -> None:
    """Attach the δ history ring (one shared code matrix per slot) and
    keep this worker's column block of each slot."""
    n = state.snap.n
    # detach any previous ring first (segment keys are positional)
    for key in [k for k in state.segments if k.startswith("hist:")]:
        state.segments.pop(key).close()
    state.ring = [
        state.attach(f"hist:{i}", name, (n, n), _DTYPE)[:, state.lo:state.hi]
        for i, name in enumerate(names)]


def _worker_main(conn) -> None:
    """Worker process entry point: a command loop over one pipe end.

    Commands (tuples, first element is the verb):

    * ``("load", meta)``     — attach C/dirty/table segments → ack ``True``
    * ``("reload", meta)``   — swap in a republished table snapshot → ack
    * ``("history", names)`` — attach the δ ring → ack ``True``
    * ``("sigma", full)``    — one σ round → #changed columns
    * ``("delta", steps)``   — one *window* of δ steps
      (:func:`~repro.core.shard.delta_window`) → per-step flags
    * ``("stop",)``          — drain and exit
    """
    state = _WorkerState()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break                    # master vanished: exit quietly
            cmd = msg[0]
            if cmd == "stop":
                break
            # relay failures instead of dying: a raised exception would
            # kill the (daemon) worker and reduce the master's error to
            # "died mid-command" with the real traceback lost to stderr
            try:
                if cmd == "sigma":
                    reply = _worker_sigma(state, msg[1])
                elif cmd == "delta":
                    reply = delta_window(state.snap, state.lo, state.ring,
                                         msg[1])
                elif cmd == "load":
                    _worker_load(state, msg[1])
                    reply = True
                elif cmd == "reload":
                    _worker_reload_tables(state, msg[1])
                    reply = True
                elif cmd == "history":
                    _worker_history(state, msg[1])
                    reply = True
                else:                    # pragma: no cover - protocol bug
                    reply = RuntimeError(f"unknown command {cmd!r}")
            except Exception as exc:
                reply = RuntimeError(
                    f"parallel worker failed on {cmd!r}: {exc!r}")
            conn.send(reply)
    finally:
        state.close()
        try:
            conn.close()
        except OSError:                  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------


class _PoolResources:
    """Owns every leak-prone handle, detached from the engine object.

    Kept separate so a ``weakref.finalize`` on the engine can close
    everything without keeping the engine alive; ``close`` is
    idempotent and tolerant of already-dead workers / already-unlinked
    segments, because it also runs on interpreter shutdown.
    """

    def __init__(self):
        self.segments: List["_shm.SharedMemory"] = []
        self.procs: List = []
        self.conns: List = []

    def add_segment(self, seg) -> None:
        self.segments.append(seg)

    def drop_segment(self, seg) -> None:
        """Unlink one segment early (e.g. a superseded table snapshot)."""
        if seg in self.segments:
            self.segments.remove(seg)
        _destroy_segment(seg)

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
        for proc in self.procs:
            if proc.is_alive():          # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:              # pragma: no cover
                pass
        for seg in self.segments:
            _destroy_segment(seg)
        self.segments = []
        self.procs = []
        self.conns = []


def _destroy_segment(seg) -> None:
    try:
        seg.close()
    except OSError:                      # pragma: no cover - already closed
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass                             # already unlinked (idempotent close)
    except OSError:                      # pragma: no cover
        pass


class ParallelVectorizedEngine(VectorizedEngine):
    """Column-sharded multi-process σ/δ over shared code matrices.

    Extends :class:`~repro.core.vectorized.VectorizedEngine` — the
    encoding, codecs, and the master's local edge snapshot (used for
    the rare σ-stability probes during δ convergence) are inherited;
    what this class adds is the shared-memory mirror of that snapshot
    and the worker pool that computes over it.

    The pool is started lazily on the first σ/δ entry and persists
    across calls; release it with :meth:`close` (or use the engine as a
    context manager).  A ``weakref.finalize`` backstop releases
    everything if the engine is dropped without closing.
    """

    #: advertised to the capability resolver: a finite encoding plus a
    #: shared-memory pool of >= 2 workers; auto mode declines problems
    #: below :data:`PARALLEL_MIN_N`; δ needs a bounded schedule and
    #: cannot return kept histories from its fixed shared ring.
    capabilities = register_engine(Capabilities(
        rung="parallel",
        requires_finite_algebra=True,
        requires_shared_memory=True,
        min_n=PARALLEL_MIN_N,
        min_workers=2,
        supports_unbounded_schedules=False,
        supports_kept_history=False,
    ))

    def __init__(self, network: Network, workers: Optional[int] = None):
        ctx = _mp_context()
        if ctx is None:
            raise UnsupportedAlgebraError(
                "parallel engine unavailable: multiprocessing shared "
                "memory is not supported on this platform")
        resolved = (min(int(workers), network.n) if workers is not None
                    else min(os.cpu_count() or 1, network.n))
        if resolved < 2:
            raise UnsupportedAlgebraError(
                f"parallel engine needs >= 2 workers (resolved {resolved}); "
                "use the vectorized engine instead")
        self._res = _PoolResources()
        self._finalizer = weakref.finalize(self, self._res.close)
        super().__init__(network)        # raises for non-finite algebras
        self.workers = resolved
        self._ctx = ctx
        self._published_version: Optional[int] = None
        self._seg_C = self._seg_dirty = self._seg_next = None
        self._C_view = self._dirty_view = self._next_view = None
        self._seg_tables = None
        self._hist_segs: List = []
        self._hist_views: List = []
        self._window = 0
        self._blocks = split_columns(network.n, resolved)
        #: IPC amortisation achieved by the most recent δ run
        self.delta_ipc_commands = 0
        self.delta_ipc_steps = 0

    # -- pool / shared-memory lifecycle ----------------------------------

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        self._finalizer()                # runs _res.close at most once

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "ParallelVectorizedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _alloc(self, nbytes: int):
        seg = _shm.SharedMemory(create=True, size=max(int(nbytes), 1))
        self._res.add_segment(seg)
        return seg

    def _matrix_segment(self):
        n = self._n
        seg = self._alloc(n * n * np.dtype(_DTYPE).itemsize)
        return seg, np.ndarray((n, n), dtype=_DTYPE, buffer=seg.buf)

    def _publish_tables(self) -> dict:
        """Copy the edge tables into a fresh segment; returns the
        picklable rest of the snapshot, which travels over the pipe."""
        seg = self._seg_tables = self._alloc(max(self._tables.nbytes, 1))
        if self._tables.size:
            view = np.ndarray(self._tables.shape, dtype=_DTYPE,
                              buffer=seg.buf)
            view[:] = self._tables
        return dict(self._snap.meta(), tables=seg.name)

    def _ensure_pool(self) -> None:
        """Start the workers (first use) or republish a stale snapshot."""
        if self.closed:
            raise RuntimeError("engine is closed; build a new one")
        if not self._res.procs:
            n = self._n
            self._seg_C, self._C_view = self._matrix_segment()
            self._seg_dirty = self._alloc(n)
            self._dirty_view = np.ndarray((n,), dtype=np.uint8,
                                          buffer=self._seg_dirty.buf)
            self._seg_next = self._alloc(n)
            self._next_view = np.ndarray((n,), dtype=np.uint8,
                                         buffer=self._seg_next.buf)
            base = dict(
                self._publish_tables(),
                C=self._seg_C.name, dirty=self._seg_dirty.name,
                next_dirty=self._seg_next.name)
            for block in self._blocks:
                parent, child = self._ctx.Pipe()
                proc = self._ctx.Process(
                    target=_worker_main, args=(child,), daemon=True,
                    name=f"repro-sigma-delta-{block[0]}-{block[1]}")
                proc.start()
                child.close()
                self._res.conns.append(parent)
                self._res.procs.append(proc)
                parent.send(("load", dict(base, block=block)))
            self._collect()              # acks
            self._published_version = self._version
        elif self._published_version != self._version:
            old = self._seg_tables
            self._broadcast(("reload", self._publish_tables()))
            self._collect()              # all workers on the new snapshot
            if old is not None:
                self._res.drop_segment(old)
            self._published_version = self._version

    def _broadcast(self, msg) -> None:
        for conn in self._res.conns:
            conn.send(msg)

    def _collect(self) -> list:
        """One reply per worker, with a liveness guard (a worker that
        died mid-command would otherwise hang the master forever)."""
        replies = []
        for conn, proc in zip(self._res.conns, self._res.procs):
            if not conn.poll(_REPLY_TIMEOUT):
                self.close()
                raise RuntimeError(
                    f"parallel worker {proc.name} did not reply within "
                    f"{_REPLY_TIMEOUT}s (alive={proc.is_alive()})")
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self.close()
                raise RuntimeError(
                    f"parallel worker {proc.name} died mid-command")
            if isinstance(reply, Exception):
                self.close()
                raise reply
            replies.append(reply)
        return replies

    def _ensure_history(self, window: int) -> None:
        """Grow (never shrink) the shared δ ring to ``window`` slots."""
        if window <= self._window:
            return
        while len(self._hist_segs) < window:
            seg, view = self._matrix_segment()
            self._hist_segs.append(seg)
            self._hist_views.append(view)
        self._window = window
        self._broadcast(("history",
                         [s.name for s in self._hist_segs[:window]]))
        self._collect()

    # -- σ ---------------------------------------------------------------

    def _load(self, C: "np.ndarray") -> None:
        self._ensure_pool()
        self._C_view[:] = C

    def _round(self, full: bool) -> int:
        """One parallel σ round in place; returns changed-column count
        and leaves the next dirty bitmap installed for the round after."""
        self._next_view[:] = 0
        self._broadcast(("sigma", full))
        total = sum(self._collect())
        # next round's input bitmap is this round's output bitmap
        self._dirty_view[:] = self._next_view
        return total

    def sigma(self, state: RoutingState) -> RoutingState:
        """One full σ round, computed by the pool (lockstep oracle)."""
        self.refresh()
        self._load(self.encode_state(state))
        self._round(full=True)
        return self.decode_state(self._C_view)

    def is_stable(self, state: RoutingState) -> bool:
        """Definition 4 on the pool: a full round with no changed column."""
        self.refresh()
        self._load(self.encode_state(state))
        return self._round(full=True) == 0

    def iterate(self, start: RoutingState, max_rounds: int = 10_000,
                keep_trajectory: bool = False,
                detect_cycles: bool = False) -> SyncResult:
        """σ fixed-point iteration on the pool.

        Same trajectory / round-count / fixed-point contract as every
        other engine (the differential oracle enforces it): the first
        round is full, later rounds touch only dirty columns, and an
        empty dirty union is convergence.
        """
        self.refresh()
        self._load(self.encode_state(start))
        view = self._C_view
        trajectory: Optional[List[RoutingState]] = \
            [start] if keep_trajectory else None
        seen = {view.tobytes(): 0} if detect_cycles else None
        for k in range(max_rounds):
            changed = self._round(full=(k == 0))
            if keep_trajectory:
                trajectory.append(self.decode_state(view))
            if changed == 0:
                return SyncResult(True, k, self.decode_state(view),
                                  trajectory)
            if detect_cycles:
                key = view.tobytes()
                if key in seen:
                    return SyncResult(False, k + 1, self.decode_state(view),
                                      trajectory)
                seen[key] = k + 1
        return SyncResult(False, max_rounds, self.decode_state(view),
                          trajectory)

    # -- δ ---------------------------------------------------------------

    def delta(self, schedule: Schedule, start: RoutingState,
              max_steps: int = 2_000,
              stability_window: Optional[int] = None,
              window: Optional[int] = None) -> AsyncResult:
        """δ on the pool against the shared bounded history ring.

        Requires a schedule with a declared staleness bound;
        :class:`~repro.session.RoutingSession` routes unbounded
        schedules and ``keep_history`` requests to the vectorized engine
        instead.  ``window`` schedule steps travel per IPC command
        (:data:`DELTA_WINDOW` by default; 1 restores the per-step
        protocol); the plan, its staleness guard and the convergence
        fold are :class:`~repro.core.shard.DeltaPlan`'s, and the
        σ-stability probe runs on the master's snapshot against the
        retained ring slot — matrices never leave shared memory.
        ``delta_ipc_commands`` / ``delta_ipc_steps`` record the
        amortisation achieved by the last run.
        """
        self.refresh()
        plan = DeltaPlan("parallel", schedule, self._snap, max_steps,
                         stability_window, window)
        self._ensure_pool()
        # the ring may be larger than the plan needs (it is reused across
        # runs and never shrinks): slot arithmetic uses the actual ring
        # size, the staleness guard the schedule's declared window
        self._ensure_history(plan.ring_slots)
        W = self._window
        self._hist_views[0][:] = self.encode_state(start)
        self.delta_ipc_commands = 0
        self.delta_ipc_steps = 0
        for steps in plan:
            self._broadcast(("delta", steps))
            self.delta_ipc_commands += 1
            self.delta_ipc_steps += len(steps)
            # per worker: one changed flag per step
            for t in plan.candidates(self._collect()):
                nxt = self._hist_views[t % W]
                if np.array_equal(self._sigma_codes(nxt), nxt):
                    return plan.converged(t, self.decode_state(nxt))
        return plan.exhausted(
            self.decode_state(self._hist_views[max_steps % W]))
