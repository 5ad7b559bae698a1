"""The column-shard core of the sharded rungs: pure numpy, no transport.

Entry ``(i, j)`` of σ(X) reads only column ``j`` of ``X``, so the
destination columns of a σ round are independent; the δ recursion keeps
that independence, because β only picks *which past state* a row is read
from, never which column.  A contiguous block of destination columns
``[lo, hi)`` can therefore be computed on its own — from an edge-table
snapshot and the block's own columns (σ) or a ring of its own past
blocks (δ) — with no cross-shard traffic inside a round or a δ window.

This module holds that logic once: the column split, the per-shard
:class:`EdgeSnapshot`, the σ round over a block, the δ window over a
ring of blocks, and the coordinator's :class:`DeltaPlan`.
:mod:`repro.core.parallel` (shared memory plus a pipe) and
:mod:`repro.core.remote` (framed TCP) are two transports over it, and
the serial :class:`~repro.core.vectorized.VectorizedEngine` runs its σ
column step and δ row fold.  The kernels are looked up on
:mod:`repro.core.vectorized` at call time, so whatever that module
binds is what every rung runs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:                      # pragma: no cover - numpy is baked in
    np = None

from . import vectorized as _vec
from .algebra import UnsupportedAlgebraError
from .asynchronous import AsyncResult
from .incremental import STALE_READ_REMEDY
from .schedule import Schedule

#: default number of δ schedule steps per shard command: ≥ 8× fewer
#: commands than steps on any run longer than a couple of windows, for
#: ``window`` extra ring slots.
DELTA_WINDOW = 16


def split_columns(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``np.array_split``-style column blocks, one per shard
    (the first ``n % shards`` blocks get the extra column)."""
    base, extra = divmod(n, shards)
    blocks = []
    lo = 0
    for w in range(shards):
        hi = lo + base + (1 if w < extra else 0)
        blocks.append((lo, hi))
        lo = hi
    return blocks


class EdgeSnapshot:
    """One topology version in the flat layout of the σ/δ kernels.

    ``src[e]`` is the exporter of edge ``e`` and ``tables[e]`` its dense
    lookup table; edges are grouped by importer (``importers`` with
    group ``starts``).  Everything else — ``offsets[i]``/``degrees[i]``
    of node ``i``'s group, ``row_bases``, the verified
    :class:`~repro.core.vectorized.AffineView` ``affine`` — is derived
    here, the same way for the serial engine and for every shard.
    """

    def __init__(self, n: int, tables, src, importers, starts,
                 trivial: int, invalid: int):
        self.n = n
        self.tables = tables
        self.src = src
        self.importers = importers
        self.starts = starts
        self.trivial = trivial
        self.invalid = invalid
        bounds = starts.tolist() + [src.size]
        self.offsets = dict(zip(importers.tolist(), bounds))
        self.degrees = {i: bounds[g + 1] - bounds[g]
                        for g, i in enumerate(importers.tolist())}
        self.row_bases = _vec.table_row_bases(*tables.shape)
        self.affine = _vec.affine_view(tables, starts)
        self._neighbours: Optional[Dict[int, List[int]]] = None

    def meta(self) -> dict:
        """Everything but the table block, as picklable/JSON-able values
        (the tables travel as shared memory or a raw byte tail).
        ``offsets``/``degrees`` are re-derived on arrival; they stay in
        the head because the ``MSG_LOAD`` wire format carries them."""
        return dict(
            n=self.n, trivial=self.trivial, invalid=self.invalid,
            tables_shape=list(self.tables.shape),
            src=self.src.tolist(),
            importers=self.importers.tolist(),
            starts=self.starts.tolist(),
            offsets=self.offsets,
            degrees=self.degrees,
        )

    @classmethod
    def from_meta(cls, meta: dict, tables) -> "EdgeSnapshot":
        """The shard-side rebuild of :meth:`meta` around ``tables``."""
        return cls(int(meta["n"]), tables,
                   np.asarray(meta["src"], dtype=np.intp),
                   np.asarray(meta["importers"], dtype=np.intp),
                   np.asarray(meta["starts"], dtype=np.intp),
                   int(meta["trivial"]), int(meta["invalid"]))

    @property
    def in_neighbours(self) -> Dict[int, List[int]]:
        """``{i: exporters of i's in-edges, in edge order}`` for every
        node with in-edges (built on first use)."""
        if self._neighbours is None:
            src = self.src.tolist()
            self._neighbours = {
                i: src[off:off + self.degrees[i]]
                for i, off in self.offsets.items()}
        return self._neighbours


# ----------------------------------------------------------------------
# σ
# ----------------------------------------------------------------------


def sigma_columns(snap: EdgeSnapshot, sub, dests) -> "np.ndarray":
    """The σ column step: σ over the columns ``sub`` holds, whose
    destinations are ``dests`` (Lemma 1 diagonal included).

    Column independence makes the restricted recompute exact."""
    new = _vec.gather_min_reduce(sub, snap.tables, snap.src, snap.row_bases,
                                 snap.importers, snap.starts, snap.invalid,
                                 affine=snap.affine)
    new[dests, np.arange(len(dests))] = snap.trivial
    return new


def sigma_round(snap: EdgeSnapshot, block, lo: int, cols) -> "np.ndarray":
    """One σ round over the local columns ``cols`` of ``block``, the
    state's columns ``[lo, lo + width)``, written back in place (no other
    column reads them); returns the local columns that changed."""
    if not cols.size:
        return cols
    sub = block[:, cols]                 # copy: the round's frozen input
    new = sigma_columns(snap, sub, lo + cols)
    changed = (new != sub).any(axis=0)
    changed_cols = cols[changed]
    if changed_cols.size:
        block[:, changed_cols] = new[:, changed]
    return changed_cols


# ----------------------------------------------------------------------
# δ
# ----------------------------------------------------------------------


def delta_row(snap: EdgeSnapshot, i: int, rows: Sequence, lo: int,
              width: int) -> "np.ndarray":
    """The δ row fold: node ``i``'s new row over columns
    ``[lo, lo + width)`` from ``rows``, the historic row slice of each
    in-neighbour in edge order (β already applied by the caller)."""
    if rows:
        offset = snap.offsets[i]
        row = _vec.fold_edge_tables(snap.tables[offset:offset + len(rows)],
                                    np.array(rows))
    else:
        row = np.full(width, snap.invalid, dtype=_vec._DTYPE)
    if lo <= i < lo + width:
        row[i - lo] = snap.trivial
    return row


def delta_window(snap: EdgeSnapshot, lo: int, ring: Sequence,
                 steps: Sequence) -> List[bool]:
    """One window of δ steps over a ring of ``(n, width)`` blocks.

    ``steps`` is ``[(t, acts)]`` for consecutive times, each ``acts``
    being ``[(i, read_times)]`` for every active node with
    ``read_times`` aligned to ``i``'s in-edge order.  Each step copies
    ring slot ``t - 1`` into slot ``t`` and overwrites the active rows;
    the returned flags say, per step, whether the block changed."""
    W = len(ring)
    width = ring[0].shape[1]
    neighbours = snap.in_neighbours
    flags: List[bool] = []
    for t, acts in steps:
        prev = ring[(t - 1) % W]
        nxt = ring[t % W]
        nxt[:] = prev
        changed = False
        for i, times in acts:
            rows = [ring[s % W][k]
                    for s, k in zip(times, neighbours.get(i, ()),
                                    strict=True)]
            row = delta_row(snap, i, rows, lo, width)
            if not changed and not np.array_equal(row, prev[i]):
                changed = True
            nxt[i] = row
        flags.append(changed)
    return flags


class DeltaPlan:
    """The coordinator side of a windowed δ run over column shards.

    Iterating the plan yields one window of :func:`delta_window` steps
    at a time; :meth:`candidates` folds the shards' per-step flags into
    the convergence counter and yields each step the transport must
    σ-probe.  A run converging at step ``t`` provably changes nothing at
    the later steps its window already ran, so results are the serial
    ones bit for bit.  Reads are policed against ``max_read_back + 2``,
    the :class:`~repro.core.incremental.BoundedHistory` window; a window
    is cut at the first step with an out-of-window read, and the
    :class:`LookupError` is raised only if the run is still going there
    (the serial engines never evaluate steps past convergence).
    """

    def __init__(self, rung: str, schedule: Schedule, snap: EdgeSnapshot,
                 max_steps: int, stability_window: Optional[int] = None,
                 window: Optional[int] = None):
        max_read_back = schedule.max_read_back()
        if max_read_back is None:
            raise UnsupportedAlgebraError(
                f"{rung} δ needs a bounded-staleness schedule "
                "(max_read_back() returned None); run it through "
                "RoutingSession.delta(), which negotiates a serial rung "
                "for it, or pass strict=True there (EngineSpec("
                "history=\"literal\")) to keep the full history")
        self.schedule = schedule
        self._neighbours = snap.in_neighbours
        self.max_steps = max_steps
        self.stability_window = ((max_read_back or 1) + 2
                                 if stability_window is None
                                 else stability_window)
        self.read_window = max_read_back + 2   # the BoundedHistory window
        self.window = DELTA_WINDOW if window is None else max(1, int(window))
        # ring sizing: the serial engines tolerate reads back to
        # ``t - read_window``, and a window writes ``window`` consecutive
        # slots before the coordinator sees any flag
        self.ring_slots = self.window + self.read_window
        self.start()

    def start(self, t0: int = 1, unchanged: int = 0) -> None:
        """(Re)arm the plan at step ``t0`` (a checkpoint resume passes
        its step and convergence counter)."""
        self.t0 = t0
        self.unchanged = unchanged
        self.stale: Optional[LookupError] = None
        self._count = 0

    def __iter__(self) -> Iterator[List[Tuple[int, list]]]:
        while self.t0 <= self.max_steps:
            steps = self._plan(min(self.window, self.max_steps - self.t0 + 1))
            self._count = len(steps)
            if steps:
                yield steps
            if self.stale is not None:
                raise self.stale
            self.t0 += len(steps)

    def _plan(self, count: int) -> List[Tuple[int, list]]:
        alpha, beta = self.schedule.alpha, self.schedule.beta
        steps = []
        for t in range(self.t0, self.t0 + count):
            acts = []
            for i in sorted(alpha(t)):
                times = []
                for k in self._neighbours.get(i, ()):
                    s = beta(t, i, k)
                    # s < 0 violates S2 outright and would wrap the ring
                    # modulo into an arbitrary slot; s < t - read_window
                    # is exactly the read BoundedHistory would refuse
                    if s < 0 or s >= t or t - s > self.read_window:
                        self.stale = LookupError(
                            f"δ history for time {s} is outside the shard "
                            f"ring (window={self.read_window}, t={t}); the "
                            "schedule reads further back than its declared "
                            f"max_read_back — {STALE_READ_REMEDY}")
                        return steps
                    times.append(int(s))
                acts.append((int(i), times))
            steps.append((t, acts))
        return steps

    def candidates(self, flags: Sequence[Sequence[bool]]) -> Iterator[int]:
        """Fold one window's flags (one list per shard, one flag per
        step) into the counter; yield each step due a σ-stability probe."""
        for off in range(self._count):
            self.unchanged = 0 if any(f[off] for f in flags) \
                else self.unchanged + 1
            if self.unchanged >= self.stability_window:
                yield self.t0 + off

    def converged(self, t: int, state) -> AsyncResult:
        """The result of a run whose probe at step ``t`` was stable."""
        return AsyncResult(True, t, state, t - self.unchanged, None,
                           history_retained=min(t + 1, self.read_window))

    def exhausted(self, state) -> AsyncResult:
        """The result of a run that used up ``max_steps``."""
        return AsyncResult(False, self.max_steps, state, None, None,
                           history_retained=min(self.max_steps + 1,
                                                self.read_window))
