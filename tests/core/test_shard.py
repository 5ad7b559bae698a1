"""The column-shard core on its own: no processes, no sockets.

:mod:`repro.core.shard` is what both sharded rungs compute — the pool
and the TCP rung only move its inputs and outputs.  These tests drive
its σ round and δ window directly over every column split of a small
network, from one block to one block per column (uneven splits
included), reassemble the blocks and require the result to be
bit-identical to the serial vectorized engine.  Each shard's snapshot
is rebuilt from :meth:`EdgeSnapshot.meta` after a JSON round trip, the
way a TCP shard receives it.
"""

import json
import random

import pytest

np = pytest.importorskip("numpy")

from repro.algebras import FiniteLevelAlgebra, HopCountAlgebra
from repro.core import (
    FixedDelaySchedule,
    RandomSchedule,
    RoundRobinSchedule,
    RoutingState,
    random_state,
)
from repro.core.shard import (
    DeltaPlan,
    EdgeSnapshot,
    delta_window,
    sigma_round,
    split_columns,
)
from repro.core.vectorized import VectorizedEngine
from repro.topologies import erdos_renyi, uniform_weight_factory


def _hop(n=7, seed=3):
    alg = HopCountAlgebra(16)
    return erdos_renyi(alg, n, 0.4, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


def _levels(n=6, seed=4):
    # a non-affine encoding: the kernels' general table path
    alg = FiniteLevelAlgebra(7)
    return erdos_renyi(alg, n, 0.4,
                       lambda rng, _i, _j: alg.random_strict_edge(rng),
                       seed=seed)


NETS = [_hop, _levels]


def _shard_snapshot(eng):
    """The snapshot as a shard rebuilds it from the wire."""
    meta = json.loads(json.dumps(eng._snap.meta()))
    return EdgeSnapshot.from_meta(meta, eng._tables.copy())


def _sharded_sigma(eng, snap, start, shards):
    """σ to a fixed point on private column blocks; returns
    ``(converged, rounds, reassembled codes)``."""
    C = eng.encode_state(start)
    blocks = [(lo, C[:, lo:hi].copy()) for lo, hi in
              split_columns(eng._n, shards)]
    dirty = [None] * len(blocks)
    for k in range(200):
        total = 0
        for b, (lo, block) in enumerate(blocks):
            width = block.shape[1]
            cols = np.arange(width) if k == 0 else np.nonzero(dirty[b])[0]
            changed = sigma_round(snap, block, lo, cols)
            dirty[b] = np.zeros(width, dtype=bool)
            dirty[b][changed] = True
            total += changed.size
        if total == 0:
            return True, k, np.hstack([block for _lo, block in blocks])
    return False, 200, np.hstack([block for _lo, block in blocks])


def _sharded_delta(eng, snap, sched, start, shards, max_steps, window):
    """δ on private rings of column blocks, planned and folded by
    :class:`DeltaPlan`, σ-probed on the reassembled candidate."""
    plan = DeltaPlan("test", sched, snap, max_steps, window=window)
    M = eng.encode_state(start)
    rings = []
    for lo, hi in split_columns(eng._n, shards):
        ring = [np.empty((eng._n, hi - lo), dtype=M.dtype)
                for _ in range(plan.ring_slots)]
        ring[0][:] = M[:, lo:hi]
        rings.append((lo, ring))
    W = plan.ring_slots

    def state_at(t):
        return np.hstack([ring[t % W] for _lo, ring in rings])

    for steps in plan:
        flags = [delta_window(snap, lo, ring, steps) for lo, ring in rings]
        for t in plan.candidates(flags):
            cand = state_at(t)
            if np.array_equal(eng._sigma_codes(cand), cand):
                return plan.converged(t, eng.decode_state(cand))
    return plan.exhausted(eng.decode_state(state_at(max_steps)))


class TestColumnSplit:
    def test_block_split_covers_all_columns(self):
        blocks = split_columns(11, 3)
        assert blocks[0][0] == 0 and blocks[-1][1] == 11
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert b == c and b > a
        assert sum(hi - lo for lo, hi in blocks) == 11

    def test_shard_split_covers_all_columns(self):
        for n in (4, 9, 10, 17):
            for w in (2, 3, 4):
                blocks = split_columns(n, w)
                assert blocks[0][0] == 0 and blocks[-1][1] == n
                assert all(b[1] == c[0]
                           for b, c in zip(blocks, blocks[1:]))


class TestSnapshot:
    @pytest.mark.parametrize("build", NETS)
    def test_rebuilt_snapshot_matches_the_serial_one(self, build):
        net = build()
        eng = VectorizedEngine(net)
        snap = _shard_snapshot(eng)
        assert np.array_equal(snap.src, eng._src)
        assert np.array_equal(snap.starts, eng._starts)
        assert snap.offsets == eng._offsets
        assert snap.degrees == eng._degrees
        assert (snap.affine is None) == (eng._affine is None)
        in_edges = net.adjacency.topology.in_edges
        for i in range(net.n):
            assert snap.degrees.get(i, 0) == len(in_edges[i])
            assert snap.in_neighbours.get(i, []) == \
                [k for k, _fn in in_edges[i]]


class TestSigmaRound:
    @pytest.mark.parametrize("build", NETS)
    def test_every_split_is_bit_identical_to_serial(self, build):
        net = build()
        eng = VectorizedEngine(net)
        snap = _shard_snapshot(eng)
        rng = random.Random(5)
        starts = [RoutingState.identity(net.algebra, net.n),
                  random_state(net.algebra, net.n, rng)]
        for start in starts:
            ref = VectorizedEngine(net).iterate(start)
            ref_codes = eng.encode_state(ref.state)
            for shards in range(1, net.n + 1):
                converged, rounds, codes = _sharded_sigma(eng, snap, start,
                                                          shards)
                assert converged == ref.converged, shards
                assert rounds == ref.rounds, shards
                assert np.array_equal(codes, ref_codes), shards


class TestDeltaWindow:
    @pytest.mark.parametrize("build", NETS)
    @pytest.mark.parametrize("window", [1, 5, 16])
    def test_every_split_is_bit_identical_to_serial(self, build, window):
        net = build()
        eng = VectorizedEngine(net)
        snap = _shard_snapshot(eng)
        start = random_state(net.algebra, net.n, random.Random(8))
        for sched in (RoundRobinSchedule(net.n),
                      FixedDelaySchedule(net.n, delay=2),
                      RandomSchedule(net.n, seed=6, max_delay=3)):
            ref = VectorizedEngine(net).delta(sched, start, max_steps=300)
            for shards in range(1, net.n + 1):
                res = _sharded_delta(eng, snap, sched, start, shards, 300,
                                     window)
                where = (repr(sched), shards)
                assert res.converged == ref.converged, where
                assert res.steps == ref.steps, where
                assert res.converged_at == ref.converged_at, where
                assert res.history_retained == ref.history_retained, where
                assert res.state.equals(ref.state, net.algebra), where
