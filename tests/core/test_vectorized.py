"""Unit and property tests for the vectorized finite-algebra engine.

Covers the FiniteEncoding protocol (preference-ordered codes, edge
tables, fast-path hooks), the engine's cache-invalidation contract
under mid-run topology mutation (mirror of ``test_topology_cache.py``),
the non-finite guard/fallback behaviour, and Hypothesis properties:
random :class:`~repro.algebras.finite.FiniteLevelAlgebra` lookup-table
networks under random schedules must reproduce the ``strict=True``
history semantics exactly, including ``max_read_back`` ring-buffer
bounding.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebras import (
    BoundedStratifiedAlgebra,
    FiniteLevelAlgebra,
    GaoRexfordAlgebra,
    HopCountAlgebra,
    ShortestPathsAlgebra,
    good_gadget,
)
from repro.algebras.hop_count import ConditionalHopEdge
from repro.algebras.stratified import STRAT_INVALID
from repro.core import (
    FixedDelaySchedule,
    Network,
    RandomSchedule,
    RoutingState,
    SynchronousSchedule,
    UnsupportedAlgebraError,
    VectorizedEngine,
    sigma,
    supports_vectorized,
)
from repro.protocols.simulator import Simulator
from repro.session import RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory


def _hop_net(n=10, p=0.3, seed=0, bound=16):
    alg = HopCountAlgebra(bound)
    return erdos_renyi(alg, n, p, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


# ----------------------------------------------------------------------
# FiniteEncoding protocol
# ----------------------------------------------------------------------


class TestFiniteEncoding:
    def test_hop_count_identity_encoding(self):
        alg = HopCountAlgebra(8)
        enc = alg.finite_encoding()
        assert enc.size == 9 and enc.identity
        assert enc.encode(alg.trivial) == enc.trivial_code == 0
        assert enc.encode(alg.invalid) == enc.invalid_code == 8
        for r in alg.routes():
            assert enc.decode(enc.encode(r)) == r

    def test_encoding_is_cached(self):
        alg = FiniteLevelAlgebra(5)
        assert alg.finite_encoding() is alg.finite_encoding()

    def test_stratified_encoding_orders_by_preference(self):
        alg = BoundedStratifiedAlgebra(max_level=2, max_distance=3)
        enc = alg.finite_encoding()
        assert enc.size == 3 * 4 + 1
        assert enc.decode(0) == alg.trivial
        assert enc.decode(enc.invalid_code) == STRAT_INVALID
        # min on codes == ⊕ on routes, for every pair
        universe = list(alg.routes())
        for a in universe:
            for b in universe:
                best = alg.choice(a, b)
                assert enc.encode(best) == min(enc.encode(a), enc.encode(b))

    def test_edge_table_matches_pointwise_application(self):
        alg = BoundedStratifiedAlgebra(max_level=2, max_distance=4)
        rng = random.Random(3)
        enc = alg.finite_encoding()
        for _ in range(10):
            fn = alg.sample_edge_function(rng)
            table = enc.edge_table(fn)
            assert len(table) == enc.size
            for code, route in enumerate(enc.codes):
                assert table[code] == enc.encode(fn(route))

    def test_table_edge_fast_path_is_its_own_table(self):
        alg = FiniteLevelAlgebra(6)
        fn = alg.random_strict_edge(random.Random(1))
        assert alg.finite_encoding().edge_table(fn) == fn.table

    def test_hop_edge_fast_path(self):
        alg = HopCountAlgebra(10)
        fn = alg.edge(3)
        table = alg.finite_encoding().edge_table(fn)
        assert table == [min(c + 3, 10) for c in range(11)]

    def test_non_finite_algebra_raises(self):
        with pytest.raises(UnsupportedAlgebraError, match="not finite"):
            ShortestPathsAlgebra().finite_encoding()

    def test_route_outside_carrier_raises(self):
        enc = HopCountAlgebra(4).finite_encoding()
        with pytest.raises(UnsupportedAlgebraError, match="outside"):
            enc.encode(99)

    def test_incomparable_keys_surface_as_capability_gap(self):
        """A finite algebra whose keys cannot be totally ordered must be
        reported unsupported (selector falls back), not crash with a
        raw TypeError from sort()."""

        class Mixed(HopCountAlgebra):
            def routes(self):
                return iter([0, "one", self.bound])

        alg = Mixed(4)
        with pytest.raises(UnsupportedAlgebraError, match="comparable"):
            alg.finite_encoding()
        assert not supports_vectorized(alg)


class TestStateCodecs:
    def test_round_trip(self):
        net = _hop_net(6, seed=1)
        eng = VectorizedEngine(net)
        rng = random.Random(5)
        state = RoutingState.from_function(
            lambda i, j: net.algebra.sample_route(rng), net.n)
        back = eng.decode_state(eng.encode_state(state))
        assert back.equals(state, net.algebra)

    def test_out_of_carrier_state_rejected(self):
        net = _hop_net(4, seed=1)
        eng = VectorizedEngine(net)
        bad = RoutingState.filled(999, net.n)
        with pytest.raises(UnsupportedAlgebraError):
            eng.encode_state(bad)

    def test_float_routes_rejected_not_truncated(self):
        """The identity fast path must not cast 2.5 → 2 (or -0.5 → 0):
        a silently truncated start state would diverge from the
        reference engines with no error."""
        net = _hop_net(4, seed=1)
        eng = VectorizedEngine(net)
        for value in (2.5, -0.5):
            with pytest.raises(UnsupportedAlgebraError):
                eng.encode_state(RoutingState.filled(value, net.n))

    def test_wide_int_routes_rejected_not_wrapped(self):
        """Bounds are checked before the int32 cast: 2**32 must raise,
        not wrap modulo 2³² into the trivial route."""
        net = _hop_net(4, seed=1)
        eng = VectorizedEngine(net)
        with pytest.raises(UnsupportedAlgebraError):
            eng.encode_state(RoutingState.filled(2 ** 32, net.n))


# ----------------------------------------------------------------------
# Non-finite guard / fallback (satellite)
# ----------------------------------------------------------------------


class TestNonFiniteGuard:
    def test_spp_engine_construction_raises(self):
        with pytest.raises(UnsupportedAlgebraError):
            VectorizedEngine(good_gadget())

    def test_gao_rexford_engine_construction_raises(self):
        alg = GaoRexfordAlgebra(n_nodes=4)
        with pytest.raises(UnsupportedAlgebraError):
            VectorizedEngine(Network(alg, 4))

    def test_supports_vectorized_flags(self):
        assert supports_vectorized(HopCountAlgebra(16))
        assert supports_vectorized(FiniteLevelAlgebra(4))
        assert supports_vectorized(BoundedStratifiedAlgebra(2, 5))
        assert not supports_vectorized(ShortestPathsAlgebra())
        assert not supports_vectorized(good_gadget().algebra)
        assert not supports_vectorized(GaoRexfordAlgebra(n_nodes=4))

    def test_sigma_selector_falls_back_silently(self):
        alg = ShortestPathsAlgebra()
        net = erdos_renyi(alg, 8, 0.3, uniform_weight_factory(alg, 1, 5),
                          seed=2)
        start = RoutingState.identity(alg, net.n)
        vec = RoutingSession(net, "vectorized").sigma(start)
        inc = RoutingSession(net, "incremental").sigma(start)
        assert vec.converged and vec.rounds == inc.rounds
        assert vec.state.equals(inc.state, alg)

    def test_delta_selector_falls_back_silently(self):
        net = good_gadget()
        start = RoutingState.identity(net.algebra, net.n)
        sched = RandomSchedule(net.n, seed=1, max_delay=3)
        vec = RoutingSession(net, "vectorized").delta(
            sched, start, max_steps=400)
        inc = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=400)
        assert vec.converged == inc.converged
        assert vec.converged_at == inc.converged_at
        assert vec.state.equals(inc.state, net.algebra)

    def test_unknown_engine_rejected_everywhere(self):
        net = _hop_net(4)
        start = RoutingState.identity(net.algebra, net.n)
        with pytest.raises(ValueError):
            RoutingSession(net, "quantum").sigma(start)
        with pytest.raises(ValueError):
            RoutingSession(net, "quantum").delta(SynchronousSchedule(net.n),
                                                 start)
        with pytest.raises(ValueError):
            Simulator(net, engine="quantum")


# ----------------------------------------------------------------------
# Cache invalidation under mid-run topology mutation (satellite)
# ----------------------------------------------------------------------


class TestVectorizedCacheInvalidation:
    """Mirror of ``test_topology_cache.py`` for the engine's edge-table
    snapshot: a stale table after set_edge / remove_edge would silently
    compute fixed points for the old topology."""

    def test_set_edge_mid_run_invalidates_tables(self):
        net = _hop_net(10, seed=3)
        alg = net.algebra
        eng = VectorizedEngine(net)
        fp = eng.iterate(RoutingState.identity(alg, net.n)).state
        net.set_edge(0, net.n - 1, alg.edge(1))
        net.set_edge(net.n - 1, 0, alg.edge(1))
        fp2 = eng.iterate(fp).state
        ref = RoutingSession(net, "naive").sigma(fp).state
        assert fp2.equals(ref, alg)
        assert not fp2.equals(fp, alg)       # the shortcut was visible

    def test_remove_edge_mid_run_invalidates_tables(self):
        net = _hop_net(10, seed=4)
        alg = net.algebra
        eng = VectorizedEngine(net)
        start = RoutingState.identity(alg, net.n)
        fp = eng.iterate(start).state
        i, k = next(iter(net.present_edges()))
        net.remove_edge(i, k)
        fp2 = eng.iterate(fp).state
        ref = RoutingSession(net, "naive").sigma(fp).state
        assert fp2.equals(ref, alg)

    def test_replacing_edge_function_refreshes_table(self):
        """The id()-reuse trap: a replaced edge function must never be
        served from a previous snapshot's table."""
        alg = HopCountAlgebra(16)
        net = Network(alg, 3)
        net.set_edge(0, 1, alg.edge(1))
        net.set_edge(1, 0, alg.edge(1))
        net.set_edge(1, 2, alg.edge(1))
        net.set_edge(2, 1, alg.edge(1))
        eng = VectorizedEngine(net)
        fp = eng.iterate(RoutingState.identity(alg, net.n)).state
        assert fp.get(0, 2) == 2
        net.set_edge(0, 1, alg.edge(5))
        fp2 = eng.iterate(fp).state
        assert fp2.get(0, 2) == 6

    def test_delta_after_topology_change(self):
        net = _hop_net(8, p=0.35, seed=5)
        alg = net.algebra
        eng = VectorizedEngine(net)
        sched = RandomSchedule(net.n, seed=2, max_delay=4)
        start = RoutingState.identity(alg, net.n)
        mid = eng.delta(sched, start, max_steps=500)
        assert mid.converged
        net.set_edge(0, net.n - 1, alg.edge(1))
        vec = eng.delta(sched, mid.state, max_steps=500)
        strict = RoutingSession(net, "incremental").delta(
            sched, mid.state, max_steps=500, strict=True)
        assert vec.converged and strict.converged
        assert vec.state.equals(strict.state, alg)

    def test_simulator_vectorized_stability_follows_changes(self):
        net = _hop_net(8, p=0.4, seed=6)
        sim = Simulator(net, seed=0, engine="vectorized")
        res = sim.run(RoutingState.identity(net.algebra, net.n),
                      max_time=5_000.0)
        assert res.converged
        # the cached engine must notice a post-run topology change
        net.set_edge(0, net.n - 1, net.algebra.edge(1))
        assert not sim._is_sigma_stable(res.final_state)


# ----------------------------------------------------------------------
# δ memory bounding
# ----------------------------------------------------------------------


class TestBoundedHistorySemantics:
    def test_ring_buffer_sized_by_max_read_back(self):
        net = _hop_net(10, seed=7)
        sched = RandomSchedule(net.n, seed=1, max_delay=5)
        start = RoutingState.identity(net.algebra, net.n)
        res = VectorizedEngine(net).delta(sched, start, max_steps=600)
        assert res.converged
        assert res.history_retained <= sched.max_read_back() + 2

    def test_unbounded_schedule_keeps_full_history(self):
        class HalfTime(SynchronousSchedule):
            def beta(self, t, i, j):
                return t // 2

            def max_read_back(self):
                return None

        net = _hop_net(6, p=0.4, seed=8)
        start = RoutingState.identity(net.algebra, net.n)
        res = VectorizedEngine(net).delta(HalfTime(net.n), start,
                                          max_steps=300)
        assert res.converged
        assert res.history_retained == res.steps + 1

    def test_keep_history_returns_decoded_states(self):
        net = _hop_net(6, p=0.4, seed=9)
        sched = FixedDelaySchedule(net.n, delay=2)
        start = RoutingState.identity(net.algebra, net.n)
        vec = VectorizedEngine(net).delta(sched, start, max_steps=300,
                                          keep_history=True)
        ref = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=300, keep_history=True)
        assert vec.converged and len(vec.history) == len(ref.history)
        for mine, theirs in zip(vec.history, ref.history):
            assert mine.equals(theirs, net.algebra)


# ----------------------------------------------------------------------
# Hypothesis: random finite tables × random schedules ≡ strict (satellite)
# ----------------------------------------------------------------------


@st.composite
def finite_table_networks(draw):
    """A FiniteLevelAlgebra network with *arbitrary* lookup tables.

    Tables only fix g(m) = m, so the draw space includes strictly
    increasing tables, plateaus, filters and outright non-increasing
    policies — the vectorized δ must mirror strict semantics on all of
    them, converging or not.
    """
    levels = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=3, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True,
                         min_size=n, max_size=len(pairs)))
    alg = FiniteLevelAlgebra(levels)
    net = Network(alg, n, name="hypothesis-finite")
    for (i, j) in arcs:
        table = draw(st.lists(st.integers(0, levels), min_size=levels,
                              max_size=levels))
        net.set_edge(i, j, alg.table_edge(table + [levels]))
    return net


@st.composite
def schedules_for(draw, n):
    kind = draw(st.sampled_from(["random", "sync", "fixed"]))
    if kind == "sync":
        return SynchronousSchedule(n)
    if kind == "fixed":
        return FixedDelaySchedule(n, delay=draw(st.integers(1, 4)))
    return RandomSchedule(n, seed=draw(st.integers(0, 2 ** 16)),
                          activation_prob=draw(st.sampled_from([0.3, 0.6, 1.0])),
                          max_delay=draw(st.integers(1, 4)))


class TestHypothesisDeltaEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_delta_matches_strict_history(self, data):
        net = data.draw(finite_table_networks())
        sched = data.draw(schedules_for(net.n))
        start = RoutingState.identity(net.algebra, net.n)
        strict = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=60, strict=True, keep_history=True)
        vec = VectorizedEngine(net).delta(sched, start, max_steps=60,
                                          keep_history=True)
        assert vec.converged == strict.converged
        assert vec.steps == strict.steps
        assert vec.converged_at == strict.converged_at
        assert len(vec.history) == len(strict.history)
        for t, (mine, theirs) in enumerate(zip(vec.history, strict.history)):
            assert mine.equals(theirs, net.algebra), f"δ^{t} differs"

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bounded_ring_buffer_matches_strict_fixed_point(self, data):
        net = data.draw(finite_table_networks())
        sched = data.draw(schedules_for(net.n))
        start = RoutingState.identity(net.algebra, net.n)
        strict = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=60, strict=True)
        vec = VectorizedEngine(net).delta(sched, start, max_steps=60)
        assert vec.converged == strict.converged
        assert vec.steps == strict.steps
        assert vec.state.equals(strict.state, net.algebra)
        mrb = sched.max_read_back()
        assert mrb is not None
        assert vec.history_retained <= mrb + 2

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_vectorized_sigma_matches_naive_trajectory(self, data):
        net = data.draw(finite_table_networks())
        eng = VectorizedEngine(net)
        state = RoutingState.identity(net.algebra, net.n)
        for _ in range(8):
            nxt = sigma(net, state)
            assert eng.sigma(state).equals(nxt, net.algebra)
            state = nxt


# ----------------------------------------------------------------------
# The σ kernel: differential test against the literal one-line gather
# ----------------------------------------------------------------------


def reference_gather_min_reduce(sub, tables, src, importers, starts,
                                invalid_code):
    """The σ kernel in its literal form — one 2-D fancy gather of every
    edge table at every exporter code, min-reduced per importer."""
    new = np.full(sub.shape, invalid_code, dtype="int32")
    if src.size:
        erange = np.arange(src.size)[:, None]
        new[importers] = np.minimum.reduceat(tables[erange, sub[src]],
                                             starts, axis=0)
    return new


#: carrier sizes on both sides of the int16 cut-off (2 · size < 32000)
_SIZES = [2, 3, 17, 15_999, 16_000]


def _affine_tables(draw, n_edges, size):
    w = draw(st.lists(st.integers(0, size - 1), min_size=n_edges,
                      max_size=n_edges))
    cap = draw(st.lists(st.integers(0, size - 1), min_size=n_edges,
                        max_size=n_edges))
    x = np.arange(size)[None, :]
    return np.minimum(x + np.asarray(w)[:, None],
                      np.asarray(cap)[:, None]).astype("int32")


@st.composite
def kernel_inputs(draw):
    """A random snapshot in the kernel's flat layout plus a code matrix:
    importer-less nodes, zero edges, affine or arbitrary tables, and
    carriers on either side of the int16 cut-off."""
    n = draw(st.integers(1, 9))
    size = draw(st.sampled_from(_SIZES))
    degrees = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    importers = np.asarray([i for i in range(n) if degrees[i]],
                           dtype=np.intp)
    counts = [d for d in degrees if d]
    n_edges = sum(counts)
    starts = np.zeros(len(counts), dtype=np.intp)
    if counts:
        starts[1:] = np.cumsum(counts[:-1])
    src = np.asarray(draw(st.lists(st.integers(0, n - 1),
                                   min_size=n_edges, max_size=n_edges)),
                     dtype=np.intp)
    if draw(st.booleans()):
        tables = _affine_tables(draw, n_edges, size)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        tables = rng.integers(0, size, (n_edges, size)).astype("int32")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    C = rng.integers(0, size, (n, n)).astype("int32")
    return C, tables.reshape(n_edges, size), src, importers, starts, size


def _kernel(sub, tables, src, importers, starts, invalid):
    from repro.core.vectorized import (
        affine_view, gather_min_reduce, table_row_bases)

    return gather_min_reduce(sub, tables, src,
                             table_row_bases(*tables.shape),
                             importers, starts, invalid,
                             affine=affine_view(tables, starts))


class TestSigmaKernel:
    @given(inputs=kernel_inputs(), data=st.data(),
           budget=st.sampled_from([1, 7, 64, 1000, None]))
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_gather(self, inputs, data, budget):
        from unittest import mock

        import repro.core.vectorized as vec

        C, tables, src, importers, starts, size = inputs
        n = C.shape[0]
        # every column, one column, or an arbitrary (non-contiguous)
        # subset of them — the dirty-column restriction
        picked = data.draw(st.sampled_from(["all", "one", "subset"]))
        if picked == "all":
            sub = C
        elif picked == "one":
            sub = C[:, [data.draw(st.integers(0, n - 1))]]
        else:
            cols = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                      max_size=n))
            sub = C[:, sorted(cols)]
        invalid = size - 1
        want = reference_gather_min_reduce(sub, tables, src, importers,
                                           starts, invalid)
        # a tiny byte budget forces blocks of one or a few columns, so
        # most widths are not a multiple of the block
        budget = vec._BLOCK_BYTES if budget is None else budget
        with mock.patch.object(vec, "_BLOCK_BYTES", budget):
            got = _kernel(sub, tables, src, importers, starts, invalid)
        assert got.dtype == np.dtype("int32")
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("size,dtype", [(15_999, "int16"),
                                            (16_000, "int32")])
    def test_affine_view_dtype_follows_carrier(self, size, dtype):
        from repro.core.vectorized import affine_view

        tables = np.minimum(np.arange(size)[None, :] + np.array([[1], [3]]),
                            size - 1).astype("int32")
        view = affine_view(tables, np.array([0], dtype=np.intp))
        assert view is not None
        assert view.w.dtype == view.importer_cap.dtype == np.dtype(dtype)
        assert view.importer_cap.tolist() == [size - 1]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_changed_entry_turns_affine_view_off(self, data):
        from repro.core.vectorized import affine_view

        size = data.draw(st.integers(3, 20))
        n_edges = data.draw(st.integers(1, 6))
        tables = _affine_tables(data.draw, n_edges, size)
        starts = np.array([0], dtype=np.intp)
        assert affine_view(tables, starts) is not None
        # an interior entry: w and cap are read off the end columns,
        # so changing one of those may yield another affine table
        e = data.draw(st.integers(0, n_edges - 1))
        x = data.draw(st.integers(1, size - 2))
        tables[e, x] = (tables[e, x] + data.draw(
            st.integers(1, size - 1))) % size
        assert affine_view(tables, starts) is None

    def test_engine_snapshot_view_follows_topology(self):
        net = _hop_net(n=12, p=0.4, seed=3)
        eng = VectorizedEngine(net)
        assert eng._affine is not None
        alg = net.algebra
        # a route map with a threshold (+1 below 3 hops, +2 from there)
        # is not of the clipped-shift form: the next refresh switches
        # the fast path off, and the round stays exact
        net.set_edge(0, 1, ConditionalHopEdge(lambda a: a < 3, 1, 2,
                                              alg.bound))
        start = RoutingState.identity(alg, net.n)
        got = eng.sigma(start)
        assert eng._affine is None
        assert got.equals(sigma(net, start), alg)


# ----------------------------------------------------------------------
# Bounded kernel memory
# ----------------------------------------------------------------------


def _dense_net(affine: bool, n: int):
    if affine:
        return _hop_net(n=n, p=0.9, seed=5)
    rng = random.Random(5)
    alg = FiniteLevelAlgebra(6)
    fns = [alg.random_arbitrary_edge(rng) for _ in range(8)]
    net = Network(alg, n, name="dense-finite")
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.9:
                net.set_edge(i, j, fns[rng.randrange(len(fns))])
    return net


class TestKernelMemory:
    @pytest.mark.parametrize("affine", [True, False],
                             ids=["affine", "general"])
    def test_sigma_round_allocates_o_n2_plus_budget(self, affine):
        import tracemalloc

        from repro.core.asynchronous import random_state
        from repro.core.vectorized import _BLOCK_BYTES

        n = 200
        net = _dense_net(affine, n)
        eng = VectorizedEngine(net)
        assert (eng._affine is not None) == affine
        C = eng.encode_state(random_state(net.algebra, n, random.Random(1)))
        n_edges = eng._src.size
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            eng._sigma_codes(C)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a handful of n × n matrices plus a few block-sized buffers ...
        assert peak <= 16 * n * n + 4 * _BLOCK_BYTES, peak
        # ... where one E × n int32 intermediate alone is ~8× more
        assert peak * 4 < n_edges * n * 4, (peak, n_edges)
