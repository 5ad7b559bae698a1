"""The ``serve-mixed`` and ``serve-churn`` workloads.

The daemon runs in its own process (``daemon_main.py``); this process
is the only load generator.  It opens two client connections and runs
a closed loop on each: a connection sends its next request only when
the previous reply has arrived, as the service's callers do.

Both workloads use the committed service case: one warm session on
``random`` n=96 ``hop-count`` (load seed 5).  The topology is fixed;
``--seed`` draws the request streams, start seeds and mutations.
"""

from __future__ import annotations

import asyncio
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from common import Ledger, Metric, Window, derive_rng, mean, p50, pct
from hostspeed import Gate, SpeedLog
from procs import cpu_seconds, peak_rss_mb, self_peak_rss_mb
from spans import durations_ms, per_trace_ms

HERE = Path(__file__).resolve().parent

CASE = {"algebra": "hop-count", "topology": "random", "n": 96, "seed": 5}
#: serve-mixed: start seeds whose answers the cache keeps
HOT_SEEDS = 8
#: serve-mixed: node/dest indices the routes slices draw from.  With 8
#: hot seeds this makes 8 σ + 8 × 2 × 8 routes keys = 136 hot cache
#: entries, well inside the daemon's 512-entry cache, so the misses are
#: the fresh seeds and not evictions of hot keys.
HOT_SLICES = 8
MISS_SHARE = 0.10
SIGMA_SHARE = 0.45          # of the rest: σ; the remainder are routes
CONNECTIONS = 2


class DaemonProcess:
    """One daemon process and the knowledge of how to stop it."""

    def __init__(self, out_dir: Path, tag: str, durable: bool,
                 trace: bool):
        self.out_dir = out_dir
        self.state_dir = out_dir / f"state-{tag}" if durable else None
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
        self.trace_out = out_dir / f"daemon-spans-{tag}.jsonl" \
            if trace else None
        self.log_path = out_dir / f"daemon-{tag}.log"
        cmd = [sys.executable, str(HERE / "daemon_main.py")]
        if self.state_dir is not None:
            cmd += ["--state-dir", str(self.state_dir)]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.kill()
            raise RuntimeError(f"daemon did not start: {line!r}; see "
                               f"{self.log_path}")
        self.port = int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait(self, timeout: float = 60.0) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not exit after shutdown")
        finally:
            self.proc.stdout.close()
            self._log.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()

    def journal_bytes(self) -> int:
        if self.state_dir is None or not self.state_dir.exists():
            return 0
        return sum(p.stat().st_size for p in self.state_dir.iterdir()
                   if p.is_file())

    def remove_state(self) -> None:
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


@dataclass
class Rec:
    """One request as the generator saw it."""

    conn: int
    rid: str
    verb: str
    start_seed: Optional[int]
    sent: float
    rtt_ms: float
    reply: Optional[dict]
    error: Optional[str] = None
    #: serve-churn: the mutation this σ read follows (index into stream)
    after_mutation: Optional[int] = None
    fresh_ms: Optional[float] = None
    #: host slowdown when it was sent (see ``hostspeed``)
    slow: float = 1.0

    def scaled(self, ms: float, raw: bool) -> float:
        """``ms`` (this request's round trip or fresh-read time) at
        reference host speed, or as measured when ``raw``."""
        return ms if raw else ms / self.slow


# ----------------------------------------------------------------------
# request streams (all drawn from --seed)
# ----------------------------------------------------------------------


def mixed_stream(seed: int, conn: int, hot: List[int], slices: List[int],
                 fresh_base: int) -> Iterator[dict]:
    """serve-mixed requests for one connection: σ on a fresh start seed
    (a miss), σ on a hot seed, or a routes slice on a hot seed."""
    rng = derive_rng(seed, "serve-mixed", "conn", conn)
    fresh = fresh_base
    while True:
        u = rng.random()
        if u < MISS_SHARE:
            fresh += 1
            yield {"verb": "sigma", "start_seed": fresh}
        elif u < MISS_SHARE + (1 - MISS_SHARE) * SIGMA_SHARE:
            yield {"verb": "sigma", "start_seed": rng.choice(hot)}
        else:
            axis = "node" if rng.random() < 0.5 else "dest"
            yield {"verb": "routes", "start_seed": rng.choice(hot),
                   axis: rng.choice(slices)}


def draw_mutations(seed: int, count: int) -> List[tuple]:
    """serve-churn's mutation stream, drawn against the served
    network's arc set so removals target present arcs: about half
    remove a present arc, the rest set an arc (new or present) from an
    edge seed.  Each item is ``("set_edge", i, k, edge_seed)`` or
    ``("remove_edge", i, k, None)``."""
    from repro.service.daemon import _build_network

    net, _factory = _build_network(CASE["algebra"], CASE["topology"],
                                   CASE["n"], CASE["seed"])
    rng = derive_rng(seed, "serve-churn", "mutations")
    n = CASE["n"]
    present = list(net.present_edges())
    present_set = set(present)
    out = []
    for _ in range(count):
        if rng.random() < 0.5 and present:
            i, k = present.pop(rng.randrange(len(present)))
            present_set.discard((i, k))
            out.append(("remove_edge", i, k, None))
        else:
            i = rng.randrange(n)
            k = rng.randrange(n - 1)
            k += k >= i
            if (i, k) not in present_set:
                present_set.add((i, k))
                present.append((i, k))
            out.append(("set_edge", i, k, rng.randrange(1 << 30)))
    return out


def _records(windows: List[Window]) -> Iterator[Rec]:
    for win in windows:
        yield from win.meta["records"]


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------


class ServeWorkload:
    """Shared set-up, window and checks of the two serve workloads."""

    name = ""
    durable = False
    IN_PROCESS = False          # the daemon wraps its own layers
    #: generator and daemon run on both CPUs (see ``hostspeed``)
    PROBE_EVERY_CPU = True

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        rng = derive_rng(seed, self.name, "inputs")
        self.hot = rng.sample(range(1, 1 << 20), HOT_SEEDS)
        self.slices = rng.sample(range(CASE["n"]), HOT_SLICES)
        # fresh start seeds count up from here, disjoint from the hot set
        self.fresh_base = [(1 << 21) + (c << 24) + rng.randrange(1 << 20)
                           for c in range(CONNECTIONS)]
        self.daemon: Optional[DaemonProcess] = None
        self.sid = None
        self._setups = 0

    # -- set-up ------------------------------------------------------------

    def setup(self, traced: bool = False) -> None:
        self._setups += 1
        tag = f"{self.name}-{self.seed}-{self._setups}"
        self.daemon = DaemonProcess(self.out_dir, tag, self.durable, traced)
        asyncio.run(self._connect_and_warm())

    async def _connect_and_warm(self) -> None:
        from repro.service import AsyncServiceClient

        client = await AsyncServiceClient.connect("127.0.0.1",
                                                  self.daemon.port)
        try:
            reply = await client.load(
                CASE["algebra"], CASE["n"], topology=CASE["topology"],
                seed=CASE["seed"])
            self.sid = reply["session"]
            self.arcs = reply["edges"]
            await self.warm_up(client)
            self.rung = (await client.sigma(self.sid))["engine"]
        finally:
            await client.close()

    async def warm_up(self, client) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.daemon is None:
            return
        asyncio.run(self._shutdown())
        self.daemon.wait()
        self.daemon.remove_state()
        self.daemon = None

    async def _shutdown(self) -> None:
        from repro.service import AsyncServiceClient

        client = await AsyncServiceClient.connect("127.0.0.1",
                                                  self.daemon.port)
        try:
            await client.shutdown()
        finally:
            await client.close()

    def meta(self) -> dict:
        return {"arcs": {"gnp-96": self.arcs},
                "rungs": {"sigma": self.rung}}

    def inject_fault(self, win: Window) -> None:
        """Corrupt the digest of the first served read, so the checks
        must fail."""
        for r in win.meta["records"]:
            if r.error is None and r.verb == "sigma":
                r.reply["digest"] = "0" * 64
                return

    def abort(self) -> None:
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon.remove_state()
            self.daemon = None

    # -- the timed window --------------------------------------------------

    def window(self, seconds: float, ledger: Ledger) -> Window:
        return asyncio.run(self._window(seconds, ledger))

    async def _window(self, seconds: float, ledger: Ledger) -> Window:
        from repro.service import AsyncServiceClient

        clients = [await AsyncServiceClient.connect(
            "127.0.0.1", self.daemon.port) for _ in range(CONNECTIONS)]
        stats0 = await clients[0].stats()
        cpu0 = cpu_seconds(self.daemon.pid)
        records: List[Rec] = []
        speed = SpeedLog(self.PROBE_EVERY_CPU)
        speed.probe()
        gate = Gate(speed)
        t0 = perf_counter()
        deadline = t0 + seconds
        pacer = asyncio.create_task(gate.pacer(deadline))
        await asyncio.gather(*[self.connection_loop(c, clients[c], deadline,
                                                    records, gate)
                               for c in range(CONNECTIONS)])
        await pacer
        speed.segments.append((gate.last_start, perf_counter()))
        elapsed = perf_counter() - t0
        speed.probe()
        for r in records:
            r.slow = speed.slowdown(r.sent)
        cpu1 = cpu_seconds(self.daemon.pid)
        stats1 = await clients[0].stats()
        health = await clients[0].health()
        for c in clients:
            await c.close()
        win = Window(elapsed_s=elapsed)
        win.meta["daemon_busy"] = (cpu1 - cpu0) / elapsed
        win.meta["stats"] = (stats0, stats1)
        win.meta["health"] = health
        win.meta["records"] = records
        win.meta["speed"] = speed
        win.meta["peak_rss_mb"] = (self_peak_rss_mb()
                                   + peak_rss_mb(self.daemon.pid))
        win.meta["journal_bytes"] = self.daemon.journal_bytes()
        ledger.attempted += len(records)
        for r in records:
            if r.error is not None:
                ledger.error("request", f"{r.verb} {r.rid}: {r.error}")
                if r.error in ("busy", "draining"):
                    ledger.refused += 1
        return win

    async def timed(self, client, conn: int, k: int, req: dict,
                    records: List[Rec]) -> Rec:
        from repro.service import ServiceError

        rid = f"c{conn}-{k}"
        body = dict(req, session=self.sid, id=rid)
        sent = perf_counter()
        try:
            reply = await client.request(body)
            error = None
        except ServiceError as exc:
            reply, error = None, exc.code
        rec = Rec(conn, rid, req["verb"], req.get("start_seed"), sent,
                  (perf_counter() - sent) * 1e3, reply, error)
        records.append(rec)
        return rec

    async def connection_loop(self, conn, client, deadline, records,
                              gate):
        raise NotImplementedError

    # -- metrics -----------------------------------------------------------

    def read_metrics(self, windows: List[Window],
                     raw: bool) -> Dict[str, Metric]:
        reads = [r for r in _records(windows)
                 if r.verb in ("sigma", "routes") and r.error is None]
        lat = [r.scaled(r.rtt_ms, raw) for r in reads]
        # the time the connections could send: probe pauses excluded
        elapsed = sum(win.meta["speed"].active_s(raw) for win in windows)
        return {
            "read_rps": Metric(len(reads) / elapsed, "1/s", len(reads)),
            "read_p50_ms": Metric(p50(lat), "ms", len(lat)),
            "read_p99_ms": Metric(pct(lat, 99.0), "ms", len(lat)),
            "peak_rss_mb": Metric(max(win.meta["peak_rss_mb"]
                                      for win in windows), "MB", 2),
        }

    def layer_metrics(self, win: Window, spans: list) -> Dict[str, Metric]:
        """Per-layer metrics of the service layers, from the daemon's
        ``stats``/``health`` verbs, the reply fields, and the daemon
        process's spans."""
        from repro.service.protocol import encode_frame

        records = win.meta["records"]
        stats0, stats1 = win.meta["stats"]
        ok = [r for r in records if r.error is None]
        reads = [r for r in ok if r.verb in ("sigma", "routes")]
        hits = [r for r in reads if r.reply.get("cached")]
        misses = [r for r in reads if not r.reply.get("cached")]
        lookups = ((stats1["cache"]["hits"] + stats1["cache"]["misses"])
                   - (stats0["cache"]["hits"] + stats0["cache"]["misses"]))
        hit_delta = stats1["cache"]["hits"] - stats0["cache"]["hits"]
        per_req = per_trace_ms(spans, (
            "service.protocol:start_state", "service.protocol:state_digest",
            "session:sigma"))

        def parts(r):
            row = per_req.get(r.rid, {})
            compute = r.reply.get("compute_ms")
            if compute is None:
                compute = row.get("session:sigma", 0.0)
            return (compute, row.get("service.protocol:start_state", 0.0),
                    row.get("service.protocol:state_digest", 0.0))

        overhead = [r.rtt_ms - parts(r)[0] for r in misses]
        residual_miss = [r.rtt_ms - sum(parts(r)) for r in misses]
        residual_hit = [r.rtt_ms for r in hits]
        start_ms = durations_ms(spans, "service.protocol:start_state")
        digest_ms = durations_ms(spans, "service.protocol:state_digest")
        mutation_ms = durations_ms(spans, "service.daemon:mutation")
        append_ms = durations_ms(spans, "service.persistence:append")
        snapshot_ms = durations_ms(spans, "service.persistence:snapshot")
        mutations = [r for r in ok if r.verb in ("set_edge", "remove_edge")]
        sigma_rounds = [r.reply["rounds"] for r in misses
                        if r.verb == "sigma"]
        reply_bytes = [len(encode_frame(r.reply)) for r in ok]
        health = win.meta["health"]
        return {
            "daemon.cache_hit_ratio": Metric(
                hit_delta / lookups if lookups else 0.0, "ratio", lookups),
            "daemon.cache_lookups": Metric(lookups, "count", lookups),
            "daemon.miss_overhead_ms": Metric(p50(overhead), "ms",
                                              len(overhead)),
            "daemon.residual_hit_ms": Metric(p50(residual_hit), "ms",
                                             len(residual_hit)),
            "daemon.residual_miss_ms": Metric(p50(residual_miss), "ms",
                                              len(residual_miss)),
            "daemon.server_p50_ms": Metric(
                stats1["latency_ms"]["p50"], "ms",
                stats1["latency_ms"]["count"]),
            "daemon.shed": Metric(stats1["shed"] - stats0["shed"], "count",
                                  len(records)),
            "daemon.errors": Metric(stats1["errors"] - stats0["errors"],
                                    "count", len(records)),
            "daemon.mutation_ms": Metric(p50(mutation_ms), "ms",
                                         len(mutation_ms)),
            "daemon.invalidated": Metric(
                mean([r.reply["invalidated"] for r in mutations]), "count",
                len(mutations)),
            "proc.daemon_busy": Metric(win.meta["daemon_busy"], "ratio", 1),
            "protocol.start_state_ms": Metric(p50(start_ms), "ms",
                                              len(start_ms)),
            "protocol.start_state_count": Metric(len(start_ms), "count",
                                                 len(start_ms)),
            "protocol.digest_ms": Metric(p50(digest_ms), "ms",
                                         len(digest_ms)),
            "protocol.reply_bytes": Metric(mean(reply_bytes), "B",
                                           len(reply_bytes)),
            "persistence.append_ms": Metric(p50(append_ms), "ms",
                                            len(append_ms)),
            "persistence.snapshot_ms": Metric(p50(snapshot_ms), "ms",
                                              len(snapshot_ms)),
            "persistence.journal_records": Metric(
                health.get("journal_seq") or 0, "count", 1),
            "persistence.journal_bytes": Metric(win.meta["journal_bytes"],
                                                "B", 1),
            "session.sigma_rounds": Metric(mean(sigma_rounds), "rounds",
                                           len(sigma_rounds)),
        }


class ServeMixed(ServeWorkload):
    """Cache hits on a hot set, about 10 % fresh-seed misses, no
    mutations and no state dir."""

    name = "serve-mixed"
    CHECKS = ("served-digest",)

    async def warm_up(self, client) -> None:
        # every hot key once: the first σ in a process costs ~2.5× a
        # steady one, and the window then starts from a warm cache
        for seed in self.hot:
            await client.sigma(self.sid, start_seed=seed)
            for idx in self.slices:
                await client.routes(self.sid, node=idx, start_seed=seed)
                await client.routes(self.sid, dest=idx, start_seed=seed)

    async def connection_loop(self, conn, client, deadline, records,
                              gate):
        stream = mixed_stream(self.seed, conn, self.hot, self.slices,
                              self.fresh_base[conn])
        k = 0
        while perf_counter() < deadline:
            async with gate:
                await self.timed(client, conn, k, next(stream), records)
            k += 1

    def e2e(self, windows: List[Window],
            raw: bool = False) -> Dict[str, Metric]:
        m = self.read_metrics(windows, raw)
        reads = [r for r in _records(windows)
                 if r.verb in ("sigma", "routes") and r.error is None]
        hit = [r.scaled(r.rtt_ms, raw) for r in reads
               if r.reply.get("cached")]
        miss = [r.scaled(r.rtt_ms, raw) for r in reads
                if not r.reply.get("cached")]
        m["hit_p50_ms"] = Metric(p50(hit), "ms", len(hit))
        m["miss_p50_ms"] = Metric(p50(miss), "ms", len(miss))
        m["ops_per_s"] = m["read_rps"]
        m["sigma_p50_ms"] = m["miss_p50_ms"]
        return m

    def verify(self, windows: List[Window], ledger: Ledger) -> None:
        """Every served digest (and routes slice) must equal a direct
        ``RoutingSession`` at the same version and start seed."""
        from repro.service.daemon import _build_network
        from repro.service.protocol import start_state, state_digest
        from repro.session import RoutingSession

        net, _factory = _build_network(CASE["algebra"], CASE["topology"],
                                       CASE["n"], CASE["seed"])
        version = net.adjacency.version
        by_seed: Dict[int, List[Rec]] = {}
        for r in _records(windows):
            if r.error is None and r.verb in ("sigma", "routes"):
                by_seed.setdefault(r.start_seed, []).append(r)
        with RoutingSession(net) as session:
            for seed, recs in sorted(by_seed.items()):
                state = session.sigma(start_state(net, seed)).state
                digest = state_digest(state)
                for r in recs:
                    ok = (r.reply["digest"] == digest
                          and r.reply["version"] == version)
                    if ok and r.verb == "routes":
                        node, dest = r.reply["node"], r.reply["dest"]
                        want = state.row(node) if node is not None \
                            else state.column(dest)
                        ok = r.reply["routes"] == [str(x) for x in want]
                    ledger.check("served-digest", ok,
                                 f"{r.rid} seed={seed}")


class ServeChurn(ServeWorkload):
    """Connection A streams mutations, each followed by σ(clean start);
    connection B reads σ and routes at whatever version is current.
    The daemon journals to a state dir inside the run's output
    directory."""

    name = "serve-churn"
    CHECKS = ("served-digest", "fresh-read-version", "mutation-version")
    durable = True
    MUTATIONS = 4000

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.mutations = draw_mutations(seed, self.MUTATIONS)

    async def warm_up(self, client) -> None:
        await client.sigma(self.sid)
        await client.sigma(self.sid)
        await client.routes(self.sid, dest=0)

    async def connection_loop(self, conn, client, deadline, records,
                              gate):
        k = 0
        if conn == 0:
            for idx, (verb, i, j, edge_seed) in enumerate(self.mutations):
                if perf_counter() >= deadline:
                    break
                req = {"verb": verb, "i": i, "k": j}
                if edge_seed is not None:
                    req["edge_seed"] = edge_seed
                # one gate hold: no probe pause inside a fresh read
                async with gate:
                    mut = await self.timed(client, conn, k, req, records)
                    k += 1
                    if mut.error is not None:
                        break    # the mirror can no longer follow
                    read = await self.timed(client, conn, k,
                                            {"verb": "sigma"}, records)
                k += 1
                read.after_mutation = idx
                read.fresh_ms = (read.sent - mut.sent) * 1e3 + read.rtt_ms
            else:
                raise RuntimeError("serve-churn ran out of pre-drawn "
                                   "mutations; raise MUTATIONS")
            return
        rng = derive_rng(self.seed, self.name, "reader")
        while perf_counter() < deadline:
            if rng.random() < 0.5:
                req = {"verb": "sigma"}
            else:
                axis = "node" if rng.random() < 0.5 else "dest"
                req = {"verb": "routes", axis: rng.randrange(CASE["n"])}
            async with gate:
                await self.timed(client, conn, k, req, records)
            k += 1

    def e2e(self, windows: List[Window],
            raw: bool = False) -> Dict[str, Metric]:
        m = self.read_metrics(windows, raw)
        fresh = [r.scaled(r.fresh_ms, raw) for r in _records(windows)
                 if r.fresh_ms is not None and r.error is None]
        m["fresh_read_p50_ms"] = Metric(p50(fresh), "ms", len(fresh))
        m["fresh_read_p99_ms"] = Metric(pct(fresh, 99.0), "ms", len(fresh))
        m["ops_per_s"] = m["read_rps"]
        m["sigma_p50_ms"] = m["fresh_read_p50_ms"]
        return m

    def verify(self, windows: List[Window], ledger: Ledger) -> None:
        """Replay the recorded mutation stream on a local mirror and
        check every served read against a direct ``RoutingSession`` at
        the reply's version.  Every window ran a prefix of the same
        stream from the same loaded network, so one mirror serves all."""
        import random as _random

        from repro.service.daemon import _build_network
        from repro.service.protocol import state_digest
        from repro.session import RoutingSession

        net, factory = _build_network(CASE["algebra"], CASE["topology"],
                                      CASE["n"], CASE["seed"])
        acked_by_window = []
        for win in windows:
            records = win.meta["records"]
            acked = [r for r in records if r.error is None
                     and r.verb in ("set_edge", "remove_edge")]
            acked_by_window.append(acked)
            for r in records:
                if r.fresh_ms is not None and r.error is None:
                    mut = acked[r.after_mutation] \
                        if r.after_mutation < len(acked) else None
                    ledger.check("fresh-read-version", mut is not None
                                 and r.reply["version"]
                                 == mut.reply["version"], r.rid)
        reads_at: Dict[int, List[Rec]] = {}
        for r in _records(windows):
            if r.verb in ("sigma", "routes") and r.error is None:
                reads_at.setdefault(r.reply["version"], []).append(r)
        longest = max(len(a) for a in acked_by_window)
        with RoutingSession(net) as session:
            def check_version():
                recs = reads_at.pop(net.adjacency.version, [])
                if not recs:
                    return
                state = session.sigma().state
                digest = state_digest(state)
                for r in recs:
                    ok = r.reply["digest"] == digest
                    if ok and r.verb == "routes":
                        node, dest = r.reply["node"], r.reply["dest"]
                        want = state.row(node) if node is not None \
                            else state.column(dest)
                        ok = r.reply["routes"] == [str(x) for x in want]
                    ledger.check("served-digest", ok,
                                 f"{r.rid} version={r.reply['version']}")
            check_version()
            for idx, (verb, i, k, edge_seed) in enumerate(
                    self.mutations[:longest]):
                if verb == "set_edge":
                    net.set_edge(i, k, factory(_random.Random(edge_seed),
                                               i, k))
                else:
                    net.remove_edge(i, k)
                for acked in acked_by_window:
                    if idx < len(acked):
                        ledger.check("mutation-version",
                                     acked[idx].reply["version"]
                                     == net.adjacency.version,
                                     acked[idx].rid)
                check_version()
        for version, recs in reads_at.items():
            for r in recs:
                ledger.check("served-digest", False,
                             f"{r.rid} read at unknown version {version}")
