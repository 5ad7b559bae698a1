"""The ``solve`` and ``shard`` workloads: in-process ``RoutingSession``
calls on the solver ladder, no daemon.

``solve`` runs the serial rungs in passes of a fixed mix (a fixed
number of passes per window, see ``PASS_S``): two cold σ
solves and one δ run on ``vectorized`` (``random`` n=400 ``hop-count``,
about 12.7k arcs), one Theorem 7 absolute-convergence grid on
``batched`` (n=100, the schedule zoo × two starts), and a replay of the
registry's event grammar over every committed corpus topology.

``shard`` runs the same σ/δ inputs on ``parallel`` (2 workers) and on
``remote`` (2 loopback workers), in passes of two σ solves and one δ
run per rung.

Start states are inputs here: they are drawn from ``--seed`` during
set-up and never timed.  Topologies are fixed; ``--seed`` draws start
states, schedule seeds and event seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from common import Ledger, Metric, Window, derive_rng, mean, p50, sub_seed
from hostspeed import probe_ms, slowdown
from procs import children_peak_rss_mb, self_peak_rss_mb

BIG = {"n": 400, "p": 0.08, "seed": 22}      # the committed gnp-400 case
GRID = {"n": 100, "p": 0.08, "seed": 3}
STARTS = 3            # pre-drawn n=400 start states, cycled by pass
GRID_STARTS = 2       # random starts per grid, besides the clean start
GRID_POOLS = 3        # pre-drawn grid start sets, cycled by pass
EVENTS = ("link-flap", "node-failure", "link-weight-change",
          "policy-change", "del-best-route")
WORKERS = 2
#: nominal length of one ``solve`` pass on the host in ``host.json``.
#: A ``solve`` window runs a fixed number of passes (its seconds over
#: this), not passes until a deadline: the session keeps every schedule
#: it compiles, so its memory grows with each pass, and a deadline would
#: make the peak RSS follow how fast the host happened to run.
PASS_S = 2.5


def _hop():
    from repro.cli import ALGEBRAS
    alg, factory, _finite, _path = ALGEBRAS["hop-count"]()
    return alg, factory


def _gnp(case):
    from repro.topologies.generators import erdos_renyi
    alg, factory = _hop()
    return erdos_renyi(alg, case["n"], case["p"], factory, seed=case["seed"])


class _Timer:
    """Busy time and count per operation kind, each operation with the
    host slowdown from the probes before and after it (``hostspeed``)."""

    def __init__(self, every_cpu: bool = False):
        self.every_cpu = every_cpu
        self.ms: Dict[str, List[float]] = {}
        self.slow: Dict[str, List[float]] = {}
        self._probe: Optional[float] = None

    def time(self, kind: str, fn, *args, **kwargs):
        if self._probe is None:
            self._probe = probe_ms(self.every_cpu)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.ms.setdefault(kind, []).append((perf_counter() - t0) * 1e3)
        after = probe_ms(self.every_cpu)
        self.slow.setdefault(kind, []).append(slowdown(self._probe, after))
        self._probe = after
        return out

    @classmethod
    def merged(cls, timers) -> "_Timer":
        out = cls()
        for t in timers:
            for kind, ms in t.ms.items():
                out.ms.setdefault(kind, []).extend(ms)
                out.slow.setdefault(kind, []).extend(t.slow[kind])
        return out

    def samples(self, kind: str, raw: bool = False) -> List[float]:
        """Milliseconds per operation of ``kind``, at reference host
        speed unless ``raw``."""
        ms = self.ms.get(kind, [])
        return list(ms) if raw else [m / f for m, f in
                                     zip(ms, self.slow[kind])]

    def busy_s(self, raw: bool = False) -> float:
        return sum(sum(self.samples(k, raw)) for k in self.ms) / 1e3

    def rate(self, kind: str, raw: bool = False) -> Metric:
        """Operations of ``kind`` per second of time spent in them."""
        ms = self.samples(kind, raw)
        busy = sum(ms) / 1e3
        return Metric(len(ms) / busy if busy else 0.0, "1/s", len(ms))


@dataclass
class Result:
    """One σ or δ report cut down to what the checks and the per-layer
    metrics read.  The state itself is kept once per distinct digest
    (:attr:`_SolverWorkload.states`), so memory does not grow with the
    number of solves a window fits."""

    label: str
    op: str                    #: "sigma" or "delta"
    rung: str
    input_idx: int
    converged: bool
    rounds: Optional[int]
    steps: Optional[int]
    converged_at: Optional[int]
    digest: str
    ipc_commands: Optional[int] = None
    ipc_steps: Optional[int] = None
    wire: object = None
    degraded: Optional[tuple] = None


class _SolverWorkload:
    """Set-up shared by ``solve`` and ``shard``: the n=400 network and
    the pre-drawn σ/δ inputs (the same inputs for both workloads)."""

    name = ""
    IN_PROCESS = True
    #: whether the work spans processes, so the probe covers every CPU
    PROBE_EVERY_CPU = False
    #: what set-up builds; teardown drops it all (see :meth:`teardown`)
    BUILT = ("net", "starts")

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        rng = derive_rng(seed, "solver-inputs")
        self.start_seeds = [sub_seed(rng) for _ in range(STARTS)]
        self.schedule_seeds = [sub_seed(rng) for _ in range(STARTS)]
        self.sessions = []
        self.net = None
        #: digest -> the first state seen with it
        self.states: Dict[str, object] = {}

    def _record(self, label: str, op: str, rung: str, idx: int,
                rep) -> Result:
        """Keep a report as a :class:`Result` (outside the timed call)."""
        from repro.service.protocol import state_digest

        digest = state_digest(rep.state)
        self.states.setdefault(digest, rep.state)
        return Result(label, op, rung, idx, rep.converged,
                      getattr(rep, "rounds", None),
                      getattr(rep, "steps", None),
                      getattr(rep, "converged_at", None), digest,
                      getattr(rep, "ipc_commands", None),
                      getattr(rep, "ipc_steps", None),
                      getattr(rep, "wire", None),
                      getattr(rep, "degraded", None))

    def _draw_starts(self):
        import random

        from repro.core.asynchronous import random_state
        alg = self.net.algebra
        return [random_state(alg, self.net.n, random.Random(s))
                for s in self.start_seeds]

    def _schedule(self, idx: int):
        from repro.core.schedule import RandomSchedule
        return RandomSchedule(self.net.n, seed=self.schedule_seeds[idx])

    def teardown(self) -> None:
        """Close the sessions and drop everything set-up built, so the
        next set-up never holds two copies at once (the peak RSS would
        then depend on when the collector runs)."""
        for s in self.sessions:
            s.close()
        self.sessions = []
        for name in self.BUILT:
            setattr(self, name, None)

    def _inputs(self) -> None:
        """Rebuild the network and start states after teardown, for the
        checks (both are fixed by the topology case and ``--seed``)."""
        if self.net is None:
            self.net = _gnp(BIG)
            self.starts = self._draw_starts()

    def abort(self) -> None:
        self.teardown()

    def meta(self) -> dict:
        return {"arcs": self.arcs, "rungs": self.rungs}

    def _check_fixed_points(self, windows: List[Window], ledger: Ledger):
        """Every σ and δ result must have converged to a fixed point
        (``is_stable`` on a separately built vectorized engine), and for
        hop-count (a strictly increasing algebra) they must all be the
        same one; returns that one."""
        from repro.core.vectorized import VectorizedEngine

        self._inputs()
        eng = VectorizedEngine(self.net)
        stable = {d: eng.is_stable(st) for d, st in self.states.items()}
        first = None
        for r in (r for win in windows for r in win.meta["results"]):
            ledger.check("converged", r.converged, r.label)
            ledger.check("is_stable", stable[r.digest], r.label)
            first = first or r.digest
            ledger.check("unique-fixed-point", r.digest == first, r.label)
        return self.states[first]

    def inject_fault(self, win: Window) -> None:
        """Swap the first result's state for an arbitrary state (not a
        fixed point), so the checks must fail."""
        import random

        from repro.core.asynchronous import random_state

        self._inputs()
        bogus = random_state(self.net.algebra, self.net.n, random.Random(0))
        win.meta["results"][0].digest = "injected"
        self.states["injected"] = bogus


class Solve(_SolverWorkload):
    name = "solve"
    BUILT = _SolverWorkload.BUILT + ("session", "grid_net", "grid_session",
                                     "grid_starts")
    CHECKS = ("converged", "is_stable", "unique-fixed-point",
              "is_stable-object-model", "grid-absolute", "replay-oracle")

    def setup(self) -> None:
        import random

        from repro.core.asynchronous import random_state
        from repro.core.state import RoutingState
        from repro.session import EngineSpec, RoutingSession

        self.net = _gnp(BIG)
        self.arcs = {"gnp-400": sum(1 for _ in self.net.present_edges())}
        self.session = RoutingSession(self.net, EngineSpec("vectorized"))
        self.grid_net = _gnp(GRID)
        self.arcs["gnp-100"] = sum(1 for _ in self.grid_net.present_edges())
        self.grid_session = RoutingSession(self.grid_net,
                                           EngineSpec("batched"))
        self.sessions = [self.session, self.grid_session]
        self.starts = self._draw_starts()
        alg = self.grid_net.algebra
        rng = derive_rng(self.seed, "solve", "grid-starts")
        self.grid_starts = [
            [RoutingState.identity(alg, self.grid_net.n)]
            + [random_state(alg, self.grid_net.n, random.Random(sub_seed(rng)))
               for _ in range(GRID_STARTS)] for _ in range(GRID_POOLS)]
        # warm-up: the first σ in a process costs ~2.5× a steady one
        self.session.sigma(self.starts[0])
        self.rungs = {"sigma": self.session.resolve("sigma").chosen,
                      "delta": self.session.resolve(
                          "delta", schedule=self._schedule(0)).chosen,
                      "grid": self.grid_session.resolve("grid").chosen,
                      "replay": "vectorized"}

    def _replay_all(self, timer: _Timer, event_seed: int, records) -> None:
        from repro.scenarios import (build_scenario_network, list_corpus,
                                     replay_events, scenario_events)
        from repro.session import EngineSpec, RoutingSession

        for name in list_corpus():
            topo = f"corpus:{name}"
            net, factory = build_scenario_network(topo, "hop-count",
                                                  seed=event_seed)
            events = [scenario_events()[e]() for e in EVENTS]
            with RoutingSession(net, EngineSpec("vectorized")) as s:
                rep = timer.time("replay", replay_events, s, events,
                                 factory, seed=event_seed)
            records.append((topo, event_seed, rep))

    def window(self, seconds: float, ledger: Ledger) -> Window:
        from repro.core.schedule import schedule_zoo

        timer = _Timer(self.PROBE_EVERY_CPU)
        rng = derive_rng(self.seed, "solve", "passes")
        results, grids, replays = [], [], []
        t0 = perf_counter()
        passes = 0
        while passes < max(1, round(seconds / PASS_S)):
            k = passes % STARTS
            for j in (k, (k + 1) % STARTS):
                rep = timer.time("sigma", self.session.sigma, self.starts[j])
                results.append(self._record(f"sigma pass {passes} start {j}",
                                            "sigma", "vectorized", j, rep))
            rep = timer.time("delta", self.session.delta, self._schedule(k),
                             self.starts[k])
            results.append(self._record(f"delta pass {passes} schedule {k}",
                                        "delta", "vectorized", k, rep))
            zoo = schedule_zoo(self.grid_net.n,
                               seeds=(sub_seed(rng), sub_seed(rng)))
            trials = [(sched, st)
                      for st in self.grid_starts[passes % GRID_POOLS]
                      for sched in zoo]
            grid = timer.time("grid", self.grid_session.delta_grid, trials)
            grids.append(grid)
            self._replay_all(timer, sub_seed(rng), replays)
            passes += 1
        win = Window(elapsed_s=perf_counter() - t0)
        win.meta.update(results=results, grids=grids, replays=replays,
                        timer=timer, passes=passes,
                        peak_rss_mb=self_peak_rss_mb())
        ops = (len(results) + sum(g.runs for g in grids)
               + sum(r.phases for _t, _s, r in replays))
        ledger.attempted += ops
        win.meta["ops"] = ops
        return win

    def verify(self, windows: List[Window], ledger: Ledger) -> None:
        from repro.core.synchronous import is_stable
        from repro.scenarios import (build_scenario_network, replay_events,
                                     scenario_events)
        from repro.session import EngineSpec, RoutingSession

        reference = self._check_fixed_points(windows, ledger)
        # the object-model check shares no code with the kernels (≈3 s)
        ledger.check("is_stable-object-model",
                     is_stable(self.net, reference), "the fixed point")
        oracles = {}
        for win in windows:
            for g in win.meta["grids"]:
                ledger.check("grid-absolute", g.absolute,
                             f"{g.runs} trials")
            # replays against replay_events on the incremental rung over
            # an independently built network (object model, no kernels)
            for topo, event_seed, rep in win.meta["replays"]:
                net, factory = build_scenario_network(topo, "hop-count",
                                                      seed=event_seed)
                key = (topo, event_seed)
                if key not in oracles:
                    events = [scenario_events()[e]() for e in EVENTS]
                    with RoutingSession(net, EngineSpec("incremental")) as r:
                        oracles[key] = replay_events(r, events, factory,
                                                     seed=event_seed)
                ledger.check("replay-oracle",
                             _replays_agree(rep, oracles[key], net.algebra),
                             f"{topo} seed={event_seed}")

    def e2e(self, windows: List[Window],
            raw: bool = False) -> Dict[str, Metric]:
        timer = _Timer.merged(win.meta["timer"] for win in windows)
        grids = [g for win in windows for g in win.meta["grids"]]
        replays = [r for win in windows for r in win.meta["replays"]]
        ops = sum(win.meta["ops"] for win in windows)
        trials = sum(g.runs for g in grids)
        phases = sum(r.phases for _t, _s, r in replays)
        sigma = timer.samples("sigma", raw)
        grid_s = sum(timer.samples("grid", raw)) / 1e3
        replay_s = sum(timer.samples("replay", raw)) / 1e3
        return {
            "peak_rss_mb": Metric(max(win.meta["peak_rss_mb"]
                                      for win in windows), "MB", 1),
            "ops_per_s": Metric(ops / timer.busy_s(raw), "1/s", ops),
            "sigma_p50_ms": Metric(p50(sigma), "ms", len(sigma)),
            "sigma_per_s": timer.rate("sigma", raw),
            "delta_per_s": timer.rate("delta", raw),
            "grid_trials_per_s": Metric(trials / grid_s if grid_s else 0.0,
                                        "1/s", trials),
            "replay_phases_per_s": Metric(
                phases / replay_s if replay_s else 0.0, "1/s", phases),
        }

    def report_layers(self, win: Window) -> Dict[str, Metric]:
        sig = [r for r in win.meta["results"] if r.op == "sigma"]
        dlt = [r for r in win.meta["results"] if r.op == "delta"]
        reps = [r for _t, _s, r in win.meta["replays"]]
        return {
            "session.sigma_rounds": Metric(mean([r.rounds for r in sig]),
                                           "rounds", len(sig)),
            "session.delta_steps": Metric(mean([r.steps for r in dlt]),
                                          "steps", len(dlt)),
            "session.replay_rounds": Metric(
                mean([r.total_rounds for r in reps]), "rounds", len(reps)),
            "session.replay_churn": Metric(
                mean([r.total_churn for r in reps]), "count", len(reps)),
            "scenarios.mutations": Metric(
                sum(s.mutations for r in reps for s in r.steps), "count",
                len(reps)),
        }


def _replays_agree(a, b, algebra) -> bool:
    """Phase-for-phase identity of two replay transcripts."""
    if len(a.steps) != len(b.steps):
        return False
    for sa, sb in zip(a.steps, b.steps):
        if (sa.label, sa.mutations, sa.converged, sa.rounds, sa.churn) != \
                (sb.label, sb.mutations, sb.converged, sb.rounds, sb.churn):
            return False
        if not sa.state.equals(sb.state, algebra):
            return False
    return True


class Shard(_SolverWorkload):
    name = "shard"
    PROBE_EVERY_CPU = True
    BUILT = _SolverWorkload.BUILT + ("by_rung",)
    CHECKS = ("converged", "is_stable", "unique-fixed-point",
              "bit-identical-to-vectorized", "remote-no-degraded-events")
    RUNGS = ("parallel", "remote")

    def setup(self) -> None:
        from repro.session import EngineSpec, RoutingSession

        self.net = _gnp(BIG)
        self.arcs = {"gnp-400": sum(1 for _ in self.net.present_edges())}
        specs = {"parallel": EngineSpec("parallel", workers=WORKERS,
                                        strict=True),
                 "remote": EngineSpec("remote", remote_workers=WORKERS,
                                      strict=True)}
        self.by_rung = {}
        for rung, spec in specs.items():
            # kept in self.sessions as soon as built, so an abort part
            # way through set-up still closes it
            self.by_rung[rung] = RoutingSession(self.net, spec)
            self.sessions.append(self.by_rung[rung])
        self.starts = self._draw_starts()
        # worker spawn and the first σ per rung happen here
        for s in self.sessions:
            s.sigma(self.starts[0])
        self.rungs = {f"{op}.{rung}": s.resolve(
            op, schedule=self._schedule(0) if op == "delta" else None).chosen
            for rung, s in self.by_rung.items() for op in ("sigma", "delta")}

    def window(self, seconds: float, ledger: Ledger) -> Window:
        timer = _Timer(self.PROBE_EVERY_CPU)
        results = []
        t0 = perf_counter()
        deadline = t0 + seconds
        passes = 0
        while perf_counter() < deadline:
            k = passes % STARTS
            for j in (k, (k + 1) % STARTS):
                for rung in self.RUNGS:
                    rep = timer.time(f"sigma.{rung}",
                                     self.by_rung[rung].sigma,
                                     self.starts[j])
                    results.append(self._record(
                        f"sigma {rung} start {j}", "sigma", rung, j, rep))
            for rung in self.RUNGS:
                rep = timer.time(f"delta.{rung}", self.by_rung[rung].delta,
                                 self._schedule(k), self.starts[k])
                results.append(self._record(
                    f"delta {rung} schedule {k}", "delta", rung, k, rep))
            passes += 1
        win = Window(elapsed_s=perf_counter() - t0)
        win.meta.update(
            results=results, timer=timer, passes=passes,
            peak_rss_mb=self_peak_rss_mb() + children_peak_rss_mb())
        ledger.attempted += len(results)
        win.meta["ops"] = len(results)
        return win

    def verify(self, windows: List[Window], ledger: Ledger) -> None:
        """Each sharded result must be bit-identical (state, rounds or
        steps, convergence point) to ``vectorized`` on the same input,
        and the remote rung must have run without healing events."""
        from repro.service.protocol import state_digest
        from repro.session import EngineSpec, RoutingSession

        self._check_fixed_points(windows, ledger)
        refs = {}
        with RoutingSession(self.net, EngineSpec("vectorized")) as ref:
            for r in (r for win in windows for r in win.meta["results"]):
                key = (r.op, r.input_idx)
                if key not in refs:
                    start = self.starts[r.input_idx]
                    rep = ref.sigma(start) if r.op == "sigma" else \
                        ref.delta(self._schedule(r.input_idx), start)
                    refs[key] = (state_digest(rep.state), rep.rounds
                                 if r.op == "sigma" else
                                 (rep.steps, rep.converged_at))
                got = (r.digest, r.rounds if r.op == "sigma"
                       else (r.steps, r.converged_at))
                ledger.check("bit-identical-to-vectorized",
                             got == refs[key], r.label)
                if r.rung == "remote":
                    ledger.check("remote-no-degraded-events",
                                 not r.degraded, r.label)

    def e2e(self, windows: List[Window],
            raw: bool = False) -> Dict[str, Metric]:
        timer = _Timer.merged(win.meta["timer"] for win in windows)
        ops = sum(win.meta["ops"] for win in windows)
        # one σ input on both rungs, in the order the window ran them
        pairs = [(a + b) / 2 for a, b in zip(
            timer.samples("sigma.parallel", raw),
            timer.samples("sigma.remote", raw))]
        m = {
            "peak_rss_mb": Metric(max(win.meta["peak_rss_mb"]
                                      for win in windows), "MB",
                                  1 + 2 * WORKERS),
            "ops_per_s": Metric(ops / timer.busy_s(raw), "1/s", ops),
            "sigma_p50_ms": Metric(p50(pairs), "ms", len(pairs)),
        }
        for op in ("sigma", "delta"):
            ms = [x for rung in self.RUNGS
                  for x in timer.samples(f"{op}.{rung}", raw)]
            m[f"{op}_per_s"] = Metric(
                len(ms) / (sum(ms) / 1e3) if ms else 0.0, "1/s", len(ms))
            for rung in self.RUNGS:
                m[f"{op}_per_s.{rung}"] = timer.rate(f"{op}.{rung}", raw)
        return m

    def report_layers(self, win: Window) -> Dict[str, Metric]:
        out: Dict[str, Metric] = {}
        reps = dict(parallel={"sigma": [], "delta": []},
                    remote={"sigma": [], "delta": []})
        for r in win.meta["results"]:
            reps[r.rung][r.op].append(r)
        sig = reps["parallel"]["sigma"] + reps["remote"]["sigma"]
        dlt = reps["parallel"]["delta"] + reps["remote"]["delta"]
        out["session.sigma_rounds"] = Metric(
            mean([r.rounds for r in sig]), "rounds", len(sig))
        out["session.delta_steps"] = Metric(
            mean([r.steps for r in dlt]), "steps", len(dlt))
        par = reps["parallel"]["delta"]
        out["parallel.ipc_commands"] = Metric(
            mean([r.ipc_commands for r in par]), "count", len(par))
        out["parallel.ipc_steps"] = Metric(
            mean([r.ipc_steps for r in par]), "count", len(par))
        for op in ("sigma", "delta"):
            rs = reps["remote"][op]
            out[f"wire.{op}_bytes_sent"] = Metric(
                mean([r.wire.bytes_sent for r in rs]), "B", len(rs))
            out[f"wire.{op}_bytes_received"] = Metric(
                mean([r.wire.bytes_received for r in rs]), "B", len(rs))
        rem = reps["remote"]["sigma"] + reps["remote"]["delta"]
        out["wire.commands"] = Metric(
            mean([r.wire.commands for r in rem]), "count", len(rem))
        upd = sum(r.wire.update_bytes for r in rem)
        naive = sum(r.wire.naive_bytes for r in rem)
        out["wire.compression_ratio"] = Metric(
            naive / upd if upd else 0.0, "ratio", len(rem))
        out["remote.degraded_events"] = Metric(
            sum(len(r.degraded or ()) for r in rem), "count", len(rem))
        return out
