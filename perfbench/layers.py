"""Which calls of which layer the traced run wraps.

Span names are ``"<layer>:<call>"``.  The layers are the repository's
modules: ``session`` (``repro.session``), ``core.vectorized``,
``core.batched`` and ``core.schedule`` (the serial kernels),
``core.parallel``, ``core.remote`` and ``core.wire`` (the sharded
rungs, coordinator side only: worker processes are not wrapped),
``scenarios``, and in the daemon process ``service.daemon``,
``service.protocol`` and ``service.persistence``.

``gather_min_reduce`` and ``fold_edge_tables`` are wrapped in every
module that imports them by name, because those modules call their own
binding.
"""

from __future__ import annotations

from spans import Tracer, request_id_of_frame

GATHER = "core.vectorized:gather_min_reduce"
BATCHED_GRID = "core.batched:delta_grid"


def _gather_bytes(tracer: Tracer):
    """Bytes one gather/min-reduce touches, computed from its argument
    sizes (not measured): the ``E × w`` exporter-row gather, the
    ``E × w`` table lookup it feeds, and the ``n × w`` result, where
    ``E`` is the arc count and ``w`` the column count of ``sub``."""
    def observe(args, _result):
        sub, src = args[0], args[2]
        e_w = int(src.size) * int(sub.shape[-1])
        tracer.counters["gather_bytes_computed"] += \
            sub.itemsize * (2 * e_w + int(sub.size))
    return observe


def _batched_steps(tracer: Tracer):
    def observe(_args, results):
        tracer.counters["batched_steps"] += sum(r.steps for r in results)
    return observe


def instrument(tracer: Tracer) -> None:
    """Wrap the session, kernel, sharded-rung and scenario layers."""
    import repro.core.parallel as parallel
    import repro.core.remote as remote
    import repro.core.vectorized as vectorized
    import repro.scenarios.survey as survey
    from repro.core.schedule import CompiledSchedule
    from repro.session import RoutingSession

    tracer.observers[GATHER] = _gather_bytes(tracer)
    tracer.observers[BATCHED_GRID] = _batched_steps(tracer)
    for verb in ("sigma", "delta", "delta_grid", "replay"):
        tracer.patch(RoutingSession, verb, f"session:{verb}")
    eng = vectorized.VectorizedEngine
    for call in ("encode_state", "decode_state", "refresh"):
        tracer.patch(eng, call, f"core.vectorized:{call}")
    for module in (vectorized, parallel, remote):
        tracer.patch(module, "gather_min_reduce", GATHER)
        tracer.patch(module, "fold_edge_tables",
                     "core.vectorized:fold_edge_tables")
    tracer.patch(vectorized.BatchedVectorizedEngine, "delta_grid",
                 BATCHED_GRID)
    tracer.patch(CompiledSchedule, "ensure", "core.schedule:compile")
    tracer.patch(parallel.ParallelVectorizedEngine, "iterate",
                 "core.parallel:sigma")
    tracer.patch(parallel.ParallelVectorizedEngine, "delta",
                 "core.parallel:delta")
    tracer.patch(remote.RemoteVectorizedEngine, "iterate",
                 "core.remote:sigma")
    tracer.patch(remote.RemoteVectorizedEngine, "delta", "core.remote:delta")
    tracer.patch(remote, "encode_update", "core.wire:encode_update")
    tracer.patch(remote, "decode_update", "core.wire:decode_update")
    tracer.patch(survey, "compile_event", "scenarios:compile_event")


def instrument_daemon(tracer: Tracer) -> None:
    """:func:`instrument` plus the daemon process's service layers.

    The request span wraps the daemon's frame dispatch and takes the
    client's ``id`` as its trace id; every span opened while serving
    that frame (executor threads included, see
    :meth:`Tracer.run_in_executor_with_context`) shares it.
    """
    import repro.service.daemon as daemon
    from repro.service.persistence import ServicePersistence

    instrument(tracer)
    srv = daemon.RoutingServiceDaemon
    tracer.patch(srv, "_handle_frame", "service.daemon:request",
                 trace_of=request_id_of_frame)
    tracer.patch(srv, "_handle_mutation", "service.daemon:mutation")
    tracer.patch(daemon, "start_state", "service.protocol:start_state")
    tracer.patch(daemon, "state_digest", "service.protocol:state_digest")
    tracer.patch(ServicePersistence, "append", "service.persistence:append")
    tracer.patch(ServicePersistence, "snapshot",
                 "service.persistence:snapshot")
