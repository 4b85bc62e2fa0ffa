"""Batched multi-trial replay: one recorded schedule, B parameter points.

Every Table-1/Section-5/Section-6 experiment is a sweep — the *same*
straight-line program priced under many ``(g, m, L, penalty)`` points.
:meth:`~repro.core.compiled.CompiledProgram.replay` already skips the
trampoline, but a sweep still re-derives each superstep's *structure*
(max work, per-processor ``h``, the slot-injection histogram, QSM
contention) once per trial even though it is parameter-independent.
:func:`replay_batch` hoists that work out of the trial loop: each frame's
structure summary is computed once, the pricing functions'
``price_*_batch`` variants (:mod:`repro.models.pricing`) price it under
all B parameter points with one histogram pass per penalty family, and
shared-memory writes are applied per machine exactly as a sequential
replay would.

Bit-identity contract
---------------------
``replay_batch(compiled, machines)[b]`` equals
``compiled.replay(machines[b])`` exactly — model times, cost breakdowns
and stats dicts (values *and* key insertion order).  The structure
summary helpers are the very methods the sequential ``_price`` adapters
call, and the batched kernels reuse the sequential kernels per distinct
parameter value (see :func:`repro.core.kernels.slot_charge_stats_batched`),
so no new floating-point path exists to drift.  The contract is gated by
``tests/test_batched_replay.py`` and ``tests/test_path_differential.py``
in both Numba configurations.

When batching engages
---------------------
All machines must be instances of the *same* concrete model class with a
batched pricer registered (the five paper models qualify), recorded and
replayed on the same memory kind, with enough processors and no fault
injector — the same validity rules as sequential replay.  When a tracer
or metrics registry is active, or the model has no batched pricer, the
call transparently degrades to sequential replays (observability hooks
are per-run, so a fused pass cannot emit faithful per-trial spans).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Type

import numpy as np

from repro.core.compiled import CompiledProgram, _check_no_injector
from repro.core.engine import Machine, RunResult
from repro.core.events import SuperstepRecord
from repro.obs.metrics import active_metrics as _active_metrics
from repro.obs.tracer import active_tracer as _active_tracer

__all__ = ["replay_batch", "supports_batched_replay"]


def _work_max(work: List[float]) -> float:
    return max(work) if work else 0.0


def _msg_h(machine: Machine, probe: SuperstepRecord) -> int:
    s_max, r_max = machine._max_per_proc_sends_recvs(probe, machine.params.p)
    return max(s_max, r_max)


def _bsp_g_frame(machines: Sequence[Machine], probe: SuperstepRecord):
    from repro.models.pricing import price_bsp_g_batch

    w = _work_max(probe.work)
    h = _msg_h(machines[0], probe)
    return price_bsp_g_batch(
        w,
        h,
        probe.total_flits,
        [mach.params.g for mach in machines],
        [mach.params.L for mach in machines],
    )


def _bsp_m_frame(machines: Sequence[Machine], probe: SuperstepRecord):
    from repro.models.pricing import price_bsp_m_batch

    w = _work_max(probe.work)
    h = _msg_h(machines[0], probe)
    counts = np.bincount(machines[0]._flit_slots(probe))
    return price_bsp_m_batch(
        w,
        h,
        probe.total_flits,
        counts,
        [mach.params.require_m() for mach in machines],
        [mach.penalty for mach in machines],
        [mach.params.L for mach in machines],
    )


def _qsm_g_frame(machines: Sequence[Machine], probe: SuperstepRecord):
    from repro.models.pricing import price_qsm_g_batch

    w = _work_max(probe.work)
    h = machines[0]._qsm_h(probe)
    kappa = machines[0]._qsm_contention(probe)
    return price_qsm_g_batch(
        w,
        h,
        kappa,
        probe.n_reads + probe.n_writes,
        [mach.params.g for mach in machines],
    )


def _qsm_m_frame(machines: Sequence[Machine], probe: SuperstepRecord):
    from repro.models.pricing import price_qsm_m_batch

    w = _work_max(probe.work)
    h = machines[0]._qsm_h(probe)
    kappa = machines[0]._qsm_contention(probe)
    counts = np.bincount(machines[0]._request_slots(probe))
    return price_qsm_m_batch(
        w,
        h,
        kappa,
        probe.n_reads + probe.n_writes,
        counts,
        [mach.params.require_m() for mach in machines],
        [mach.penalty for mach in machines],
    )


def _self_scheduling_frame(machines: Sequence[Machine], probe: SuperstepRecord):
    from repro.models.pricing import price_self_scheduling_batch

    w = _work_max(probe.work)
    h = _msg_h(machines[0], probe)
    return price_self_scheduling_batch(
        w,
        h,
        probe.total_flits,
        [mach.params.require_m() for mach in machines],
        [mach.params.L for mach in machines],
    )


_PRICERS: Dict[Type[Machine], Callable] = {}


def _batch_pricers() -> Dict[Type[Machine], Callable]:
    """Lazy model-class -> frame-pricer registry (keyed by *exact* type:
    a subclass may override ``_price``, so it must not inherit a batched
    pricer it never asked for)."""
    if not _PRICERS:
        from repro.models.bsp_g import BSPg
        from repro.models.bsp_m import BSPm
        from repro.models.qsm_g import QSMg
        from repro.models.qsm_m import QSMm
        from repro.models.self_scheduling import SelfSchedulingBSPm

        _PRICERS.update(
            {
                BSPg: _bsp_g_frame,
                BSPm: _bsp_m_frame,
                QSMg: _qsm_g_frame,
                QSMm: _qsm_m_frame,
                SelfSchedulingBSPm: _self_scheduling_frame,
            }
        )
    return _PRICERS


def supports_batched_replay(machine: Machine) -> bool:
    """True when ``machine``'s concrete class has a batched frame pricer."""
    return type(machine) in _batch_pricers()


def replay_batch(
    compiled: CompiledProgram, machines: Sequence[Machine]
) -> List[RunResult]:
    """Replay ``compiled`` on every machine in one fused pass.

    Element ``b`` of the returned list is bit-identical to
    ``compiled.replay(machines[b])`` (see module docstring).  All machines
    must share one concrete model class; each is validated with the same
    rules as sequential replay before any pricing or write application
    happens.  Falls back to per-machine sequential replays when a tracer
    or metrics registry is active or the class has no batched pricer.
    """
    machines = list(machines)
    if not machines:
        return []
    cls = type(machines[0])
    for mach in machines:
        if type(mach) is not cls:
            raise ValueError(
                "replay_batch needs machines of one model class; got "
                f"{cls.__name__} and {type(mach).__name__}"
            )
        if mach.uses_shared_memory != compiled.uses_shared_memory:
            raise ValueError(
                "compiled program was recorded on a "
                f"{'shared-memory' if compiled.uses_shared_memory else 'message-passing'}"
                f" machine; {type(mach).__name__} is not one"
            )
        if mach.params.p < compiled.p:
            raise ValueError(
                f"machine has {mach.params.p} processors, recorded "
                f"program used {compiled.p}"
            )
        _check_no_injector(mach, "replay")
    pricer = _batch_pricers().get(cls)
    if (
        pricer is None
        or len(machines) == 1
        or _active_tracer() is not None
        or _active_metrics() is not None
    ):
        return [compiled.replay(mach) for mach in machines]
    B = len(machines)
    records: List[List[SuperstepRecord]] = [[] for _ in range(B)]
    for index, (work, msg_b, read_b, write_b) in enumerate(compiled.frames):
        probe = SuperstepRecord(
            index=index,
            work=work,
            msg_batch=msg_b,
            read_batch=read_b,
            write_batch=write_b,
        )
        priced = pricer(machines, probe)
        # the probe doubles as machine 0's record; the rest alias the same
        # frozen batches, exactly as sequential replays of one compilation do
        probe.cost, probe.breakdown, probe.stats = priced[0]
        records[0].append(probe)
        for b in range(1, B):
            rec = SuperstepRecord(
                index=index,
                work=work,
                msg_batch=msg_b,
                read_batch=read_b,
                write_batch=write_b,
            )
            rec.cost, rec.breakdown, rec.stats = priced[b]
            records[b].append(rec)
        if write_b.n:
            for mach in machines:
                CompiledProgram._apply_writes(mach, write_b)
    return [
        RunResult(
            params=mach.params,
            records=records[b],
            results=list(compiled.results),
        )
        for b, mach in enumerate(machines)
    ]
