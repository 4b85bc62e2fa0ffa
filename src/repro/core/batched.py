"""Batched multi-trial replay: one recorded schedule, B parameter points.

Every Table-1/Section-5/Section-6 experiment is a sweep — the *same*
straight-line program priced under many ``(g, m, L, penalty)`` points.
:meth:`~repro.core.compiled.CompiledProgram.replay` already skips the
trampoline, but a sweep of sequential replays still re-derives each
superstep's *structure* (max work, per-processor ``h``, the
slot-injection histogram, QSM contention) once per trial even though it
is parameter-independent.  :func:`replay_batch` runs the same frame loop
as ``replay`` over all B machines at once: each frame goes through the
model's :meth:`~repro.core.engine.Machine._price_batch` one time, so the
paper models' column pricers (:mod:`repro.models.pricing`) summarize the
structure once and price it under all B parameter points with one
histogram pass per penalty family; models without a column pricer price
machine by machine.  Shared-memory writes are applied per machine
exactly as a sequential replay would.

Bit-identity contract
---------------------
``replay_batch(compiled, machines)[b]`` equals
``compiled.replay(machines[b])`` exactly — model times, cost breakdowns
and stats dicts (values *and* key insertion order).  Sequential replay is
the B=1 call of the same frame loop and the same pricer, and the pricers'
row ``b`` depends only on machine ``b`` (see
:func:`repro.core.kernels.slot_charge_stats_batched`), so no second
floating-point path exists to drift.  The contract is gated by
``tests/test_batched_replay.py`` and ``tests/test_path_differential.py``
in both Numba configurations.

Validity and observation
------------------------
All machines must be instances of the *same* concrete model class,
recorded and replayed on the same memory kind, with enough processors and
no fault injector — the same validity rules as sequential replay.  An
observed call runs the same fused pass: afterwards it emits each
machine's run span, superstep spans, metrics and load-ledger rows as one
contiguous block, machine by machine, from that machine's records and the
pass's phase stamps — what B sequential replays would emit — so every
``RunResult.ledger`` view is contiguous.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.compiled import CompiledProgram
from repro.core.engine import Machine, RunResult

__all__ = ["replay_batch"]


def replay_batch(
    compiled: CompiledProgram, machines: Sequence[Machine]
) -> List[RunResult]:
    """Replay ``compiled`` on every machine in one fused pass.

    Element ``b`` of the returned list is bit-identical to
    ``compiled.replay(machines[b])`` (see module docstring).  All machines
    must share one concrete model class; each is validated with the same
    rules as sequential replay before any pricing or write application
    happens.
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
        compiled._check_machine(mach)
    return compiled._replay_frames(machines)
