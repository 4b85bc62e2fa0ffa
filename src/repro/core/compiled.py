"""Compiled-superstep mode: record a program's barrier schedule, replay it.

A bulk-synchronous program whose communication pattern has **no
data-dependent control flow between barriers** — every run sends the same
messages in the same slots regardless of what arrives — is fully described
by its sequence of frozen :class:`~repro.core.events.SuperstepRecord`
batches.  For such *straight-line* programs the coroutine trampoline in
:mod:`repro.core.engine` is pure overhead after the first run: this module
records the superstep schedule once and replays it as a batch-at-a-time
loop (freeze is free, pricing and write application are the only work),
skipping generator dispatch, per-call validation and arena assembly
entirely.  That loop (``CompiledProgram._replay_frames``) is the only
one: :meth:`CompiledProgram.replay` runs it for one machine, pricing each
frame through :meth:`~repro.core.engine.Machine._price_batch` at B=1, and
:func:`repro.core.batched.replay_batch` runs it for B machines at once.
Observation never changes that loop: its spans, metrics and ledger rows
are emitted after the pass (see ``_replay_frames``).

Which programs qualify
----------------------
* the h-relation routing program of :mod:`repro.scheduling.execute` (one
  ``send_many`` per processor, one barrier — ``execute_schedule`` replays
  it unless asked to audit or a fault injector is attached, compiled
  straight from the schedule by ``compile_schedule`` without even a
  recording run);
* :func:`repro.algorithms.total_exchange.run_total_exchange` (a fixed
  latin-square schedule, via ``execute_schedule``);
* any fixed-schedule QSM phase program whose addresses don't depend on
  read values.

Programs that do **not** qualify — and must stay on the trampoline — are
those whose sends depend on received data: the sample-sort pivot exchange,
``h_relation``'s two-phase balancing (phase 2 routes what phase 1
delivered), the ``pram_algorithms`` pointer-jumping loops (each round
reads the previous round's links), and anything driven by
:mod:`repro.faults` retries.  Replaying those would freeze one particular
execution's data flow, not the algorithm.

Validity across machines
------------------------
``replay(machine)`` re-prices the recorded schedule under ``machine``'s
cost model, so a single recording supports penalty-family and ``L``/``g``
ablations (the sweep engine's main loop).  Replaying on a machine with a
*different* aggregate bandwidth ``m`` is only meaningful when the recorded
program did not consult ``m`` when placing slots (``Proc.stagger_slot``
does); slot-exclusivity is still re-checked by the target machine's
pricing, so an invalid transplant raises
:class:`~repro.core.engine.ModelViolation` rather than mispricing.
Fault injection is refused on both record and replay: the recorded results
reflect a fault-free execution, and replaying cannot re-run the program's
reaction to faulted inboxes.
"""

from __future__ import annotations

import time as _time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DenseSharedMemory, Machine, RunResult
from repro.core.events import RequestBatch, SuperstepRecord
from repro.obs.instrument import observe_runs

__all__ = ["CompiledProgram", "compile_program"]


def _check_no_injector(machine: Machine, action: str) -> None:
    injector = getattr(machine, "fault_injector", None)
    if injector is not None and not getattr(injector.plan, "is_null", False):
        raise ValueError(
            f"cannot {action} a compiled superstep schedule with an active "
            "fault injector: recorded supersteps replay what a fault-free "
            "execution sent, so the program's reaction to faulted inboxes "
            "cannot be reproduced (run the program on the trampoline instead)"
        )


class CompiledProgram:
    """A recorded superstep schedule plus the run's per-processor results.

    Build with :meth:`record` (or :func:`compile_program`); re-execute with
    :meth:`replay`.  Frames share the recording run's frozen batches —
    records are immutable once a run returns, so replays on any number of
    machines alias them safely.
    """

    __slots__ = ("frames", "results", "p", "uses_shared_memory")

    def __init__(
        self,
        frames: Sequence[Tuple[List[float], Any, Any, Any]],
        results: List[Any],
        p: int,
        uses_shared_memory: bool,
    ) -> None:
        self.frames = list(frames)
        self.results = results
        self.p = p
        self.uses_shared_memory = uses_shared_memory

    # ------------------------------------------------------------------
    @classmethod
    def record(
        cls,
        machine: Machine,
        program,
        *,
        args: Tuple = (),
        per_proc_args: Optional[Sequence[Tuple]] = None,
        nprocs: Optional[int] = None,
    ) -> Tuple["CompiledProgram", RunResult]:
        """Run ``program`` once on ``machine`` and capture its schedule.

        Returns ``(compiled, result)`` — the result is the recording run's
        own :class:`RunResult`, so the caller pays no extra execution for
        the capture.
        """
        _check_no_injector(machine, "record")
        res = machine.run(
            program, args=args, per_proc_args=per_proc_args, nprocs=nprocs
        )
        p = machine.params.p if nprocs is None else nprocs
        frames = [
            (list(r.work), r.msg_batch, r.read_batch, r.write_batch)
            for r in res.records
        ]
        return cls(frames, res.results, p, machine.uses_shared_memory), res

    # ------------------------------------------------------------------
    def replay(self, machine: Machine) -> RunResult:
        """Re-execute the recorded schedule on ``machine``.

        Each frame is re-priced under ``machine``'s cost model and its
        writes are applied to ``machine``'s shared memory (so post-run
        memory state matches a real execution); message delivery and read
        resolution are skipped — there is no running program to receive
        them, and the recorded ``results`` already hold what the original
        processors returned.  Replaying on the recording machine
        reproduces its ``RunResult`` bit-identically.
        """
        self._check_machine(machine)
        return self._replay_frames([machine])[0]

    def _check_machine(self, machine: Machine) -> None:
        """Refuse a machine this recording cannot be replayed on."""
        if machine.uses_shared_memory != self.uses_shared_memory:
            raise ValueError(
                "compiled program was recorded on a "
                f"{'shared-memory' if self.uses_shared_memory else 'message-passing'}"
                f" machine; {type(machine).__name__} is not one"
            )
        if machine.params.p < self.p:
            raise ValueError(
                f"machine has {machine.params.p} processors, recorded "
                f"program used {self.p}"
            )
        _check_no_injector(machine, "replay")

    def _replay_frames(self, machines: Sequence[Machine]) -> List[RunResult]:
        """The frame loop of :meth:`replay` and
        :func:`~repro.core.batched.replay_batch`: price every frame once
        for all ``machines`` (one model class) and return machine ``b``'s
        result at index ``b``.

        An observed pass only stamps each frame's phases — freeze (the
        frame is already frozen) = t0..t1, price = t1..t2, deliver (write
        application) = t2..t3 — then emits each machine's spans, metrics
        and ledger rows as one block, machine by machine, from its records
        and the shared stamps; frames priced before a raise are emitted
        too.
        """
        obs = observe_runs("replay")
        stamps: Optional[List[Tuple[float, ...]]] = None if obs is None else []
        records: List[List[SuperstepRecord]] = [[] for _ in machines]
        ledgers = [None] * len(machines)
        price = machines[0]._price_batch
        try:
            for index, (work, msg_b, read_b, write_b) in enumerate(self.frames):
                t0 = _time.perf_counter() if stamps is not None else 0.0
                # every machine's record aliases the same frozen batches,
                # as separate replays of one compilation do
                frame = [
                    SuperstepRecord(
                        index=index,
                        work=work,
                        msg_batch=msg_b,
                        read_batch=read_b,
                        write_batch=write_b,
                    )
                    for _ in machines
                ]
                t1 = _time.perf_counter() if stamps is not None else 0.0
                for record, priced, out in zip(frame, price(machines, frame[0]), records):
                    record.cost, record.breakdown, record.stats = priced
                    out.append(record)
                t2 = _time.perf_counter() if stamps is not None else 0.0
                if write_b.n:
                    for mach in machines:
                        self._apply_writes(mach, write_b)
                if stamps is not None:
                    stamps.append((t0, t1, t2, _time.perf_counter()))
        finally:
            if obs is not None:
                wall_start = stamps[0][0] if stamps else None
                for b, (mach, recs) in enumerate(zip(machines, records)):
                    observe = obs.begin(mach, self.p, wall_start)
                    for record, stamp in zip(recs, stamps):
                        observe(record, *stamp)
                    ledgers[b] = obs.end(len(stamps))
        return [
            RunResult(
                params=mach.params, records=recs, results=list(self.results),
                ledger=ledger,
            )
            for mach, recs, ledger in zip(machines, records, ledgers)
        ]

    @staticmethod
    def _apply_writes(machine: Machine, wb: RequestBatch) -> None:
        mem = machine.shared_memory
        if isinstance(mem, DenseSharedMemory) and isinstance(wb.addr, np.ndarray):
            mem.put(wb.addr, wb.value)
        else:
            vals = wb.value
            for i, a in enumerate(wb.addr_list()):
                mem[a] = None if vals is None else vals[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledProgram(p={self.p}, supersteps={len(self.frames)}, "
            f"shared_memory={self.uses_shared_memory})"
        )


def compile_program(
    machine: Machine,
    program,
    *,
    args: Tuple = (),
    per_proc_args: Optional[Sequence[Tuple]] = None,
    nprocs: Optional[int] = None,
) -> CompiledProgram:
    """Record ``program`` on ``machine`` and return the compiled schedule
    (discarding the recording run's result; use :meth:`CompiledProgram.record`
    to keep it)."""
    compiled, _ = CompiledProgram.record(
        machine, program, args=args, per_proc_args=per_proc_args, nprocs=nprocs
    )
    return compiled
