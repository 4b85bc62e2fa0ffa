"""Bulk-synchronous SPMD execution engine.

Programs are written in an mpi4py-like SPMD style: a *program* is a Python
generator function ``program(ctx, ...)`` executed once per processor.  Each
``yield`` is a barrier — the end of a BSP superstep / QSM phase.  Between
yields the program calls methods on its :class:`Proc` context:

* ``ctx.send(dest, payload, size=1, slot=None)`` — point-to-point message
  (BSP machines).  ``slot`` is the injection time-slot within the superstep;
  globally-limited machines price slot congestion, locally-limited machines
  ignore slots.
* ``ctx.send_many(dests, payloads=..., sizes=..., slots=...)`` — the batch
  form: one call registers a whole array of messages into the engine's
  columnar buffers (no per-message Python objects).  Use it whenever a
  processor emits more than a handful of messages per superstep.
* ``ctx.read(addr)`` / ``ctx.write(addr, value)`` — shared memory (QSM
  machines).  A read returns a :class:`ReadHandle` whose ``.value`` becomes
  available only after the next ``yield`` (the QSM rule).  The batch forms
  ``ctx.read_many(addrs)`` / ``ctx.write_many(addrs, values)`` register
  arrays of requests; ``read_many`` returns one :class:`BatchReadHandle`
  whose ``.values`` resolve at the barrier.
* ``ctx.work(amount)`` — charge local computation.
* ``ctx.inbox`` — messages delivered at the last barrier (a list-like
  :class:`InboxView`; iterate for :class:`Message` objects, or use its
  ``.payloads`` / ``.srcs`` columns to skip object materialization).

At every barrier the engine freezes the superstep into a columnar
:class:`~repro.core.events.SuperstepRecord`, asks the concrete machine to
price it, delivers messages, resolves read handles and applies writes.  The
run's total time is the sum of superstep costs.  Pricing and delivery are
vectorized over the record's columns; scalar and batch APIs produce
identical records, costs and stats (a contract pinned by
``tests/test_batch_equivalence.py``).

Timing note (globally-limited machines)
---------------------------------------
The paper defines the superstep charge ``c_m = sum_t f_m(m_t)``; since
``f_m(0) = 0``, a literal reading would make idle time-slots free, letting a
schedule stretch over an arbitrarily long span at no cost — contradicting the
analysis of Section 6, which counts the *span* of the injection schedule as
elapsed time ("the total number of sending steps required ... is at most
``max((1+eps)n/m, x_bar)``").  The engine therefore prices communication as

.. math:: T_{comm} = \\sum_{t=0}^{span-1} \\max(f_m(m_t), 1)

i.e. every time step elapses at least one unit, and overloaded steps cost
``f_m``.  For gap-free schedules this equals the paper's ``c_m`` exactly; the
literal ``c_m`` is also recorded in ``record.stats['c_m_paper']``.
"""

from __future__ import annotations

import time as _time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.arena import RequestArena, SendArena
from repro.core.events import (
    CostBreakdown,
    Message,
    MessageBatch,
    SuperstepRecord,
    _column_take,
)
from repro.core.kernels import stable_group_order
from repro.core.params import MachineParams
from repro.obs.ledger import active_ledger as _active_ledger
from repro.obs.metrics import active_metrics as _active_metrics
from repro.obs.tracer import active_tracer as _active_tracer

__all__ = [
    "ModelViolation",
    "ProgramError",
    "RunAborted",
    "ReadHandle",
    "BatchReadHandle",
    "InboxView",
    "DenseSharedMemory",
    "Proc",
    "Machine",
    "RunResult",
]

_I64 = np.int64

#: One machine's price for one superstep: ``(cost, breakdown, stats)``.
PriceResult = Tuple[float, CostBreakdown, Dict[str, float]]


class ModelViolation(Exception):
    """The program broke a rule of the machine model (e.g. two injections by
    one processor in the same time slot of a globally-limited machine, or
    concurrent reads *and* writes to one QSM location in a single phase)."""


class ProgramError(Exception):
    """The SPMD program misused the engine API (e.g. reading a
    :class:`ReadHandle` before the barrier that resolves it)."""


class RunAborted(ProgramError):
    """A run was cut short by a watchdog, carrying everything computed so
    far instead of losing it.

    Raised when a run exceeds ``max_supersteps``, the relative wall-clock
    ``max_time`` budget, or the absolute ``deadline`` of
    :meth:`Machine.run`.  Subclasses :class:`ProgramError` so existing
    ``except ProgramError`` handlers keep working.

    Attributes
    ----------
    partial:
        The :class:`RunResult` of every superstep completed before the
        abort (per-processor results are ``None`` for processors that had
        not finished).
    superstep:
        Index of the superstep at which the run was aborted.
    reason:
        Machine-readable cause: ``"max_supersteps"``, ``"max_time"`` or
        ``"deadline"``.
    """

    def __init__(
        self, message: str, *, partial: "RunResult", superstep: int, reason: str
    ) -> None:
        super().__init__(message)
        self.partial = partial
        self.superstep = superstep
        self.reason = reason


def _resolve_deadline(max_time, deadline):
    """Effective absolute monotonic deadline and which budget set it.

    ``max_time`` is relative (seconds from now), ``deadline`` absolute
    (a ``time.monotonic()`` timestamp); whichever expires first wins.
    """
    at = None
    reason = "max_time"
    if max_time is not None:
        at = _time.monotonic() + max_time
    if deadline is not None and (at is None or float(deadline) < at):
        at = float(deadline)
        reason = "deadline"
    return at, reason


def _deadline_message(reason, max_time, index):
    if reason == "deadline":
        return f"run exceeded its absolute deadline at superstep {index}"
    return (
        f"run exceeded the max_time={max_time:g}s wall-clock budget "
        f"at superstep {index}"
    )


_UNRESOLVED = object()


class ReadHandle:
    """Deferred result of a QSM shared-memory read.

    The value is installed by the engine at the barrier; touching ``.value``
    earlier raises :class:`ProgramError`, which is exactly the QSM rule that
    "the value returned by a shared-memory read can only be used in a
    subsequent phase".
    """

    __slots__ = ("_value", "addr")

    def __init__(self, addr: Any) -> None:
        self.addr = addr
        self._value = _UNRESOLVED

    @property
    def value(self) -> Any:
        if self._value is _UNRESOLVED:
            raise ProgramError(
                f"read of {self.addr!r} not yet resolved: QSM read values are "
                "available only after the next phase barrier (yield)"
            )
        return self._value

    @property
    def resolved(self) -> bool:
        return self._value is not _UNRESOLVED

    def _resolve(self, value: Any) -> None:
        self._value = value

    def _resolve_span(self, values: Sequence[Any], start: int, stop: int) -> None:
        self._value = values[start]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = repr(self._value) if self.resolved else "<pending>"
        return f"ReadHandle(addr={self.addr!r}, value={state})"


class BatchReadHandle:
    """Deferred results of a ``ctx.read_many`` batch of QSM reads.

    ``.values`` (a list aligned with the request addresses) becomes
    available after the next barrier, exactly like a scalar
    :class:`ReadHandle`.
    """

    __slots__ = ("_values", "addrs")

    def __init__(self, addrs: Any) -> None:
        self.addrs = addrs
        self._values = _UNRESOLVED

    @property
    def values(self) -> List[Any]:
        if self._values is _UNRESOLVED:
            raise ProgramError(
                "batch read not yet resolved: QSM read values are available "
                "only after the next phase barrier (yield)"
            )
        return self._values

    @property
    def resolved(self) -> bool:
        return self._values is not _UNRESOLVED

    def __len__(self) -> int:
        return len(self.addrs)

    def __getitem__(self, i: int) -> Any:
        return self.values[i]

    def _resolve_span(self, values: Sequence[Any], start: int, stop: int) -> None:
        vals = values[start:stop]
        self._values = vals.tolist() if isinstance(vals, np.ndarray) else list(vals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{len(self.addrs)} values" if self.resolved else "<pending>"
        return f"BatchReadHandle({state})"


class InboxView:
    """List-like view of the messages delivered to one processor.

    Iterating (or indexing) materializes :class:`Message` objects lazily —
    the debuggability contract for existing programs.  The columnar
    accessors ``payloads`` / ``srcs`` / ``sizes`` / ``slots`` skip object
    materialization entirely and are the fast path for batch-style
    programs.
    """

    __slots__ = ("_batch", "_idx", "_objects")

    def __init__(self, batch: MessageBatch, idx: np.ndarray) -> None:
        self._batch = batch
        self._idx = idx
        self._objects: Optional[List[Message]] = None

    # -- list compatibility ----------------------------------------------------
    def __len__(self) -> int:
        return int(self._idx.size)

    def __bool__(self) -> bool:
        return self._idx.size > 0

    def _materialize(self) -> List[Message]:
        if self._objects is None:
            b, pl = self._batch, self._batch.payload
            self._objects = [
                Message(
                    src=int(b.src[i]),
                    dest=int(b.dest[i]),
                    payload=None if pl is None else pl[i],
                    size=int(b.size[i]),
                    slot=int(b.slot[i]),
                    consecutive=bool(b.consecutive[i]),
                )
                for i in self._idx.tolist()
            ]
        return self._objects

    def __iter__(self) -> Iterator[Message]:
        return iter(self._materialize())

    def __getitem__(self, i):
        return self._materialize()[i]

    # -- columnar fast path ----------------------------------------------------
    @property
    def payloads(self):
        """Payload column of the delivered messages (list, or array slice
        when the payloads were sent as an array)."""
        return _column_take(self._batch.payload, self._idx, int(self._idx.size))

    @property
    def srcs(self) -> np.ndarray:
        return self._batch.src[self._idx]

    @property
    def sizes(self) -> np.ndarray:
        return self._batch.size[self._idx]

    @property
    def slots(self) -> np.ndarray:
        return self._batch.slot[self._idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InboxView({len(self)} messages)"


_EMPTY_INBOX = InboxView(MessageBatch.empty(), np.zeros(0, dtype=_I64))


class DenseSharedMemory(MutableMapping):
    """``np.ndarray``-backed shared memory for integer address spaces.

    Install with ``machine.use_dense_memory(size)``.  Integer addresses in
    ``[0, size)`` live in an object-dtype array, so a phase whose requests
    are integer-addressed (``ctx.read_many`` / ``ctx.write_many`` with an
    integer array) resolves with one fancy-indexing operation instead of a
    per-request dict lookup.  Anything else (tuple addresses, out-of-range
    ints) transparently falls back to an overflow dict, and the scalar
    mapping API behaves like the plain dict it replaces — with the one
    documented difference that in-range cells default to ``None`` rather
    than raising ``KeyError`` (matching ``dict.get``, which is how the
    engine reads memory).
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"dense memory size must be >= 1, got {size}")
        self.size = size
        self._cells = np.full(size, None, dtype=object)
        self._overflow: Dict[Any, Any] = {}

    # -- scalar mapping API ----------------------------------------------------
    def _in_range(self, key: Any) -> bool:
        return isinstance(key, (int, np.integer)) and 0 <= key < self.size

    def __getitem__(self, key: Any) -> Any:
        if self._in_range(key):
            return self._cells[key]
        return self._overflow[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        if self._in_range(key):
            self._cells[key] = value
        else:
            self._overflow[key] = value

    def __delitem__(self, key: Any) -> None:
        if self._in_range(key):
            self._cells[key] = None
        else:
            del self._overflow[key]

    def __iter__(self):
        for i in range(self.size):
            if self._cells[i] is not None:
                yield i
        yield from self._overflow

    def __len__(self) -> int:
        return int(np.sum(self._cells != None)) + len(self._overflow)  # noqa: E711

    def get(self, key: Any, default: Any = None) -> Any:
        if self._in_range(key):
            v = self._cells[key]
            return default if v is None else v
        return self._overflow.get(key, default)

    def clear(self) -> None:
        self._cells[:] = None
        self._overflow.clear()

    # -- batch fast path -------------------------------------------------------
    def take(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized ``get`` over an integer address array.

        Out-of-range addresses are detected with one bounds mask; only those
        (rare) entries walk the overflow dict — the in-range majority stays
        a single fancy index either way.
        """
        in_r = (addrs >= 0) & (addrs < self.size)
        if in_r.all():
            return self._cells[addrs]
        out = np.empty(addrs.size, dtype=object)
        out[in_r] = self._cells[addrs[in_r]]
        for i in np.nonzero(~in_r)[0].tolist():
            out[i] = self._overflow.get(int(addrs[i]))
        return out

    def put(self, addrs: np.ndarray, values: Any) -> None:
        """Vectorized ``__setitem__``; duplicate addresses resolve to the
        last value in request order (the engine's Arbitrary rule).

        Same bounds-mask discipline as :meth:`take`: only out-of-range
        entries spill to the overflow dict one by one.
        """
        vals = np.empty(addrs.size, dtype=object)
        vals[:] = list(values) if not isinstance(values, np.ndarray) else values.tolist()
        in_r = (addrs >= 0) & (addrs < self.size)
        if in_r.all():
            self._cells[addrs] = vals
            return
        self._cells[addrs[in_r]] = vals[in_r]
        for i in np.nonzero(~in_r)[0].tolist():
            self._overflow[int(addrs[i])] = vals[i]


def _as_index_array(values: Any, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=_I64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.ndim != 1:
        raise ProgramError(f"{name} must be one-dimensional")
    return arr


class Proc:
    """Per-processor execution context handed to SPMD programs.

    Every operation appends straight into the run's arena set — one
    :class:`~repro.core.arena.SendArena` and two
    :class:`~repro.core.arena.RequestArena` (reads, writes) shared by all
    processors and taken from the machine's arena pool — so the barrier
    freeze is a slice-copy that preserves issue order exactly.
    """

    def __init__(
        self,
        pid: int,
        nprocs: int,
        machine: "Machine",
        arenas: Tuple[SendArena, RequestArena, RequestArena],
    ) -> None:
        self.pid = pid
        self.nprocs = nprocs
        self._machine = machine
        self.inbox: InboxView = _EMPTY_INBOX
        self._work = 0.0
        self._sends, self._reads, self._writes = arenas
        self._next_slot = 0
        self._stagger_k = 0

    # -- engine bookkeeping ---------------------------------------------------
    def _reset_superstep(self) -> None:
        self._work = 0.0
        self._next_slot = 0
        self._stagger_k = 0

    def _bump_slot(self, slot: int, size: int) -> None:
        self._next_slot = max(self._next_slot, slot + size)

    def stagger_slot(self, k: Optional[int] = None) -> Optional[int]:
        """Injection slot for this processor's ``k``-th *staggered* request.

        This is the grouping emulation that opens Section 4 of the paper:
        the ``p`` processors are partitioned into ``ceil(p/m)`` groups of at
        most ``m``, each communication round is subdivided into one sub-slot
        per group, and a processor's ``k``-th request goes to sub-slot
        ``k * ceil(p/m) + (pid // m)``.  As long as every processor issues at
        most one request per round, no slot ever exceeds ``m`` injections,
        so a QSM(g)/BSP(g) program transliterates onto the globally-limited
        machine without overload penalty.

        ``k`` defaults to an internal per-superstep counter.  On machines
        without an aggregate bandwidth parameter the result is ``None``
        (slots are ignored there anyway).
        """
        if k is None:
            k = self._stagger_k
            self._stagger_k += 1
        m = self._machine.params.m
        if m is None:
            return None
        groups = -(-self.nprocs // m)  # ceil(p/m)
        return k * groups + self.pid // m

    def stagger_slots(self, count: int) -> Optional[np.ndarray]:
        """Vectorized :meth:`stagger_slot`: slots for this processor's next
        ``count`` staggered requests (or ``None`` on machines without an
        aggregate bandwidth parameter)."""
        k0 = self._stagger_k
        self._stagger_k += count
        m = self._machine.params.m
        if m is None:
            return None
        groups = -(-self.nprocs // m)
        return (k0 + np.arange(count, dtype=_I64)) * groups + self.pid // m

    # -- program API ------------------------------------------------------------
    def work(self, amount: float = 1.0) -> None:
        """Charge ``amount`` units of local computation this superstep."""
        if amount < 0:
            raise ProgramError(f"work amount must be >= 0, got {amount}")
        self._work += amount

    def send(
        self,
        dest: int,
        payload: Any = None,
        *,
        size: int = 1,
        slot: Optional[int] = None,
        consecutive: bool = True,
    ) -> None:
        """Send a message of ``size`` flits to processor ``dest``.

        ``slot`` pins the injection time-slot of the first flit within this
        superstep; by default flits are injected in the processor's next free
        slots.  Locally-limited machines ignore slots entirely.
        """
        if self._machine.uses_shared_memory:
            raise ProgramError(
                f"{type(self._machine).__name__} is a shared-memory machine; "
                "use read()/write(), not send()"
            )
        if not (0 <= dest < self.nprocs):
            raise ProgramError(
                f"destination {dest} out of range for {self.nprocs} processors"
            )
        if size < 1:
            raise ValueError(f"message size must be >= 1, got {size}")
        if slot is None:
            slot = self._next_slot
            self._next_slot += size
        else:
            if slot < 0:
                raise ValueError(f"slot must be >= 0, got {slot}")
            self._bump_slot(slot, size)
        self._sends.append_scalar(self.pid, dest, size, slot, consecutive, payload)

    def send_many(
        self,
        dests: Any,
        payloads: Any = None,
        *,
        sizes: Any = None,
        slots: Any = None,
        consecutive: bool = True,
    ) -> None:
        """Batch form of :meth:`send`: register a whole array of messages.

        ``dests`` is an integer array-like; ``sizes`` defaults to all-unit,
        ``slots`` to the processor's next free slots (exactly what a loop of
        scalar ``send`` calls would have assigned), and ``payloads`` to all
        ``None``.  Passing a NumPy array as ``payloads`` keeps the column
        array-backed end to end — receivers can read it back via
        ``ctx.receive().payloads`` without materializing any objects.
        """
        if self._machine.uses_shared_memory:
            raise ProgramError(
                f"{type(self._machine).__name__} is a shared-memory machine; "
                "use read()/write(), not send()"
            )
        dest = _as_index_array(dests, "dests")
        n = dest.size
        if n == 0:
            return
        if dest.min() < 0 or dest.max() >= self.nprocs:
            bad = dest[(dest < 0) | (dest >= self.nprocs)][0]
            raise ProgramError(
                f"destination {bad} out of range for {self.nprocs} processors"
            )
        if sizes is None:
            size = None  # all-unit
            unit = True
        else:
            size = _as_index_array(sizes, "sizes")
            if size.size != n:
                raise ProgramError(f"sizes has {size.size} entries for {n} messages")
            if size.min() < 1:
                raise ValueError(f"message size must be >= 1, got {int(size.min())}")
            unit = bool(size.max() == 1)
        if slots is None:
            if unit:
                slot = self._next_slot + np.arange(n, dtype=_I64)
                self._next_slot += n
            else:
                cs = np.cumsum(size)
                slot = self._next_slot + cs - size
                self._next_slot += int(cs[-1])
        else:
            slot = _as_index_array(slots, "slots")
            if slot.size != n:
                raise ProgramError(f"slots has {slot.size} entries for {n} messages")
            if slot.min() < 0:
                raise ValueError(f"slot must be >= 0, got {int(slot.min())}")
            if size is None:
                self._next_slot = max(self._next_slot, int(slot.max()) + 1)
            else:
                self._next_slot = max(self._next_slot, int((slot + size).max()))
        if payloads is not None and len(payloads) != n:
            raise ProgramError(f"payloads has {len(payloads)} entries for {n} messages")
        self._sends.append_batch(self.pid, dest, size, slot, bool(consecutive), payloads)

    def _require_shared_memory(self) -> None:
        if not self._machine.uses_shared_memory:
            raise ProgramError(
                f"{type(self._machine).__name__} is a message-passing machine; "
                "use send()/inbox, not read()/write()"
            )

    def read(self, addr: Any, *, slot: Optional[int] = None) -> ReadHandle:
        """Issue a QSM shared-memory read; value available after the barrier."""
        self._require_shared_memory()
        if slot is None:
            slot = self._next_slot
            self._next_slot = slot + 1
        elif slot >= self._next_slot:
            self._next_slot = slot + 1
        handle = ReadHandle(addr)
        self._reads.append_scalar_read(self.pid, addr, slot, handle)
        return handle

    def write(self, addr: Any, value: Any, *, slot: Optional[int] = None) -> None:
        """Issue a QSM shared-memory write, visible from the next phase."""
        self._require_shared_memory()
        if slot is None:
            slot = self._next_slot
            self._next_slot = slot + 1
        elif slot >= self._next_slot:
            self._next_slot = slot + 1
        self._writes.append_scalar_write(self.pid, addr, slot, value)

    def _request_slots_for(self, n: int, slots: Any) -> np.ndarray:
        if slots is None:
            slot = self._next_slot + np.arange(n, dtype=_I64)
            self._next_slot += n
            return slot
        slot = _as_index_array(slots, "slots")
        if slot.size != n:
            raise ProgramError(f"slots has {slot.size} entries for {n} requests")
        if slot.min() < 0:
            raise ValueError(f"slot must be >= 0, got {int(slot.min())}")
        self._next_slot = max(self._next_slot, int(slot.max()) + 1)
        return slot

    @staticmethod
    def _addr_column(addrs: Any) -> Any:
        """Keep integer address batches as int64 arrays (dense-memory fast
        path); anything else becomes a plain list."""
        if isinstance(addrs, np.ndarray) and addrs.dtype.kind in "iu":
            return addrs.astype(_I64, copy=False)
        addr_list = list(addrs)
        if addr_list and all(isinstance(a, (int, np.integer)) for a in addr_list):
            return np.asarray(addr_list, dtype=_I64)
        return addr_list

    def read_many(self, addrs: Any, *, slots: Any = None) -> BatchReadHandle:
        """Batch form of :meth:`read`: one call, one handle for all values.

        Returns a :class:`BatchReadHandle`; ``handle.values[i]`` is the
        value at ``addrs[i]``, available after the next barrier.
        """
        self._require_shared_memory()
        addr = self._addr_column(addrs)
        n = len(addr)
        handle = BatchReadHandle(addr)
        if n == 0:
            handle._values = []
            return handle
        slot = self._request_slots_for(n, slots)
        self._reads.append_batch_read(self.pid, addr, slot, handle)
        return handle

    def write_many(self, addrs: Any, values: Any, *, slots: Any = None) -> None:
        """Batch form of :meth:`write`: register a whole array of writes."""
        self._require_shared_memory()
        addr = self._addr_column(addrs)
        n = len(addr)
        if n == 0:
            return
        if len(values) != n:
            raise ProgramError(f"values has {len(values)} entries for {n} writes")
        slot = self._request_slots_for(n, slots)
        value = values if isinstance(values, (list, np.ndarray)) else list(values)
        self._writes.append_batch_write(self.pid, addr, slot, value)

    def receive(self) -> InboxView:
        """Return and clear the messages delivered at the last barrier.

        The result is list-like (iterate for :class:`Message` objects) and
        also exposes columnar accessors — ``.payloads``, ``.srcs``,
        ``.sizes`` — that skip object materialization.
        """
        msgs, self.inbox = self.inbox, _EMPTY_INBOX
        return msgs


@dataclass
class RunResult:
    """Outcome of running one SPMD program on a machine.

    The aggregate properties (``time``, ``total_messages``, ``total_flits``)
    are memoized on first access — ``records`` is immutable once ``run()``
    returns, so the full scans happen at most once per result.
    """

    params: MachineParams
    records: List[SuperstepRecord]
    results: List[Any]
    #: per-superstep load rows recorded for this run when a
    #: :class:`~repro.obs.ledger.LoadLedger` was installed (else ``None``)
    ledger: Optional[Any] = None

    @cached_property
    def time(self) -> float:
        """Total model time: sum of superstep costs (memoized)."""
        return sum(r.cost for r in self.records)

    @property
    def supersteps(self) -> int:
        return len(self.records)

    @cached_property
    def total_messages(self) -> int:
        return sum(r.n_messages for r in self.records)

    @cached_property
    def total_flits(self) -> int:
        return sum(r.total_flits for r in self.records)

    def stat_sum(self, key: str) -> float:
        """Sum of a per-superstep stat across the run (missing = 0)."""
        return sum(r.stats.get(key, 0.0) for r in self.records)

    def stat_max(self, key: str) -> float:
        """Max of a per-superstep stat across the run (missing = 0)."""
        return max((r.stats.get(key, 0.0) for r in self.records), default=0.0)

    def dominant_components(self) -> Dict[str, float]:
        """Total time attributed to each cost component (by superstep
        dominance), useful for the benchmark harness's decompositions."""
        out: Dict[str, float] = {}
        for r in self.records:
            out[r.breakdown.dominant()] = out.get(r.breakdown.dominant(), 0.0) + r.cost
        return out


def _addr_group_stats(addr_col: Any) -> Tuple[int, Any]:
    """``(max multiplicity, distinct keys)`` of an address column.

    Integer-array columns use ``np.unique``; object columns use ``Counter``
    (a C-speed group-by) — both replace the historical per-request Python
    dict loop.
    """
    if isinstance(addr_col, np.ndarray):
        uniq, counts = np.unique(addr_col, return_counts=True)
        return int(counts.max()) if counts.size else 0, uniq
    c = Counter(addr_col)
    return (max(c.values()) if c else 0), c.keys()


def _common_key(keys_a: Any, keys_b: Any) -> Optional[Any]:
    """Any address present in both key collections, or ``None``."""
    if isinstance(keys_a, np.ndarray) and isinstance(keys_b, np.ndarray):
        both = np.intersect1d(keys_a, keys_b)
        return int(both[0]) if both.size else None
    set_a = set(keys_a.tolist()) if isinstance(keys_a, np.ndarray) else set(keys_a)
    set_b = set(keys_b.tolist()) if isinstance(keys_b, np.ndarray) else set(keys_b)
    both = set_a & set_b
    return next(iter(both)) if both else None


class Machine:
    """Abstract bulk-synchronous machine.

    Concrete machines (BSP(g), BSP(m), QSM(g), QSM(m), self-scheduling
    BSP(m), ...) implement :meth:`_price_batch`, or :meth:`_price` behind
    its default, and declare whether they expose shared memory.  The
    engine loop lives here.
    """

    #: True for QSM machines, False for BSP machines.
    uses_shared_memory: bool = False
    #: True when the machine enforces one injection per processor per slot.
    slot_limited: bool = False

    def __init__(self, params: MachineParams) -> None:
        self.params = params
        self.shared_memory: MutableMapping[Any, Any] = {}
        #: Optional :class:`~repro.faults.FaultInjector`; ``None`` (the
        #: default) keeps the engine on the zero-overhead fault-free path.
        self.fault_injector: Optional[Any] = None
        #: Free arena sets ``(sends, reads, writes)``.  A run takes one and
        #: returns it when it ends, so reruns reuse grown capacity (steady
        #: state allocates nothing) and a run nested inside another run's
        #: superstep simply takes a second set.
        self._arena_pool: List[Tuple[SendArena, RequestArena, RequestArena]] = []

    def inject_faults(self, plan: Any) -> Any:
        """Attach a fault injector built from ``plan`` (a
        :class:`~repro.faults.FaultPlan`, or an existing injector) and
        return it.  Pass ``None`` to detach."""
        if plan is None:
            self.fault_injector = None
            return None
        if hasattr(plan, "apply"):
            self.fault_injector = plan
        else:
            from repro.faults.plan import FaultInjector

            self.fault_injector = FaultInjector(plan)
        return self.fault_injector

    def use_dense_memory(self, size: int) -> DenseSharedMemory:
        """Back the shared memory with a dense object array over the integer
        address space ``[0, size)`` — integer-addressed batch reads/writes
        then resolve via fancy indexing.  Returns the installed memory."""
        self.shared_memory = DenseSharedMemory(size)
        return self.shared_memory

    # ------------------------------------------------------------------
    # Hooks for concrete machines
    # ------------------------------------------------------------------
    @staticmethod
    def _price_batch(
        machines: Sequence["Machine"], record: SuperstepRecord
    ) -> List[PriceResult]:
        """Price one frozen superstep on each of ``machines`` (all of one
        model class): one ``(cost, breakdown, stats)`` per machine.

        The only pricing entry point: the barrier, compiled replay and the
        fault audit call it with one machine, batched replay with many.
        The five paper models bind a column pricer from
        :mod:`repro.models.pricing`; this default applies each machine's
        own :meth:`_price`.
        """
        return [mach._price(record) for mach in machines]

    def _price(self, record: SuperstepRecord) -> PriceResult:
        """Per-machine pricing formula behind the default
        :meth:`_price_batch`; a model that binds its own batch pricer
        never calls it."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared pricing helpers (all vectorized over the record's columns)
    # ------------------------------------------------------------------
    def _flit_slots(self, record: SuperstepRecord) -> np.ndarray:
        """Expand every message into per-flit injection slots.

        Also enforces, for slot-limited machines, that no processor injects
        two flits in the same slot ("each processor may initiate at most one
        message send" per step).

        Vectorized (see docs/performance.md): unit-size messages — the
        overwhelmingly common case — reuse the record's slot column with no
        copy; multi-flit messages expand via ``repeat``/``cumsum``; the
        slot-exclusivity check is duplicate detection on the ``(src, slot)``
        pairs.
        """
        batch = record.msg_batch
        if not batch.n:
            return np.zeros(0, dtype=_I64)
        flit_src, flit_slot = batch.flit_expansion()
        if self.slot_limited:
            self._check_slot_exclusive(
                flit_src, flit_slot, "injects two flits", f"superstep {record.index}"
            )
        return flit_slot

    @staticmethod
    def _check_slot_exclusive(
        pids: np.ndarray, slots: np.ndarray, verb: str, where: str
    ) -> None:
        """Raise :class:`ModelViolation` if any ``(pid, slot)`` pair repeats."""
        if slots.size < 2:
            return
        key = pids * (int(slots.max()) + 1) + slots
        order = np.sort(key)
        dup = np.nonzero(order[1:] == order[:-1])[0]
        if dup.size:
            k = int(order[dup[0]])
            span = int(slots.max()) + 1
            raise ModelViolation(f"processor {k // span} {verb} at slot {k % span} in {where}")

    def _request_slots(self, record: SuperstepRecord) -> np.ndarray:
        """Injection slots of all shared-memory requests (QSM machines)."""
        rb, wb = record.read_batch, record.write_batch
        if rb.n and wb.n:
            slots = np.concatenate([rb.slot, wb.slot])
            pids = np.concatenate([rb.pid, wb.pid])
        elif rb.n:
            slots, pids = rb.slot, rb.pid
        elif wb.n:
            slots, pids = wb.slot, wb.pid
        else:
            return np.zeros(0, dtype=_I64)
        if self.slot_limited:
            self._check_slot_exclusive(
                pids,
                slots,
                "issues two shared-memory requests",
                f"phase {record.index}",
            )
        return slots

    @staticmethod
    def _max_per_proc_sends_recvs(record: SuperstepRecord, p: int) -> Tuple[int, int]:
        """(max flits sent by one proc, max flits received by one proc)."""
        batch = record.msg_batch
        if not batch.n:
            return 0, 0
        s = np.bincount(batch.src, weights=batch.size)
        r = np.bincount(batch.dest, weights=batch.size)
        return int(s.max()), int(r.max())

    def _qsm_h(self, record: SuperstepRecord) -> int:
        """QSM ``h = max(1, max_i(r_i, w_i))``."""
        most = 0
        rb, wb = record.read_batch, record.write_batch
        if rb.n:
            most = int(np.bincount(rb.pid).max())
        if wb.n:
            most = max(most, int(np.bincount(wb.pid).max()))
        return max(1, most)

    def _qsm_contention(self, record: SuperstepRecord) -> int:
        """QSM maximum contention ``kappa``: max over locations of
        (#readers of x, #writers of x).  Also enforces the QSM rule that a
        location may see concurrent reads or concurrent writes in a phase,
        but not both."""
        rb, wb = record.read_batch, record.write_batch
        r_max = w_max = 0
        r_keys = w_keys = None
        if rb.n:
            r_max, r_keys = _addr_group_stats(rb.addr)
        if wb.n:
            w_max, w_keys = _addr_group_stats(wb.addr)
        if r_keys is not None and w_keys is not None:
            addr = _common_key(r_keys, w_keys)
            if addr is not None:
                raise ModelViolation(
                    f"location {addr!r} is both read and written in phase "
                    f"{record.index} (QSM forbids mixed concurrent access)"
                )
        return max(r_max, w_max)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: Callable[..., Any],
        *,
        args: Tuple = (),
        per_proc_args: Optional[Sequence[Tuple]] = None,
        nprocs: Optional[int] = None,
        max_supersteps: int = 1_000_000,
        max_time: Optional[float] = None,
        deadline: Optional[float] = None,
        audit: bool = False,
    ) -> RunResult:
        """Execute ``program`` SPMD-style on all processors.

        Parameters
        ----------
        program:
            A generator function ``program(ctx, *args)``; each ``yield`` is a
            barrier.  A plain function is treated as a one-superstep program
            whose return value is the processor's result.
        args:
            Extra positional arguments passed to every processor.
        per_proc_args:
            Optional per-processor argument tuples (length ``p``), appended
            after ``args``.
        nprocs:
            Run on a prefix of processors (defaults to ``params.p``); the
            machine is still priced as a ``p``-processor machine.
        max_supersteps:
            Safety valve against non-terminating programs; exceeding it
            raises :class:`RunAborted` carrying the partial result.
        max_time:
            Optional wall-clock budget in seconds.  A run that is still
            going when the budget expires raises :class:`RunAborted` with
            everything computed so far in ``exc.partial``.
        deadline:
            Optional *absolute* ``time.monotonic()`` timestamp (the serving
            path's per-request deadline).  Combines with ``max_time`` —
            whichever expires first wins, and ``RunAborted.reason`` names
            it.  An already-expired deadline aborts before superstep 0:
            the check runs before program construction, so not even a
            plain-function program's body executes.
        audit:
            Debug mode: after every barrier, re-derive the superstep's
            price and check delivery invariants (flit conservation,
            engine-vs-evaluator cost reconciliation) via
            :mod:`repro.faults.audit`; violations raise
            :class:`~repro.faults.audit.AuditViolation`.

        Returns
        -------
        RunResult
            Total time, per-superstep records, and per-processor results.

        Notes
        -----
        When a fault injector is attached (:meth:`inject_faults`), the
        machine still *prices* the sent batch — a dropped flit was injected
        and counts toward the slot load ``m_t`` — but *delivers* the
        injector's faulted batch.  Without an injector this hook is a
        single ``None`` check per superstep.
        """
        p = self.params.p if nprocs is None else nprocs
        if not (1 <= p <= self.params.p):
            raise ValueError(f"nprocs must be in [1, {self.params.p}], got {p}")
        if per_proc_args is not None and len(per_proc_args) != p:
            raise ValueError(
                f"per_proc_args has {len(per_proc_args)} entries for {p} processors"
            )

        # resolve the wall-clock budget(s) up front: an already-expired
        # deadline must abort before superstep 0 — and in particular before
        # program construction below, because plain-function programs
        # execute their whole body there, not in _run_loop
        deadline_at, deadline_reason = _resolve_deadline(max_time, deadline)
        if deadline_at is not None and _time.monotonic() > deadline_at:
            raise RunAborted(
                _deadline_message(deadline_reason, max_time, 0),
                partial=RunResult(params=self.params, records=[], results=[None] * p),
                superstep=0,
                reason=deadline_reason,
            )

        pool = self._arena_pool
        try:  # pop-or-create, safe against runs racing on other threads
            arenas = pool.pop()
        except IndexError:
            arenas = (SendArena(), RequestArena(), RequestArena())
        for arena in arenas:
            arena.reset()
        # procs hold the arenas from construction on: plain-function
        # programs execute (and send) inside the loop below
        procs = [Proc(pid, p, self, arenas) for pid in range(p)]
        records: List[SuperstepRecord] = []
        try:
            gens: List[Optional[Generator]] = []
            results: List[Any] = [None] * p
            for pid, proc in enumerate(procs):
                extra = tuple(per_proc_args[pid]) if per_proc_args is not None else ()
                out = program(proc, *args, *extra)
                if hasattr(out, "__next__"):
                    gens.append(out)
                else:
                    gens.append(None)
                    results[pid] = out

            alive = [g is not None for g in gens]
            injector = self.fault_injector
            auditor = None
            if audit:
                from repro.faults.audit import audit_record as auditor
            # observability: one module-global read per run; spans/metrics
            # only record already-priced costs, so model times stay
            # bit-identical
            tracer = _active_tracer()
            mreg = _active_metrics()
            ledger = _active_ledger()
            observe = run_span = None
            ledger_start = 0
            if tracer is not None or mreg is not None or ledger is not None:
                from repro.obs.instrument import make_superstep_observer

                if tracer is not None:
                    run_span = tracer.begin(
                        "run", cat="engine", track="machine",
                        machine=type(self).__name__, p=p,
                        m=self.params.m, L=self.params.L, g=self.params.g,
                    )
                    run_span.model_start = tracer.model_clock
                if ledger is not None:
                    ledger_start = ledger.begin_run(type(self).__name__, self.params)
                observe = make_superstep_observer(tracer, mreg, self, p, run_span, ledger=ledger)
            try:
                self._run_loop(
                    procs, gens, results, records, alive, p,
                    max_supersteps, max_time, injector, auditor, deadline_at,
                    observe, arenas, deadline_reason,
                )
            finally:
                if run_span is not None:
                    tracer.end(
                        run_span,
                        model_dur=tracer.model_clock - run_span.model_start,
                        supersteps=len(records),
                    )
        finally:
            pool.append(arenas)
        return RunResult(
            params=self.params, records=records, results=results,
            ledger=ledger.view(ledger_start) if ledger is not None else None,
        )

    def _run_loop(
        self,
        procs,
        gens,
        results,
        records,
        alive,
        p,
        max_supersteps,
        max_time,
        injector,
        auditor,
        deadline,
        observe,
        arenas,
        deadline_reason="max_time",
    ) -> None:
        """The barrier loop of :meth:`run` (split out so the run-level trace
        span can close on every exit path); each superstep record is frozen
        from the run's ``arenas``."""
        send_a, read_a, write_a = arenas
        index = 0
        first = True
        while True:
            if deadline is not None and _time.monotonic() > deadline:
                raise RunAborted(
                    _deadline_message(deadline_reason, max_time, index),
                    partial=RunResult(params=self.params, records=records, results=results),
                    superstep=index,
                    reason=deadline_reason,
                )
            halted = injector.halted(index) if injector is not None else None
            any_advanced = False
            for pid, gen in enumerate(gens):
                if gen is None or not alive[pid]:
                    continue
                any_advanced = True
                if halted is not None and pid in halted:
                    continue  # stalled/crashed: alive but frozen this superstep
                try:
                    next(gen)
                except StopIteration as stop:
                    results[pid] = stop.value
                    alive[pid] = False
            if not any_advanced and not first:
                break
            # observability phase stamps (wall clock only, never pricing):
            # freeze = t0..t1, price = t1..t2, deliver (incl. fault
            # injection + audit) = t2..end — skipped entirely when disabled
            t0 = _time.perf_counter() if observe is not None else 0.0
            record = SuperstepRecord(
                index=index,
                work=[proc._work for proc in procs],
                msg_batch=send_a.freeze(),
                read_batch=read_a.freeze(with_values=False),
                write_batch=write_a.freeze(with_values=True),
            )
            send_a.reset()
            read_a.reset()
            write_a.reset()
            still_running = any(alive)
            if not record.is_empty or still_running or first:
                t1 = _time.perf_counter() if observe is not None else 0.0
                cost, breakdown, stats = self._price_batch([self], record)[0]
                record.cost = cost
                record.breakdown = breakdown
                record.stats = stats
                records.append(record)
                t2 = _time.perf_counter() if observe is not None else 0.0
                delivered = None
                if injector is not None:
                    delivered, fault_stats = injector.apply(record.msg_batch, index, p)
                    if fault_stats:
                        record.stats.update(fault_stats)
                self._deliver(record, procs, msg_batch=delivered)
                if auditor is not None:
                    auditor(self, record, procs, delivered)
                if observe is not None:
                    observe(record, t0, t1, t2, _time.perf_counter())
            index += 1
            first = False
            for proc in procs:
                proc._reset_superstep()
            if not still_running:
                break
            if index >= max_supersteps:
                raise RunAborted(
                    f"program exceeded {max_supersteps} supersteps without finishing",
                    partial=RunResult(params=self.params, records=records, results=results),
                    superstep=index,
                    reason="max_supersteps",
                )

    def _deliver(
        self,
        record: SuperstepRecord,
        procs: List[Proc],
        msg_batch: Optional[MessageBatch] = None,
    ) -> None:
        """Deliver messages, resolve reads against pre-phase memory, then
        apply writes (Arbitrary rule: the last write request in record order
        wins — a legitimate instance of the model's arbitrary resolution).

        All three steps are columnar: delivery groups the destination
        column with one combined-key sort (the stable permutation of
        ``np.argsort(dest, kind="stable")`` computed ~7× faster, see
        :func:`repro.core.kernels.stable_group_order`) and hands each
        processor an :class:`InboxView` slice; reads resolve against the
        memory in one pass (one fancy-indexing operation on
        :class:`DenseSharedMemory`); writes apply in record order.

        ``msg_batch`` overrides the record's sent batch with the batch as
        transformed by a fault injector (drops/duplicates/reorders); the
        record itself — and hence the pricing — always reflects what was
        *sent*.
        """
        for proc in procs:
            proc.inbox = _EMPTY_INBOX
        batch = record.msg_batch if msg_batch is None else msg_batch
        if batch.n:
            nprocs = len(procs)
            counts = np.bincount(batch.dest, minlength=nprocs)
            order = stable_group_order(batch.dest, int(counts.size) - 1)
            bounds = np.empty(counts.size + 1, dtype=_I64)
            bounds[0] = 0
            np.cumsum(counts, out=bounds[1:])
            for d in np.nonzero(counts)[0].tolist():
                if d < nprocs:
                    procs[d].inbox = InboxView(batch, order[bounds[d] : bounds[d + 1]])
        rb = record.read_batch
        mem = self.shared_memory
        if rb.n:
            addrs = rb.addr
            if isinstance(mem, DenseSharedMemory) and isinstance(addrs, np.ndarray):
                values: Any = mem.take(addrs)
            else:
                get = mem.get
                values = [get(a) for a in rb.addr_list()]
            for handle, start, stop in rb.handles:
                handle._resolve_span(values, start, stop)
        wb = record.write_batch
        if wb.n:
            addrs = wb.addr
            if isinstance(mem, DenseSharedMemory) and isinstance(addrs, np.ndarray):
                mem.put(addrs, wb.value)
            else:
                vals = wb.value
                for i, a in enumerate(wb.addr_list()):
                    mem[a] = None if vals is None else vals[i]

    # ------------------------------------------------------------------
    def time(self, program: Callable[..., Any], **kwargs) -> float:
        """Convenience: run and return only the total model time."""
        return self.run(program, **kwargs).time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.params})"
