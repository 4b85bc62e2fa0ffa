"""Arena freeze against an independent, row-at-a-time reference.

The superstep record is frozen from machine-owned arenas
(:mod:`repro.core.arena`): scalar calls merge into runs, batch calls land
as whole column chunks, and appends that arrive out of pid order are
repaired with a stable sort at freeze time.  The reference here shares
none of that machinery: every issued row becomes its own one-row
:class:`MessageBatch` / :class:`RequestBatch`, the rows are stably sorted
pid-major, and :meth:`MessageBatch.concat` / :meth:`RequestBatch.concat`
assemble them.  Hypothesis drives random per-pid operation sequences —
scalar and batch sends with ``None``, list or array payloads, explicit and
automatic slots, multi-flit sizes, integer and non-integer QSM addresses,
out-of-pid-order appends — and the two must agree column for column,
including each payload/address column's representation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BSPg, MachineParams, QSMg
from repro.core.arena import RequestArena, SendArena
from repro.core.events import MessageBatch, RequestBatch
from tests.golden_records import canon_column

_I64 = np.int64

# ----------------------------------------------------------------------
# the reference: one-row chunks, pid-major, concatenated
# ----------------------------------------------------------------------


def _one_row_msg(pid, dest, size, slot, consec, payload_col):
    return MessageBatch(
        np.array([pid], dtype=_I64),
        np.array([dest], dtype=_I64),
        np.array([size], dtype=_I64),
        np.array([slot], dtype=_I64),
        np.array([consec], dtype=bool),
        payload_col,
    )


def _one_row_req(pid, addr_col, slot, value_col):
    return RequestBatch(
        np.array([pid], dtype=_I64), addr_col, np.array([slot], dtype=_I64), value_col, []
    )


def _scalar_addr_col(addr):
    return np.array([addr], dtype=_I64) if isinstance(addr, int) else [addr]


def _row_of(col, i):
    """Row ``i`` of a batch column as a one-row column of the same kind."""
    if col is None:
        return None
    if isinstance(col, np.ndarray):
        return col[i : i + 1]
    return [col[i]]


def _pid_major(rows):
    """Stable pid-major order of ``(pid, chunk, handle_key)`` rows."""
    return sorted(rows, key=lambda row: row[0])


def _reference_msgs(rows):
    return MessageBatch.concat([chunk for _, chunk, _ in _pid_major(rows)])


def _reference_reqs(rows):
    ordered = _pid_major(rows)
    spans = {}
    for pos, (_, _, key) in enumerate(ordered):
        if key is not None:
            start, _ = spans.get(key, (pos, pos))
            spans[key] = (start, pos + 1)
    return RequestBatch.concat([chunk for _, chunk, _ in ordered]), spans


def _assert_msgs_equal(got, want):
    for col in ("src", "dest", "size", "slot", "consecutive"):
        a, b = getattr(got, col), getattr(want, col)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), col
    assert canon_column(got.payload) == canon_column(want.payload)


def _assert_reqs_equal(got, want, want_spans, key_of):
    for col in ("pid", "slot"):
        a, b = getattr(got, col), getattr(want, col)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), col
    assert canon_column(got.addr) == canon_column(want.addr)
    assert canon_column(got.value) == canon_column(want.value)
    assert {key_of(h): (s, e) for h, s, e in got.handles} == want_spans


# ----------------------------------------------------------------------
# operation strategies
# ----------------------------------------------------------------------
_slot = st.one_of(st.none(), st.integers(0, 12))
_payload = st.one_of(st.none(), st.integers(-5, 5), st.tuples(st.just("t"), st.integers(0, 5)))
_addr = st.one_of(st.integers(0, 15), st.tuples(st.just("k"), st.integers(0, 15)))

_send = st.tuples(st.just("send"), st.integers(0, 7), st.integers(1, 3), _slot, _payload,
                  st.booleans())
_send_many = st.tuples(
    st.just("send_many"),
    st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3), st.integers(0, 12)),
             min_size=1, max_size=4),
    st.booleans(),  # explicit sizes
    st.booleans(),  # explicit slots
    st.sampled_from(["none", "list", "array"]),
    st.booleans(),  # consecutive
)
_read = st.tuples(st.just("read"), _addr, _slot)
_write = st.tuples(st.just("write"), _addr, _slot, st.integers(-9, 9))
_many = st.tuples(
    st.sampled_from(["read_many", "write_many"]),
    st.lists(st.tuples(_addr, st.integers(0, 12)), min_size=1, max_size=4),
    st.sampled_from(["array", "intlist", "list"]),  # address column kind
    st.booleans(),  # explicit slots
    st.sampled_from(["list", "array"]),  # write value column kind
)


def _addr_column(rows, kind):
    """The address argument a program passes, and the column the engine
    keeps for it (int64 array when every address is an integer)."""
    ints = [a if isinstance(a, int) else a[1] for a, _ in rows]
    if kind == "array":
        arr = np.asarray(ints, dtype=_I64)
        return arr, arr
    if kind == "intlist":
        return ints, np.asarray(ints, dtype=_I64)
    addrs = [a for a, _ in rows]
    if all(isinstance(a, int) for a in addrs):
        return addrs, np.asarray(addrs, dtype=_I64)
    return addrs, addrs


class _SlotModel:
    """A processor's next free injection slot within one superstep."""

    def __init__(self):
        self.next = 0

    def one(self, slot, size=1):
        if slot is None:
            slot = self.next
        self.next = max(self.next, slot + size)
        return slot

    def many(self, sizes, slots):
        if slots is None:
            ends = self.next + np.cumsum(sizes)
            slots = (ends - sizes).tolist()
        self.next = max([self.next] + [s + z for s, z in zip(slots, sizes)])
        return slots


def _issue(ctx, ops, model, msg_rows, read_rows, write_rows, handle_keys):
    """Issue ``ops`` on ``ctx`` and append the reference rows they imply."""
    pid = ctx.pid
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "send":
            _, dest, size, slot, payload, consec = op
            dest %= ctx.nprocs
            ctx.send(dest, payload, size=size, slot=slot, consecutive=consec)
            slot = model.one(slot, size)
            col = None if payload is None else [payload]
            msg_rows.append((pid, _one_row_msg(pid, dest, size, slot, consec, col), None))
        elif kind == "send_many":
            _, rows, sized, explicit, pay_kind, consec = op
            n = len(rows)
            dests = [d % ctx.nprocs for d, _, _ in rows]
            sizes = [z for _, z, _ in rows] if sized else [1] * n
            slots = [s for _, _, s in rows] if explicit else None
            payloads = {
                "none": None,
                "list": [("p", pid, j) for j in range(n)],
                "array": np.arange(n, dtype=_I64) * 3 + pid,
            }[pay_kind]
            ctx.send_many(dests, payloads, sizes=sizes if sized else None,
                          slots=slots, consecutive=consec)
            slots = model.many(np.asarray(sizes, dtype=_I64), slots)
            for j in range(n):
                msg_rows.append((pid, _one_row_msg(pid, dests[j], sizes[j], slots[j],
                                                   consec, _row_of(payloads, j)), None))
        elif kind == "read":
            _, addr, slot = op
            handle = ctx.read(addr, slot=slot)
            handle_keys[id(handle)] = (pid, i)
            slot = model.one(slot)
            read_rows.append((pid, _one_row_req(pid, _scalar_addr_col(addr), slot, None),
                              (pid, i)))
        elif kind == "write":
            _, addr, slot, value = op
            ctx.write(addr, value, slot=slot)
            slot = model.one(slot)
            write_rows.append((pid, _one_row_req(pid, _scalar_addr_col(addr), slot, [value]),
                               None))
        else:
            _, rows, addr_kind, explicit, value_kind = op
            n = len(rows)
            arg, col = _addr_column(rows, addr_kind)
            slots = [s for _, s in rows] if explicit else None
            if kind == "read_many":
                handle = ctx.read_many(arg, slots=slots)
                handle_keys[id(handle)] = (pid, i)
                values, target, key = None, read_rows, (pid, i)
            else:
                values = [pid * 10 + j for j in range(n)]
                if value_kind == "array":
                    values = np.asarray(values, dtype=_I64)
                ctx.write_many(arg, values, slots=slots)
                target, key = write_rows, None
            slots = model.many(np.ones(n, dtype=_I64), slots)
            for j in range(n):
                target.append((pid, _one_row_req(pid, _row_of(col, j), slots[j],
                                                 _row_of(values, j)), key))


def _engine_case(machine_cls, specs):
    """Run one superstep where processors flagged ``plain`` issue from a
    plain function (at program construction) and the rest from a
    generator (at the first barrier) — so appends reach the arenas out of
    pid order whenever a generator pid precedes a plain one."""
    p = len(specs)
    mach = machine_cls(MachineParams(p=p, g=1.0, L=1.0, m=2))
    msg_rows, read_rows, write_rows, handle_keys = [], [], [], {}

    def issue(ctx):
        _issue(ctx, specs[ctx.pid][1], _SlotModel(), msg_rows, read_rows, write_rows,
               handle_keys)

    def gen(ctx):
        issue(ctx)
        yield

    def program(ctx):
        if specs[ctx.pid][0]:
            issue(ctx)
            return None
        return gen(ctx)

    record = mach.run(program).records[0]
    return record, msg_rows, read_rows, write_rows, handle_keys


def _spec(ops):
    return st.lists(st.tuples(st.booleans(), st.lists(ops, max_size=4)), min_size=1,
                    max_size=5)


@settings(max_examples=60, deadline=None)
@given(specs=_spec(st.one_of(_send, _send_many)))
def test_send_arena_freeze_matches_one_row_concat(specs):
    record, msg_rows, _, _, _ = _engine_case(BSPg, specs)
    _assert_msgs_equal(record.msg_batch, _reference_msgs(msg_rows))


@settings(max_examples=60, deadline=None)
@given(specs=_spec(st.one_of(_read, _write, _many)))
def test_request_arena_freeze_matches_one_row_concat(specs):
    # QSM forbids reading and writing one location in a phase: keep reads
    # on even addresses and writes on odd ones
    def split(op):
        if op[0] in ("read", "write"):
            addr = op[1]
            odd = op[0] == "write"
            bump = (lambda a: 2 * a + odd)
            addr = bump(addr) if isinstance(addr, int) else (addr[0], bump(addr[1]))
            return (op[0], addr) + op[2:]
        odd = op[0] == "write_many"
        rows = [(2 * a + odd if isinstance(a, int) else (a[0], 2 * a[1] + odd), s)
                for a, s in op[1]]
        return (op[0], rows) + op[2:]

    specs = [(plain, [split(op) for op in ops]) for plain, ops in specs]
    record, _, read_rows, write_rows, keys = _engine_case(QSMg, specs)
    want, spans = _reference_reqs(read_rows)
    _assert_reqs_equal(record.read_batch, want, spans, lambda h: keys[id(h)])
    want, spans = _reference_reqs(write_rows)
    _assert_reqs_equal(record.write_batch, want, spans, lambda h: keys[id(h)])


# ----------------------------------------------------------------------
# direct arena appends in arbitrary pid interleavings, across resets
# ----------------------------------------------------------------------
_direct_send = st.tuples(
    st.integers(0, 5),  # pid
    st.booleans(),  # scalar (else batch)
    st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3), st.integers(0, 9), _payload),
             min_size=1, max_size=3),
    st.sampled_from(["none", "list", "array"]),
)


@settings(max_examples=60, deadline=None)
@given(rounds=st.lists(st.lists(_direct_send, max_size=8), min_size=1, max_size=3))
def test_send_arena_interleaved_pids_and_reuse(rounds):
    arena = SendArena(capacity=2)
    for ops in rounds:
        rows = []
        for pid, scalar, entries, pay_kind in ops:
            if scalar:
                dest, size, slot, payload = entries[0]
                arena.append_scalar(pid, dest, size, slot, True, payload)
                col = None if payload is None else [payload]
                rows.append((pid, _one_row_msg(pid, dest, size, slot, True, col), None))
                continue
            n = len(entries)
            payloads = {
                "none": None,
                "list": [e[3] for e in entries],
                "array": np.arange(n, dtype=_I64) + 100 * pid,
            }[pay_kind]
            cols = [np.asarray([e[k] for e in entries], dtype=_I64) for k in range(3)]
            arena.append_batch(pid, cols[0], cols[1], cols[2], False, payloads)
            for j, (dest, size, slot, _) in enumerate(entries):
                rows.append((pid, _one_row_msg(pid, dest, size, slot, False,
                                               _row_of(payloads, j)), None))
        _assert_msgs_equal(arena.freeze(), _reference_msgs(rows))
        arena.reset()


_direct_req = st.tuples(
    st.integers(0, 5),  # pid
    st.booleans(),  # scalar (else batch)
    st.lists(st.tuples(_addr, st.integers(0, 9)), min_size=1, max_size=3),
    st.sampled_from(["array", "list"]),
)


@settings(max_examples=60, deadline=None)
@given(
    rounds=st.lists(st.lists(_direct_req, max_size=8), min_size=1, max_size=3),
    reads=st.booleans(),
)
def test_request_arena_interleaved_pids_and_reuse(rounds, reads):
    arena = RequestArena(capacity=2)
    for r, ops in enumerate(rounds):
        rows = []
        for i, (pid, scalar, entries, kind) in enumerate(ops):
            key = (r, i) if reads else None
            if scalar:
                addr, slot = entries[0]
                if reads:
                    arena.append_scalar_read(pid, addr, slot, key)
                    value = None
                else:
                    value = [i]
                    arena.append_scalar_write(pid, addr, slot, i)
                rows.append((pid, _one_row_req(pid, _scalar_addr_col(addr), slot, value), key))
                continue
            _, col = _addr_column(entries, kind)
            slots = np.asarray([s for _, s in entries], dtype=_I64)
            values = None
            if reads:
                arena.append_batch_read(pid, col, slots, key)
            else:
                values = np.arange(len(entries), dtype=_I64) + i
                arena.append_batch_write(pid, col, slots, values)
            for j in range(len(entries)):
                rows.append((pid, _one_row_req(pid, _row_of(col, j), int(slots[j]),
                                               _row_of(values, j)), key))
        want, spans = _reference_reqs(rows)
        _assert_reqs_equal(arena.freeze(with_values=not reads), want, spans, lambda h: h)
        arena.reset()
