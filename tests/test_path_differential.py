"""Cross-path differential test: every execution path, one answer.

Hypothesis draws random straight-line SPMD programs (sends never depend on
what arrives) and runs each on all five paper models — with the linear,
exponential and polynomial penalty families on the two models that take a
penalty — and on LogP, PRAM, PRAM(m) and TwoLevelBSP, which price through
the per-machine default of ``Machine._price_batch``, through every
surviving superstep path:

* the coroutine trampoline (:meth:`Machine.run`);
* :meth:`CompiledProgram.record` / :meth:`CompiledProgram.replay`;
* :func:`replay_batch` with B=1 and with B=3 (three different ``L``,
  ``g`` and ``m``);

and the h-relation routing program through
``compile_schedule(...).replay`` versus the trampoline running
``_routing_program`` over ``_flit_plan(sched)``.  All of them must return
bit-identical :class:`RunResult` values: model time, per-superstep costs,
breakdowns, stats (values and key order), frozen record columns, results
and final shared memory.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PRAM,
    BSPg,
    BSPm,
    EXPONENTIAL,
    LINEAR,
    LogP,
    MachineParams,
    ModelViolation,
    PolynomialPenalty,
    PRAMm,
    QSMg,
    QSMm,
    SelfSchedulingBSPm,
    TwoLevelBSP,
)
from repro.core.batched import replay_batch
from repro.core.compiled import CompiledProgram
from repro.core.engine import BatchReadHandle
from repro.scheduling import unbalanced_send
from repro.scheduling.execute import (
    _flit_plan,
    _routing_program,
    compile_schedule,
    execute_schedule,
)
from repro.workloads import uniform_random_relation
from tests.golden_records import norm, run_digest

PENALTIES = {
    "linear": LINEAR,
    "exponential": EXPONENTIAL,
    "polynomial": PolynomialPenalty(degree=3.0),
}
CASES = [
    (BSPg, None),
    (SelfSchedulingBSPm, None),
    (QSMg, None),
    *[(BSPm, name) for name in PENALTIES],
    *[(QSMm, name) for name in PENALTIES],
    (LogP, None),
    (TwoLevelBSP, None),
    (PRAM, None),
]
#: the B=3 batch's parameter points ``(L, g, m)``: every parameter a
#: pricer reads differs between machines
POINTS = ((1.0, 2.0, 3), (5.0, 1.5, 2), (16.0, 4.0, 5))

# ----------------------------------------------------------------------
# program spec: per superstep, per processor, a list of operations
# ----------------------------------------------------------------------
_slot = st.one_of(st.none(), st.integers(0, 3))  # None = automatic, else a gap
_size = st.integers(1, 3)

_send_op = st.tuples(
    st.just("send"), st.integers(0, 63), _size, _slot,
    st.one_of(st.none(), st.integers(-9, 9), st.tuples(st.just("t"), st.integers(0, 9))),
)
_send_many_op = st.tuples(
    st.just("send_many"),
    st.lists(st.tuples(st.integers(0, 63), _size, _slot), min_size=1, max_size=4),
    st.sampled_from(["none", "list", "array"]),
    st.booleans(),  # explicit sizes column
)


def _memory_ops(as_int):
    """Shared-memory ops; ``as_int`` draws whether addresses are integers
    (else tuple addresses)."""
    return st.one_of(
        st.tuples(st.just("write"), st.integers(0, 7), as_int, _slot),
        st.tuples(st.just("read"), st.integers(0, 7), as_int, _slot),
        st.tuples(
            st.sampled_from(["read_many", "write_many"]),
            st.lists(st.tuples(st.integers(0, 7), _slot), min_size=1, max_size=4),
            as_int,
        ),
    )


def _spec(ops):
    return st.tuples(
        st.integers(2, 5),  # processors
        st.lists(st.lists(st.lists(ops, max_size=4), min_size=5, max_size=5),
                 min_size=1, max_size=3),
        st.lists(st.floats(0, 4, allow_nan=False).map(lambda x: round(x, 2)),
                 min_size=5, max_size=5),
    )


MSG_SPECS = _spec(st.one_of(_send_op, _send_many_op))
QSM_SPECS = _spec(_memory_ops(st.booleans()))
#: PRAM(m) shares only integer cells ``0 .. m-1`` (addresses reach 15)
PRAM_M_SPECS = _spec(_memory_ops(st.just(True)))


def _slots(cursor, entries):
    """Explicit slots that never collide with each other or with automatic
    ones: each explicit slot sits ``gap`` past the processor's next free
    slot, exactly where an automatic one would start."""
    out = []
    for size, gap in entries:
        if gap is None:
            out.append(None)
            cursor += size
        else:
            out.append(cursor + gap)
            cursor += gap + size
    return cursor, out


def _addr(a, as_int):
    return a if as_int else ("t", a)


def _program(ctx, p, steps, work):
    """Replays the spec; reads use even addresses and writes odd ones (QSM
    forbids reading and writing one location in the same phase)."""
    results = []
    for step in steps:
        ctx.work(work[ctx.pid])
        cursor = 0
        handles = []
        for op in step[ctx.pid]:
            kind = op[0]
            if kind == "send":
                _, dest, size, gap, payload = op
                cursor, (slot,) = _slots(cursor, [(size, gap)])
                ctx.send(dest % p, payload, size=size, slot=slot)
            elif kind == "send_many":
                _, rows, pay_kind, explicit_sizes = op
                sizes = [s if explicit_sizes else 1 for _, s, _ in rows]
                gaps = [g for _, _, g in rows]
                explicit = all(g is not None for g in gaps)
                cursor, slots = _slots(
                    cursor, [(s, g if explicit else None) for s, g in zip(sizes, gaps)]
                )
                n = len(rows)
                payloads = {
                    "none": None,
                    "list": [("p", ctx.pid, i) for i in range(n)],
                    "array": np.arange(n, dtype=np.int64) + 10 * ctx.pid,
                }[pay_kind]
                ctx.send_many(
                    [d % p for d, _, _ in rows],
                    payloads,
                    sizes=sizes if explicit_sizes else None,
                    slots=slots if explicit else None,
                )
            elif kind in ("read", "write"):
                _, a, as_int, gap = op
                cursor, (slot,) = _slots(cursor, [(1, gap)])
                if kind == "read":
                    handles.append(ctx.read(_addr(2 * a, as_int), slot=slot))
                else:
                    ctx.write(_addr(2 * a + 1, as_int), ctx.pid, slot=slot)
            else:
                _, rows, as_int = op
                gaps = [g for _, g in rows]
                explicit = all(g is not None for g in gaps)
                cursor, slots = _slots(
                    cursor, [(1, g if explicit else None) for g in gaps]
                )
                odd = kind == "write_many"
                addrs = [_addr(2 * a + odd, as_int) for a, _ in rows]
                if as_int:
                    addrs = np.asarray(addrs, dtype=np.int64)
                slots = slots if explicit else None
                if odd:
                    ctx.write_many(addrs, [ctx.pid * 100 + i for i in range(len(rows))],
                                   slots=slots)
                else:
                    handles.append(ctx.read_many(addrs, slots=slots))
        yield
        inbox = norm(ctx.receive().payloads)
        reads = [norm(h.values if isinstance(h, BatchReadHandle) else h.value)
                 for h in handles]
        results.append((inbox, reads))
    return results


def _rom_program(ctx, rom, p, steps, work):
    """:meth:`PRAMm.run` passes the ROM first; these programs ignore it."""
    return (yield from _program(ctx, p, steps, work))


# ----------------------------------------------------------------------
def _machine(cls, penalty, p, point=POINTS[0]):
    L, g, m = point
    # PRAM(m) cells 0..15 must all be valid: its m stays 16
    params = MachineParams(p=p, g=g, L=L, m=16 if cls is PRAMm else m)
    if penalty is not None:
        return cls(params, penalty=PENALTIES[penalty])
    if cls is LogP:
        # the capacity rule would refuse most random programs at L=1; it
        # is exercised on every path by test_logp_capacity_raises_on_every_path
        return cls(params, enforce_capacity=False)
    return cls(params)


def _fingerprint(res, mach):
    memory = dict(mach.shared_memory) if mach.uses_shared_memory else None
    return (
        res.time,
        [(r.cost, list(r.stats.items())) for r in res.records],
        run_digest(res, memory),
    )


def _check_all_paths(cls, penalty, spec):
    p, steps, work = spec
    args = (p, steps, work)
    program = _rom_program if cls is PRAMm else _program
    reference = []
    for point in POINTS:
        mach = _machine(cls, penalty, p, point)
        reference.append(_fingerprint(mach.run(program, args=args), mach))

    rec_mach = _machine(cls, penalty, p)
    compiled, recorded = CompiledProgram.record(rec_mach, program, args=args)
    assert _fingerprint(recorded, rec_mach) == reference[0]

    mach = _machine(cls, penalty, p)
    assert _fingerprint(compiled.replay(mach), mach) == reference[0]

    mach = _machine(cls, penalty, p)
    (single,) = replay_batch(compiled, [mach])
    assert _fingerprint(single, mach) == reference[0]

    machines = [_machine(cls, penalty, p, point) for point in POINTS]
    batch = replay_batch(compiled, machines)
    assert [_fingerprint(r, m) for r, m in zip(batch, machines)] == reference


@pytest.mark.parametrize(
    "cls,penalty", [c for c in CASES if not c[0].uses_shared_memory],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
@settings(max_examples=25, deadline=None)
@given(spec=MSG_SPECS)
def test_message_passing_paths_agree(cls, penalty, spec):
    _check_all_paths(cls, penalty, spec)


@pytest.mark.parametrize(
    "cls,penalty", [c for c in CASES if c[0].uses_shared_memory],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
@settings(max_examples=25, deadline=None)
@given(spec=QSM_SPECS)
def test_shared_memory_paths_agree(cls, penalty, spec):
    _check_all_paths(cls, penalty, spec)


@settings(max_examples=25, deadline=None)
@given(spec=PRAM_M_SPECS)
def test_pram_m_paths_agree(spec):
    _check_all_paths(PRAMm, None, spec)


def _write_cell(ctx, rom, addr):
    ctx.write(addr, ctx.pid)
    yield


def test_pram_m_address_rule_raises_on_every_path():
    """A recording whose cell 8 is valid on PRAM(m=16) is refused by
    PRAM(m=4)'s address check on every path, batched included."""
    compiled = CompiledProgram.record(
        PRAMm(MachineParams(p=2, m=16)), _write_cell, args=(8,)
    )[0]

    def small():
        return PRAMm(MachineParams(p=2, m=4))

    with pytest.raises(ModelViolation, match="PRAM\\(m\\) shared address"):
        small().run(_write_cell, args=(8,))
    with pytest.raises(ModelViolation, match="PRAM\\(m\\) shared address"):
        compiled.replay(small())
    for batch in ([small()], [PRAMm(MachineParams(p=2, m=16)), small()]):
        with pytest.raises(ModelViolation, match="PRAM\\(m\\) shared address"):
            replay_batch(compiled, batch)


def _flood(ctx):
    if ctx.pid:
        ctx.send(0, ctx.pid, slot=0)
    yield


def test_logp_capacity_raises_on_every_path():
    """Three messages into processor 0 in one slot exceed LogP's capacity
    ceil(L/g) = 1: refused on the trampoline, on replay and in a batch."""
    params = MachineParams(p=4, g=2.0, L=1.0)
    compiled = CompiledProgram.record(
        LogP(params, enforce_capacity=False), _flood
    )[0]
    with pytest.raises(ModelViolation, match="LOGP capacity"):
        LogP(params).run(_flood)
    with pytest.raises(ModelViolation, match="LOGP capacity"):
        compiled.replay(LogP(params))
    with pytest.raises(ModelViolation, match="LOGP capacity"):
        replay_batch(compiled, [LogP(params, enforce_capacity=False), LogP(params)])


@pytest.mark.parametrize("penalty", list(PENALTIES))
@settings(max_examples=15, deadline=None)
@given(
    p=st.integers(2, 24),
    n=st.integers(0, 400),
    m=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_routing_compiled_matches_trampoline(penalty, p, n, m, seed):
    rel = uniform_random_relation(p, n, seed=seed)
    sched = unbalanced_send(rel, m, 0.2, seed=seed + 1)

    def mach():
        return BSPm(MachineParams(p=p, m=m, L=1.0), penalty=PENALTIES[penalty])

    direct = mach()
    replayed = compile_schedule(sched).replay(direct)
    tramp = mach()
    ran = tramp.run(_routing_program, per_proc_args=_flit_plan(sched))
    assert _fingerprint(replayed, direct) == _fingerprint(ran, tramp)
    routed = mach()
    assert _fingerprint(execute_schedule(routed, sched), routed) == _fingerprint(ran, tramp)
