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

Every path also runs under a :class:`Tracer`, a :class:`MetricsRegistry`
and a :class:`LoadLedger` at once: the observed result must equal the
unobserved one, and the ledger dump, the metrics dump, each
``RunResult.ledger`` view and the superstep spans must be identical on
every path — observing a run neither changes it nor depends on which
path ran it.
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
from repro.experiments import pricing_ablation
from repro.obs import (
    LoadLedger,
    MetricsRegistry,
    Tracer,
    ledger_scope,
    metrics_scope,
    tracing,
)
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


def _view_rows(view):
    """Every column of one ``RunResult.ledger`` window."""
    return (
        {name: view.column(name) for name in view.ledger.columns},
        {name: view.proc_column(name) for name in view.ledger.proc_columns},
    )


def _observed(run, path):
    """``run()`` under a fresh tracer, metrics registry and load ledger.

    Returns its results and what the three instruments saw: the ledger
    and metrics dumps, each result's ledger view, and the run, superstep
    and per-processor spans (the run span's ``path`` arg, checked to be
    ``path``, aside).
    """
    tracer, registry, book = Tracer(), MetricsRegistry(), LoadLedger()
    with tracing(tracer), metrics_scope(registry), ledger_scope(book):
        results = run()
    spans = []
    for span in tracer.spans:
        if span.cat == "engine":
            assert span.name == "run"
            args = dict(span.args)
            assert args.pop("path") == path
        elif span.cat in ("superstep", "proc"):
            args = span.args
            assert tracer.spans[span.parent].cat in ("engine", "superstep")
        else:
            continue
        spans.append((span.name, span.cat, span.track, args,
                      span.model_start, span.model_dur))
    seen = (
        book.to_dict(),
        registry.to_dict(),
        [_view_rows(res.ledger) for res in results],
        spans,
    )
    return results, seen


def _check_paths(make, reference, paths, points=POINTS):
    """Run every ``(path name, run)`` of ``paths`` on the first and on all
    three ``points`` (``make`` builds their machines), unobserved and
    observed; ``reference`` holds the trampoline's fingerprint per point."""
    for batch in (points[:1], points):
        want = reference[: len(batch)]
        seen = []
        for path, run in paths:
            machines = make(batch)
            assert [_fingerprint(r, m) for r, m in zip(run(machines), machines)] == want
            machines = make(batch)
            results, observed = _observed(lambda: run(machines), path)
            assert [_fingerprint(r, m) for r, m in zip(results, machines)] == want
            seen.append(observed)
        assert seen[0][3], "the observed runs emitted no superstep spans"
        for observed in seen[1:]:
            assert observed == seen[0]


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

    _check_paths(
        lambda points: [_machine(cls, penalty, p, point) for point in points],
        reference,
        [
            ("trampoline", lambda ms: [m.run(program, args=args) for m in ms]),
            ("replay", lambda ms: [compiled.replay(m) for m in ms]),
            ("replay", lambda ms: replay_batch(compiled, ms)),
        ],
    )


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


def _ring_then_flood(ctx):
    ctx.send((ctx.pid + 1) % ctx.nprocs, ctx.pid)
    yield
    yield from _flood(ctx)


def test_observed_raise_keeps_what_was_priced():
    """A run refused at superstep 1 still books superstep 0 and closes its
    run span, on every path; a batch books superstep 0 per machine."""
    params = MachineParams(p=4, g=2.0, L=1.0)
    compiled = CompiledProgram.record(
        LogP(params, enforce_capacity=False), _ring_then_flood
    )[0]
    paths = [
        ("trampoline", lambda: [LogP(params).run(_ring_then_flood)]),
        ("replay", lambda: [compiled.replay(LogP(params))]),
        ("replay", lambda: replay_batch(compiled, [LogP(params), LogP(params)])),
    ]
    for (path, run), machines in zip(paths, (1, 1, 2)):
        tracer, book = Tracer(), LoadLedger()
        with tracing(tracer), ledger_scope(book):
            with pytest.raises(ModelViolation, match="LOGP capacity"):
                run()
        assert book.columns["step"] == [0] * machines
        runs = tracer.find(cat="engine", name="run")
        assert [s.args["path"] for s in runs] == [path] * machines
        assert all(s.wall_dur is not None and s.args["supersteps"] == 1 for s in runs)
        assert len(tracer.find(cat="superstep")) == machines
        assert not tracer._stack


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
    compiled = compile_schedule(sched)
    plan = _flit_plan(sched)
    # the first machine's m is the schedule's; the others over- and
    # under-provision it
    points = ((1.0, 1.0, m), (5.0, 1.5, 2 * m), (16.0, 4.0, max(1, m // 2)))

    def make(batch):
        return [
            BSPm(MachineParams(p=p, g=g, m=m_, L=L), penalty=PENALTIES[penalty])
            for L, g, m_ in batch
        ]

    reference = []
    for mach in make(points):
        reference.append(_fingerprint(mach.run(_routing_program, per_proc_args=plan), mach))
    _check_paths(
        make,
        reference,
        [
            ("trampoline",
             lambda ms: [m.run(_routing_program, per_proc_args=plan) for m in ms]),
            ("replay", lambda ms: [compiled.replay(m) for m in ms]),
            ("replay", lambda ms: replay_batch(compiled, ms)),
            ("replay", lambda ms: [execute_schedule(m, sched) for m in ms]),
        ],
        points,
    )


def test_observed_pricing_ablation_writes_one_row_per_cell():
    """An observed sweep replays each of its 64 cells and books one
    ledger row per cell; the rows reconcile with the cells' model times."""
    with ledger_scope() as book:
        out = pricing_ablation(
            p=32, n=2_000, schedule_m=8,
            m_values=(2, 3, 4, 6, 8, 12, 16, 24),
            L_values=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
            seed=3,
        )
    cells = out["cells"]
    assert len(cells) == len(book) == 64
    assert book.total_charge() == sum(cell["model_time"] for cell in cells)
    assert book.columns["charge"] == [cell["model_time"] for cell in cells]
