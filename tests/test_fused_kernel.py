"""Bit-identity gates for the superstep engine.

The arena-backed freeze, kernel pricing and bincount delivery, the
compiled-superstep replay and the compiled routing path are
*optimizations*, not semantic changes: every model time, cost breakdown,
stats dict, frozen record column and per-processor result must equal the
golden records in :mod:`tests.golden_records`, captured while an
independent chunk-list gather path still existed and was asserted equal.
This module is the gate — a full model x {plain, faulted, traced} matrix
over scalar-call and columnar-call programs, plus the Numba-fallback,
arena-pool and nested-run contracts.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.compiled import CompiledProgram, compile_program
from repro.core.costs import (
    EXPONENTIAL,
    LINEAR,
    CapacityPenalty,
    ExponentialPenalty,
    LinearPenalty,
    PolynomialPenalty,
)
from repro.core.params import MachineParams
from repro.faults import FaultPlan
from repro.models.bsp_g import BSPg
from repro.models.bsp_m import BSPm
from repro.models.qsm_g import QSMg
from repro.models.qsm_m import QSMm
from repro.models.self_scheduling import SelfSchedulingBSPm
from repro.obs import Tracer, tracing
from repro.scheduling import unbalanced_send
from repro.scheduling.execute import _flit_plan, _routing_program, execute_schedule
from repro.workloads import uniform_random_relation
from tests.golden_records import GOLDEN, golden_of, norm as _norm

P = 8
SPAN = P * 6

MESSAGE_MODELS = [BSPg, BSPm, SelfSchedulingBSPm]
QSM_MODELS = [QSMg, QSMm]
ALL_MODELS = MESSAGE_MODELS + QSM_MODELS


def _machine(model, penalty=None):
    params = MachineParams(p=P, g=2.0, L=8.0, m=4)
    if penalty is not None and model in (BSPm, QSMm):
        mach = model(params, penalty=penalty)
    else:
        mach = model(params)
    if mach.uses_shared_memory:
        mach.use_dense_memory(SPAN)
    return mach


def _msg_program(ctx, p):
    """Scalar sends (tuple / int / None payloads) interleaved with
    ``send_many`` over three supersteps — exercises chunk merging, slot
    assignment and every payload-column representation."""
    ctx.work(1.0 + 0.25 * ctx.pid)
    ctx.send((ctx.pid + 1) % p, payload=ctx.pid)
    ctx.send((ctx.pid + 2) % p, size=2)
    yield
    first = _norm(ctx.receive().payloads)
    dests = (np.arange(3, dtype=np.int64) + ctx.pid + 1) % p
    ctx.send_many(dests, payloads=np.arange(3, dtype=np.int64) + 10 * ctx.pid)
    ctx.send((ctx.pid + 3) % p, payload=("tag", ctx.pid))
    yield
    second = _norm(ctx.receive().payloads)
    if ctx.pid % 2 == 0:
        ctx.send((ctx.pid + 1) % p, payload=None, size=3)
    yield
    third = _norm(ctx.receive().payloads)
    return (first, second, third)


def _qsm_program(ctx, p):
    """Scalar and batched shared-memory requests over two phases."""
    k = 4
    addrs = (ctx.pid * k + np.arange(k, dtype=np.int64)) % SPAN
    ctx.work(0.5 * ctx.pid)
    ctx.write_many(addrs, np.arange(k, dtype=np.int64) + 100 * ctx.pid)
    ctx.write((ctx.pid * 7) % SPAN, -ctx.pid)
    yield
    handle = ctx.read_many((addrs + k) % SPAN)
    scalar = ctx.read((ctx.pid * 11) % SPAN)
    yield
    return (_norm(handle.values), _norm(scalar.value))


def _column_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, np.ndarray) != isinstance(b, np.ndarray):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return _norm(list(a)) == _norm(list(b))


def _assert_records_identical(res_a, res_b):
    assert res_a.time == res_b.time
    assert len(res_a.records) == len(res_b.records)
    for ra, rb in zip(res_a.records, res_b.records):
        assert ra.cost == rb.cost
        assert ra.stats == rb.stats
        assert ra.breakdown == rb.breakdown
        assert ra.work == rb.work
        ma, mb = ra.msg_batch, rb.msg_batch
        for col in ("src", "dest", "size", "slot", "consecutive"):
            assert np.array_equal(getattr(ma, col), getattr(mb, col)), col
        assert _column_equal(ma.payload, mb.payload)
        for ba, bb in ((ra.read_batch, rb.read_batch), (ra.write_batch, rb.write_batch)):
            assert np.array_equal(ba.pid, bb.pid)
            assert np.array_equal(ba.slot, bb.slot)
            assert _column_equal(
                ba.addr if isinstance(ba.addr, np.ndarray) else list(ba.addr or []),
                bb.addr if isinstance(bb.addr, np.ndarray) else list(bb.addr or []),
            )
            assert _column_equal(ba.value, bb.value)


def _assert_results_identical(res_a, res_b):
    assert len(res_a.results) == len(res_b.results)
    for a, b in zip(res_a.results, res_b.results):
        assert _norm(a) == _norm(b)


def _run_case(model, *, faulted=False, traced=False):
    """Run the model's workload program; returns the result (with the
    tracer and final shared memory attached)."""
    program = _qsm_program if model in QSM_MODELS else _msg_program
    mach = _machine(model)
    if faulted:
        mach.inject_faults(
            FaultPlan(
                seed=7,
                drop_rate=0.2,
                duplicate_rate=0.15,
                reorder_rate=0.2,
                corrupt_rate=0.15,
            )
        )
    if traced:
        with tracing(Tracer()) as tracer:
            res = mach.run(program, args=(P,))
        res._tracer = tracer
    else:
        res = mach.run(program, args=(P,))
    res._memory = dict(mach.shared_memory) if mach.uses_shared_memory else None
    return res


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("variant", ["plain", "faulted", "traced"])
def test_fused_matches_legacy(model, variant):
    """Every model x variant reproduces the golden record captured when the
    arena path was still asserted equal to the chunk-list gather path."""
    res = _run_case(
        model, faulted=(variant == "faulted"), traced=(variant == "traced")
    )
    golden = GOLDEN[("faulted" if variant == "faulted" else "plain", model.__name__)]
    assert golden_of(res, res._memory) == golden
    if variant == "traced":
        phases = res._tracer.find(cat="phase")
        assert {s.name for s in phases} == {"freeze", "price", "deliver"}


@pytest.mark.parametrize(
    "family,penalty",
    [
        ("linear", LINEAR),
        ("exponential", EXPONENTIAL),
        ("polynomial", PolynomialPenalty(degree=3.0)),
    ],
    ids=["linear", "exponential", "polynomial"],
)
def test_penalty_families_identical_across_paths(family, penalty):
    """Trampoline and compiled replay both reproduce the golden record of
    each penalty family."""
    golden = GOLDEN[("penalty", family)]
    res = _machine(BSPm, penalty=penalty).run(_msg_program, args=(P,))
    assert golden_of(res) == golden
    compiled = compile_program(_machine(BSPm, penalty=penalty), _msg_program, args=(P,))
    assert golden_of(compiled.replay(_machine(BSPm, penalty=penalty))) == golden


def test_capacity_penalty_still_raises_on_fused_path():
    def overload(ctx, p):
        # every processor injects into slot 0 -> m_t = p > m, overload
        ctx.send((ctx.pid + 1) % p, slot=0)
        yield

    mach = BSPm(MachineParams(p=P, L=1.0, m=4), penalty=CapacityPenalty())
    with pytest.raises(OverflowError):
        mach.run(overload, args=(P,))


def test_direct_routing_matches_trampoline():
    """``execute_schedule``'s compiled routing equals the routing program
    run on the trampoline."""
    rel = uniform_random_relation(32, 4_000, seed=2)
    sched = unbalanced_send(rel, 8, 0.2, seed=3)
    res_d = execute_schedule(BSPm(MachineParams(p=32, m=8, L=1)), sched)
    res_t = BSPm(MachineParams(p=32, m=8, L=1)).run(
        _routing_program, per_proc_args=_flit_plan(sched)
    )
    _assert_records_identical(res_d, res_t)
    _assert_results_identical(res_d, res_t)


def _nesting_program(ctx, p, nest, inner):
    """Two supersteps of sends; with ``nest``, processor 2 runs
    ``_msg_program`` to completion on the same machine between its first
    and second send of superstep 0."""
    ctx.send((ctx.pid + 1) % p, payload=ctx.pid)
    if nest and ctx.pid == 2:
        inner.append(ctx._machine.run(_msg_program, args=(p,)))
    ctx.send_many([(ctx.pid + 2) % p, (ctx.pid + 3) % p], sizes=[2, 1])
    yield
    got = _norm(ctx.receive().payloads)
    ctx.send((ctx.pid + 5) % p, payload=("late", ctx.pid))
    yield
    return got, _norm(ctx.receive().payloads)


def test_nested_run_matches_sequential_runs():
    """A run started from inside a superstep on a busy machine takes its
    own arenas: both results equal the two runs done one after the other."""
    mach = _machine(BSPm)
    inner = []
    outer = mach.run(_nesting_program, args=(P, True, inner))
    (nested,) = inner
    seq = _machine(BSPm)
    outer_seq = seq.run(_nesting_program, args=(P, False, []))
    nested_seq = seq.run(_msg_program, args=(P,))
    assert golden_of(outer) == golden_of(outer_seq)
    assert golden_of(nested) == golden_of(nested_seq) == GOLDEN[("plain", "BSPm")]
    # the nested run took a second arena set; both are back in the pool
    assert len(mach._arena_pool) == 2


def test_compiled_replay_reproduces_recording():
    mach = _machine(BSPm)
    compiled, res_rec = CompiledProgram.record(mach, _msg_program, args=(P,))
    res_rep = compiled.replay(_machine(BSPm))
    _assert_records_identical(res_rec, res_rep)
    _assert_results_identical(res_rec, res_rep)


def test_compiled_replay_reprices_under_new_machine():
    compiled = compile_program(_machine(BSPm), _msg_program, args=(P,))
    for target in (
        BSPm(MachineParams(p=P, g=2.0, L=50.0, m=4), penalty=LINEAR),
        BSPm(MachineParams(p=P, g=2.0, L=8.0, m=2)),
    ):
        res_rep = compiled.replay(target)
        res_fresh = target.__class__(target.params, penalty=target.penalty).run(
            _msg_program, args=(P,)
        )
        _assert_records_identical(res_rep, res_fresh)


def test_compiled_replay_applies_writes_to_shared_memory():
    mach = _machine(QSMm)
    compiled, res_rec = CompiledProgram.record(mach, _qsm_program, args=(P,))
    expected = dict(mach.shared_memory)
    target = _machine(QSMm)
    res_rep = compiled.replay(target)
    _assert_records_identical(res_rec, res_rep)
    assert dict(target.shared_memory) == expected


def test_compiled_mode_refuses_fault_injectors():
    mach = _machine(BSPm)
    mach.inject_faults(FaultPlan(seed=1, drop_rate=0.5))
    with pytest.raises(ValueError, match="fault injector"):
        compile_program(mach, _msg_program, args=(P,))
    compiled = compile_program(_machine(BSPm), _msg_program, args=(P,))
    faulty = _machine(BSPm)
    faulty.inject_faults(FaultPlan(seed=1, drop_rate=0.5))
    with pytest.raises(ValueError, match="fault injector"):
        compiled.replay(faulty)


def test_numba_fallback_when_absent(monkeypatch):
    """With the JIT kernel unavailable, ``penalty_charges`` silently uses
    the NumPy implementation and produces the historical charges."""
    monkeypatch.setattr(kernels, "_jit_charges", None)
    counts = np.array([0, 1, 3, 4, 9, 17], dtype=np.int64)
    m = 4
    for penalty, kind, param in (
        (LinearPenalty(), kernels.KIND_LINEAR, 0.0),
        (ExponentialPenalty(), kernels.KIND_EXPONENTIAL, 0.0),
        (PolynomialPenalty(degree=2.5), kernels.KIND_POLYNOMIAL, 2.5),
    ):
        via_kernel = kernels.penalty_charges(counts, m, kind, param)
        via_penalty = penalty(counts, m)
        rho = counts[counts > m] / m
        expected = penalty.overload(rho)
        assert np.array_equal(via_kernel, via_penalty)
        assert np.array_equal(via_kernel[counts > m], expected)
        assert np.array_equal(
            via_kernel[(counts >= 1) & (counts <= m)],
            np.ones(int(np.sum((counts >= 1) & (counts <= m)))),
        )
        assert via_kernel[counts < 1].sum() == 0.0


def test_numba_escape_hatch_disables_jit(monkeypatch):
    monkeypatch.setenv("REPRO_NUMBA", "0")
    assert kernels._load_numba() is None


def test_arena_reuse_no_growth_on_rerun():
    """Steady-state reruns on one machine reuse its pooled arena set and
    never regrow it."""
    mach = _machine(BSPm)
    mach.run(_msg_program, args=(P,))
    (arenas,) = mach._arena_pool
    grows = [arena.grows for arena in arenas]
    for _ in range(3):
        mach.run(_msg_program, args=(P,))
    assert mach._arena_pool == [arenas]
    assert [arena.grows for arena in arenas] == grows
