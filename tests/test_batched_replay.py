"""Batched multi-trial execution: the bit-identity contract.

Gates — the same way fused≡legacy execution was gated when the fused path
landed:

* ``replay_batch(compiled, machines)[b]`` ≡ ``compiled.replay(machines[b])``
  for all five paper models (costs, breakdowns, stats dicts incl. key
  order, shared-memory state), plus its validation/fallback edges;
* ``execute_schedule_batch`` / ``compile_schedule`` ≡ ``execute_schedule``;
* ``slot_charge_stats_batched``: row ``b`` of a B-batch equals the B=1
  call (the call every sequential superstep makes);
* ``stable_group_order`` against ``np.argsort(kind="stable")`` including
  the int64-overflow fallback boundary, and the arena freeze paths that
  now route through it;
* sweep-runner fingerprint grouping (serial and pool, error fallback,
  observability opt-out) and the ``pricing_ablation`` experiment;
* serve-layer ``run_scenario_batch`` and executor request coalescing,
  cold and warm cache.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import (
    BSPg,
    BSPm,
    MachineParams,
    PenaltyFunction,
    PolynomialPenalty,
    QSMg,
    QSMm,
    SelfSchedulingBSPm,
    EXPONENTIAL,
    LINEAR,
)
from repro.core.arena import RequestArena, SendArena
from repro.core.batched import replay_batch
from repro.core.compiled import CompiledProgram, compile_program
from repro.core.kernels import (
    _COMBINED_SORT_LIMIT,
    slot_charge_stats_batched,
    stable_group_order,
)
from repro.scheduling import unbalanced_send
from repro.scheduling.execute import (
    compile_schedule,
    execute_schedule,
    execute_schedule_batch,
)
from repro.sweep import SweepSpec, run_sweep
from repro.workloads import uniform_random_relation


class _SqrtPenalty(PenaltyFunction):
    """Custom subclass with no kernel family: exercises the per-instance
    fallback row of ``slot_charge_stats_batched``."""

    name = "sqrt-test"

    def overload(self, rho: np.ndarray) -> np.ndarray:
        return rho * np.sqrt(rho)


def _assert_runs_identical(seq, bat):
    """``bat`` must reproduce ``seq`` bit-for-bit (the replay contract)."""
    assert bat.time == seq.time
    assert len(bat.records) == len(seq.records)
    assert bat.results == seq.results
    for ra, rb in zip(seq.records, bat.records):
        assert rb.cost == ra.cost
        assert rb.breakdown == ra.breakdown
        assert list(rb.stats.keys()) == list(ra.stats.keys())
        assert rb.stats == ra.stats
        assert rb.work == ra.work


# ----------------------------------------------------------------------
# kernels: row b of a B-batch is the B=1 call
# ----------------------------------------------------------------------
class TestBatchedKernels:
    COUNTS = np.array([0, 1, 3, 7, 2, 9, 4, 0, 5], dtype=np.int64)

    @staticmethod
    def _rows_match_singletons(counts, m_col, pens):
        comm, c_m_paper, span, overloaded, max_load = slot_charge_stats_batched(
            counts, m_col, pens
        )
        assert comm.shape == c_m_paper.shape == overloaded.shape == (len(pens),)
        for b, (m, pen) in enumerate(zip(m_col, pens)):
            e_comm, e_paper, e_span, e_over, e_max = slot_charge_stats_batched(
                counts, [m], [pen]
            )
            assert comm[b] == e_comm[0]
            assert c_m_paper[b] == e_paper[0]
            assert span == e_span
            assert overloaded[b] == e_over[0]
            assert max_load == e_max
        return comm, c_m_paper, span, overloaded, max_load

    def test_slot_charge_stats_batched_mixed_penalties(self):
        pens = [LINEAR, EXPONENTIAL, PolynomialPenalty(3.0), _SqrtPenalty(), LINEAR]
        m_col = [2, 4, 3, 2, 2]
        comm, c_m_paper, span, overloaded, max_load = self._rows_match_singletons(
            self.COUNTS, m_col, pens
        )
        # and the B=1 call is the paper's charge: idle slots elapse one
        # unit, f_m(0) = 0, LINEAR is max(1, m_t/m) above the band
        charges = np.asarray(LINEAR(self.COUNTS, 2), dtype=np.float64)
        assert comm[0] == np.sum(np.maximum(charges, 1.0))
        assert c_m_paper[0] == np.sum(charges)
        assert span == float(self.COUNTS.size)
        assert overloaded[0] == np.sum(self.COUNTS > 2)
        assert max_load == 9

    def test_slot_charge_stats_batched_empty(self):
        comm, c_m_paper, span, overloaded, max_load = self._rows_match_singletons(
            np.array([], dtype=np.int64), [2, 4], [LINEAR, EXPONENTIAL]
        )
        assert np.array_equal(comm, [0.0, 0.0])
        assert np.array_equal(c_m_paper, [0.0, 0.0])
        assert span == 0.0 and max_load == 0
        assert np.array_equal(overloaded, [0, 0])


# ----------------------------------------------------------------------
# stable_group_order: the argsort twin and its overflow fallback
# ----------------------------------------------------------------------
class TestStableGroupOrder:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 17, size=500).astype(np.int64)
        order = stable_group_order(keys, 16)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))

    def test_trivial_sizes(self):
        assert stable_group_order(np.array([], dtype=np.int64), 0).size == 0
        assert np.array_equal(
            stable_group_order(np.array([5], dtype=np.int64), 5), [0]
        )

    def test_overflow_fallback_matches(self):
        # a max_key big enough that key*n + i could overflow int64 forces
        # the argsort fallback; the permutation must not change
        keys = np.array([3, 1, 3, 0, 1, 2, 3, 0], dtype=np.int64)
        fast = stable_group_order(keys, 3)
        fallback = stable_group_order(keys, 2**62)
        assert np.array_equal(fallback, fast)
        assert np.array_equal(fallback, np.argsort(keys, kind="stable"))

    def test_fallback_boundary_arithmetic(self):
        # (max_key + 1) * n straddling the int64 limit: one below takes the
        # combined sort, at-or-above takes the fallback — same permutation
        keys = np.array([2, 0, 1, 0], dtype=np.int64)
        n = keys.size
        mk_fallback = -(-_COMBINED_SORT_LIMIT // n) - 1  # smallest mk that trips
        mk_fast = mk_fallback - 1
        assert (mk_fast + 1) * n < _COMBINED_SORT_LIMIT
        assert (mk_fallback + 1) * n >= _COMBINED_SORT_LIMIT
        expect = np.argsort(keys, kind="stable")
        assert np.array_equal(stable_group_order(keys, mk_fast), expect)
        assert np.array_equal(stable_group_order(keys, mk_fallback), expect)


# ----------------------------------------------------------------------
# arenas: the two freeze paths that now use stable_group_order
# ----------------------------------------------------------------------
def _send_batch(arena, pid, k, base):
    arena.append_batch(
        pid,
        dest=np.arange(k, dtype=np.int64) + base,
        size=None,
        slot=np.arange(k, dtype=np.int64),
        consecutive=False,
        payloads=np.arange(k, dtype=np.int64) * 10 + pid,
    )


class TestArenaReorder:
    def test_send_arena_out_of_order_freeze(self):
        # appends in pid order vs out of order must freeze identically:
        # the repaired batch is the legacy pid-major gather order
        ordered, shuffled = SendArena(4), SendArena(4)
        for pid in (0, 1, 2):
            _send_batch(ordered, pid, 3, base=pid * 100)
        for pid in (2, 0, 1):
            _send_batch(shuffled, pid, 3, base=pid * 100)
        a, b = ordered.freeze(), shuffled.freeze()
        for col in ("src", "dest", "size", "slot", "consecutive"):
            assert np.array_equal(getattr(b, col), getattr(a, col)), col
        assert np.array_equal(b.payload, a.payload)

    def test_request_arena_reorder_spans(self):
        ordered, shuffled = RequestArena(4), RequestArena(4)
        handles = {}
        for arena, pids in ((ordered, (0, 1)), (shuffled, (1, 0))):
            for pid in pids:
                h = f"h{pid}"
                handles.setdefault(pid, h)
                arena.append_batch_read(
                    pid,
                    addr=np.arange(2, dtype=np.int64) + pid * 10,
                    slot=np.arange(2, dtype=np.int64),
                    handle=h,
                )
        a = ordered.freeze(with_values=False)
        b = shuffled.freeze(with_values=False)
        assert np.array_equal(b.pid, a.pid)
        assert np.array_equal(b.addr, a.addr)
        assert np.array_equal(b.slot, a.slot)
        # handle spans must point at each pid's rows after the reorder
        spans_a = {h: (s, e) for h, s, e in a.handles}
        spans_b = {h: (s, e) for h, s, e in b.handles}
        assert spans_b == spans_a


# ----------------------------------------------------------------------
# replay_batch: message-passing models
# ----------------------------------------------------------------------
P, N, SCHED_M = 64, 4_000, 16


@pytest.fixture(scope="module")
def routing_compiled():
    rel = uniform_random_relation(P, N, seed=0)
    sched = unbalanced_send(rel, SCHED_M, 0.2, seed=1)
    return sched, compile_schedule(sched)


class TestReplayBatchMessagePassing:
    def test_bsp_m_grid_identity(self, routing_compiled):
        _, compiled = routing_compiled
        pens = [EXPONENTIAL, LINEAR, PolynomialPenalty(2.0), _SqrtPenalty()]
        machines = [
            BSPm(MachineParams(p=P, m=m, L=L), penalty=pens[i % len(pens)])
            for i, (m, L) in enumerate(
                (m, L) for m in (8, 16, 32, 64) for L in (1.0, 4.0, 16.0)
            )
        ]
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(compiled.replay(mach), bat)

    def test_bsp_g_identity(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [
            BSPg(MachineParams(p=P, g=g, L=L))
            for g in (1.0, 1.5, 2.0, 4.0)
            for L in (1.0, 8.0)
        ]
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(compiled.replay(mach), bat)

    def test_self_scheduling_identity(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [
            SelfSchedulingBSPm(MachineParams(p=P, m=m, L=L))
            for m in (8, 32, 128)
            for L in (1.0, 16.0)
        ]
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(compiled.replay(mach), bat)

    def test_empty_and_singleton_batches(self, routing_compiled):
        _, compiled = routing_compiled
        assert replay_batch(compiled, []) == []
        mach = BSPm(MachineParams(p=P, m=16, L=1))
        (only,) = replay_batch(compiled, [mach])
        _assert_runs_identical(
            compiled.replay(BSPm(MachineParams(p=P, m=16, L=1))), only
        )

    def test_quiet_superstep_identity(self):
        # a frame with no communication exercises the empty-histogram path
        def quiet(ctx):
            yield

        compiled = compile_program(BSPm(MachineParams(p=4, m=2, L=3)), quiet)
        machines = [BSPm(MachineParams(p=4, m=m, L=L)) for m in (2, 4) for L in (1, 5)]
        for mach, bat in zip(machines, replay_batch(compiled, machines)):
            _assert_runs_identical(compiled.replay(mach), bat)

    def test_mixed_model_classes_rejected(self, routing_compiled):
        _, compiled = routing_compiled
        with pytest.raises(ValueError, match="one model class"):
            replay_batch(
                compiled,
                [
                    BSPm(MachineParams(p=P, m=16, L=1)),
                    BSPg(MachineParams(p=P, g=1.0, L=1)),
                ],
            )

    def test_memory_kind_mismatch_rejected(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [QSMm(MachineParams(p=P, m=16)) for _ in range(2)]
        with pytest.raises(ValueError, match="message-passing"):
            replay_batch(compiled, machines)

    def test_too_few_processors_rejected(self, routing_compiled):
        _, compiled = routing_compiled
        machines = [BSPm(MachineParams(p=P // 2, m=16, L=1)) for _ in range(2)]
        with pytest.raises(ValueError, match="processors"):
            replay_batch(compiled, machines)

    def test_fault_injector_rejected(self, routing_compiled):
        from repro.faults import FaultPlan

        _, compiled = routing_compiled
        bad = BSPm(MachineParams(p=P, m=16, L=1))
        bad.inject_faults(FaultPlan(seed=0, drop_rate=0.1))
        with pytest.raises(ValueError, match="fault injector"):
            replay_batch(compiled, [BSPm(MachineParams(p=P, m=16, L=1)), bad])

    def test_tracer_falls_back_to_sequential(self, routing_compiled):
        from repro.obs.tracer import install_tracer, uninstall_tracer

        _, compiled = routing_compiled
        machines = [BSPm(MachineParams(p=P, m=m, L=1)) for m in (8, 16)]
        install_tracer()
        try:
            batched = replay_batch(compiled, machines)
        finally:
            uninstall_tracer()
        for mach, bat in zip(machines, batched):
            _assert_runs_identical(
                compiled.replay(BSPm(MachineParams(p=P, m=mach.params.m, L=1))), bat
            )


# ----------------------------------------------------------------------
# replay_batch: shared-memory (QSM) models
# ----------------------------------------------------------------------
def _qsm_program(ctx, rounds, k, span):
    addrs = (ctx.pid * k + np.arange(k, dtype=np.int64)) % span
    values = np.arange(k, dtype=np.int64) + ctx.pid
    for r in range(rounds):
        ctx.write_many(addrs, values)
        yield
        ctx.read_many((addrs + (r + 1) * k) % span)
        yield


def _qsm_machine(cls, span, **kw):
    mach = cls(MachineParams(**kw))
    mach.use_dense_memory(span)
    return mach


class TestReplayBatchSharedMemory:
    P, ROUNDS, K = 16, 3, 5

    @pytest.fixture(scope="class")
    def qsm_compiled(self):
        span = self.P * self.K
        recorder = _qsm_machine(QSMm, span, p=self.P, m=4)
        return span, compile_program(
            recorder, _qsm_program, args=(self.ROUNDS, self.K, span)
        )

    def test_qsm_m_grid_identity(self, qsm_compiled):
        span, compiled = qsm_compiled
        pens = [EXPONENTIAL, LINEAR, _SqrtPenalty()]
        machines = [
            QSMm(MachineParams(p=self.P, m=m), penalty=pens[i % len(pens)])
            for i, m in enumerate((2, 4, 8, 16, 4, 2))
        ]
        for mach in machines:
            mach.use_dense_memory(span)
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            twin = QSMm(MachineParams(p=self.P, m=mach.params.m), penalty=mach.penalty)
            twin.use_dense_memory(span)
            seq = compiled.replay(twin)
            _assert_runs_identical(seq, bat)
            # writes were applied to each batch machine exactly as sequential
            assert list(mach.shared_memory._cells) == list(twin.shared_memory._cells)
            assert mach.shared_memory._overflow == twin.shared_memory._overflow

    def test_qsm_g_grid_identity(self, qsm_compiled):
        span, compiled = qsm_compiled
        machines = [
            _qsm_machine(QSMg, span, p=self.P, g=g) for g in (1.0, 1.5, 2.0, 3.0)
        ]
        batched = replay_batch(compiled, machines)
        for mach, bat in zip(machines, batched):
            twin = _qsm_machine(QSMg, span, p=self.P, g=mach.params.g)
            _assert_runs_identical(compiled.replay(twin), bat)


# ----------------------------------------------------------------------
# schedule layer: compile_schedule / execute_schedule_batch
# ----------------------------------------------------------------------
class TestScheduleBatch:
    def test_compile_schedule_replay_matches_execute(self, routing_compiled):
        sched, compiled = routing_compiled
        machine = BSPm(MachineParams(p=P, m=SCHED_M, L=2))
        direct = execute_schedule(BSPm(MachineParams(p=P, m=SCHED_M, L=2)), sched)
        replayed = compiled.replay(machine)
        assert replayed.time == direct.time
        assert len(replayed.records) == len(direct.records)
        for ra, rb in zip(direct.records, replayed.records):
            assert rb.cost == ra.cost
            assert rb.stats == ra.stats

    def test_execute_schedule_batch_identity(self, routing_compiled):
        sched, _ = routing_compiled
        grid = [(m, L) for m in (8, 16, 32) for L in (1.0, 4.0)]
        machines = [BSPm(MachineParams(p=P, m=m, L=L)) for m, L in grid]
        batched = execute_schedule_batch(machines, sched)
        for (m, L), bat in zip(grid, batched):
            direct = execute_schedule(BSPm(MachineParams(p=P, m=m, L=L)), sched)
            assert bat.time == direct.time
            for ra, rb in zip(direct.records, bat.records):
                assert rb.cost == ra.cost
                assert rb.stats == ra.stats

    def test_execute_schedule_batch_reuses_compiled(self, routing_compiled):
        sched, compiled = routing_compiled
        machines = [BSPm(MachineParams(p=P, m=m, L=1)) for m in (8, 16)]
        out = execute_schedule_batch(machines, sched, compiled=compiled)
        assert out[0].time == compiled.replay(BSPm(MachineParams(p=P, m=8, L=1))).time

    def test_shared_memory_machine_rejected(self, routing_compiled):
        sched, _ = routing_compiled
        with pytest.raises(ValueError, match="point-to-point"):
            execute_schedule_batch([QSMm(MachineParams(p=P, m=4))], sched)


# ----------------------------------------------------------------------
# sweep runner: fingerprint grouping
# ----------------------------------------------------------------------
def _cell(x, L, seed):
    return {"x": x, "L": L, "value": x * 10 + L}


def _cell_batch_run(params_list, seeds):
    return [_cell(seed=s, **p) for p, s in zip(params_list, seeds)]


def _cell_fingerprint(params):
    return params["x"]


_cell.batch_run = _cell_batch_run
_cell.batch_fingerprint = _cell_fingerprint


def _boomy(x, L, seed):
    if L == 2:
        raise RuntimeError("bad cell")
    return x * 10 + L


def _boomy_batch_run(params_list, seeds):
    if any(p["L"] == 2 for p in params_list):
        raise RuntimeError("batch poisoned")
    return [_boomy(seed=s, **p) for p, s in zip(params_list, seeds)]


def _boomy_fingerprint(params):
    return params["x"]


_boomy.batch_run = _boomy_batch_run
_boomy.batch_fingerprint = _boomy_fingerprint

_GRID = [{"x": x, "L": L} for x in (1, 2) for L in (0, 1, 3)]


class TestSweepBatching:
    def test_serial_identity_and_stats(self):
        spec = SweepSpec(name="b", fn=_cell, grid=_GRID, seed=5)
        plain = run_sweep(spec, jobs=1, batch=False)
        fused = run_sweep(spec, jobs=1, batch=True)
        assert fused.results == plain.results
        assert plain.batch_stats["enabled"] is False
        assert fused.batch_stats["enabled"] is True
        assert fused.batch_stats["groups"] == 2  # one per x value
        assert fused.batch_stats["batched_trials"] == len(_GRID)
        assert fused.batch_stats["dispatched_units"] == 2
        assert fused.batch_stats["amortization"] == len(_GRID) / 2
        assert fused.telemetry()["batch"]["enabled"] is True
        assert fused.telemetry()["schema_version"] >= 6

    def test_default_engages_automatically(self):
        spec = SweepSpec(name="b", fn=_cell, grid=_GRID, seed=5)
        res = run_sweep(spec, jobs=1)  # batch=None
        assert res.batch_stats["enabled"] is True

    def test_pool_identity(self):
        spec = SweepSpec(name="b", fn=_cell, grid=_GRID, seed=5)
        serial = run_sweep(spec, jobs=1, batch=False)
        pooled = run_sweep(spec, jobs=2, backend="pool-steal", batch=True)
        assert pooled.results == serial.results
        assert pooled.batch_stats["enabled"] is True

    def test_tracer_disables_batching(self):
        from repro.obs.tracer import install_tracer, uninstall_tracer

        spec = SweepSpec(name="b", fn=_cell, grid=_GRID, seed=5)
        install_tracer()
        try:
            res = run_sweep(spec, jobs=1, batch=True)
        finally:
            uninstall_tracer()
        assert res.batch_stats["enabled"] is False
        assert res.results == run_sweep(spec, jobs=1, batch=False).results

    def test_failed_batch_falls_back_per_member(self):
        grid = [{"x": 1, "L": L} for L in (0, 1, 2, 3)]
        spec = SweepSpec(name="b", fn=_boomy, grid=grid, seed=5)
        res = run_sweep(spec, jobs=1, batch=True, on_error="skip")
        # only the poisoned member is skipped; its group-mates survive
        assert res.results == [10, 11, None, 13]
        assert res.skipped == 1
        assert res.batch_stats["fallbacks"] == 1

    def test_failed_batch_raises_with_member_label(self):
        from repro.sweep import TrialExecutionError

        grid = [{"x": 1, "L": L} for L in (0, 2)]
        spec = SweepSpec(name="b", fn=_boomy, grid=grid, seed=5)
        with pytest.raises(TrialExecutionError):
            run_sweep(spec, jobs=1, batch=True, on_error="raise")


# ----------------------------------------------------------------------
# experiments + serve
# ----------------------------------------------------------------------
class TestPricingAblationExperiment:
    def test_batch_on_off_identical(self):
        from repro.experiments import pricing_ablation

        kw = dict(
            p=32, n=2_000, schedule_m=8,
            m_values=(4, 8, 16), L_values=(1.0, 4.0), seed=3,
        )
        off = pricing_ablation(batch=False, **kw)
        on = pricing_ablation(batch=True, **kw)
        stats = on.pop("batch")
        off.pop("batch")
        assert on == off
        assert stats["enabled"] is True
        assert stats["amortization"] == 6.0


SCENARIO = {"p": 16, "n": 1500, "m": 64, "workload": "zipf"}


class TestServeBatching:
    def test_run_scenario_batch_identity(self):
        from repro.serve.executor import run_scenario, run_scenario_batch

        params_list = [dict(SCENARIO, L=L) for L in (1.0, 2.0, 8.0)]
        batch = run_scenario_batch(params_list, seed=7)
        for pp, got in zip(params_list, batch):
            assert got == run_scenario(pp, 7)

    def test_executor_coalesces_cold_and_warm(self, tmp_path):
        from repro.serve import ExecutorConfig, ReproServer, ServeClient
        from repro.serve.executor import run_scenario
        from repro.store.disk import DiskStore

        store = DiskStore(str(tmp_path / "store"), tag="t")
        server = ReproServer(
            port=0, store=store,
            executor=ExecutorConfig(workers=1, backoff_base=0.01),
        )
        server.start()
        try:
            client = ServeClient(server.url, timeout=60)
            Ls = [1.0, 2.0, 4.0, 8.0]
            results = {}
            lock = threading.Lock()

            def go(L):
                r = client.submit("scenario", dict(SCENARIO, L=L), seed=5)
                with lock:
                    results[L] = r

            threads = [threading.Thread(target=go, args=(L,)) for L in Ls]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            blob = json.dumps  # arrays never appear in responses
            for L in Ls:
                want = run_scenario(dict(SCENARIO, L=L), 5)
                assert blob(results[L]["result"], sort_keys=True) == blob(
                    want, sort_keys=True
                )
            warm = client.submit("scenario", dict(SCENARIO, L=2.0), seed=5)
            assert warm["cached"] is True
            assert blob(warm["result"], sort_keys=True) == blob(
                run_scenario(dict(SCENARIO, L=2.0), 5), sort_keys=True
            )
        finally:
            server.drain(timeout=30)

    def test_coalesce_config_validation(self):
        from repro.serve import ExecutorConfig

        with pytest.raises(ValueError, match="max_coalesce"):
            ExecutorConfig(max_coalesce=0)

    def test_coalesce_key_compatibility(self):
        from repro.serve.executor import _coalesce_key
        from repro.serve.protocol import Request

        def req(kind="scenario", params=None, seed=5, deadline=None):
            return Request(
                seq=0, kind=kind, params=params or dict(SCENARIO, L=1.0),
                seed=seed, fingerprint="f", cost=1, deadline=deadline,
                submitted=0.0,
            )

        base = _coalesce_key(req())
        assert base is not None
        assert _coalesce_key(req(params=dict(SCENARIO, L=9.0))) == base
        assert _coalesce_key(req(seed=6)) != base
        assert _coalesce_key(req(params=dict(SCENARIO, L=1.0, m=8))) != base
        assert _coalesce_key(req(deadline=99.0)) is None
        assert _coalesce_key(req(kind="ping")) is None
