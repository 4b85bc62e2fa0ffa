"""Column pricers of the five paper models: one superstep, B machines.

A paper model prices a superstep from a parameter-free summary of its
record — max work ``w``, the per-processor ``h``, the slot-injection
histogram, QSM contention ``kappa`` — under the machine's parameters
``(g, m, L, f_m)``.  Each function here takes a list of machines of one
model class and one frozen :class:`~repro.core.events.SuperstepRecord`,
extracts that summary once (enforcing the model's rules on the way, e.g.
one injection per processor per slot), and returns one ``(cost,
CostBreakdown, stats)`` triple per machine.  The models bind these as
their :meth:`~repro.core.engine.Machine._price_batch`, the one pricing
entry point: the trampoline barrier, compiled replay and the fault audit
price at B=1, :func:`repro.core.batched.replay_batch` at B.

Bit-identity contract: triple ``b`` depends only on machine ``b`` — the
histogram charge reduces through
:func:`repro.core.kernels.slot_charge_stats_batched`, whose row ``b``
equals its B=1 call — and the stats dicts keep their historical key
insertion order, so model times, breakdowns and stats are those pinned
by ``tests/golden_records.py``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.engine import Machine, PriceResult
from repro.core.events import CostBreakdown, SuperstepRecord
from repro.core.kernels import slot_charge_stats_batched

__all__ = [
    "price_bsp_g_batch",
    "price_bsp_m_batch",
    "price_qsm_g_batch",
    "price_qsm_m_batch",
    "price_self_scheduling_batch",
]


def _work_max(record: SuperstepRecord) -> float:
    return max(record.work) if record.work else 0.0


def _msg_h(machine: Machine, record: SuperstepRecord) -> int:
    s_max, r_max = machine._max_per_proc_sends_recvs(record, machine.params.p)
    return max(s_max, r_max)


def price_bsp_g_batch(
    machines: Sequence[Machine], record: SuperstepRecord
) -> List[PriceResult]:
    """BSP(g): ``T = max(w, g*h, L)`` (paper Section 2)."""
    w = _work_max(record)
    h = _msg_h(machines[0], record)
    out: List[PriceResult] = []
    for mach in machines:
        breakdown = CostBreakdown(
            work=w, local_band=mach.params.g * h, latency=mach.params.L
        )
        stats = {"h": float(h), "w": w, "n": float(record.total_flits)}
        out.append((breakdown.total(), breakdown, stats))
    return out


def price_bsp_m_batch(
    machines: Sequence[Machine], record: SuperstepRecord
) -> List[PriceResult]:
    """BSP(m): ``T = max(w, h, c_m, L)`` with ``c_m`` priced from the
    slot-injection histogram by each machine's penalty (paper Section 2);
    one :func:`slot_charge_stats_batched` pass prices every machine."""
    w = _work_max(record)
    h = _msg_h(machines[0], record)
    counts = np.bincount(machines[0]._flit_slots(record))
    comm, c_m_paper, span, overloaded, max_load = slot_charge_stats_batched(
        counts,
        [mach.params.require_m() for mach in machines],
        [mach.penalty for mach in machines],
    )
    out: List[PriceResult] = []
    for b, mach in enumerate(machines):
        breakdown = CostBreakdown(
            work=w,
            local_band=float(h),
            global_band=float(comm[b]),
            latency=mach.params.L,
        )
        stats = {
            "h": float(h),
            "w": w,
            "n": float(record.total_flits),
            "c_m": float(comm[b]),
            "c_m_paper": float(c_m_paper[b]),
            "span": span,
            "overloaded_slots": float(overloaded[b]),
            "max_slot_load": float(max_load),
        }
        out.append((breakdown.total(), breakdown, stats))
    return out


def price_qsm_g_batch(
    machines: Sequence[Machine], record: SuperstepRecord
) -> List[PriceResult]:
    """QSM(g): ``T = max(w, g*h, kappa)`` (paper Section 2)."""
    w = _work_max(record)
    h = machines[0]._qsm_h(record)
    kappa = machines[0]._qsm_contention(record)
    out: List[PriceResult] = []
    for mach in machines:
        breakdown = CostBreakdown(
            work=w, local_band=mach.params.g * h, contention=float(kappa)
        )
        stats = {
            "h": float(h),
            "w": w,
            "kappa": float(kappa),
            "n": float(record.n_reads + record.n_writes),
        }
        out.append((breakdown.total(), breakdown, stats))
    return out


def price_qsm_m_batch(
    machines: Sequence[Machine], record: SuperstepRecord
) -> List[PriceResult]:
    """QSM(m): ``T = max(w, h, kappa, c_m)`` with ``c_m`` priced from the
    request-slot histogram (paper Section 2); one histogram pass prices
    every machine."""
    w = _work_max(record)
    h = machines[0]._qsm_h(record)
    kappa = machines[0]._qsm_contention(record)
    counts = np.bincount(machines[0]._request_slots(record))
    comm, c_m_paper, span, overloaded, _ = slot_charge_stats_batched(
        counts,
        [mach.params.require_m() for mach in machines],
        [mach.penalty for mach in machines],
    )
    out: List[PriceResult] = []
    for b in range(len(machines)):
        breakdown = CostBreakdown(
            work=w,
            local_band=float(h),
            global_band=float(comm[b]),
            contention=float(kappa),
        )
        stats = {
            "h": float(h),
            "w": w,
            "kappa": float(kappa),
            "c_m": float(comm[b]),
            "c_m_paper": float(c_m_paper[b]),
            "span": span,
            "overloaded_slots": float(overloaded[b]),
            "n": float(record.n_reads + record.n_writes),
        }
        out.append((breakdown.total(), breakdown, stats))
    return out


def price_self_scheduling_batch(
    machines: Sequence[Machine], record: SuperstepRecord
) -> List[PriceResult]:
    """Self-scheduling BSP(m): ``T = max(w, h, n/m, L)`` — the simplified
    metric whose executability Unbalanced-Send certifies (Theorem 6.2)."""
    w = _work_max(record)
    h = _msg_h(machines[0], record)
    n = record.total_flits
    out: List[PriceResult] = []
    for mach in machines:
        breakdown = CostBreakdown(
            work=w,
            local_band=float(h),
            global_band=n / mach.params.require_m(),
            latency=mach.params.L,
        )
        stats = {"h": float(h), "w": w, "n": float(n)}
        out.append((breakdown.total(), breakdown, stats))
    return out
