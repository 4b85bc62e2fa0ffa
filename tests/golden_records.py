"""Golden superstep records and the digest that pins them.

``GOLDEN`` holds, for every case of ``tests/test_fused_kernel.py``'s
model x variant matrix and penalty-family gate, what the engine produced
while two independent freeze paths (per-processor chunk lists gathered at
the barrier, and machine-owned arenas) still existed and were asserted
bit-identical to each other.  With one freeze path left, these literals
are the reference it must keep reproducing.

Each entry is ``(model time, per-superstep costs, per-superstep stats,
digest)``.  The digest is :func:`run_digest`: a SHA-256 prefix over every
frozen record column (values *and* payload/address representation), the
cost breakdowns, the per-processor results and, on QSM machines, the
final shared memory.  Traced runs share the plain entries: observing a
run must not change it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["GOLDEN", "canon_column", "norm", "run_digest", "golden_of"]

_BREAKDOWN = ("work", "local_band", "global_band", "latency", "contention")


def norm(value):
    """Canonical nested-python form of a result for cross-path equality
    (unwraps ``CorruptedPayload`` markers, flattens arrays)."""
    from repro.faults.plan import CorruptedPayload

    if isinstance(value, CorruptedPayload):
        return ("corrupted", norm(value.original))
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [norm(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def canon_column(col):
    """Column value *and* representation (None / typed array / list)."""
    if col is None:
        return None
    if isinstance(col, np.ndarray):
        return ("array", col.dtype.str, col.tolist())
    return ("list", norm(list(col)))


def run_digest(res, memory=None) -> str:
    """SHA-256 prefix over a run's frozen columns, breakdowns, results and
    (optionally) final shared memory."""
    parts = []
    for r in res.records:
        m = r.msg_batch
        parts.append((
            r.index,
            [float(w) for w in r.work],
            [float(getattr(r.breakdown, f)) for f in _BREAKDOWN],
            [getattr(m, c).tolist() for c in ("src", "dest", "size", "slot", "consecutive")],
            canon_column(m.payload),
            [
                (b.pid.tolist(), b.slot.tolist(), canon_column(b.addr), canon_column(b.value))
                for b in (r.read_batch, r.write_batch)
            ],
        ))
    parts.append(norm(res.results))
    if memory is not None:
        # keys of one type sort among themselves (int and tuple addresses mix)
        items = sorted(memory.items(), key=lambda kv: (type(kv[0]).__name__, kv[0]))
        parts.append([(k, norm(v)) for k, v in items])
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def golden_of(res, memory=None):
    """``(time, costs, stats, digest)`` of a run, in ``GOLDEN``'s layout."""
    return (
        res.time,
        [r.cost for r in res.records],
        [{k: float(v) for k, v in sorted(r.stats.items())} for r in res.records],
        run_digest(res, memory),
    )


GOLDEN = {
    ('plain', 'BSPg'): (
        24.0,
        [8.0, 8.0, 8.0],
        [
            {'h': 3.0, 'n': 24.0, 'w': 2.75},
            {'h': 4.0, 'n': 32.0, 'w': 0.0},
            {'h': 3.0, 'n': 12.0, 'w': 0.0},
        ],
        '1e7efb8648f03a49',
    ),
    ('plain', 'BSPm'): (
        27.027972799213316,
        [8.154845485377136, 10.87312731383618, 8.0],
        [
            {'c_m': 8.154845485377136, 'c_m_paper': 8.154845485377136, 'h': 3.0, 'max_slot_load': 8.0, 'n': 24.0, 'overloaded_slots': 3.0, 'span': 3.0, 'w': 2.75},
            {'c_m': 10.87312731383618, 'c_m_paper': 10.87312731383618, 'h': 4.0, 'max_slot_load': 8.0, 'n': 32.0, 'overloaded_slots': 4.0, 'span': 4.0, 'w': 0.0},
            {'c_m': 3.0, 'c_m_paper': 3.0, 'h': 3.0, 'max_slot_load': 4.0, 'n': 12.0, 'overloaded_slots': 0.0, 'span': 3.0, 'w': 0.0},
        ],
        'ef40731a57127bec',
    ),
    ('plain', 'SelfSchedulingBSPm'): (
        24.0,
        [8.0, 8.0, 8.0],
        [
            {'h': 3.0, 'n': 24.0, 'w': 2.75},
            {'h': 4.0, 'n': 32.0, 'w': 0.0},
            {'h': 3.0, 'n': 12.0, 'w': 0.0},
        ],
        '7da251236cc63de4',
    ),
    ('plain', 'QSMg'): (
        20.0,
        [10.0, 10.0],
        [
            {'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'w': 3.5},
            {'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'w': 0.0},
        ],
        'f896b14cd785117f',
    ),
    ('plain', 'QSMm'): (
        27.18281828459045,
        [13.591409142295225, 13.591409142295225],
        [
            {'c_m': 13.591409142295225, 'c_m_paper': 13.591409142295225, 'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'overloaded_slots': 5.0, 'span': 5.0, 'w': 3.5},
            {'c_m': 13.591409142295225, 'c_m_paper': 13.591409142295225, 'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'overloaded_slots': 5.0, 'span': 5.0, 'w': 0.0},
        ],
        '76b6388a12b50843',
    ),
    ('faulted', 'BSPg'): (
        24.0,
        [8.0, 8.0, 8.0],
        [
            {'fault_corrupted': 3.0, 'fault_delivered': 16.0, 'fault_dropped': 4.0, 'fault_duplicated': 4.0, 'fault_injected': 16.0, 'fault_reordered': 3.0, 'h': 3.0, 'n': 24.0, 'w': 2.75},
            {'fault_corrupted': 5.0, 'fault_delivered': 29.0, 'fault_dropped': 9.0, 'fault_duplicated': 6.0, 'fault_injected': 32.0, 'fault_reordered': 7.0, 'h': 4.0, 'n': 32.0, 'w': 0.0},
            {'fault_corrupted': 0.0, 'fault_delivered': 4.0, 'fault_dropped': 0.0, 'fault_duplicated': 0.0, 'fault_injected': 4.0, 'fault_reordered': 0.0, 'h': 3.0, 'n': 12.0, 'w': 0.0},
        ],
        '5b700e894492d0f2',
    ),
    ('faulted', 'BSPm'): (
        27.027972799213316,
        [8.154845485377136, 10.87312731383618, 8.0],
        [
            {'c_m': 8.154845485377136, 'c_m_paper': 8.154845485377136, 'fault_corrupted': 3.0, 'fault_delivered': 16.0, 'fault_dropped': 4.0, 'fault_duplicated': 4.0, 'fault_injected': 16.0, 'fault_reordered': 3.0, 'h': 3.0, 'max_slot_load': 8.0, 'n': 24.0, 'overloaded_slots': 3.0, 'span': 3.0, 'w': 2.75},
            {'c_m': 10.87312731383618, 'c_m_paper': 10.87312731383618, 'fault_corrupted': 5.0, 'fault_delivered': 29.0, 'fault_dropped': 9.0, 'fault_duplicated': 6.0, 'fault_injected': 32.0, 'fault_reordered': 7.0, 'h': 4.0, 'max_slot_load': 8.0, 'n': 32.0, 'overloaded_slots': 4.0, 'span': 4.0, 'w': 0.0},
            {'c_m': 3.0, 'c_m_paper': 3.0, 'fault_corrupted': 0.0, 'fault_delivered': 4.0, 'fault_dropped': 0.0, 'fault_duplicated': 0.0, 'fault_injected': 4.0, 'fault_reordered': 0.0, 'h': 3.0, 'max_slot_load': 4.0, 'n': 12.0, 'overloaded_slots': 0.0, 'span': 3.0, 'w': 0.0},
        ],
        '6b0442bdb2a95568',
    ),
    ('faulted', 'SelfSchedulingBSPm'): (
        24.0,
        [8.0, 8.0, 8.0],
        [
            {'fault_corrupted': 3.0, 'fault_delivered': 16.0, 'fault_dropped': 4.0, 'fault_duplicated': 4.0, 'fault_injected': 16.0, 'fault_reordered': 3.0, 'h': 3.0, 'n': 24.0, 'w': 2.75},
            {'fault_corrupted': 5.0, 'fault_delivered': 29.0, 'fault_dropped': 9.0, 'fault_duplicated': 6.0, 'fault_injected': 32.0, 'fault_reordered': 7.0, 'h': 4.0, 'n': 32.0, 'w': 0.0},
            {'fault_corrupted': 0.0, 'fault_delivered': 4.0, 'fault_dropped': 0.0, 'fault_duplicated': 0.0, 'fault_injected': 4.0, 'fault_reordered': 0.0, 'h': 3.0, 'n': 12.0, 'w': 0.0},
        ],
        '58bdf064539a3b08',
    ),
    ('faulted', 'QSMg'): (
        20.0,
        [10.0, 10.0],
        [
            {'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'w': 3.5},
            {'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'w': 0.0},
        ],
        'f896b14cd785117f',
    ),
    ('faulted', 'QSMm'): (
        27.18281828459045,
        [13.591409142295225, 13.591409142295225],
        [
            {'c_m': 13.591409142295225, 'c_m_paper': 13.591409142295225, 'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'overloaded_slots': 5.0, 'span': 5.0, 'w': 3.5},
            {'c_m': 13.591409142295225, 'c_m_paper': 13.591409142295225, 'h': 5.0, 'kappa': 2.0, 'n': 40.0, 'overloaded_slots': 5.0, 'span': 5.0, 'w': 0.0},
        ],
        '76b6388a12b50843',
    ),
    ('penalty', 'linear'): (
        24.0,
        [8.0, 8.0, 8.0],
        [
            {'c_m': 6.0, 'c_m_paper': 6.0, 'h': 3.0, 'max_slot_load': 8.0, 'n': 24.0, 'overloaded_slots': 3.0, 'span': 3.0, 'w': 2.75},
            {'c_m': 8.0, 'c_m_paper': 8.0, 'h': 4.0, 'max_slot_load': 8.0, 'n': 32.0, 'overloaded_slots': 4.0, 'span': 4.0, 'w': 0.0},
            {'c_m': 3.0, 'c_m_paper': 3.0, 'h': 3.0, 'max_slot_load': 4.0, 'n': 12.0, 'overloaded_slots': 0.0, 'span': 3.0, 'w': 0.0},
        ],
        '7da251236cc63de4',
    ),
    ('penalty', 'exponential'): (
        27.027972799213316,
        [8.154845485377136, 10.87312731383618, 8.0],
        [
            {'c_m': 8.154845485377136, 'c_m_paper': 8.154845485377136, 'h': 3.0, 'max_slot_load': 8.0, 'n': 24.0, 'overloaded_slots': 3.0, 'span': 3.0, 'w': 2.75},
            {'c_m': 10.87312731383618, 'c_m_paper': 10.87312731383618, 'h': 4.0, 'max_slot_load': 8.0, 'n': 32.0, 'overloaded_slots': 4.0, 'span': 4.0, 'w': 0.0},
            {'c_m': 3.0, 'c_m_paper': 3.0, 'h': 3.0, 'max_slot_load': 4.0, 'n': 12.0, 'overloaded_slots': 0.0, 'span': 3.0, 'w': 0.0},
        ],
        'ef40731a57127bec',
    ),
    ('penalty', 'polynomial'): (
        64.0,
        [24.0, 32.0, 8.0],
        [
            {'c_m': 24.0, 'c_m_paper': 24.0, 'h': 3.0, 'max_slot_load': 8.0, 'n': 24.0, 'overloaded_slots': 3.0, 'span': 3.0, 'w': 2.75},
            {'c_m': 32.0, 'c_m_paper': 32.0, 'h': 4.0, 'max_slot_load': 8.0, 'n': 32.0, 'overloaded_slots': 4.0, 'span': 4.0, 'w': 0.0},
            {'c_m': 3.0, 'c_m_paper': 3.0, 'h': 3.0, 'max_slot_load': 4.0, 'n': 12.0, 'overloaded_slots': 0.0, 'span': 3.0, 'w': 0.0},
        ],
        '7a740c76dce5f68b',
    ),
}
