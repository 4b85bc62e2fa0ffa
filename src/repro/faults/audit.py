"""Debug-mode invariant auditor for engine runs.

Enabled with ``machine.run(program, audit=True)``.  After every barrier the
auditor re-derives the superstep's price from the frozen record and checks
the delivery bookkeeping, catching the two classes of bug that silently
corrupt experiments:

* **flit conservation** — every message the engine delivered is accounted
  for: inbox totals must equal the delivered batch, and when a fault
  injector is active the injector's ledger must balance
  (``delivered = injected − dropped + duplicated``);
* **cost reconciliation** — pricing must be a pure function of the frozen
  record: re-pricing the same record must reproduce the recorded cost,
  breakdown and stats exactly (this is the engine-side half of the
  evaluator-vs-engine agreement pinned by ``tests/test_execute.py``), and
  the recorded cost can never undercut its own breakdown.

The auditor lives in the fault layer because it shares the layer's
contract: zero cost when disabled, loud and structured when something is
wrong.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.events import MessageBatch, SuperstepRecord

__all__ = ["AuditViolation", "audit_record"]


class AuditViolation(AssertionError):
    """An engine invariant failed during an audited run.

    Subclasses :class:`AssertionError` because a violation always means a
    bug in the engine/models (or a tampered record), never user error.
    """


def _fail(record: SuperstepRecord, what: str) -> None:
    raise AuditViolation(f"superstep {record.index}: {what}")


def audit_record(
    machine,
    record: SuperstepRecord,
    procs: List,
    delivered: Optional[MessageBatch] = None,
) -> None:
    """Check one barrier's invariants; raise :class:`AuditViolation` on the
    first failure.  ``delivered`` is the fault-transformed batch (``None``
    means delivery used the record's own batch)."""
    batch = record.msg_batch if delivered is None else delivered
    # -- flit conservation --------------------------------------------------
    inbox_msgs = sum(len(proc.inbox) for proc in procs)
    if inbox_msgs != batch.n:
        _fail(
            record,
            f"flit conservation broken: {batch.n} messages delivered but "
            f"{inbox_msgs} present in inboxes",
        )
    stats = record.stats
    if "fault_injected" in stats:
        expected = (
            stats["fault_injected"]
            - stats["fault_dropped"]
            + stats["fault_duplicated"]
        )
        if stats["fault_delivered"] != expected:
            _fail(
                record,
                "fault ledger unbalanced: delivered "
                f"{stats['fault_delivered']:.0f} != injected "
                f"{stats['fault_injected']:.0f} - dropped "
                f"{stats['fault_dropped']:.0f} + duplicated "
                f"{stats['fault_duplicated']:.0f}",
            )
        if delivered is not None and delivered.n != int(stats["fault_delivered"]):
            _fail(
                record,
                f"delivered batch has {delivered.n} messages but the record "
                f"claims {stats['fault_delivered']:.0f}",
            )
    # -- cost reconciliation ------------------------------------------------
    cost2, breakdown2, stats2 = machine._price_batch([machine], record)[0]
    if cost2 != record.cost:
        _fail(
            record,
            f"re-pricing disagrees with the recorded cost: {cost2!r} != "
            f"{record.cost!r}",
        )
    if record.cost < record.breakdown.total():
        _fail(
            record,
            f"recorded cost {record.cost!r} undercuts its own breakdown "
            f"total {record.breakdown.total()!r}",
        )
    for key, value in stats2.items():
        if stats.get(key) != value:
            _fail(
                record,
                f"re-priced stat {key!r} = {value!r} disagrees with the "
                f"recorded {stats.get(key)!r}",
            )
    if breakdown2 != record.breakdown:
        _fail(record, "re-priced breakdown disagrees with the recorded one")
