"""Computing and broadcasting ``n`` on the BSP(m) — the ``tau`` phase.

All three senders of Section 6.1 begin with "processors perform a prefix sum
and a broadcast to inform every processor of the value n".  This module
implements that phase as a real BSP(m) engine program and exposes the
analytic bound

.. math:: \\tau = O(p/m + L + L \\lg m / \\lg L)

The structure (matching the bound term by term):

1. **Funnel** — each non-aggregator processor sends its local count to
   aggregator ``pid mod a`` (``a = min(p, m)`` aggregators), staggered so
   that exactly ``a`` flits enter the network per slot: ``p/m`` time.
2. **Tree reduce** — the aggregators sum up a ``b``-ary tree with branching
   ``b = max(2, floor(L))``: ``ceil(log_b a)`` supersteps of cost ``L`` each,
   i.e. ``O(L lg m / lg L)``.
3. **Tree broadcast** — the total returns down the same tree.
4. **Fan-out** — each aggregator sends the total to its group members,
   staggered as in step 1: ``p/m + L`` time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.engine import Machine, RunResult
from repro.core.params import MachineParams
from repro.util.intmath import ceil_div
from repro.util.validation import check_positive

__all__ = ["sum_and_broadcast", "sum_and_broadcast_program", "tau_bound"]


def _tree_rounds(a: int, b: int) -> int:
    """Number of reduce rounds for ``a`` leaves with branching ``b``."""
    rounds = 0
    span = 1
    while span < a:
        span *= b
        rounds += 1
    return rounds


def sum_and_broadcast_program(ctx, a: int, b: int, value: float):
    """BSP(m) SPMD program: every processor ends up returning
    ``sum of all values``.

    Parameters are the aggregator count ``a``, tree branching ``b`` and this
    processor's local ``value`` (supplied via ``per_proc_args``).
    """
    p = ctx.nprocs
    pid = ctx.pid
    rounds = _tree_rounds(a, b)

    # --- Stage 1: funnel to aggregators -------------------------------
    if pid >= a:
        # Senders with the same pid//a share a slot: exactly a (<= m) per slot.
        ctx.send(pid % a, value, slot=pid // a - 1)
    yield
    total = value
    if pid < a:
        total += sum(msg.payload for msg in ctx.receive())

    # --- Stage 2: b-ary tree reduce over aggregators 0..a-1 -----------
    stride = 1
    for _ in range(rounds):
        block = stride * b
        if pid < a and pid % block != 0 and pid % stride == 0:
            ctx.send(pid - pid % block, total, slot=0)
        yield
        if pid < a and pid % block == 0:
            total += sum(msg.payload for msg in ctx.receive())
        stride = block

    # --- Stage 3: tree broadcast of the grand total -------------------
    # Descend the same tree in reverse round order.
    strides = [b**r for r in range(rounds)]  # 1, b, b^2, ...
    for stride in reversed(strides):
        block = stride * b
        if pid < a and pid % block == 0:
            k = 0
            for child in range(pid + stride, min(pid + block, a), stride):
                ctx.send(child, total, slot=k)
                k += 1
        yield
        if pid < a and pid % block != 0 and pid % stride == 0:
            msgs = ctx.receive()
            if msgs:
                total = msgs[0].payload

    # --- Stage 4: fan out to group members ----------------------------
    if pid < a:
        k = 0
        for member in range(pid + a, p, a):
            ctx.send(member, total, slot=k)
            k += 1
    yield
    if pid >= a:
        msgs = ctx.receive()
        if msgs:
            total = msgs[0].payload
    return total


def sum_and_broadcast(
    machine: Machine, values: Sequence[float], branching: int | None = None
) -> Tuple[RunResult, List[float]]:
    """Run the prefix-sum/broadcast phase on ``machine``.

    Returns the engine :class:`RunResult` (whose ``.time`` is the measured
    ``tau``) and the per-processor totals — all equal to ``sum(values)``.
    """
    params = machine.params
    p = params.p
    if len(values) != p:
        raise ValueError(f"{len(values)} values for {p} processors")
    a = min(p, params.m) if params.m is not None else p
    b = branching if branching is not None else max(2, int(params.L))
    result = machine.run(
        sum_and_broadcast_program,
        args=(a, b),
        per_proc_args=[(v,) for v in values],
    )
    return result, list(result.results)


def tau_bound(params: MachineParams, branching: int | None = None) -> float:
    """Analytic bound ``tau = O(p/m + L + L lg m / lg L)`` with explicit
    constants matching :func:`sum_and_broadcast_program`'s structure: two
    funnel/fan-out stages of ``max(ceil(p/m), L)`` and two tree traversals
    of ``ceil(log_b m)`` supersteps each."""
    check_positive("p", params.p)
    m = params.require_m()
    L = params.L
    a = min(params.p, m)
    b = branching if branching is not None else max(2, int(L))
    rounds = _tree_rounds(a, b)
    funnel = max(ceil_div(params.p, a), L)
    return 2 * funnel + 2 * rounds * max(float(b), L)
