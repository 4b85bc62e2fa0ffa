"""Realizing h-relations on the CRCW PRAM — the Section 4.1 gadget.

Section 4.1 converts CRCW PRAM lower bounds into BSP(g) lower bounds by
showing the converse simulation is cheap: a CRCW PRAM can realize any
h-relation in ``O(h)`` steps, so a BSP(g) superstep of communication cost
``g·h`` maps to ``O(h)`` CRCW steps and any CRCW time lower bound ``t(n)``
lifts to ``Ω(g·t(n))`` on the BSP(g).

We implement the paper's third variant (the ``x̄ < lg lg p`` branch, which
is fully executable): every source processor gets a *team* of ``x̄`` helper
processors, one per message.  Each round every undelivered message performs
a concurrent write to its destination's mailbox cell; the Arbitrary rule
picks one winner per destination; winners check success by reading the cell
back, and the destination copies the message out.  Every destination with
pending traffic receives exactly one message per round, so the loop ends
after exactly ``ȳ <= h`` rounds of O(1) steps each.

Also here: :func:`crcw_max` — the constant-time maximum with ``p^2``
processors (Step 1 of the paper's first algorithm), and
:func:`bsp_lower_bound_from_crcw` — the executable form of the lower-bound
conversion.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.core.engine import RunResult
from repro.core.params import MachineParams
from repro.models.pram import PRAM, ConcurrencyRule
from repro.workloads.relations import HRelation

__all__ = [
    "realize_h_relation_crcw",
    "realize_h_relation_crcw_randomized",
    "crcw_max",
    "bsp_lower_bound_from_crcw",
    "bsp_lower_bound_from_crcw_randomized",
    "bsp_lower_bound_from_crcw_deterministic",
]

#: Failure budget of :func:`realize_h_relation_crcw_randomized`'s default
#: round cap (the derivation is in that function's docstring).
CRCW_DELIVERY_FAILURE_BUDGET = 1e-6


def _msgs_by_source(rel: HRelation) -> List[List[Tuple[int, Any]]]:
    """Per-source ``(dest, payload=src)`` message lists, grouped by one
    stable argsort of the relation's columns (record order preserved
    within each source)."""
    order = np.argsort(rel.src, kind="stable")
    dest_sorted = rel.dest[order]
    src_sorted = rel.src[order]
    bounds = np.searchsorted(src_sorted, np.arange(rel.p + 1))
    return [
        list(
            zip(
                dest_sorted[bounds[i] : bounds[i + 1]].tolist(),
                src_sorted[bounds[i] : bounds[i + 1]].tolist(),
            )
        )
        for i in range(rel.p)
    ]


def _team_program(ctx, x_bar: int, max_rounds: int, my_msg, is_reader: bool):
    """One engine processor per (source, slot-in-team).

    ``my_msg`` is ``None`` or ``(dest, payload)``.  Processor ``i * x_bar``
    doubles as the reader for destination ``i``.
    """
    pid = ctx.pid
    dest_id = pid // x_bar  # the destination this proc reads for
    delivered = False if my_msg is not None else True
    received: List[Any] = []

    for rnd in range(max_rounds):
        # Step A: every undelivered message concurrent-writes its mailbox.
        if not delivered:
            dest, payload = my_msg
            ctx.write(("mbox", rnd, dest), (pid, payload))
        yield
        # Step B: writers read back to learn the Arbitrary winner; the
        # destination's reader copies the message out.
        handle = None
        if not delivered:
            handle = ctx.read(("mbox", rnd, my_msg[0]))
        rhandle = None
        if is_reader:
            rhandle = ctx.read(("mbox", rnd, dest_id))
        yield
        if handle is not None:
            winner, _payload = handle.value
            if winner == pid:
                delivered = True
        if rhandle is not None and rhandle.value is not None:
            _winner, payload = rhandle.value
            received.append(payload)
    return received if is_reader else None


def realize_h_relation_crcw(
    rel: HRelation, max_rounds: int | None = None
) -> Tuple[RunResult, List[List[Any]]]:
    """Route ``rel`` (unit-length messages) on an Arbitrary-CRCW PRAM with
    ``p * x̄`` processors in ``O(ȳ) <= O(h)`` rounds.

    Returns ``(run_result, delivered)`` where ``delivered[i]`` is the list
    of payloads received by destination ``i`` (payload = source id).
    ``run_result.time`` counts PRAM steps; dividing a BSP(g) superstep's
    ``g·h`` charge by it is the Section 4.1 conversion factor.
    """
    if np.any(rel.length != 1):
        raise ValueError("the CRCW realization handles unit-length messages")
    p = rel.p
    x = rel.sizes
    x_bar = max(1, int(x.max()) if x.size else 0)
    y_bar = int(rel.recv_sizes.max()) if rel.n else 0
    rounds = max_rounds if max_rounds is not None else max(1, y_bar)

    # Assign message k-of-source-i to engine processor i*x_bar + k.
    msgs_of = _msgs_by_source(rel)
    per_proc = []
    for i in range(p):
        for k in range(x_bar):
            my = msgs_of[i][k] if k < len(msgs_of[i]) else None
            per_proc.append((my, k == 0))

    pram = PRAM(MachineParams(p=p * x_bar), rule=ConcurrencyRule.CRCW)
    res = pram.run(_team_program, args=(x_bar, rounds), per_proc_args=per_proc)
    delivered = [res.results[i * x_bar] or [] for i in range(p)]
    return res, delivered


# ----------------------------------------------------------------------
# Constant-time CRCW maximum with p^2 processors (Step 1 of §4.1)
# ----------------------------------------------------------------------


def _max_program(ctx, p: int, value):
    """Processors ``0..p-1`` hold values; processors ``p + i*p + j`` are the
    comparison grid.  Three O(1) steps: publish, knock out, read winner."""
    pid = ctx.pid
    if pid < p:
        ctx.write(("val", pid), value)
        ctx.write(("win", pid), 1)
    yield
    hi = hj = None
    if pid >= p:
        k = pid - p
        i, j = divmod(k, p)
        if i != j:
            hi = ctx.read(("val", i))
            hj = ctx.read(("val", j))
    yield
    if pid >= p and hi is not None:
        k = pid - p
        i, j = divmod(k, p)
        vi, vj = hi.value, hj.value
        # i is knocked out if a strictly larger value exists (ties broken by id)
        if (vi, i) < (vj, j):
            ctx.write(("win", i), 0)
    yield
    handles = None
    if pid < p:
        handles = ctx.read(("win", pid))
    yield
    if pid < p and handles.value == 1:
        ctx.write(("max",), value)
    yield
    out = ctx.read(("max",))
    yield
    return out.value


def crcw_max(values: Sequence[float]) -> Tuple[RunResult, float]:
    """Maximum of ``p`` values in O(1) CRCW steps using ``p + p^2``
    processors.  Returns ``(run_result, maximum)`` with every processor
    knowing the answer."""
    p = len(values)
    if p == 0:
        raise ValueError("crcw_max needs at least one value")
    pram = PRAM(MachineParams(p=p + p * p), rule=ConcurrencyRule.CRCW)
    per_proc = [(values[i] if i < p else None,) for i in range(p + p * p)]
    res = pram.run(_max_program, args=(p,), per_proc_args=per_proc)
    return res, res.results[0]


# ----------------------------------------------------------------------
# The lower-bound conversion itself
# ----------------------------------------------------------------------


def bsp_lower_bound_from_crcw(crcw_time_lower: float, g: float) -> float:
    """Section 4.1: a CRCW PRAM time lower bound ``t(n)`` (unbounded local
    computation, polynomial processors) implies a ``Ω(g · t(n))`` lower
    bound on the BSP(g), because the CRCW realizes each superstep's
    h-relation in ``O(h)`` steps while the BSP(g) pays ``g·h``."""
    if g < 1:
        raise ValueError(f"gap g must be >= 1, got {g}")
    return g * crcw_time_lower


def bsp_lower_bound_from_crcw_randomized(
    crcw_time_lower: float, g: float, L: float, p: int
) -> float:
    """Section 4.1, randomized version: a randomized CRCW time lower bound
    ``t(n)`` lifts to ``g · t(n) · min((L+g)/(g·lg* p), 1)`` on the
    BSP(g), via the ``O(h + lg* p)``-time w.h.p. CRCW h-relation algorithm
    (approximate integer sorting + nearest-zero).  For ``L >= g·lg* p``
    this is the full ``g · t(n)``."""
    from repro.util.intmath import log_star

    if g < 1:
        raise ValueError(f"gap g must be >= 1, got {g}")
    ls = max(1, log_star(p))
    return g * crcw_time_lower * min((L + g) / (g * ls), 1.0)


def bsp_lower_bound_from_crcw_deterministic(
    crcw_time_lower: float, g: float
) -> float:
    """Section 4.1, deterministic version: a deterministic time lower bound
    on a ``(p lg lg p)``-processor Arbitrary-CRCW PRAM lifts to the full
    ``g · t(n)`` on the ``p``-processor BSP(g), via the O(h)-time,
    ``lg lg p``-factor-work h-relation realization (integer chain sorting
    for ``x̄ >= lg lg p``, write-retry teams below)."""
    if g < 1:
        raise ValueError(f"gap g must be >= 1, got {g}")
    return g * crcw_time_lower


def _randomized_team_program(ctx, x_bar: int, bucket: int, max_rounds: int, my_msg, is_reader: bool, seed: int):
    """Randomized delivery: each undelivered message throws a dart at a
    random cell of its destination's bucket each round; Arbitrary-CRCW
    resolves collisions, winners retire.  With bucket size ``c·h`` and at
    most ``h`` contenders per destination, each dart lands with constant
    probability, so all messages land within ``O(lg n)`` rounds w.h.p."""
    import random as _random

    pid = ctx.pid
    rng = _random.Random(seed)
    dest_id = pid // x_bar
    delivered = my_msg is None
    rounds_used = 0

    for rnd in range(max_rounds):
        # Probe-then-claim: darts target only cells observed empty, so a
        # landed message is never clobbered by later rounds (nobody writes
        # to a non-empty cell).
        cell = rng.randrange(bucket) if not delivered else 0
        probe = None
        if not delivered:
            probe = ctx.read(("bkt", my_msg[0], cell))
        yield
        wrote = False
        if probe is not None and probe.value is None:
            dest, payload = my_msg
            ctx.write(("bkt", dest, cell), (pid, payload))
            wrote = True
        yield
        handle = None
        if wrote:
            handle = ctx.read(("bkt", my_msg[0], cell))
        yield
        if handle is not None and handle.value is not None:
            winner, _payload = handle.value
            if winner == pid:
                delivered = True
                rounds_used = rnd + 1

    # Readers scan their bucket in O(bucket) = O(c·h) steps, one cell/step.
    received = []
    if is_reader:
        for cell in range(bucket):
            h = ctx.read(("bkt", dest_id, cell))
            yield
            if h.value is not None:
                received.append(h.value[1])
    else:
        for _ in range(bucket):
            yield
    return (received, rounds_used) if is_reader else (None, rounds_used)


def realize_h_relation_crcw_randomized(
    rel: HRelation,
    c: int = 4,
    max_rounds: int | None = None,
    seed=None,
) -> Tuple[RunResult, List[List[Any]]]:
    """Randomized CRCW h-relation delivery in ``O(h + lg n)`` steps w.h.p.
    (the practical face of §4.1's randomized conversion, whose full
    ``O(h + lg* p)`` bound uses approximate integer sorting).

    Each message's team processor darts into its destination's size-``c·h``
    bucket until it wins a cell; destinations then scan their buckets.
    Raises :class:`RuntimeError` if a message fails to land within
    ``max_rounds``.

    The default cap follows from a failure budget ``δ`` =
    :data:`CRCW_DELIVERY_FAILURE_BUDGET`.  At most ``h - 1`` other
    messages share a destination, and each of them holds or contests at
    most one of its ``c·h`` cells in a round, so a dart misses with
    probability ``<= (h - 1)/(c·h) < 1/c`` whatever happened before.  A
    message is thus still undelivered after ``R`` rounds with probability
    ``< c^-R``, and by the union bound ``P(some message fails) <=
    n·c^-R``.  The cap ``R = ceil(ln(max(n, 1)/δ) / ln c)`` is the least
    ``R`` that pushes this below ``δ``.
    """
    from repro.util.rng import as_generator

    if np.any(rel.length != 1):
        raise ValueError("the CRCW realization handles unit-length messages")
    if c < 2:
        raise ValueError(f"bucket factor c must be >= 2, got {c}")
    p = rel.p
    x = rel.sizes
    x_bar = max(1, int(x.max()) if x.size else 0)
    h = max(x_bar, rel.y_bar, 1)
    bucket = c * h
    if max_rounds is None:
        ratio = max(rel.n, 1) / CRCW_DELIVERY_FAILURE_BUDGET
        max_rounds = math.ceil(math.log(ratio) / math.log(c))

    msgs_of = _msgs_by_source(rel)
    rng = as_generator(seed)
    seeds = rng.integers(0, 2**62, size=p * x_bar)
    per_proc = []
    for i in range(p):
        for k in range(x_bar):
            my = msgs_of[i][k] if k < len(msgs_of[i]) else None
            per_proc.append((my, k == 0, int(seeds[i * x_bar + k])))

    pram = PRAM(MachineParams(p=p * x_bar), rule=ConcurrencyRule.CRCW)
    res = pram.run(
        _randomized_team_program,
        args=(x_bar, bucket, max_rounds),
        per_proc_args=per_proc,
    )
    # verify every message landed
    expected = rel.n
    delivered = [res.results[i * x_bar][0] or [] for i in range(p)]
    got = sum(len(d) for d in delivered)
    if got != expected:
        raise RuntimeError(
            f"randomized delivery incomplete: {got}/{expected} messages landed "
            f"within {max_rounds} rounds (increase c or max_rounds)"
        )
    return res, delivered
