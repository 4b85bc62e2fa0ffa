"""The randomized static senders of Section 6.1.

Both algorithms here solve the *static unbalanced routing problem*: each
processor ``i`` holds ``x_i`` flits to send; ``n = sum x_i`` is known (either
computed by :mod:`repro.scheduling.prefix_broadcast` or known a priori) but
the pattern is otherwise arbitrary and unknown.  Processors pick injection
slots *independently at random* inside a window of ``W = (1+eps) n/m`` slots
so that, w.h.p., no slot exceeds the aggregate bandwidth ``m``:

* :func:`unbalanced_send` (paper: **Unbalanced-Send**, Theorem 6.2) —
  processor ``i`` draws a uniform start ``j_i`` and occupies ``x_i`` cyclic
  slots ``j_i, j_i+1, ... (mod W)``.  Flits of one message may end up far
  apart, which is fine when flits need not be consecutive.  Completes in
  ``max((1+eps) n/m, x̄, ȳ, L) + tau`` w.h.p.
* :func:`unbalanced_consecutive_send` (paper: **Unbalanced-Consecutive-
  Send**, Theorem 6.3) — same draw, but the block runs off the end of the
  window instead of wrapping, so every message's flits are consecutive
  (wormhole/start-up-cost scenarios).  Completes in
  ``max((1+eps) n/m + x̄', x̄, ȳ, L) + tau`` w.h.p., where ``x̄'`` is the
  largest block among processors that fit in the window.

Processors with ``x_i > W`` (there can be at most ``m`` of them, as the
proof of Theorem 6.2 observes) send consecutively from slot 0.

The ``template`` option implements the paper's remark after Theorem 6.2:
any fixed within-window sending pattern may be cyclically shifted by the
random offset; ``"consecutive"`` is the paper's default and ``"spread"``
spaces a processor's flits evenly through the window.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels import stable_group_order
from repro.scheduling.schedule import Schedule, expand_per_flit
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive
from repro.workloads.relations import HRelation

__all__ = [
    "unbalanced_send",
    "unbalanced_consecutive_send",
    "send_window",
    "per_proc_flit_ranks",
]


def send_window(n: int, m: int, epsilon: float) -> int:
    """The window size ``W = ceil((1+eps) n/m)`` (at least 1)."""
    check_positive("m", m)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return max(1, int(np.ceil((1.0 + epsilon) * n / m)))


def per_proc_flit_ranks(flit_src: np.ndarray, p: int) -> np.ndarray:
    """Rank of each flit among its processor's flits (0-based), preserving
    flit order — vectorized grouping without a Python loop."""
    if flit_src.size == 0:
        return np.zeros(0, dtype=np.int64)
    counts = np.bincount(flit_src, minlength=p)
    starts = np.cumsum(counts) - counts
    order = stable_group_order(flit_src, counts.size - 1)
    ranks = np.empty(flit_src.size, dtype=np.int64)
    ranks[order] = np.arange(flit_src.size, dtype=np.int64) - starts[flit_src[order]]
    return ranks


def _template_offsets(
    ranks: np.ndarray,
    x_of_flit: np.ndarray,
    window: int,
    template: str,
    gap: int = 1,
) -> np.ndarray:
    """Within-window offset of each flit under the chosen template.

    ``"consecutive"`` is the paper's algorithm; ``"spread"`` spaces a
    processor's flits evenly through the window; ``"gap"`` realizes the
    paper's remark about "having a certain separation between every two
    messages sent by the same processor" — offset ``k·gap``, falling back
    to consecutive for processors whose spaced block would not fit.
    """
    if template == "consecutive":
        return ranks
    if template == "spread":
        # Spread a processor's x flits evenly: offset k -> floor(k * W / x).
        # Offsets are distinct whenever x <= W.
        return (ranks * window) // np.maximum(x_of_flit, 1)
    if template == "gap":
        if gap < 1:
            raise ValueError(f"gap must be >= 1, got {gap}")
        fits = x_of_flit * gap <= window
        return np.where(fits, ranks * gap, ranks)
    raise ValueError(
        f"unknown template {template!r} (use 'consecutive', 'spread' or 'gap')"
    )


def unbalanced_send(
    rel: HRelation,
    m: int,
    epsilon: float = 0.1,
    seed: SeedLike = None,
    *,
    n: Optional[int] = None,
    template: str = "consecutive",
    gap: int = 1,
) -> Schedule:
    """Algorithm **Unbalanced-Send** (Theorem 6.2).

    Parameters
    ----------
    rel:
        The h-relation to schedule (any message lengths; flits are scheduled
        independently, so multi-flit messages may be split — use
        :func:`unbalanced_consecutive_send` or the long-message senders when
        flits must be consecutive).
    m:
        Aggregate bandwidth.
    epsilon:
        Window slack; the overload probability decays like
        ``exp(-Omega(eps^2 m))``.
    n:
        Total flit count if known a priori; defaults to ``rel.n`` (in a full
        machine run this value comes from the prefix-sum/broadcast phase,
        whose cost ``tau`` is added by the evaluator, not here).
    template:
        Within-window sending pattern, cyclically shifted by the random
        draw (paper's template remark): ``"consecutive"`` (default),
        ``"spread"``, or ``"gap"`` with spacing ``gap`` between a
        processor's successive flits.

    Returns
    -------
    Schedule
        A valid schedule: one flit per processor per slot, span at most
        ``max(W, x̄)``.
    """
    rng = as_generator(seed)
    total = rel.n if n is None else n
    window = send_window(total, m, epsilon)

    x = rel.sizes  # per-proc flit totals
    flit_src = expand_per_flit(rel.src, rel.length)
    ranks = per_proc_flit_ranks(flit_src, rel.p)
    x_of_flit = x[flit_src]

    starts = rng.integers(0, window, size=rel.p)
    offsets = _template_offsets(ranks, x_of_flit, window, template, gap)
    slots = (starts[flit_src] + offsets) % window
    # Oversized processors (x_i > W) send consecutively from slot 0.
    oversized = x_of_flit > window
    slots[oversized] = ranks[oversized]

    return Schedule(
        rel=rel,
        flit_slots=slots,
        algorithm="unbalanced-send",
        window=window,
        meta={
            "epsilon": float(epsilon),
            "n_used": float(total),
            "oversized_procs": float(int(np.sum(x > window))),
            "template": 0.0 if template == "consecutive" else 1.0,
        },
    )


def unbalanced_consecutive_send(
    rel: HRelation,
    m: int,
    epsilon: float = 0.1,
    seed: SeedLike = None,
    *,
    n: Optional[int] = None,
) -> Schedule:
    """Algorithm **Unbalanced-Consecutive-Send** (Theorem 6.3).

    Each processor sends its entire block of flits in consecutive slots
    starting at a uniform draw from the window, running past the window's
    end instead of wrapping — so every message's flits are consecutive and
    the schedule is usable when long messages must travel as contiguous flit
    streams.  Span is at most ``W + x̄' `` where ``x̄'`` is the largest block
    among processors with ``x_i <= W``.
    """
    rng = as_generator(seed)
    total = rel.n if n is None else n
    window = send_window(total, m, epsilon)

    x = rel.sizes
    flit_src = expand_per_flit(rel.src, rel.length)
    ranks = per_proc_flit_ranks(flit_src, rel.p)

    starts = rng.integers(0, window, size=rel.p)
    starts = np.where(x > window, 0, starts)  # oversized blocks start at 0
    slots = starts[flit_src] + ranks

    in_window = x[x <= window]
    x_bar_prime = int(in_window.max()) if in_window.size else 0
    return Schedule(
        rel=rel,
        flit_slots=slots,
        algorithm="unbalanced-consecutive-send",
        window=window,
        meta={
            "epsilon": float(epsilon),
            "n_used": float(total),
            "x_bar_prime": float(x_bar_prime),
            "oversized_procs": float(int(np.sum(x > window))),
        },
    )
