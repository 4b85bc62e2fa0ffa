"""The locally-limited BSP(g) model (Valiant 1990, paper Section 2).

A superstep in which processor ``i`` performs ``w_i`` local work, sends
``s_i`` flits and receives ``r_i`` flits costs

.. math:: T = \\max(w, \\; g \\cdot h, \\; L)

with ``w = max_i w_i`` and ``h = max_i max(s_i, r_i)``.  Injection slots are
irrelevant: the machine charges only the per-processor maxima, so no message
scheduling can help — this is the executable form of the paper's observation
that "no special scheduling is needed for locally-limited models".
"""

from __future__ import annotations

from repro.core.engine import Machine
from repro.models.pricing import price_bsp_g_batch

__all__ = ["BSPg"]


class BSPg(Machine):
    """Bulk-Synchronous Parallel machine with per-processor gap ``g``."""

    uses_shared_memory = False
    slot_limited = False
    _price_batch = staticmethod(price_bsp_g_batch)
