"""The self-scheduling BSP(m) model (paper Section 2, "A simplified cost
metric").

Injection times within a superstep are ignored and a superstep transmitting
``n`` flits in total costs

.. math:: T = \\max(w, \\; h, \\; n/m, \\; L).

Section 6's Unbalanced-Send theorem is exactly the statement that any
algorithm written against this metric can be executed on the real BSP(m) at a
``(1 + eps)`` factor w.h.p. — the :mod:`repro.scheduling` package provides
the transformation, and ``benchmarks/bench_self_scheduling.py`` measures the
factor empirically.
"""

from __future__ import annotations

from repro.core.engine import Machine
from repro.core.params import MachineParams
from repro.models.pricing import price_self_scheduling_batch

__all__ = ["SelfSchedulingBSPm"]


class SelfSchedulingBSPm(Machine):
    """BSP(m) variant charging ``max(w, h, n/m, L)`` per superstep."""

    uses_shared_memory = False
    slot_limited = False  # slots are ignored, so no per-slot rule to enforce
    _price_batch = staticmethod(price_self_scheduling_batch)

    def __init__(self, params: MachineParams) -> None:
        params.require_m()
        super().__init__(params)
