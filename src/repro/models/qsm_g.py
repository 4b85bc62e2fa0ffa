"""The Queuing Shared Memory model QSM(g) (Gibbons–Matias–Ramachandran,
paper Section 2).

Processors alternate bulk-synchronous *phases* of shared-memory reads,
shared-memory writes and local computation.  A phase with per-processor work
``c_i``, read counts ``r_i``, write counts ``w_i`` and maximum per-location
contention ``kappa`` costs

.. math:: T = \\max(w, \\; g \\cdot h, \\; \\kappa)

with ``w = max_i c_i`` and ``h = max(1, max_i(r_i, w_i))``.  Note the
asymmetry the paper highlights: the model charges ``g`` per request at a
*processor* but only 1 per request at a *location*.

Model rules enforced by the engine:

* a read's value is usable only in a subsequent phase;
* a location may be read concurrently or written concurrently in a phase,
  but not both;
* concurrent writes resolve by the Arbitrary rule.
"""

from __future__ import annotations

from repro.core.engine import Machine
from repro.models.pricing import price_qsm_g_batch

__all__ = ["QSMg"]


class QSMg(Machine):
    """Queuing Shared Memory machine with per-processor gap ``g``."""

    uses_shared_memory = True
    slot_limited = False
    _price_batch = staticmethod(price_qsm_g_batch)
