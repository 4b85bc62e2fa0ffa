"""Per-superstep bandwidth **load ledger** — which restriction bound?

The paper's thesis is a comparison of *restriction families*: a locally
limited machine charges each processor's traffic against ``g`` (cost
``g·h``), a globally limited one charges the whole machine's traffic
against ``m`` (cost ``f_m(m_t)``).  The :class:`~repro.core.events.
CostBreakdown` on every priced superstep already says which component won
— but only run aggregates survived until now.  The :class:`LoadLedger`
records, **inside the engine barrier**, one columnar row per superstep:

``step / run``
    superstep index and run ordinal (several runs may share one ledger —
    e.g. the reliable transport's data/ack supersteps).
``sent / read / written``
    total flit counts by channel, plus per-processor detail columns when
    ``p`` is small enough (``PROC_DETAIL_LIMIT``).
``h / volume / work``
    the pricing inputs: max per-processor load, total traffic volume
    ``n``, and the work term ``w``.
``charge`` and the five component columns
    the priced cost and its :class:`~repro.core.events.CostBreakdown`
    components — ``sum(charge) == RunResult.time`` *exactly*, by
    construction (rows are copied from the priced record, never
    recomputed).
``util_local / util_global``
    how close each restriction came to binding: component / charge
    (1.0 = that restriction determined the superstep's cost).
``binding``
    ``"local"`` when ``local_band`` dominated the charge, ``"global"``
    when ``global_band`` did, ``"neither"`` when work, latency, or
    contention won.
``model_start``
    cumulative charge before this row — the same model-time axis the
    tracer uses, so ledger rows align with superstep spans and export as
    a Perfetto counter track (:func:`repro.obs.export.chrome_trace`).

Contract: identical to :class:`~repro.obs.tracer.Tracer` — a module
global that defaults to ``None``, read once per :meth:`Machine.run`; the
disabled path costs one global read per run and model times are
bit-identical with the ledger on or off (it *records* priced costs, it
never participates in pricing).  Dumps merge in task order across sweep
backends (:meth:`LoadLedger.merge_dump`), so ``jobs=N`` ledgers are
bit-identical to ``jobs=1``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "PROC_DETAIL_LIMIT",
    "BINDINGS",
    "LoadLedger",
    "LedgerView",
    "binding_of",
    "ledger_table",
    "active_ledger",
    "install_ledger",
    "uninstall_ledger",
    "ledger_scope",
]

#: Ledger-dump schema (bumped when the JSON layout changes).
LEDGER_SCHEMA_VERSION = 1

#: Per-processor detail columns are kept only up to this processor count —
#: past it the matrices dominate the run they describe (the scalar
#: columns are always recorded).
PROC_DETAIL_LIMIT = 1024

#: The three binding verdicts, in reporting order.
BINDINGS = ("local", "global", "neither")

#: CostBreakdown components copied onto every row, declaration order.
_COMPONENTS = ("work", "local_band", "global_band", "latency", "contention")

#: Scalar columns of a ledger dump, in export order.
_SCALAR_COLUMNS = (
    "run", "step", "sent", "read", "written", "h", "volume",
    "work", "local_band", "global_band", "latency", "contention",
    "charge", "util_local", "util_global", "binding", "model_start",
)

#: Per-processor detail columns (lists of length-``p`` int lists).
_PROC_COLUMNS = ("sent_by_proc", "recv_by_proc", "read_by_proc", "write_by_proc")


def binding_of(breakdown) -> str:
    """Map a :class:`~repro.core.events.CostBreakdown` to its restriction
    family: the paper's local limit, its global limit, or neither."""
    if breakdown is None:
        return "neither"
    dominant = breakdown.dominant()
    if dominant == "local_band":
        return "local"
    if dominant == "global_band":
        return "global"
    return "neither"


class LoadLedger:
    """Columnar per-superstep load rows, recorded at the engine barrier.

    ``per_proc`` keeps the per-processor detail matrices (up to
    ``PROC_DETAIL_LIMIT`` processors); the scalar columns are always
    recorded.  All columns are plain Python lists (append-heavy); the
    NumPy views are built on demand by :meth:`column`.
    """

    def __init__(self, per_proc: bool = True) -> None:
        self.per_proc = per_proc
        self.columns: Dict[str, list] = {name: [] for name in _SCALAR_COLUMNS}
        self.proc_columns: Dict[str, list] = {name: [] for name in _PROC_COLUMNS}
        #: run metadata rows: {"run", "machine", "p", "g", "m", "L", "start"}
        self.runs: List[Dict[str, Any]] = []
        self.model_clock: float = 0.0

    def __len__(self) -> int:
        return len(self.columns["step"])

    # -- recording (engine-facing) --------------------------------------
    def begin_run(self, machine: str, params) -> int:
        """Mark the start of a run; returns the first row index of the run
        (the engine hands it to :meth:`view` for ``RunResult.ledger``)."""
        start = len(self)
        g, m, L = params.g, params.m, params.L
        self.runs.append({
            "run": len(self.runs),
            "machine": machine,
            "p": int(params.p),
            "g": None if g is None else float(g),
            "m": None if m is None else int(m),
            "L": None if L is None else float(L),
            "start": start,
        })
        return start

    def record(self, record, p: int) -> None:
        """Append one row from an already-priced superstep record.

        Called from the barrier observer after ``_price_batch`` populated
        ``record.cost`` / ``record.breakdown`` / ``record.stats``; all
        values are copied out (arena-backed batches are reused between
        supersteps, so nothing here may alias them).
        """
        cols = self.columns
        b = record.breakdown
        stats = record.stats or {}
        charge = float(record.cost)
        sent = int(record.total_flits)
        read = int(record.n_reads)
        written = int(record.n_writes)
        cols["run"].append(len(self.runs) - 1 if self.runs else 0)
        cols["step"].append(int(record.index))
        cols["sent"].append(sent)
        cols["read"].append(read)
        cols["written"].append(written)
        cols["h"].append(float(stats.get("h", 0.0)))
        cols["volume"].append(float(stats.get("n", sent + read + written)))
        cols["work"].append(float(getattr(b, "work", 0.0)) if b is not None
                            else float(stats.get("w", 0.0)))
        for comp in _COMPONENTS[1:]:
            cols[comp].append(float(getattr(b, comp, 0.0)) if b is not None else 0.0)
        cols["charge"].append(charge)
        local = cols["local_band"][-1]
        global_ = cols["global_band"][-1]
        cols["util_local"].append(local / charge if charge > 0.0 else 0.0)
        cols["util_global"].append(global_ / charge if charge > 0.0 else 0.0)
        cols["binding"].append(binding_of(b))
        cols["model_start"].append(self.model_clock)
        self.model_clock += charge
        if self.per_proc and p <= PROC_DETAIL_LIMIT:
            pc = self.proc_columns
            pc["sent_by_proc"].append(record.sends_by_proc(p).tolist())
            pc["recv_by_proc"].append(record.recvs_by_proc(p).tolist())
            rb, wb = record.read_batch, record.write_batch
            pc["read_by_proc"].append(
                np.bincount(rb.pid, minlength=p).tolist() if rb.n else [0] * p
            )
            pc["write_by_proc"].append(
                np.bincount(wb.pid, minlength=p).tolist() if wb.n else [0] * p
            )
        elif self.per_proc:
            for name in _PROC_COLUMNS:
                self.proc_columns[name].append(None)

    def view(self, start: int, stop: Optional[int] = None) -> "LedgerView":
        """A read-only window over rows ``start..stop`` (one run's rows)."""
        return LedgerView(self, start, len(self) if stop is None else stop)

    # -- queries ---------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """One scalar column as an array (``binding`` as an object array)."""
        values = self.columns[name]
        if name == "binding":
            return np.asarray(values, dtype=object)
        return np.asarray(values, dtype=np.float64)

    def binding_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in BINDINGS}
        for verdict in self.columns["binding"]:
            counts[verdict] += 1
        return counts

    def charge_by_binding(self) -> Dict[str, float]:
        """Model time attributed to each restriction family (row order —
        the sum is exactly the total charge)."""
        totals = {name: 0.0 for name in BINDINGS}
        for verdict, charge in zip(self.columns["binding"], self.columns["charge"]):
            totals[verdict] += charge
        return totals

    def total_charge(self) -> float:
        return float(sum(self.columns["charge"]))

    def summary(self) -> Dict[str, Any]:
        """The aggregate block (telemetry ``ledger`` entry, ``repro top``).

        Every value is a row-ordered sum/max over the columns, so merged
        ledgers summarize bit-identically at any job count.
        """
        cols = self.columns
        n = len(self)
        return {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "supersteps": n,
            "runs": len(self.runs),
            "charge": self.total_charge(),
            "charge_by_binding": self.charge_by_binding(),
            "binding": self.binding_counts(),
            "flits": {
                "sent": int(sum(cols["sent"])),
                "read": int(sum(cols["read"])),
                "written": int(sum(cols["written"])),
            },
            "max_h": float(max(cols["h"], default=0.0)),
            "util_local_mean": (sum(cols["util_local"]) / n) if n else 0.0,
            "util_global_mean": (sum(cols["util_global"]) / n) if n else 0.0,
        }

    # -- export / merge ---------------------------------------------------
    def to_dict(self, per_proc: bool = True) -> Dict[str, Any]:
        """JSON-ready columnar dump (``merge_dump`` consumes it)."""
        out: Dict[str, Any] = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "runs": [dict(r) for r in self.runs],
            "columns": {name: list(self.columns[name]) for name in _SCALAR_COLUMNS},
            "summary": self.summary(),
        }
        if per_proc and self.per_proc:
            out["proc_columns"] = {
                name: list(self.proc_columns[name]) for name in _PROC_COLUMNS
            }
        return out

    def merge_dump(self, dump: Dict[str, Any]) -> None:
        """Fold another ledger's :meth:`to_dict` into this one, in call
        order — the sweep runner merges worker dumps in task order, which
        is what keeps ``jobs=N`` ledgers bit-identical to ``jobs=1``.
        """
        base_run = len(self.runs)
        for run in dump.get("runs", []):
            row = dict(run)
            row["run"] = base_run + int(row.get("run", 0))
            row["start"] = len(self) + int(row.get("start", 0))
            self.runs.append(row)
        cols = dump.get("columns", {})
        n = len(cols.get("step", []))
        for name in _SCALAR_COLUMNS:
            incoming = cols.get(name)
            if incoming is None:
                incoming = [0] * n
            if name == "run":
                incoming = [base_run + int(r) for r in incoming]
            elif name == "model_start":
                # re-base onto this ledger's model-time axis
                incoming = [self.model_clock + float(v) for v in incoming]
            self.columns[name].extend(incoming)
        self.model_clock += float(sum(cols.get("charge", [])))
        if self.per_proc:
            proc = dump.get("proc_columns")
            for name in _PROC_COLUMNS:
                if proc is not None and name in proc:
                    self.proc_columns[name].extend(proc[name])
                else:
                    self.proc_columns[name].extend([None] * n)

    def to_json(self, path: str, per_proc: bool = True) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(self.to_dict(per_proc=per_proc), fh, indent=1, default=float)
            fh.write("\n")


class LedgerView:
    """A read-only window over one run's rows of a :class:`LoadLedger`
    (what ``RunResult.ledger`` exposes)."""

    __slots__ = ("ledger", "start", "stop")

    def __init__(self, ledger: LoadLedger, start: int, stop: int) -> None:
        self.ledger = ledger
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def column(self, name: str) -> list:
        return self.ledger.columns[name][self.start:self.stop]

    def proc_column(self, name: str) -> list:
        return self.ledger.proc_columns[name][self.start:self.stop]

    @property
    def bindings(self) -> List[str]:
        return self.column("binding")

    @property
    def charges(self) -> List[float]:
        return self.column("charge")

    def total_charge(self) -> float:
        return float(sum(self.charges))

    def binding_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in BINDINGS}
        for verdict in self.bindings:
            counts[verdict] += 1
        return counts

    def charge_by_binding(self) -> Dict[str, float]:
        totals = {name: 0.0 for name in BINDINGS}
        for verdict, charge in zip(self.bindings, self.charges):
            totals[verdict] += charge
        return totals


def ledger_table(source, top: Optional[int] = None) -> str:
    """Terminal per-superstep table for a :class:`LoadLedger` (or a
    :class:`LedgerView`, or a :meth:`LoadLedger.to_dict` dump)."""
    from repro.util.reporting import Table, format_float

    if isinstance(source, dict):
        cols = source.get("columns", {})
        rows = list(zip(
            cols.get("run", []), cols.get("step", []), cols.get("h", []),
            cols.get("volume", []), cols.get("work", []),
            cols.get("local_band", []), cols.get("global_band", []),
            cols.get("charge", []), cols.get("util_local", []),
            cols.get("util_global", []), cols.get("binding", []),
        ))
        total = float(sum(cols.get("charge", [])))
        counts: Dict[str, float] = {}
        charges: Dict[str, float] = {}
        for verdict, charge in zip(cols.get("binding", []), cols.get("charge", [])):
            counts[verdict] = counts.get(verdict, 0) + 1
            charges[verdict] = charges.get(verdict, 0.0) + charge
    else:
        view = source.view(0) if isinstance(source, LoadLedger) else source
        rows = list(zip(
            view.column("run"), view.column("step"), view.column("h"),
            view.column("volume"), view.column("work"),
            view.column("local_band"), view.column("global_band"),
            view.column("charge"), view.column("util_local"),
            view.column("util_global"), view.column("binding"),
        ))
        total = view.total_charge()
        counts = dict(view.binding_counts())
        charges = view.charge_by_binding()

    table = Table(
        ["run", "step", "h", "volume", "work", "local g·h", "global f(m)",
         "charge", "util_l", "util_g", "binding"],
        title=f"load ledger — {len(rows)} supersteps, total charge "
        f"{format_float(total)}",
    )
    shown = rows if top is None else sorted(rows, key=lambda r: -r[7])[:top]
    for run, step, h, vol, work, local, global_, charge, ul, ug, verdict in shown:
        table.add_row([
            int(run), int(step), format_float(h), format_float(vol),
            format_float(work), format_float(local), format_float(global_),
            format_float(charge), f"{ul:.2f}", f"{ug:.2f}", verdict,
        ])
    summary = Table(["binding", "supersteps", "model time", "share"],
                    title="which restriction bound")
    denom = total or 1.0
    for name in BINDINGS:
        if counts.get(name):
            summary.add_row([
                name, int(counts[name]), format_float(charges.get(name, 0.0)),
                f"{100.0 * charges.get(name, 0.0) / denom:.1f}%",
            ])
    return table.render() + "\n\n" + summary.render()


# -- the process-global hook (None = ledger disabled, the default) ---------
_ACTIVE: Optional[LoadLedger] = None


def active_ledger() -> Optional[LoadLedger]:
    """The installed ledger, or ``None`` (the zero-overhead default)."""
    return _ACTIVE


def install_ledger(ledger: Optional[LoadLedger] = None) -> LoadLedger:
    """Install (and return) a ledger; subsequent runs record load rows."""
    global _ACTIVE
    _ACTIVE = ledger if ledger is not None else LoadLedger()
    return _ACTIVE


def uninstall_ledger() -> Optional[LoadLedger]:
    """Remove the active ledger (returning it) — back to the no-op default."""
    global _ACTIVE
    ledger, _ACTIVE = _ACTIVE, None
    return ledger


@contextmanager
def ledger_scope(ledger: Optional[LoadLedger] = None) -> Iterator[LoadLedger]:
    """Scope a ledger installation; restores the previous one on exit."""
    global _ACTIVE
    previous = _ACTIVE
    installed = install_ledger(ledger)
    try:
        yield installed
    finally:
        _ACTIVE = previous
