"""Run observation for the engine barrier — the slow-path half.

Both superstep drivers — the trampoline (:meth:`Machine.run`) and the
compiled frame loop (:meth:`CompiledProgram.replay`,
:func:`repro.core.batched.replay_batch`) — ask :func:`observe_runs` once
per call.  It reads the three installed instruments (tracer, metrics
registry, load ledger) and returns ``None`` when none is installed, so an
unobserved run pays one call and never takes a different path.  An
observed driver brackets each machine's run with
:meth:`RunObservation.begin` / :meth:`RunObservation.end`, which open and
close the ``run`` span (its ``path`` arg names the driver) and the ledger
run, and feed every superstep to the observer ``begin`` returns.  Nothing
here feeds back into pricing — model time is read from the already-priced
:class:`~repro.core.events.SuperstepRecord`.

Per-superstep output (tracer active):

* one ``superstep N`` span on the ``machine`` track — model clock
  positioned, carrying the full :class:`~repro.core.events.CostBreakdown`
  plus the pricing stats (incl. ``fault_*`` counters) as args;
* three contiguous wall-clock child spans on the ``engine`` track that
  tile the superstep span exactly: ``freeze`` (the slice-copy out of the
  run's pooled arena set into the frozen record), ``price`` (the model's
  cost function) and ``deliver`` (fault injection, inbox delivery, read
  resolution, write application and audit — on a compiled replay, write
  application);
* one span per *active* processor on its own ``proc N`` track, whose model
  duration is that processor's local bound ``max(work, sent, recvs)`` —
  the straggler view that makes imbalance visible in Perfetto.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.ledger import LedgerView, LoadLedger, active_ledger
from repro.obs.metrics import MetricsRegistry, active_metrics
from repro.obs.tracer import Tracer, active_tracer

__all__ = ["observe_runs", "RunObservation", "PROC_TRACK_LIMIT"]

#: Per-processor spans are emitted only up to this processor count — past
#: it a trace viewer is unusable anyway and the span volume dominates.
PROC_TRACK_LIMIT = 1024

#: Pricing-stat keys copied onto superstep spans when present.
_STAT_KEYS = (
    "h",
    "w",
    "n",
    "c_m",
    "span",
    "overloaded_slots",
    "max_slot_load",
    "kappa",
    "c_m_paper",
    "fault_injected",
    "fault_delivered",
    "fault_dropped",
    "fault_duplicated",
    "fault_corrupted",
    "fault_reordered",
)


def _superstep_args(record) -> dict:
    b = record.breakdown
    args = {
        "cost": record.cost,
        "messages": record.n_messages,
        "flits": record.total_flits,
    }
    if b is not None:
        args.update(
            work=b.work,
            local_band=b.local_band,
            global_band=b.global_band,
            latency=b.latency,
            contention=b.contention,
            dominant=b.dominant(),
        )
    stats = record.stats or {}
    for key in _STAT_KEYS:
        if key in stats:
            args[key] = stats[key]
    return args


class RunObservation:
    """The instruments installed for one observed driver call.

    Each machine's run is a :meth:`begin` / :meth:`end` pair, so a batched
    replay emits its machines' spans and ledger rows as contiguous blocks.
    ``path`` (``"trampoline"`` or ``"replay"``) becomes the ``run`` span's
    ``path`` arg.
    """

    __slots__ = ("tracer", "metrics", "ledger", "path", "_span", "_ledger_start")

    def __init__(self, tracer: Optional[Tracer], metrics: Optional[MetricsRegistry],
                 ledger: Optional[LoadLedger], path: str) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.ledger = ledger
        self.path = path

    def begin(self, machine, p: int, wall_start: Optional[float] = None) -> Callable:
        """Open ``machine``'s run on ``p`` processors and return its
        superstep observer, ``observe(record, t_freeze, t_price, t_deliver,
        t_end)`` with ``perf_counter`` stamps at each phase boundary.
        ``wall_start`` backdates the ``run`` span to the pass it observes
        (a replay emits its spans after the pass)."""
        tracer, metrics, ledger = self.tracer, self.metrics, self.ledger
        run_span = None
        if tracer is not None:
            params = machine.params
            run_span = tracer.begin(
                "run", cat="engine", track="machine", path=self.path,
                machine=type(machine).__name__, p=p,
                m=params.m, L=params.L, g=params.g,
            )
            run_span.model_start = tracer.model_clock
            if wall_start is not None:
                run_span.wall_start = wall_start
        self._span = run_span
        if ledger is not None:
            self._ledger_start = ledger.begin_run(type(machine).__name__, machine.params)
        emit_procs = tracer is not None and p <= PROC_TRACK_LIMIT

        def observe(record, t_freeze: float, t_price: float, t_deliver: float, t_end: float) -> None:
            if tracer is not None:
                model_start = tracer.model_clock
                ss = tracer.add(
                    f"superstep {record.index}",
                    cat="superstep",
                    track="machine",
                    parent=run_span,
                    wall_start=t_freeze,
                    wall_dur=t_end - t_freeze,
                    model_start=model_start,
                    model_dur=record.cost,
                    args=_superstep_args(record),
                )
                tracer.add("freeze", cat="phase", track="engine", parent=ss,
                           wall_start=t_freeze, wall_dur=t_price - t_freeze)
                tracer.add("price", cat="phase", track="engine", parent=ss,
                           wall_start=t_price, wall_dur=t_deliver - t_price)
                tracer.add("deliver", cat="phase", track="engine", parent=ss,
                           wall_start=t_deliver, wall_dur=t_end - t_deliver)
                if emit_procs:
                    sends = record.sends_by_proc(p)
                    recvs = record.recvs_by_proc(p)
                    work = record.work
                    for pid in range(p):
                        w = float(work[pid]) if pid < len(work) else 0.0
                        s, r = int(sends[pid]), int(recvs[pid])
                        local = max(w, float(s), float(r))
                        if local <= 0.0:
                            continue  # idle processor: no span, keep traces lean
                        tracer.add(
                            f"s{record.index}",
                            cat="proc",
                            track=f"proc {pid}",
                            parent=ss,
                            model_start=model_start,
                            model_dur=local,
                            args={"work": w, "sent": s, "recv": r},
                        )
                tracer.model_clock = model_start + record.cost
            if ledger is not None:
                ledger.record(record, p)
            if metrics is not None:
                metrics.counter("engine.supersteps").inc()
                metrics.counter("engine.messages").inc(record.n_messages)
                metrics.counter("engine.flits").inc(record.total_flits)
                metrics.counter("engine.reads").inc(record.n_reads)
                metrics.counter("engine.writes").inc(record.n_writes)
                metrics.counter("engine.model_time").inc(record.cost)
                metrics.histogram("engine.superstep_cost").observe(record.cost)

        return observe

    def end(self, supersteps: int) -> Optional[LedgerView]:
        """Close the run span; return the run's ``RunResult.ledger`` view."""
        span = self._span
        if span is not None:
            self.tracer.end(
                span,
                model_dur=self.tracer.model_clock - span.model_start,
                supersteps=supersteps,
            )
        return None if self.ledger is None else self.ledger.view(self._ledger_start)


def observe_runs(path: str) -> Optional[RunObservation]:
    """The observation scope of one driver call, or ``None`` when no
    tracer, metrics registry or load ledger is installed."""
    tracer, metrics, ledger = active_tracer(), active_metrics(), active_ledger()
    if tracer is None and metrics is None and ledger is None:
        return None
    return RunObservation(tracer, metrics, ledger, path)
