"""The four benchmark workloads.

Each workload is one op shape of 10-70 ms, so its latency distribution has
one peak.  A workload object is built in a fresh interpreter (its imports
and fixtures count toward ``setup_s``) and offers:

``op(k)``
    run op ``k``;
``check(k, out)``
    check op ``k``'s output between ops, outside the op's clock;
``finish()``
    checks deferred until after the timed window; returns the failures;
``traced(spans)``
    before the traced window: wrap the library functions whose calls are
    the workload's layers (:meth:`spans.Spans.wrap`);
``layers(spans)``
    per-layer metrics of the traced window;
``close()``
    release what the workload started.

Op inputs are drawn from ``random.Random(seed)``: the same seed gives the
same inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
from time import perf_counter
from typing import Any, Dict, List


def _p50_ms(secs: List[float]) -> float:
    return statistics.median(secs) * 1e3


class Workload:
    name = ""
    #: the timed window ends on a multiple of this many ops
    block = 1

    def finish(self) -> int:
        return 0

    def traced(self, spans) -> None:
        pass

    def close(self) -> None:
        pass


class Route(Workload):
    """A fresh uniform h-relation routed with Unbalanced-Send on a BSP(m)."""

    name = "route"
    P, N, M, L, EPS = 256, 40_000, 64, 1.0, 0.2

    def __init__(self, seed: int, root: str, state_dir: str) -> None:
        import repro.scheduling.execute
        import repro.workloads
        from repro import BSPm, MachineParams
        from repro.scheduling import evaluate_schedule, route

        self.workloads = repro.workloads
        self.execute = repro.scheduling.execute
        self.route = route
        self.evaluate_schedule = evaluate_schedule
        self.machine = BSPm(MachineParams(p=self.P, m=self.M, L=self.L))
        self.rng = random.Random(seed)

    def op(self, k):
        rel_seed, route_seed = self.rng.getrandbits(63), self.rng.getrandbits(63)
        # looked up at call time, so the traced window's wrapper sees it
        rel = self.workloads.uniform_random_relation(self.P, self.N, seed=rel_seed)
        # route's execute_schedule verifies that every flit arrived exactly once
        return self.route(self.machine, rel, epsilon=self.EPS, seed=route_seed)

    def check(self, k, out) -> bool:
        res, sched = out
        rep = self.evaluate_schedule(sched, m=self.M, L=self.L)
        return (
            abs(res.time - rep.c_m_paper) <= 1e-12 * abs(rep.c_m_paper)
            and res.time >= rep.optimal_time
        )

    def traced(self, spans) -> None:
        spans.wrap(self.workloads, "uniform_random_relation", "route.workloads.relation")
        spans.wrap(self.execute, "unbalanced_send", "route.scheduling.unbalanced_send")
        spans.wrap(self.execute, "execute_schedule", "route.scheduling.execute")

    def layers(self, spans) -> Dict[str, float]:
        execute_s = spans.total("route.scheduling.execute")
        ops = len(spans.per_op("route.op"))
        return {
            "route.workloads.relation_ms": spans.p50_ms("route.workloads.relation"),
            "route.scheduling.unbalanced_send_ms":
                spans.p50_ms("route.scheduling.unbalanced_send"),
            "route.scheduling.execute_ms": spans.p50_ms("route.scheduling.execute"),
            "route.core.msgs_per_s": ops * self.N / execute_s,
        }


class Table1(Workload):
    """The Table-1 problems on the four models at one seed-drawn L."""

    name = "table1"
    P, M = 256, 16
    #: every L here gives the same 73 supersteps, so ops share one shape
    L_CHOICES = tuple(float(v) for v in range(4, 16))
    PROBLEMS = ("one_to_all", "broadcast", "summation")
    MODELS = ("qsm_m", "qsm_g", "bsp_m", "bsp_g")
    #: (global, local) model pairs: the global one must be faster
    PAIRS = (("qsm_m", "qsm_g"), ("bsp_m", "bsp_g"))

    #: span name of each machine class table1_measured runs
    MODEL_OF = {"QSMm": "qsm_m", "QSMg": "qsm_g", "BSPm": "bsp_m", "BSPg": "bsp_g"}

    def __init__(self, seed: int, root: str, state_dir: str) -> None:
        from repro.experiments import table1_measured

        self.table1_measured = table1_measured
        self.rng = random.Random(seed)
        self.reference: Dict[float, Any] = {}
        self.supersteps: Dict[int, int] = {}

    def op(self, k):
        L = self.rng.choice(self.L_CHOICES)
        return self.table1_measured(p=self.P, m=self.M, L=L)

    def check(self, k, out) -> bool:
        L = out["L"]
        if L not in self.reference:
            self.reference[L] = self.table1_measured(p=self.P, m=self.M, L=L)["times"]
        times = out["times"]
        return times == self.reference[L] and all(
            row[glob] < row[loc] for row in times.values() for glob, loc in self.PAIRS
        )

    def traced(self, spans) -> None:
        """table1_measured looks the three algorithms up in
        ``repro.algorithms`` on every call; each call is one (problem,
        model) span, and its supersteps are counted per op."""
        import repro.algorithms

        def count(res):
            res = res[0] if isinstance(res, tuple) else res  # summation
            self.supersteps[spans.op] = self.supersteps.get(spans.op, 0) + res.supersteps

        def label(prob):
            return lambda mach, *a, **kw: (
                f"table1.{prob}.{self.MODEL_OF[type(mach).__name__]}"
            )

        for prob in self.PROBLEMS:
            spans.wrap(repro.algorithms, prob, label(prob), observe=count)

    def layers(self, spans) -> Dict[str, float]:
        out = {
            f"table1.models.{name}_ms":
                spans.p50_ms(*(f"table1.{prob}.{name}" for prob in self.PROBLEMS))
            for name in self.MODELS
        }
        out.update({
            f"table1.algorithms.{prob}_ms":
                spans.p50_ms(*(f"table1.{prob}.{name}" for name in self.MODELS))
            for prob in self.PROBLEMS
        })
        steps = statistics.median(self.supersteps.values())
        names = [f"table1.{p}.{m}" for p in self.PROBLEMS for m in self.MODELS]
        out["table1.core.supersteps"] = steps
        out["table1.core.us_per_superstep"] = spans.p50_ms(*names) * 1e3 / steps
        return out


class Sweep(Workload):
    """``pricing_ablation``: one 64-cell (m, L) grid on the serial backend,
    batched (the default).  One op is one sweep."""

    name = "sweep"
    P, N, SCHEDULE_M, EPS, G = 256, 40_000, 64, 0.2, 2.0
    M_VALUES = (16, 24, 32, 48, 64, 96, 128, 192)
    L_VALUES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
    #: the grid in the order of pricing_ablation's cells: m, then L
    GRID = list(itertools.product(M_VALUES, L_VALUES))

    def __init__(self, seed: int, root: str, state_dir: str) -> None:
        from repro import BSPm, MachineParams
        from repro.experiments import pricing_ablation
        from repro.scheduling import unbalanced_send
        from repro.scheduling.execute import compile_schedule
        from repro.util.rng import derive_seed_sequence
        from repro.workloads import uniform_random_relation

        self.pricing_ablation = pricing_ablation
        self.compile_schedule = compile_schedule
        self.unbalanced_send = unbalanced_send
        self.relation = uniform_random_relation
        self.derive = derive_seed_sequence
        self.machine = lambda m, L: BSPm(MachineParams(p=self.P, g=self.G, m=m, L=L))
        self.rng = random.Random(seed)
        self.batch_stats: List[Dict[str, Any]] = []

    def op(self, k):
        seed, cell = self.rng.getrandbits(63), self.rng.randrange(len(self.GRID))
        out = self.pricing_ablation(
            p=self.P, n=self.N, schedule_m=self.SCHEDULE_M, epsilon=self.EPS,
            g_values=(self.G,), m_values=self.M_VALUES, L_values=self.L_VALUES,
            seed=seed,
        )
        return seed, cell, out

    def check(self, k, out) -> bool:
        """Rebuild the op's compiled schedule the way ``pricing_ablation``
        does, replay the seed-chosen cell sequentially and compare."""
        seed, cell, res = out
        rel = self.relation(
            self.P, self.N, seed=self.derive(seed, "pricing_ablation", "workload")
        )
        sched = self.unbalanced_send(
            rel, self.SCHEDULE_M, self.EPS,
            seed=self.derive(seed, "pricing_ablation", "route"),
        )
        ref = self.compile_schedule(sched).replay(self.machine(*self.GRID[cell]))
        got = res["cells"][cell]
        self.batch_stats.append(res["batch"])
        return (
            res["trials"] == len(self.GRID)
            and res["batch"]["amortization"] == float(len(self.GRID))
            and res["batch"]["fallbacks"] == 0
            and got["model_time"] == float(ref.time)
            and got["supersteps"] == len(ref.records)
            and got["c_m"] == ref.records[0].stats.get("c_m")
        )

    def traced(self, spans) -> None:
        """pricing_ablation imports its prep functions, and its batch trial
        ``replay_batch``, on every call; what is left of the op's own span
        is ``run_sweep`` outside the replay."""
        import repro.core.batched
        import repro.scheduling.execute
        import repro.scheduling.static_send
        import repro.workloads

        spans.wrap(repro.workloads, "uniform_random_relation", "sweep.workloads.relation")
        spans.wrap(repro.scheduling.static_send, "unbalanced_send",
                   "sweep.scheduling.unbalanced_send")
        spans.wrap(repro.scheduling.execute, "compile_schedule", "sweep.scheduling.compile")
        spans.wrap(repro.core.batched, "replay_batch", "sweep.core.replay_batch")

    def layers(self, spans) -> Dict[str, float]:
        last = self.batch_stats[-1]
        return {
            "sweep.prep_ms": spans.p50_ms(
                "sweep.workloads.relation", "sweep.scheduling.unbalanced_send",
                "sweep.scheduling.compile",
            ),
            "sweep.scheduling.compile_ms": spans.p50_ms("sweep.scheduling.compile"),
            "sweep.core.replay_batch_ms": spans.p50_ms("sweep.core.replay_batch"),
            "sweep.runner_ms": spans.p50_ms("sweep.op"),
            "sweep.amortization": float(last["amortization"]),
            "sweep.fallbacks": float(last["fallbacks"]),
        }


class Serve(Workload):
    """One closed-loop client sending ``scenario`` requests to a daemon.
    Every 4th request repeats the one before it, so a quarter of the
    requests read the store and the rest compute and write it."""

    name = "serve"
    block = 4
    PARAMS = {"p": 64, "n": 20_000, "m": 32}
    PINGS = 20

    def __init__(self, seed: int, root: str, state_dir: str) -> None:
        from repro.serve import ServeClient
        from repro.serve.executor import run_scenario

        from daemon import Daemon

        self.run_scenario = run_scenario
        self.rng = random.Random(seed)
        self.used: set = set()
        self.prev = None
        self.fresh: List[Any] = []  # (seed, served result) of every miss
        self.cached: Dict[int, bool] = {}
        self.direct_s: List[float] = []
        self.daemon = Daemon(root, state_dir)
        self.daemon.start()
        self.client = ServeClient(self.daemon.url)

    def _fresh_seed(self) -> int:
        seed = self.rng.getrandbits(31)
        while seed in self.used:
            seed = self.rng.getrandbits(31)
        self.used.add(seed)
        return seed

    def op(self, k):
        repeat = k % 4 == 3 and self.prev is not None
        seed = self.prev[0] if repeat else self._fresh_seed()
        return seed, repeat, self.client.submit("scenario", self.PARAMS, seed=seed)

    def check(self, k, out) -> bool:
        seed, repeat, reply = out
        self.cached[k] = bool(reply.get("cached"))
        if repeat:
            ok = reply.get("cached") is True and reply["result"] == self.prev[1]
        else:
            ok = reply.get("cached") is False
            self.fresh.append((seed, reply["result"]))
        self.prev = (seed, reply["result"])
        return ok

    def finish(self) -> int:
        """Served results must equal direct ``run_scenario`` (compared
        after the timed window, in this process)."""
        failed = 0
        for seed, served in self.fresh:
            t0 = perf_counter()
            direct = self.run_scenario(dict(self.PARAMS), seed)
            self.direct_s.append(perf_counter() - t0)
            failed += json.loads(json.dumps(direct)) != served
        return failed

    def traced(self, spans) -> None:
        self.ping_s = []
        for _ in range(self.PINGS):
            t0 = perf_counter()
            self.client.ping()
            self.ping_s.append(perf_counter() - t0)
        self.before = self.client.metrics()

    def layers(self, spans) -> Dict[str, float]:
        after, before = self.client.metrics(), self.before

        def counter(name):
            return after["counters"][name] - before["counters"].get(name, 0.0)

        def mean_ms(name):
            a = after["histograms"][name]
            b = before["histograms"].get(name, {"sum": 0.0, "count": 0})
            return (a["sum"] - b["sum"]) / (a["count"] - b["count"]) * 1e3

        req = spans.per_op("serve.op")
        hits = [s for k, s in req.items() if self.cached[k]]
        misses = [s for k, s in req.items() if not self.cached[k]]
        wait_ms, service_ms = mean_ms("serve.wait_s"), mean_ms("serve.service_s")
        return {
            "serve.daemon_start_ms": self.daemon.start_s * 1e3,
            "serve.client.ping_ms": _p50_ms(self.ping_s),
            "serve.server.wait_ms": wait_ms,
            "serve.server.service_ms": service_ms,
            "serve.http_ms": statistics.mean(req.values()) * 1e3 - wait_ms - service_ms,
            "serve.store.hit_ms": _p50_ms(hits),
            "serve.store.miss_ms": _p50_ms(misses),
            "serve.store.hit_ratio": len(hits) / len(req),
            "serve.direct_ms": _p50_ms(self.direct_s),
            "serve.admission.rounds_per_req":
                counter("serve.rounds.scheduled") / counter("serve.requests.submitted"),
        }

    def close(self) -> None:
        self.daemon.stop()


WORKLOADS = {cls.name: cls for cls in (Route, Table1, Sweep, Serve)}
