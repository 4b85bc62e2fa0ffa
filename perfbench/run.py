"""Benchmark entry point.

    python3 perfbench/run.py --workload {route,table1,sweep,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics of one
workload: ``setup_s`` is the median over ``SETUP_SAMPLES`` fresh
interpreters of the time from spawn to the first op being ready, and the
rest come from the untraced timed window of the last of them.  With
``--trace 1`` it prints every per-layer metric: the traced run covers all
four workloads, so each run prints the whole per-layer set.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

This process imports nothing from the library; each sample runs in a
child (``worker.py``) that it waits for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from daemon import RUNS_DIR
from worker import WALL_FACTOR
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: fresh start-ups per run; setup_s is their median
SETUP_SAMPLES = 7
#: a run still going this many seconds past its windows' wall cap
#: (``WALL_FACTOR`` x ``--seconds``) kills its child and fails
RUN_MARGIN_S = 110.0


def _child_env() -> dict:
    # the library's REPRO_* switches would change what is measured; a fixed
    # hash seed removes one source of run-to-run spread
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(role: str, args, state_dir: str, deadline: float, extra=()):
    """Start one worker and wait for it, killing it at ``deadline``; return
    (seconds from spawn to ``ready`` or None, its JSON result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--root", ROOT,
           "--state-dir", state_dir, *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line == "ready\n" and ready is None:
                ready = perf_counter() - t0
            elif line.startswith("{"):
                result = json.loads(line)
            else:
                print(line, end="")
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or (role != "trace" and ready is None):
        raise RuntimeError(f"worker --role {role} exited with {proc.returncode}")
    return ready, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + RUN_MARGIN_S + WALL_FACTOR * args.seconds
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no library sources at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    runs = os.path.join(ROOT, RUNS_DIR)
    state = os.path.join(runs, f"{os.getpid()}-{args.workload}-{args.seed}")
    os.makedirs(runs, exist_ok=True)
    try:
        if args.trace:
            spans = os.path.join(runs, f"spans-{args.workload}-{args.seed}.json")
            _, result = spawn("trace", args, state, deadline, ("--spans", spans))
            metrics = result["metrics"]
            print(f"spans written to {os.path.relpath(spans, ROOT)}")
        else:
            setups = []
            for i in range(SETUP_SAMPLES - 1):
                ready, _ = spawn("probe", args, f"{state}/probe{i}", deadline)
                setups.append(ready)
            ready, result = spawn("run", args, f"{state}/run", deadline)
            setups.append(ready)
            metrics = dict(result["metrics"])
            metrics["setup_s"] = statistics.median(setups)
            attempted, failed = result["attempted"], result["failed"]
            metrics["success_ratio"] = (attempted - failed) / attempted
            print(f"{args.workload}: {attempted} ops (samples), "
                  f"setup samples {[round(s, 4) for s in setups]}")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    print("host: " + json.dumps(result["host"]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
