"""One fresh interpreter of the benchmark; ``run.py`` starts it.

Roles:

``probe``
    set up one workload (imports, fixtures, daemon for ``serve``, one
    warm-up op), print ``ready``, check the warm-up op's output and exit.
    ``run.py`` times spawn to ``ready``: one ``setup_s`` sample.
``run``
    the same set-up, then the untraced timed window of one workload; prints
    a JSON line with its end-to-end figures.
``trace``
    for every workload, an untraced and a traced window of equal length,
    then the per-layer metrics, the import-time split and
    ``trace.overhead_ratio``; the spans are written to ``--spans``.  In the
    traced window each op is a root span, and the layers are spans around
    the library's own calls, wrapped for that window only.

The timed window runs ops one after another (closed loop, one caller) until
their summed latency reaches ``--seconds``; output checks run between ops,
off the clock.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Dict, List

#: wall-clock cap on one window, as a multiple of its op-time budget; checks
#: run between ops, so a window takes longer than its budget
WALL_FACTOR = 3.0
IMPORT_MODULES = ("repro", "repro.core", "repro.scheduling", "repro.sweep",
                  "repro.serve", "repro.obs", "repro.store")
IMPORT_REPEATS = 3


def window(wl, seconds: float, first: int, spans=None):
    """Run ops ``first, first+1, ...``; return (latencies, failures, next k).
    With ``spans``, each op is recorded in a root span ``<workload>.op``."""
    lat: List[float] = []
    busy = 0.0
    failed = 0
    k = first
    wall_end = perf_counter() + WALL_FACTOR * seconds
    while True:
        t0 = perf_counter()
        try:
            if spans is None:
                out = wl.op(k)
            else:
                spans.op = k
                try:
                    with spans.span(f"{wl.name}.op"):
                        out = wl.op(k)
                finally:
                    spans.op = None
        except Exception as exc:
            out = exc
        lat.append(perf_counter() - t0)
        busy += lat[-1]
        failed += not _passed(wl, k, out, report=not failed)
        k += 1
        if (k - first) % wl.block == 0 and (
            busy >= seconds or perf_counter() >= wall_end
        ):
            return lat, failed, k


def _passed(wl, k: int, out, report: bool) -> bool:
    """Whether op ``k`` returned and its output passed the check."""
    try:
        if isinstance(out, Exception):
            raise out
        if wl.check(k, out):
            return True
        error = "output check failed\n"
    except Exception:
        error = traceback.format_exc()
    if report:
        print(f"{wl.name} op {k}: {error}", end="", file=sys.stderr)
    return False


def summarize(lat: List[float]) -> Dict[str, float]:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "p50_ms": statistics.median(lat) * 1e3,
        "p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def build(name: str, seed: int, root: str, state_dir: str):
    """Set up workload ``name`` and run its warm-up op, whose index is
    outside every timed window; return the workload and the op's output."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, root, state_dir)
    try:
        return wl, wl.op(-1)
    except BaseException:
        wl.close()
        raise


def check_warmup(wl, out) -> None:
    """The warm-up op's check; it runs after ``ready``, off the set-up clock."""
    if not wl.check(-1, out):
        raise RuntimeError(f"{wl.name}: warm-up op failed its check")


def host() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def import_ms(root: str, module: str) -> float:
    """Cumulative import time of ``module`` in a fresh interpreter, from
    ``-X importtime`` (median of a few interpreters)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    runs = []
    for _ in range(IMPORT_REPEATS):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {module}"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
            check=True,
        ).stderr
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                runs.append(int(fields[1]) / 1e3)
                break
        else:
            raise RuntimeError(f"-X importtime printed no line for {module}")
    return statistics.median(runs)


def run(args) -> Dict[str, object]:
    wl, out = build(args.workload, args.seed, args.root, args.state_dir)
    print("ready", flush=True)
    try:
        check_warmup(wl, out)
        lat, failed, _ = window(wl, args.seconds, 0)
        failed += wl.finish()
    finally:
        wl.close()
    # the serve workload's work runs in its daemon, the only child waited for
    who = resource.RUSAGE_CHILDREN if args.workload == "serve" else resource.RUSAGE_SELF
    out = summarize(lat)
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return {"attempted": len(lat), "failed": failed, "metrics": out}


def trace(args) -> Dict[str, object]:
    from spans import Spans
    from workloads import WORKLOADS

    metrics: Dict[str, float] = {}
    attempted = failed = 0
    dump = {}
    share = args.seconds / (2 * len(WORKLOADS))
    for name in WORKLOADS:
        spans = Spans()
        wl, out = build(name, args.seed, args.root, args.state_dir)
        try:
            check_warmup(wl, out)
            plain, bad, k = window(wl, share, 0)
            wl.traced(spans)
            try:
                traced, bad2, _ = window(wl, share, k, spans)
            finally:
                spans.unwrap()
            bad += bad2 + wl.finish()
            metrics.update(wl.layers(spans))
        finally:
            wl.close()
        metrics[f"trace.overhead_ratio.{name}"] = (
            summarize(traced)["ops_per_s"] / summarize(plain)["ops_per_s"]
        )
        attempted += len(plain) + len(traced)
        failed += bad
        dump[name] = spans
    for module in IMPORT_MODULES:
        short = module.rsplit(".", 1)[-1]
        metrics[f"setup.import.{short}_ms"] = import_ms(args.root, module)
    with open(args.spans, "w") as fh:
        json.dump({name: sp.rows() for name, sp in dump.items()}, fh)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--state-dir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    if args.role == "probe":
        wl, out = build(args.workload, args.seed, args.root, args.state_dir)
        print("ready", flush=True)
        try:
            check_warmup(wl, out)
        finally:
            wl.close()
        return 0
    result = run(args) if args.role == "run" else trace(args)
    result["host"] = host()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
