"""In-memory span recorder for the benchmark's traced run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the index of the benchmark
op it belongs to.  The benchmark opens one root span per op; the layers
inside it are spans around the library's own calls to its public
functions, which :meth:`Spans.wrap` replaces by recording wrappers for the
traced window only, so the traced op runs the same code path as the
untraced one.  The spans stay in memory; the benchmark writes
:meth:`Spans.rows` out when its run ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Spans:
    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []
        #: the op being recorded; None between ops, so calls made by the
        #: output checks are not recorded
        self.op: Optional[int] = None
        self._patched: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[idx][2] = perf_counter()

    def wrap(self, module, attr: str, name, observe: Callable = None) -> None:
        """Record every call of ``module.attr`` made during an op in a span.
        ``name`` is the span name, or a function of the call's arguments
        giving it; ``observe`` is given each call's return value.  The
        library looks the function up at call time, so its own calls pass
        through the wrapper.  :meth:`unwrap` restores the original."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            with self.span(name(*args, **kwargs) if callable(name) else name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(out)
            return out

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover.
        Children of one span run one after another, so their durations
        add up without overlap."""
        out = [end - start for _name, start, end, _parent, _op in self.records]
        for _name, start, end, parent, _op in self.records:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def per_op(self, name: str) -> Dict[int, float]:
        """Self time of the spans called ``name``, summed per op (seconds)."""
        out: Dict[int, float] = {}
        for rec, own in zip(self.records, self.self_times()):
            if rec[0] == name:
                out[rec[4]] = out.get(rec[4], 0.0) + own
        return out

    def total(self, name: str) -> float:
        """Wall time of every span called ``name``, including children."""
        return sum(end - start for n, start, end, _p, _o in self.records if n == name)

    def p50_ms(self, *names: str) -> float:
        """Median over ops of the summed self time of ``names``."""
        per: Dict[int, float] = {}
        for name in names:
            for op, secs in self.per_op(name).items():
                per[op] = per.get(op, 0.0) + secs
        return statistics.median(per.values()) * 1e3

    def rows(self) -> List[dict]:
        fields = ("name", "start", "end", "parent", "op")
        return [dict(zip(fields, rec)) for rec in self.records]
