"""Span tracing for the benchmark's traced mode.

:func:`installed` wraps avesolve's public layer functions under every
module attribute that refers to them (``solvers`` imports ``lu_factor`` by
name, ``generators`` imports ``sigma_min_estimate``, and so on), so calls
between modules are seen as well as calls from the benchmark.  Each wrapped
call records a span ``[name, start, end, parent, tag]`` in memory; ``tag``
is the benchmark phase the call happened in.  ``MatOperator.matvec`` and
``rmatvec`` are counted, not spanned.  Everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "installed", "TARGETS"]

# (span name, defining module, attribute)
TARGETS = (
    ("generators.gen_tridiag8", "avesolve.generators", "gen_tridiag8"),
    ("generators.gen_random_sparse", "avesolve.generators", "gen_random_sparse"),
    ("mmio.read_matrix_market", "avesolve.mmio", "read_matrix_market"),
    ("mmio.read_vector", "avesolve.mmio", "read_vector"),
    ("linalg.lu_factor", "avesolve.linalg", "lu_factor"),
    ("linalg.lu_solve", "avesolve.linalg", "lu_solve"),
    ("linalg.norm2_estimate", "avesolve.linalg", "matrix_norm2_estimate"),
    ("linalg.sigma_min_estimate", "avesolve.linalg", "sigma_min_estimate"),
    ("lsqr", "avesolve.lsqr", "lsqr_solve"),
    ("solvers.run_solver", "avesolve.solvers", "run_solver"),
    ("core.check_solvability", "avesolve.core", "check_solvability"),
    ("core.theta_k", "avesolve.core", "theta_k"),
)


class Tracer:
    """In-memory span recorder with per-tag event counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tag = None
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.tag, name)] += n

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.tag]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "lsqr":
                self.count("lsqr.calls")
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "lsqr":
                self.count("lsqr.iters", result.iterations)
            return result

        return traced

    def by_tag(self) -> dict:
        """``{tag: {name: [calls, total_s, self_s]}}``; self time is a
        span's duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, tag in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, t0, t1, parent, tag) in enumerate(self.spans):
            agg = out[tag][name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[i]
        return out

    def write(self, path) -> None:
        """Write one JSON object per span, then one per nonzero count."""
        with open(path, "w") as f:
            for name, t0, t1, parent, tag in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "tag": tag}) + "\n")
            for (tag, name), n in sorted(self.counts.items(), key=str):
                f.write(json.dumps({"count": name, "tag": tag, "n": n}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Wrap every target while the block runs; a ``None`` tracer is a no-op."""
    if tracer is None:
        yield
        return
    modules = [m for name, m in list(sys.modules.items())
               if (name == "avesolve" or name.startswith("avesolve.")) and m is not None]
    patched = []
    for span_name, mod_name, attr in TARGETS:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = tracer.wrap(span_name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    patched.append((m, key, original))

    from avesolve.lsqr import MatOperator

    orig_mv, orig_rmv = MatOperator.matvec, MatOperator.rmatvec

    def matvec(self, v):
        tracer.count("lsqr.matvecs")
        return orig_mv(self, v)

    def rmatvec(self, v):
        tracer.count("lsqr.rmatvecs")
        return orig_rmv(self, v)

    MatOperator.matvec, MatOperator.rmatvec = matvec, rmatvec
    try:
        yield
    finally:
        MatOperator.matvec, MatOperator.rmatvec = orig_mv, orig_rmv
        for m, key, original in patched:
            setattr(m, key, original)
