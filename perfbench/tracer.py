"""In-memory spans around the package's public functions.

A :class:`Tracer` replaces each traced function wherever the package's own
modules look it up (``conjlogit.cli.load_cache`` as well as
``conjlogit.diophantine.load_cache``), records a span per call (name, start,
end, parent, tag) and a few counts taken from the call's arguments and
result, and puts the originals back on :meth:`uninstall`.  A function the
package no longer defines is skipped, so internals can be deleted without
editing the benchmark; its metrics then read 0 and are reported as not
exercised.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "conjlogit"


def _rtuples(cache) -> int:
    # ``entries`` is a stored dict; ``r_array`` may be built lazily on first
    # use, and building it here would move that work out of the evaluation.
    entries = getattr(cache, "entries", None)
    return len(entries) if entries is not None else len(cache.r_array)


def _count_rows(c, args, res):
    c["data_model.rows"] += sum(h.n_obs for h in res.households)


def _count_build(c, args, res):
    c["diophantine.caches_built"] += 1


def _count_save(c, args, res):
    c["diophantine.bytes_written"] += os.path.getsize(args[1])


def _count_load(c, args, res):
    c["diophantine.caches_loaded"] += 1
    c["diophantine.bytes_read"] += os.path.getsize(args[0])


def _count_prepare(c, args, res):
    c["series.groups"] += len(res.groups)
    c["diophantine.rtuples"] += sum(_rtuples(cache) for cache in res.caches.values())


def _count_eval(c, args, res):
    c["series.evals"] += 1


def _count_grid(c, args, res):
    c["optimizer.grid_points"] += len(res.trace)


def family_of(spec) -> str:
    """snake_case family name of a spec (GeneralizedMVGamma -> generalized_mv_gamma)."""
    name = re.sub(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "_", type(spec).__name__)
    return name.lower()


# (module, function, span name or None for count-only, count hook)
TARGETS = (
    ("data_model", "load_dataset", "data_model.load", _count_rows),
    ("data_model", "validate_dataset", "data_model.load", None),
    ("diophantine", "build_cache", "diophantine.build", _count_build),
    ("diophantine", "save_cache", "diophantine.save", _count_save),
    ("diophantine", "load_cache", "diophantine.load", _count_load),
    ("series", "prepare_dataset", "series.prepare", _count_prepare),
    ("series", "log_marginal_prepared", "series.eval", _count_eval),
    ("optimizer", "grid_fit", "optimizer.grid", _count_grid),
    ("gamma_kernels", "mgf_bivariate_named", None, None),
    ("gamma_kernels", "mgf_gmv_gamma", None, None),
)


class Tracer:
    """Spans and counts for one traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, tag])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, hook):
        counts = self.counts
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts["gamma_kernels.mgf_calls"] += 1
                return fn(*args, **kwargs)

            return counted

        is_eval = name == "series.eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = family_of(args[1]) if is_eval else None
            with self.span(name, tag):
                res = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, args, res)
            return res

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for mod_name, fn_name, span_name, hook in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(original, span_name, hook)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def self_times(self) -> dict[str, dict[str, float]]:
        """Self time per span name (duration minus the time its children
        cover), grouped by the name of the root span (the phase) above it."""
        child: dict[int, float] = defaultdict(float)
        root: list[int] = []
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[self.spans[root[i]][0]][name] += (t1 - t0) - child[i]
        return {phase: dict(v) for phase, v in out.items()}

    def durations_ms(self, name: str) -> dict[str | None, list[float]]:
        """Durations in ms of every span of this name, keyed by tag."""
        out: dict[str | None, list[float]] = defaultdict(list)
        for n, t0, t1, _, tag in self.spans:
            if n == name:
                out[tag].append(1e3 * (t1 - t0))
        return out
