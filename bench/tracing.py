"""Spans around calls into the program's public functions.

``Tracer.install()`` replaces each traced function by a wrapper in every
``fockspec`` module namespace that holds it, because the modules import
each other with ``from .x import f`` and look the name up there.  Only
public names are traced, so later rewrites of private helpers do not break
the trace.  Spans (name, start, end, parent, op id) are kept in memory and
written out once, at the end.  A span's self time is its duration minus the
durations of its child spans; single-threaded calls nest strictly, so the
self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (module, public function) pairs; the span name is "module.function".
TRACED = (
    ("cli", "main"),
    ("opdsl", "parse"),
    ("opdsl", "lower"),
    ("catalog", "build_from_catalog"),
    ("weyl", "multiply"),
    ("weyl", "flag_matrix"),
    ("realizations", "realize_matrix"),
    ("realizations", "complex_fiber_matrix"),
    ("solvability", "classify"),
    ("solvability", "invariant_degree_scan"),
    ("spectra", "spectrum"),
    ("spectra", "isospectral_check"),
    ("spectra", "restrict"),
    ("spectra", "char_poly"),
    ("spectra", "roots"),
    ("spectra", "eigenvector"),
)
#: the benchmark's own span around each op: harness code and any program
#: code reached other than through a traced function
ROOT = "bench.harness"

#: counters read off a traced call's return value
RESULT_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "spectra.roots": ("exact_found", lambda evs: sum(1 for ev in evs if ev.is_exact)),
}

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.failed: Dict[str, int] = {f"{m}.{f}": 0 for m, f in TRACED}
        self.counts: Dict[str, int] = {f"{name}.{key}": 0 for name, (key, _) in RESULT_COUNTERS.items()}
        #: traced names the program does not define
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._op)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        for module, func in TRACED:
            mod = importlib.import_module(f"fockspec.{module}")
            original = getattr(mod, func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(f"{module}.{func}", original)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("fockspec") or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._patched.append((loaded, attr, original))

    def uninstall(self) -> None:
        for loaded, attr, original in reversed(self._patched):
            setattr(loaded, attr, original)
        self._patched.clear()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1, op_id)
            self._op = -1

    def summary(self) -> Dict[str, float]:
        """Self time and call count per span name, and the batch time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {"batch_s": 0.0}
        for module, func in TRACED:
            out[f"{module}.{func}.self_s"] = 0.0
            out[f"{module}.{func}.calls"] = 0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child[idx]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if parent < 0:
                out["batch_s"] += end - start
        for name, count in self.failed.items():
            out[f"{name}.failed"] = count
        out.update(self.counts)
        return out

    def unreached(self) -> List[str]:
        """Traced names that are missing or were never called, so that a
        renamed function or a changed call route cannot read as zero time."""
        calls = self.summary()
        return self.missing + [f"{m}.{f}" for m, f in TRACED
                               if f"{m}.{f}" not in self.missing and not calls[f"{m}.{f}.calls"]]

    def write(self, path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [[n, round(s - origin, 9), round(e - origin, 9), p, o] for n, s, e, p, o in self.spans],
                fh,
            )
