"""Outside-in tracing of the `tensorgds` modules for the benchmark's traced
runs.

`Tracer.install` wraps every public function of each module in a span
recorder and rebinds the wrapper under every name that refers to the
function in any `tensorgds` namespace, because modules such as `pipeline`
bind `karcher_mean`, `project_onto_gds` and the others at import time. Calls
to `numpy.linalg.svd`, `pinv`, `eigh` and `qr` are counted, not recorded as
spans; only direct calls through `numpy.linalg` count, so the SVD inside
`pinv` is not counted as an SVD. `KarcherConvergenceWarning`s are caught and
counted per phase.

Spans live in flat arrays in memory (name, phase, parent, start, end, and
whether a span of the same name encloses it) and are written out once, when
the run ends. A span's self time is its duration minus that of its direct
children, which are nested inside it because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import warnings
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

MODULES = ("tensor", "subspace", "gds", "fisher", "manifold", "pipeline", "dataio", "cli")
LINALG = ("svd", "pinv", "eigh", "qr")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.phase_labels: list[str] = []
        self.phase = -1
        self.name_id = array("i")
        self.phase_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        active, stack = self._active, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.phase_id.append(self.phase)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(active[nid] > 0)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            active[nid] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.start[idx] = t0
                active[nid] -= 1
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[self.phase, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "tensorgds"]
        for short in MODULES:
            module = sys.modules[f"tensorgds.{short}"]
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrapped = self._span(f"{short}.{name}", obj)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapped)
        for name in LINALG:
            setattr(np.linalg, name, self._counter(f"linalg.{name}", getattr(np.linalg, name)))

    @contextlib.contextmanager
    def phase_of(self, label: str, warning_category):
        """Attribute spans, counts and caught warnings to phase `label`."""
        self.phase_labels.append(label)
        outer, self.phase = self.phase, len(self.phase_labels) - 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", warning_category)
            try:
                yield
            finally:
                self.counts[self.phase, "fisher.karcher_unconverged"] += sum(
                    issubclass(w.category, warning_category) for w in caught
                )
                self.phase = outer

    # -- reading -----------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.phase_id, dtype=np.int32),
            parent,
            dur,
            dur - child,
            np.frombuffer(self.nested, dtype=np.int8).astype(bool),
        )

    def phase_totals(self, phases: list[int]) -> dict[str, dict[str, float]]:
        """Per span name over the given phases: calls, inclusive ms (outermost
        spans of that name only) and self ms; plus the counters."""
        name_id, phase_id, _, dur, self_ns, nested = self._arrays()
        mask = np.isin(phase_id, phases)
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            sel = mask & (name_id == nid)
            if sel.any():
                out[name] = {
                    "calls": int(sel.sum()),
                    "ms": float(dur[sel & ~nested].sum()) / 1e6,
                    "self_ms": float(self_ns[sel].sum()) / 1e6,
                }
        wanted = set(phases)
        for (phase, name), n in self.counts.items():
            if phase in wanted:
                out.setdefault(name, {"calls": 0})["calls"] += n
        return out

    def calls_within(self, name: str, ancestor: str, phases: list[int]) -> int:
        """Spans called `name` in `phases` with an enclosing `ancestor` span."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        name_id, phase_id, parent, *_ = self._arrays()
        target, anc = self._name_ids[name], self._name_ids[ancestor]
        total = 0
        for idx in np.flatnonzero((name_id == target) & np.isin(phase_id, phases)):
            p = parent[idx]
            while p >= 0 and name_id[p] != anc:
                p = parent[p]
            total += p >= 0
        return int(total)

    def phases_named(self, prefix: str) -> list[int]:
        return [i for i, label in enumerate(self.phase_labels) if label.startswith(prefix)]

    def write(self, stem) -> None:
        """Spans to `<stem>.npz`; per-phase-kind totals to `<stem>.json`."""
        name_id, phase_id, parent, dur, self_ns, nested = self._arrays()
        np.savez_compressed(
            f"{stem}.npz",
            names=np.array(self.names),
            phase_labels=np.array(self.phase_labels),
            name_id=name_id,
            phase_id=phase_id,
            parent=parent,
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            duration_ns=dur,
            self_ns=self_ns,
            nested=nested,
        )
        kinds = sorted({label.split(":")[0] for label in self.phase_labels})
        summary = {
            kind: {
                "phases": len(self.phases_named(kind + ":")),
                "totals": self.phase_totals(self.phases_named(kind + ":")),
            }
            for kind in kinds
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
