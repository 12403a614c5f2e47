"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
timing wrapper, set as a module attribute.  Calls between functions resolve
through module globals or module attributes, so internal calls hit the
wrappers too.  Every call is a span (name, start, end, parent); a layer's self
time is its spans' time minus the time their child spans cover.  Spans are
kept in memory (up to ``MAX_SPANS``, the rest are counted as dropped) and
written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

#: layer name -> module; the metric prefix drops the leading underscore
LAYERS = {
    "cli": "loopcrystal.cli",
    "crystal": "loopcrystal.crystal",
    "components": "loopcrystal.components",
    "oracle": "loopcrystal.oracle",
    "linalg": "loopcrystal._linalg",
    "ktheory": "loopcrystal.ktheory",
    "catalog": "loopcrystal.catalog",
}

#: public functions the per-layer metrics are read from; one that is gone is
#: reported as missing, never dropped silently
EXPECTED = (
    "cli.main",
    "crystal.build_graph", "crystal.verify_axioms", "crystal.e_s",
    "components.aperiodic_multisegments",
    "oracle.sample_generic", "oracle.is_nilpotent", "oracle.recover_type",
    "oracle.eps_sample", "oracle.quotient_type_sample", "oracle.p1_kernel_profile",
    "linalg.rref_mod", "linalg.mat_mul_mod",
)

MAX_SPANS = 200_000


def public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    def __init__(self):
        self.clock = time.process_time
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent span index)
        self.dropped = 0
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # derived counters, see _observe
        self._stack: list[list] = []  # [start, child time, span index, candidates]
        self._open = defaultdict(int)  # open spans per name
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        present = set()
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for name, fn in list(public_functions(module)):
                qual = f"{layer}.{name}"
                present.add(qual)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(qual, fn))
        self.missing = [name for name in EXPECTED if name not in present]

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, qual: str, fn):
        name_id = len(self.names)
        self.names.append(qual)
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0.0, -1, self.counts["inversion.candidates"]]
            if len(self.spans) < MAX_SPANS:
                frame[2] = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
            stack.append(frame)
            self._open[qual] += 1
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                self._open[qual] -= 1
                elapsed = end - frame[0]
                self.calls[qual] += 1
                self.inclusive[qual] += elapsed
                self.self_time[qual] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if frame[2] >= 0:
                    self.spans[frame[2]] = (name_id, frame[0], end, parent)
                if ok:
                    self._observe(qual, args, result, frame)

        return wrapper

    def _observe(self, qual: str, args, result, frame) -> None:
        """Work counts read off arguments and results of a finished call."""
        c = self.counts
        if qual == "components.aperiodic_multisegments":
            c["aperiodic.results"] += len(result)
            if self._open["crystal.e_s"]:
                c["inversion.candidates"] += len(result)
        elif qual == "crystal.e_s":
            # only calls that searched candidates (not memo hits or s == 0)
            if c["inversion.candidates"] > frame[3]:
                c["inversion.results"] += 1
        elif qual == "oracle.is_nilpotent":
            if self._open["oracle.sample_generic"]:
                c["sample.nilpotency_tests"] += 1
        elif qual == "linalg.rref_mod":
            rows = args[0]
            if rows and rows[0]:
                c["rref_mod.ops_est"] += len(rows) * len(rows[0]) * len(result[1])
        elif qual == "linalg.mat_mul_mod":
            a, b = args[0], args[1]
            if a and b:
                c["mat_mul_mod.ops_est"] += len(a) * len(b) * len(b[0])

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for q, t in self.self_time.items() if q.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for q, n in self.calls.items() if q.startswith(prefix))

    def write_spans(self, path) -> None:
        """One JSON object per line: the name table, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
