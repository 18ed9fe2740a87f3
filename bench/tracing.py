"""Spans at the program's layer boundaries, recorded from outside the program.

`install` replaces public functions at each layer boundary with wrappers that
record a span. Layer functions (config, detect, cli) get one span per call:
name, start, end and the enclosing span. The hot calls below them (rate
evaluations, eigensolves, bridge solves) run 10^5 times a pass, so
they are aggregated instead: per enclosing span and direct caller, a call
count and the seconds spent. Everything stays in memory until `dump`.
"""

import importlib
import time

# (module, attribute, span name). A name imported into another module is
# wrapped there too, because that module's own binding is what it calls.
SPANS = (
    ("choi_moments.config", "load_scenario", "config.load_scenario"),
    ("choi_moments.config", "build_generator", "config.build_generator"),
    ("choi_moments.cli", "load_scenario", "config.load_scenario"),
    ("choi_moments.cli", "build_generator", "config.build_generator"),
    ("choi_moments.cli", "run_scenario", "cli.run_scenario"),
    ("choi_moments.detect", "witness_series", "detect.witness_series"),
    ("choi_moments.detect", "measure_report", "detect.measure_report"),
    ("choi_moments.detect", "cp_divisibility_scan", "detect.cp_divisibility_scan"),
    ("choi_moments.cli", "witness_series", "detect.witness_series"),
    ("choi_moments.cli", "measure_report", "detect.measure_report"),
    ("choi_moments.cli", "cp_divisibility_scan", "detect.cp_divisibility_scan"),
)
LEAVES = (
    ("choi_moments.lindblad", "rate_eval", "rates.rate_eval"),
    ("choi_moments.choi", "rates_at", "lindblad.rates_at"),
    ("numpy.linalg", "eigvalsh", "spectral.eigvalsh"),
    ("numpy.linalg", "cond", "choi.bridge_cond"),
    ("numpy.linalg", "solve", "choi.bridge_solve"),
)


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent span index or None]
        self.leaves = {}  # (enclosing span index, direct caller, name) -> [calls, seconds]
        self._names = []  # names of open spans and leaves, innermost last
        self._open = []   # indices of open spans, innermost last

    def span(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._open[-1] if self._open else None])
            self._names.append(name)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._names.pop()
                self._open.pop()
        return traced

    def leaf(self, name, fn):
        def traced(*args, **kwargs):
            caller = self._names[-1] if self._names else None
            self._names.append(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._names.pop()
                key = (self._open[-1] if self._open else None, caller, name)
                acc = self.leaves.get(key)
                if acc is None:
                    self.leaves[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans,
                "leaves": [[*key, calls, seconds] for key, (calls, seconds) in self.leaves.items()]}


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function that restores the originals."""
    saved = []
    for table, wrap in ((SPANS, tracer.span), (LEAVES, tracer.leaf)):
        for module_name, attr, name in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(name, original))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore


def per_root(dump: dict) -> list[tuple[str, dict]]:
    """Layer metrics of each root span (one op execution), in span order.

    For span names: inclusive seconds and self seconds (minus direct child
    spans and direct leaf calls). For leaves: calls and seconds.
    """
    spans, leaves = dump["spans"], dump["leaves"]
    root_of = []
    for name, start, end, parent in spans:
        root_of.append(len(root_of) if parent is None else root_of[parent])
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    for parent, caller, name, calls, seconds in leaves:
        if parent is not None and caller == spans[parent][0]:
            child_time[parent] += seconds
    out = {i: {} for i, span in enumerate(spans) if span[3] is None}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent is None:
            continue
        metrics = out[root_of[i]]
        metrics[f"{name}_s"] = metrics.get(f"{name}_s", 0.0) + (end - start)
        self_s = end - start - child_time[i]
        metrics[f"{name}.self_s"] = metrics.get(f"{name}.self_s", 0.0) + self_s
    for parent, caller, name, calls, seconds in leaves:
        if parent is None:
            continue
        metrics = out[root_of[parent]]
        metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + calls
        metrics[f"{name}_s"] = metrics.get(f"{name}_s", 0.0) + seconds
    return [(spans[i][0], metrics) for i, metrics in out.items()]
