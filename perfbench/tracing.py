"""Spans around the public functions of the fpcentral layers.

``Tracer.install`` wraps every public function of the traced modules, and
``fpcentral.cli.main``, in every fpcentral module namespace that refers to
it, so calls made through ``from .x import f`` names are traced as well.
Each call records a span: name, start, end, parent span, whether it raised,
and the iteration count of the result object when it has one.  Spans stay
in memory; ``layer_totals`` folds them into per-name busy time, self time
(busy time minus the time covered by child spans), calls, failures and
iterations.
"""

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("io", "centrality", "norms", "perturbation", "transport", "graphon")
_NORM_LABELS = {1: "1", "1": "1", 2: "2", "2": "2", "cut": "cut", "CUT": "cut",
                math.inf: "inf", "inf": "inf"}


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    iterations: int | None = None


def _span_name(name, args, kwargs):
    """min_permuted_distance is split by its norm argument."""
    if name == "norms.min_permuted_distance":
        norm = kwargs.get("norm", args[2] if len(args) > 2 else None)
        return f"{name}.{_NORM_LABELS.get(norm, norm)}"
    return name


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(_span_name(name, args, kwargs), stack[-1] if stack else None,
                        time.perf_counter())
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            span.iterations = getattr(result, "iterations", None)
            return result
        return traced

    def install(self):
        """Wrap the layers' public functions everywhere fpcentral names them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fpcentral.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        cli = importlib.import_module("fpcentral.cli")
        wrappers[cli.main] = self.wrap("cli.main", cli.main)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fpcentral" or mod_name.startswith("fpcentral."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patched.append((module, attr, obj))
                        setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_totals(spans):
    """Per span name: busy_s (outermost spans of that name only, so nested
    calls of one function are not counted twice), self_s, calls, failed and
    the summed iteration counts."""
    totals = {}
    for span in spans:
        row = totals.setdefault(span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0,
                                            "failed": 0, "iterations": 0})
        duration = span.end - span.start
        row["self_s"] += duration - span.child_s
        row["calls"] += 1
        row["failed"] += span.failed
        row["iterations"] += span.iterations or 0
        parent = span.parent
        while parent is not None and parent.name != span.name:
            parent = parent.parent
        if parent is None:
            row["busy_s"] += duration
    return totals


def span_cost(samples=20000):
    """Seconds a span adds to one call, from timing a no-op with and without
    the wrapper."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            traced()
        best = min(best, (time.perf_counter() - start - plain) / samples)
    return max(best, 0.0)
