"""Layer spans for a traced benchmark run, recorded from outside the package.

The tracer replaces each listed layer function with a wrapper wherever a
module under ``hmmposterior`` binds it, so ``from .x import f`` bindings and
calls inside a module are caught as well as attribute calls.  Every call
records a span (layer, start, end, parent span, run id, ru_maxrss rise and,
for some layers, a work count).  Spans stay in memory until the run ends.

Only the standard library is imported here, so the client can load this
module after timing its own import of the package.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time

# layer name -> (module, function names).  A name ending in "_" is a prefix:
# every public function of the module starting with it belongs to the layer.
LAYERS = {
    "cli.main": ("hmmposterior.cli", ("main",)),
    "model.forward_backward": ("hmmposterior.model", ("forward_backward",)),
    "model.simulate": ("hmmposterior.model", ("simulate",)),
    "model.log_joint": ("hmmposterior.model", ("log_joint",)),
    "chain.build_posterior_chain": ("hmmposterior.chain", ("build_posterior_chain",)),
    "chain.sample_posterior_paths": ("hmmposterior.chain", ("sample_posterior_paths",)),
    "decoding.hybrid_paths": ("hmmposterior.decoding", ("hybrid_paths",)),
    "decoding.viterbi": ("hmmposterior.decoding", ("viterbi",)),
    "fmci.propagate": ("hmmposterior.fmci", ("propagate",)),
    "fmci.expected_exact_run_counts": ("hmmposterior.fmci", ("expected_exact_run_counts",)),
    "fmci.auto_truncation": ("hmmposterior.fmci", ("auto_truncation",)),
    "artemis.sweep": ("hmmposterior.artemis", ("sweep",)),
    "io.read": ("hmmposterior.io", ("read_",)),
    "io.write": ("hmmposterior.io", ("write_",)),
}

def _propagate_steps(args, result):
    return args["spec"].size * (args["chain"].n - 1)


# layer -> (counter name, function of the bound call arguments and the result)
COUNTERS = {
    "decoding.hybrid_paths": ("alpha_positions", lambda args, result: result.size),
    "chain.sample_posterior_paths": ("path_positions", lambda args, result: result.size),
    "fmci.propagate": ("imbedded_steps", _propagate_steps),
    "io.write": ("bytes", lambda args, result: os.path.getsize(args["path"])),
}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one run.

    A span is the tuple (layer, start, end, parent index or -1, run id,
    ru_maxrss rise in KiB, work count or None).
    """

    def __init__(self, run_id: str, layers=LAYERS):
        self.run_id = run_id
        self.layers = layers
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._replaced: list = []

    def _wrap(self, layer: str, func):
        counter = COUNTERS.get(layer)
        signature = inspect.signature(func) if counter else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            rss = _maxrss_kib()
            start = time.perf_counter()
            result = returned = None
            try:
                result = func(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                rise = _maxrss_kib() - rss
                count = None
                if counter is not None and returned:
                    try:
                        count = counter[1](signature.bind(*args, **kwargs).arguments, result)
                    except (AttributeError, KeyError, TypeError, OSError):
                        count = None  # the call's arguments changed shape
                self.spans[index] = (layer, start, end, parent, self.run_id, rise, count)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every loaded ``hmmposterior`` module.

        A listed function that its module no longer defines is recorded in
        ``absent`` rather than raising, so layers can be deleted from the
        package without breaking the benchmark.
        """
        wrappers = {}
        for layer, (module_name, names) in self.layers.items():
            namespace = vars(sys.modules[module_name]) if module_name in sys.modules else {}
            found = []
            for name in names:
                if name.endswith("_"):
                    found += [
                        f for attr, f in namespace.items()
                        if attr.startswith(name) and inspect.isfunction(f)
                        and f.__module__ == module_name
                    ]
                elif inspect.isfunction(namespace.get(name)):
                    found.append(namespace[name])
            if not found:
                self.absent.append(layer)
            for func in found:
                wrappers[func] = self._wrap(layer, func)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "hmmposterior":
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()


def layer_totals(spans) -> dict:
    """Per-layer calls, total, self time, ru_maxrss rise and work counts.

    Self time is a span's duration minus the durations of its direct child
    spans, so the self times of all spans add up to the root spans' time.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (layer, start, end, parent, run_id, rise, count) in enumerate(spans):
        t = totals.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_rise_mb": 0.0}
        )
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["rss_rise_mb"] += rise / 1024.0
        if layer in COUNTERS and count is not None:
            name = COUNTERS[layer][0]
            t[name] = t.get(name, 0) + count
    return totals


def traced_wall(spans) -> float:
    """Wall time of the traced CLI calls: the sum of the root spans."""
    return sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
