"""Per-layer attribution by wrapping public names from outside.

:class:`LayerTracer` installs timing wrappers on the serving stack's
public entry points for one traced phase only, records a span (name,
start, end, parent, flush, request ids) per wrapped call in memory, and
removes every wrapper afterwards.  A layer's self time is its span's
duration minus the part covered by its child spans.  Nothing in the
program is edited: instance attributes shadow methods, and the
module-level names ``repro.runtime.engine.decision`` binds are swapped
and restored.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from repro import obs
from repro.runtime.engine import decision as decision_module

#: Module-level names the decision layer binds, and the span names
#: they are recorded under.
DECISION_MODULE_NAMES = {
    "feature_keys_batch": "serving.keys",
    "encode_features_batch": "encoding.encode",
    "decode_config_batch": "encoding.decode",
    "decode_config_for": "encoding.decode",
    "simulate": "accel.simulate",
    "select_chosen": "decision.select",
    "select_runner_up": "decision.select",
}

#: ``repro.obs`` facade functions the serving path calls.
OBS_FACADE = (
    "span",
    "record_span",
    "counter",
    "gauge",
    "histogram",
    "record_decision",
    "trace_link",
    "slo_observe",
    "mint_trace",
    "trace_scope",
    "current_trace",
    "active_trace_ids",
    "config_summary",
)


class _TimedContext:
    """Times a facade context manager's enter and exit as obs spans."""

    __slots__ = ("tracer", "inner")

    def __init__(self, tracer: "LayerTracer", inner) -> None:
        self.tracer = tracer
        self.inner = inner

    def __enter__(self):
        return self.tracer.timed("obs.scope", self.inner.__enter__)

    def __exit__(self, *exc):
        return self.tracer.timed("obs.scope", self.inner.__exit__, *exc)


class LayerTracer:
    """Records spans around the public layer boundaries of one server."""

    def __init__(self, server) -> None:
        self.server = server
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.flushes: list[int] = []
        self._stack: list[int] = []
        self.flush = 0
        self._delivered = False
        #: (request tag, flush id) per delivered result.
        self.requests: list[tuple[int, int]] = []
        self.lags_s: list[float] = []
        self.obs_calls = 0
        self.cache_gets = 0
        self.key_rows = 0
        self.unique_keys = 0
        self.predict_rows = 0
        self.encode_rows = 0
        self._inner_deliver = None
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a recorded span."""
        stack = self._stack
        if not stack and self._delivered:
            # First root call after a flush delivered its results: a new
            # flush has begun.
            self.flush += 1
            self._delivered = False
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.flushes.append(self.flush)
        self.ends.append(0)
        stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, name: str, fn, count=None):
        timed = self.timed

        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            return timed(name, fn, *args, **kwargs)

        return wrapper

    def _deliver(self, tag, result) -> None:
        self.requests.append((tag, self.flush))
        self._delivered = True
        self._inner_deliver(tag, result)

    # -- install / remove --------------------------------------------------

    def _shadow(self, obj, attr: str, replacement) -> None:
        setattr(obj, attr, replacement)
        self._undo.append(lambda: delattr(obj, attr))

    def _swap(self, module, attr: str, replacement) -> None:
        original = getattr(module, attr)
        setattr(module, attr, replacement)
        self._undo.append(lambda: setattr(module, attr, original))

    def install(self) -> None:
        server = self.server
        decisions = server.decisions

        def count_encode(args):
            self.encode_rows += len(args[0])

        def count_predict(args):
            self.predict_rows += len(args[0])

        def count_get(args):
            self.cache_gets += 1

        for attr in ("choose_encoded", "decide_batch", "audit"):
            self._shadow(
                decisions, attr, self._wrap(f"decision.{attr}", getattr(decisions, attr))
            )
        self._shadow(
            decisions, "encode", self._wrap("decision.encode", decisions.encode, count_encode)
        )
        predictor = decisions.predictor
        self._shadow(
            predictor,
            "predict_batch",
            self._wrap("predictors.predict_batch", predictor.predict_batch, count_predict),
        )
        if decisions.cache is not None:
            cache = decisions.cache
            self._shadow(cache, "get", self._wrap("serving.cache_get", cache.get, count_get))
            self._shadow(cache, "put", self._wrap("serving.cache_put", cache.put))
        for attr, name in DECISION_MODULE_NAMES.items():
            original = getattr(decision_module, attr)
            if attr == "feature_keys_batch":
                self._swap(decision_module, attr, self._keys_wrapper(original))
            else:
                self._swap(decision_module, attr, self._wrap(name, original))
        scheduler = server.scheduler
        self._shadow(scheduler, "place", self._wrap("scheduler.place", scheduler.place))
        backend = server.backend
        self._shadow(backend, "execute", self._wrap("execution.execute", backend.execute))
        for attr in OBS_FACADE:
            self._swap(obs, attr, self._obs_wrapper(getattr(obs, attr)))
        self._shadow(server, "try_submit", self._submit_wrapper(server.try_submit))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _keys_wrapper(self, original):
        def wrapper(*args, **kwargs):
            keys = self.timed("serving.keys", original, *args, **kwargs)
            self.key_rows += len(keys)
            self.unique_keys += len(set(keys))
            return keys

        return wrapper

    def _obs_wrapper(self, original):
        timed = self.timed

        def wrapper(*args, **kwargs):
            if not obs.enabled():
                return original(*args, **kwargs)
            self.obs_calls += 1
            result = timed("obs.call", original, *args, **kwargs)
            if hasattr(result, "__enter__") and result is not obs.NOOP_SPAN:
                return _TimedContext(self, result)
            return result

        return wrapper

    def _submit_wrapper(self, original):
        clock = self.server.clock
        lags = self.lags_s

        def wrapper(workload, *, tenant="default", tag=None, callback=None, arrival_s=None):
            if arrival_s is not None:
                lags.append(clock() - arrival_s)
            if callback is not None:
                self._inner_deliver = callback
                callback = self._deliver
            return original(
                workload, tenant=tenant, tag=tag, callback=callback, arrival_s=arrival_s
            )

        return wrapper

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self time in microseconds."""
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        durations = ends - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child_time = np.zeros(len(durations), dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], durations[has_parent])
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "us": 0.0, "self_us": 0.0}
        )
        for name, duration, child in zip(self.names, durations.tolist(), child_time.tolist()):
            entry = out[name]
            entry["calls"] += 1
            entry["us"] += duration / 1e3
            entry["self_us"] += (duration - child) / 1e3
        return dict(out)

    def root_us(self) -> float:
        """Time covered by root spans (calls made directly by the server)."""
        return sum(
            (end - start) / 1e3
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def write(self, path) -> None:
        """Write every span, then the request-to-flush map, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start_ns": self.starts[index],
                            "end_ns": self.ends[index],
                            "parent": self.parents[index],
                            "flush": self.flushes[index],
                        }
                    )
                    + "\n"
                )
            by_flush: dict[int, list[int]] = defaultdict(list)
            for tag, flush in self.requests:
                by_flush[flush].append(tag)
            for flush, tags in sorted(by_flush.items()):
                handle.write(json.dumps({"flush": flush, "requests": tags}) + "\n")
