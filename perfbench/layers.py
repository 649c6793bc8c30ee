"""Per-layer tracing for the benchmark, installed from outside ``src/``.

:func:`install` wraps the public functions of each layer named in
:data:`LAYERS` with a span recorder.  A function imported into another
module is replaced wherever it is looked up (every ``repro.*`` module
attribute bound to the original object), and methods are replaced on
the class that defines them, so call sites need no change.

Each span knows its parent (the innermost enclosing span on the same
thread), so a layer's *self time* is its span time minus the time of
the spans it caused.  Hot calls are aggregated per ``(name, parent)``;
top-level spans and shard/store spans are also kept as
``(name, start, end, parent)`` records.  :meth:`Tracer.dump` writes
both to a JSON file when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import threading
from time import perf_counter

#: layer -> the targets its spans wrap, as ``"module:qualname"``.
LAYERS: dict[str, tuple[str, ...]] = {
    "memory.patterns": (
        "repro.memory.patterns:RandomPattern.data_for_round",
        "repro.memory.patterns:RandomPattern.rounds",
    ),
    "memory.faults": ("repro.memory.faults:sample_chip_faults",),
    "ecc.encode": ("repro.ecc.linear_code:SystematicCode.encode",),
    "analysis.ground_truth": ("repro.analysis.memo:cached_ground_truth",),
    "analysis.indirect": ("repro.analysis.memo:cached_predict_indirect",),
    "analysis.crafted": ("repro.analysis.memo:CraftedEpoch.assignment",),
    "analysis.decode": (
        "repro.analysis.memo:CodeAnalysisCaches.decode_consequences",
        "repro.analysis.memo:CodeAnalysisCaches.peek_decode_consequences",
        "repro.analysis.memo:CodeAnalysisCaches.peek_decode_consequences_many",
    ),
    "analysis.ber": (
        "repro.analysis.probabilities:WordBerAnalyzer.__init__",
        "repro.analysis.probabilities:WordBerAnalyzer.unrepaired_ber",
        "repro.analysis.probabilities:WordBerAnalyzer.residual_ber_after_secondary",
    ),
    "profiling.word": ("repro.profiling.runner:simulate_word",),
    "profiling.batch": ("repro.profiling.runner:simulate_words_batched",),
    "profiling.craft": (
        "repro.profiling.beep:BeepProfiler.pattern_for_round",
        "repro.profiling.combined:HarpABeepProfiler.pattern_for_round",
    ),
    "profiling.observe": ("repro.profiling.base:Profiler.observe",
                          "repro.profiling.base:Profiler.observe_many"),
    "repair.plan": ("repro.repair.policy:plan_row_sparing",),
    "experiments.shard": (
        "repro.experiments.runner:run_shard",
        "repro.experiments.fig10:run_case_shard",
        "repro.experiments.fleet:run_fleet_shard",
    ),
    "experiments.metrics": ("repro.experiments.runner:metrics_for_words",),
    "wire.pack": ("repro.experiments.wire:pack_frame",),
    "wire.decode": ("repro.experiments.wire:decode_node",),
    "store.append": (
        "repro.experiments.store:ShardStore.append",
        "repro.experiments.store:Fig10Store.append",
        "repro.experiments.store:FleetStore.append",
    ),
    "scheduler.submit": ("repro.experiments.scheduler:JobScheduler.submit",),
}

#: Methods declared on an abstract base and overridden per subclass are
#: wrapped on every class of the family that defines them.
_METHOD_FAMILIES = {"repro.profiling.base:Profiler"}

#: Spans kept as full records (beyond every top-level span).
_RECORDED = {"experiments.shard", "store.append"}

#: Memo caches behind the hit ratios, read from their public ``stats``.
CACHES = {
    "analysis.ground_truth": "ground_truth_cache",
    "analysis.indirect": "indirect_prediction_cache",
    "analysis.crafted": "crafted_pattern_cache",
    "analysis.decode": "mismatch_consequence_cache",
}


def _rows(args, kwargs, result) -> int:
    """Rows a pattern or encode call produced (1 for a single dataword)."""
    return 1 if getattr(result, "ndim", 1) == 1 else int(result.shape[0])


#: Extra per-call counters: layer -> (counter suffix, fn(args, kwargs, result)).
_COUNTERS = {
    "memory.patterns": ("rows", _rows),
    "ecc.encode": ("rows", _rows),
    "profiling.word": ("adaptive_calls", lambda a, k, r: int(bool(a[0].adaptive))),
    "profiling.batch": ("words", lambda a, k, r: len(a[0])),
    "experiments.metrics": ("words", lambda a, k, r: len(a[0])),
    "wire.pack": ("bytes_out", lambda a, k, r: len(r)),
}


class _ThreadState:
    __slots__ = ("stack", "aggregates", "records", "counters", "errors")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.aggregates: dict[tuple, list] = {}
        self.records: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {}


class Tracer:
    """Span recorder with per-thread state, merged when read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        recorded = name in _RECORDED
        state_of = self._state

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1][0] if stack else None
            if parent == name:
                # A recursive or super() call belongs to the enclosing span.
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                state.errors[name] = state.errors.get(name, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                aggregate = state.aggregates.get((name, parent))
                if aggregate is None:
                    aggregate = state.aggregates[(name, parent)] = [0, 0.0, 0.0]
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += duration - frame[1]
                if recorded or parent is None:
                    state.records.append((name, start, end, parent))
            if counter is not None:
                key = f"{name}.{counter[0]}"
                state.counters[key] = state.counters.get(key, 0) + counter[1](
                    args, kwargs, result
                )
            return result

        # Same module/qualname as the original, so the wire codec and
        # pickle still send the callable by its import path.
        return functools.update_wrapper(traced, fn)

    # -- reading -------------------------------------------------------

    def document(self) -> dict:
        """Every span record and per-(name, parent) aggregate, JSON-ready."""
        aggregates: dict[tuple, list] = {}
        records: list[tuple] = []
        counters: dict[str, int] = {}
        errors: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in list(state.aggregates.items()):
                merged = aggregates.setdefault(key, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            records.extend(state.records)
            for table, into in ((state.counters, counters), (state.errors, errors)):
                for key, value in list(table.items()):
                    into[key] = into.get(key, 0) + value
        return {
            "format": "perfbench-spans-v1",
            "spans": sorted(records, key=lambda record: record[1]),
            "aggregates": [
                [name, parent, *values] for (name, parent), values in aggregates.items()
            ],
            "counters": counters,
            "errors": errors,
            "caches": cache_stats(),
        }

    def dump(self, path: str) -> dict:
        """Write :meth:`document` to ``path`` and return it."""
        document = self.document()
        with open(path, "w") as handle:
            json.dump(document, handle)
        return document


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every :data:`LAYERS` target wherever it is looked up.

    Modules imported later pick the wrapper up from the module they
    import it from.  A target that binds nothing is an error, so a
    renamed function cannot silently drop out of the table.
    """
    for name, targets in LAYERS.items():
        for target in targets:
            owner, attribute = _resolve(target)
            bindings = 0
            if isinstance(owner, type):
                family = f"{owner.__module__}:{owner.__qualname__}" in _METHOD_FAMILIES
                for cls in [owner, *_subclasses(owner)] if family else [owner]:
                    if attribute in cls.__dict__:
                        setattr(cls, attribute, tracer.wrap(name, cls.__dict__[attribute]))
                        bindings += 1
            else:
                original = getattr(owner, attribute)
                wrapper = tracer.wrap(name, original)
                for module_name, module in list(sys.modules.items()):
                    if module_name.split(".")[0] != "repro" or module is None:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            bindings += 1
            if not bindings:
                raise LookupError(f"layer {name}: {target} is not defined")


# ----------------------------------------------------------------------
# The per-layer table
# ----------------------------------------------------------------------

def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * fraction)))
    return ordered[rank - 1]


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


def span_metrics(document: dict, start: float, end: float) -> dict:
    """The span-derived part of the layer table for one traced window."""
    records, counters, errors = document["spans"], document["counters"], document["errors"]
    by_layer: dict[str, list] = {}
    for name, _parent, calls, _total, own in document["aggregates"]:
        entry = by_layer.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += own
    calls = {name: entry[0] for name, entry in by_layer.items()}
    own = {name: entry[1] for name, entry in by_layer.items()}
    metrics: dict[str, float] = {}
    for layer in (
        "memory.patterns", "memory.faults", "ecc.encode", "analysis.ground_truth",
        "analysis.indirect", "analysis.crafted", "analysis.decode", "analysis.ber",
        "profiling.word", "profiling.batch", "profiling.craft", "profiling.observe",
        "repair.plan", "experiments.metrics",
    ):
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    for key in ("memory.patterns.rows", "ecc.encode.rows", "profiling.word.adaptive_calls",
                "profiling.batch.words", "experiments.metrics.words"):
        metrics[key] = counters.get(key, 0)
    encodes = calls.get("ecc.encode", 0)
    metrics["ecc.encode.rows_per_call"] = metrics["ecc.encode.rows"] / encodes if encodes else 0.0
    for layer, stats in document["caches"].items():
        lookups = stats["hits"] + stats["misses"] + stats["shared_hits"]
        metrics[f"{layer}.hit_ratio"] = (
            (stats["hits"] + stats["shared_hits"]) / lookups if lookups else 0.0
        )
    shard_ms = [1000 * (high - low) for name, low, high, _ in records if name == "experiments.shard"]
    metrics["experiments.shard.count"] = len(shard_ms)
    metrics["experiments.shard.self_s"] = own.get("experiments.shard", 0.0)
    metrics["experiments.shard.p50_ms"] = statistics.median(shard_ms) if shard_ms else 0.0
    metrics["experiments.shard.max_ms"] = max(shard_ms, default=0.0)
    append_ms = [1000 * (high - low) for name, low, high, _ in records if name == "store.append"]
    metrics["store.appends"] = len(append_ms)
    metrics["store.append_self_s"] = own.get("store.append", 0.0)
    metrics["store.append_p99_ms"] = percentile(append_ms, 0.99)
    metrics["wire.frames_out"] = calls.get("wire.pack", 0)
    metrics["wire.bytes_out"] = counters.get("wire.pack.bytes_out", 0)
    metrics["wire.pack_self_s"] = own.get("wire.pack", 0.0)
    metrics["wire.decode_self_s"] = own.get("wire.decode", 0.0)
    metrics["wire.rejected"] = errors.get("wire.decode", 0)
    metrics["scheduler.submit_self_s"] = own.get("scheduler.submit", 0.0)
    top = [(low, high) for _name, low, high, parent in records if parent is None]
    metrics["trace.coverage"] = _covered(top, start, end) / (end - start) if end > start else 0.0
    return metrics


def cache_stats() -> dict:
    """Hit/miss counters of the memo caches behind each hit ratio."""
    from repro.analysis import memo

    stats = {}
    for layer, attribute in CACHES.items():
        counters = getattr(memo, attribute).stats
        stats[layer] = {
            "hits": counters.hits,
            "misses": counters.misses,
            "shared_hits": counters.shared_hits,
        }
    return stats
