"""Spans around calls into ``coghier``, installed from outside the package.

The tracer replaces public module attributes with timing wrappers and
rebuilds every hierarchy those functions return with wrapped node operators
and edge functions. Nothing inside the package changes. A function that is
missing, or never called, simply yields a span with zero calls, so the same
tracer measures a refactored package.

Spans are aggregated as they close (calls, inclusive time, self time) and the
first ``RAW_SPAN_CAP`` spans of the timed phase are also kept whole in
memory, to be written out when the run ends.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from time import perf_counter

RAW_SPAN_CAP = 100_000

# (module, attribute, span name). Several attributes may share one span name.
MODULE_SPANS = (
    ("cli", "main", "cli.main"),
    ("kernel", "process_update", "kernel.process_update"),
    ("kernel", "sensing_process_update", "kernel.sweep"),
    ("kernel", "prediction_process_update", "kernel.sweep"),
    ("kernel", "sensing_dependencies", "kernel.order"),
    ("kernel", "prediction_dependencies", "kernel.order"),
    ("kernel", "canonical_topological_order", "kernel.order"),
    ("kernel", "sensing_node_update", "kernel.node_update"),
    ("kernel", "prediction_node_update", "kernel.node_update"),
    ("kernel", "validate", "kernel.validate"),
    ("kernel", "init_active", "kernel.init_active"),
    ("kernel", "payloads_close", "kernel.payloads_close"),
    ("bp", "equivalence_check", "bp.equivalence_check"),
    ("bp", "bp_propagate", "bp.propagate"),
    ("bp", "encode", "bp.encode"),
    ("bp", "node_belief", "bp.node_belief"),
    ("bp", "tree_violations", "bp.tree_violations"),
    ("bp", "random_tree", "bp.random_tree"),
    ("servo", "run_experiment", "servo.run_experiment"),
    ("servo", "run_episode", "servo.run_episode"),
    ("servo", "advance_world", "servo.advance_world"),
    ("servo", "build_servo_hierarchy", "servo.build_hierarchy"),
    ("documents", "default_registry", "documents.default_registry"),
    ("documents", "load_hierarchy_document", "documents.load"),
)

# Spans whose every duration is kept, for percentiles.
SAMPLED = frozenset({"kernel.process_update"})

# Functions whose result is a hierarchy: its operators and edges get spans too.
HIERARCHY_BUILDERS = frozenset({"bp.encode", "servo.build_hierarchy", "documents.load"})


class Tracer:
    def __init__(self, kernel):
        self._kernel = kernel
        self._stack: list[list] = []  # open spans: [name, child seconds, span id]
        self._installed: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.keep_raw = False
        self.raw: list[tuple] = []  # (id, parent id, name, start, end, op)
        self.op = 0
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds, samples]
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after`` maps its result."""
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:  # direct recursion: the outer span covers it
                return fn(*args, **kwargs)
            frame = [name, 0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, start, end)
            return result if after is None else after(result)

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: list, start: float, end: float) -> None:
        name, child, span_id = frame
        took = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, []]
        entry[0] += 1
        entry[1] += took
        entry[2] += took - child
        if name in SAMPLED:
            entry[3].append(took)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += took
        if self.keep_raw and len(self.raw) < RAW_SPAN_CAP:
            self.raw.append((span_id, parent[2] if parent else None, name, start, end, self.op))

    def install(self, modules: Mapping[str, object]) -> None:
        """Wrap every attribute of ``MODULE_SPANS`` that exists and is callable."""
        for module_name, attr, name in MODULE_SPANS:
            module = modules.get(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            after = None
            if name in HIERARCHY_BUILDERS:
                after = self.wrap("bench.instrument", self.instrument)
            elif name == "bp.equivalence_check":
                after = self._count_ticks
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, after))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _count_ticks(self, report):
        self.count("bp.ticks", getattr(report, "ticks", 0))
        return report

    def _count_payloads(self, emitted):
        items = emitted if isinstance(emitted, (tuple, list)) else tuple(emitted)
        self.count("op.edge.payloads", len(items))
        return items

    def instrument(self, hierarchy):
        """The same hierarchy with every operator and edge function timed.

        The kernel's ``emit_nothing`` stays unwrapped, so code that tests for
        it by identity behaves as it does untraced.
        """
        try:
            nodes = tuple(self._wrap_callables(spec, "op.node", None) for spec in hierarchy.nodes)
            edges = tuple(
                self._wrap_callables(edge, "op.edge", self._count_payloads)
                for edge in hierarchy.edges
            )
            return dataclasses.replace(hierarchy, nodes=nodes, edges=edges)
        except (AttributeError, TypeError, ValueError):
            return hierarchy

    def _wrap_callables(self, obj, name: str, after):
        skip = getattr(self._kernel, "emit_nothing", None)
        changes = {}
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if callable(value) and value is not skip:
                changes[field.name] = self.wrap(name, value, after)
            elif isinstance(value, Mapping) and value and all(map(callable, value.values())):
                changes[field.name] = {k: self.wrap(name, v, after) for k, v in value.items()}
        return dataclasses.replace(obj, **changes)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals of every span and count, plus tick percentiles.

        For span ``s``: ``s.ms`` inclusive milliseconds, ``s.self_ms`` minus
        child spans, ``s.calls``. Counts are per pass too.
        """
        out: dict[str, float] = {}
        for name, (calls, seconds, self_seconds, samples) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.ms"] = 1000.0 * seconds / passes
            out[f"{name}.self_ms"] = 1000.0 * self_seconds / passes
            if samples:
                out[f"{name}.ms.p50"] = 1000.0 * quantile(samples, 0.5)
                out[f"{name}.ms.p90"] = 1000.0 * quantile(samples, 0.9)
        for name, n in self.counts.items():
            out[name] = n / passes
        return out


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
