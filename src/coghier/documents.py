"""Both JSON document formats: hierarchies and causal trees.

A hierarchy's topology can be described in JSON: node ids bound to
registered operator bundles, edges bound to registered function bundles,
and a world node id. The operator bundles themselves are code, registered
under string keys; documents only wire keys to topology. A causal tree's
document lists its processors' records (:func:`tree_from_document`). Each
loader refuses any key it would not read, and :func:`tree_to_document`
any tree that :func:`bp.tree_violations` refuses.

Hierarchy document shape::

    {
      "world_node": "N0",
      "nodes": [{"id": "N1", "operators": "some.key"}, ...],
      "edges": [{"lower": "N0", "upper": "N1", "functions": "other.key"}, ...]
    }
"""

from __future__ import annotations

import sys
from typing import Any, Callable

import numpy as np

from . import bp, servo
from .kernel import (
    CognitiveNodeSpec,
    EdgeTriple,
    Hierarchy,
    emit_nothing,
    make_world_node_spec,
)

NodeBuilder = Callable[[str], CognitiveNodeSpec]
EdgeBuilder = Callable[[str, str], tuple[Callable, Callable, Callable]]


class DocumentError(ValueError):
    """A document could not be interpreted."""


class OperatorRegistry:
    """String keys to node-spec and edge-function builders."""

    def __init__(self) -> None:
        self._nodes: dict[str, NodeBuilder] = {}
        self._edges: dict[str, EdgeBuilder] = {}

    def register_node(self, key: str, builder: NodeBuilder) -> None:
        self._nodes[key] = builder

    def register_edge(self, key: str, builder: EdgeBuilder) -> None:
        self._edges[key] = builder

    def build_node(self, key: str, node_id: str) -> CognitiveNodeSpec:
        if key not in self._nodes:
            raise DocumentError(f"unknown node operator bundle {key!r}")
        return self._nodes[key](node_id)

    def build_edge(self, key: str, lower: str, upper: str) -> EdgeTriple:
        if key not in self._edges:
            raise DocumentError(f"unknown edge function bundle {key!r}")
        sensing, task, context = self._edges[key](lower, upper)
        return EdgeTriple(
            lower=lower, upper=upper, sensing_fn=sensing, task_param_fn=task, context_fn=context
        )


def load_hierarchy_document(doc: Any, registry: OperatorRegistry | None = None) -> Hierarchy:
    """Build a hierarchy from a parsed document; topology only, unvalidated."""
    if registry is None:
        registry = default_registry()
    if not isinstance(doc, dict):
        raise DocumentError("hierarchy document must be a JSON object")
    try:
        world = doc["world_node"]
        node_records = doc["nodes"]
        edge_records = doc["edges"]
    except KeyError as exc:
        raise DocumentError(f"hierarchy document is missing {exc.args[0]!r}") from None
    _refuse_extra(doc, ("world_node", "nodes", "edges"), "a hierarchy document")
    if not isinstance(node_records, list) or not isinstance(edge_records, list):
        raise DocumentError("'nodes' and 'edges' must be lists")
    if not isinstance(world, str):
        raise DocumentError(f"'world_node' must be a string, not {world!r}")

    nodes = []
    for rec in node_records:
        nid, key = _string_fields(rec, "node", "id", "operators")
        spec = registry.build_node(key, nid)
        if spec.node_id != nid:
            raise DocumentError(
                f"bundle {key!r} built node {spec.node_id!r}, document says {nid!r}"
            )
        nodes.append(spec)
    edges = []
    for rec in edge_records:
        lower, upper, key = _string_fields(rec, "edge", "lower", "upper", "functions")
        edges.append(registry.build_edge(key, lower, upper))
    return Hierarchy(nodes=tuple(nodes), world_node=world, edges=tuple(edges))


def _string_fields(rec: Any, what: str, *names: str) -> list[str]:
    """The named fields of a document record, each a string; any other field is refused."""
    try:
        values = [rec[name] for name in names]
    except (TypeError, KeyError):
        raise DocumentError(f"bad {what} record: {rec!r}") from None
    if not all(isinstance(value, str) for value in values):
        raise DocumentError(f"bad {what} record: {', '.join(names)} must be strings: {rec!r}")
    if len(rec) > len(names):  # another key, so name the node's id or the edge's ends
        _refuse_extra(rec, names, "{} {}: the record", what, " -> ".join(map(repr, values[:-1])))
    return values


def _refuse_extra(rec: dict, allowed: tuple[str, ...], subject: str, *args: Any) -> None:
    """Refuse each key of ``rec`` not in ``allowed``; ``subject.format(*args)`` only then."""
    if extra := [key for key in rec if key not in allowed]:
        raise DocumentError(f"{subject.format(*args)} cannot carry {', '.join(map(repr, extra))}")


def tree_to_document(tree: bp.CausalTree) -> dict:
    """JSON-ready records, one per processor in its ``checked_ids`` order; matrices row-major."""
    records = []
    for pid in tree.checked_ids:
        p = tree.processors[pid]
        rec: dict = {
            "id": pid,
            "n": p.feature_dim,
            "parent": p.parent,
            "external_input": [float(x) for x in p.external_input],
        }
        if p.parent is None:
            rec["prior"] = [float(x) for x in p.causal]
        else:
            rec["matrix"] = [float(x) for x in p.cond_matrix.reshape(-1)]
        records.append(rec)
    return {"processors": records}


def tree_from_document(doc: Any) -> bp.CausalTree:
    """Tree of a parsed document; ``DocumentError`` if a record is malformed.

    A matrix has one row per value of the parent and one column per value
    of its own processor, so parent and child may differ in dimension. A
    record carries ``id``, ``n``, ``parent`` and ``external_input``, plus
    ``prior`` on the root or ``matrix`` on any other processor; any other
    field, and any top-level key but ``processors``, is refused rather than
    ignored.
    """
    records = doc.get("processors") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not records:
        raise DocumentError("document must contain a non-empty 'processors' list")
    _refuse_extra(doc, ("processors",), "a tree document")
    dims: dict[str, int] = {}
    roots = 0
    for rec in records:
        if not isinstance(rec, dict) or "id" not in rec or "n" not in rec:
            raise DocumentError(f"bad processor record (needs 'id' and 'n'): {rec!r}")
        if not isinstance(rec["id"], str) or not isinstance(rec.get("parent"), (str, type(None))):
            raise DocumentError(f"processor 'id' and 'parent' must be strings: {rec!r}")
        role, own = ("root", "prior") if rec.get("parent") is None else ("non-root", "matrix")
        allowed = ("id", "n", "parent", "external_input", own)
        _refuse_extra(rec, allowed, "processor {!r}: a {} processor", rec["id"], role)
        if rec["id"] in dims:
            raise DocumentError(f"duplicate processor id {rec['id']!r}")
        n = rec["n"]
        if type(n) is not int or not 1 <= n <= bp.MAX_FEATURE_DIM:
            raise DocumentError(
                f"processor {rec['id']!r}: 'n' must be an integer in [1, {bp.MAX_FEATURE_DIM}]"
            )
        dims[rec["id"]] = n
        roots += role == "root"
    if roots != 1:
        raise DocumentError(f"document must have exactly one root processor, found {roots}")

    procs: dict[str, bp.Processor] = {}
    for rec in records:
        pid, n, parent = rec["id"], rec["n"], rec.get("parent")
        matrix = None
        if parent is not None:
            flat = _numbers(rec, "matrix")
            if flat is None:
                raise DocumentError(f"processor {pid!r} needs a conditional matrix")
            if parent not in dims:
                raise DocumentError(f"processor {pid!r} names an unknown parent {parent!r}")
            if flat.size != dims[parent] * n:
                raise DocumentError(
                    f"processor {pid!r}: 'matrix' must hold {dims[parent]} x {n} = "
                    f"{dims[parent] * n} numbers, got {flat.size}"
                )
            matrix = flat.reshape(dims[parent], n)
        prior, evidence = _numbers(rec, "prior"), _numbers(rec, "external_input")
        procs[pid] = bp.Processor(n, parent, matrix, prior, evidence)
    return bp.CausalTree(processors=procs)


def _numbers(rec: dict, field: str) -> np.ndarray | None:
    """A record's list of finite numbers as a vector; None if the field is absent or null."""
    value = rec.get(field)
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        type(x) in (int, float) and abs(x) <= sys.float_info.max for x in value
    ):
        raise DocumentError(f"processor {rec['id']!r}: {field!r} must be a list of finite numbers")
    return np.asarray(value, dtype=float)


def document_kind(doc: Any) -> str:
    """Classify a parsed document as 'hierarchy' or 'tree'."""
    if isinstance(doc, dict):
        if "processors" in doc:
            return "tree"
        if "nodes" in doc and "edges" in doc:
            return "hierarchy"
    raise DocumentError("document is neither a hierarchy nor a causal tree")


# ---------------------------------------------------------------------------
# Built-in bundles


# Demo hierarchies whose nodes and edges are registered as ``<name>.<node id>``
# and ``<name>.edge`` bundles.
_DEMOS: dict[str, Callable[[], Hierarchy]] = {
    "thecat": lambda: bp.encode(bp.thecat_tree()),
    "servo": lambda: servo.build_servo_hierarchy(servo.ServoParams(), "context"),
}


def default_registry() -> OperatorRegistry:
    """Registry with the built-in bundles: noop, word/letter demo, servo."""
    registry = OperatorRegistry()
    registry.register_node("noop.node", make_world_node_spec)  # without actuate it is inert
    registry.register_node("noop.world", make_world_node_spec)
    registry.register_edge("noop.edge", lambda lower, upper: (emit_nothing, emit_nothing, emit_nothing))
    for name, build in _DEMOS.items():
        hierarchy = build()
        # each node bundle returns its spec; the loader refuses it under another node id
        for spec in hierarchy.nodes:
            registry.register_node(f"{name}.{spec.node_id}", lambda _nid, spec=spec: spec)
        registry.register_edge(f"{name}.edge", _exact_edge(hierarchy, name))
    return registry


def _exact_edge(hierarchy: Hierarchy, bundle: str) -> EdgeBuilder:
    table = {(e.lower, e.upper): e for e in hierarchy.edges}

    def build(lower: str, upper: str) -> tuple[Callable, Callable, Callable]:
        edge = table.get((lower, upper))
        if edge is None:
            raise DocumentError(f"{bundle} has no edge ({lower!r}, {upper!r})")
        return edge.sensing_fn, edge.task_param_fn, edge.context_fn

    return build


def demo_document(name: str) -> dict:
    """Document form of the ``"thecat"`` (word/letter) or ``"servo"`` demo hierarchy."""
    hierarchy = _DEMOS[name]()
    return {
        "world_node": hierarchy.world_node,
        "nodes": [{"id": nid, "operators": f"{name}.{nid}"} for nid in sorted(hierarchy.node_ids)],
        "edges": [
            {"lower": e.lower, "upper": e.upper, "functions": f"{name}.edge"}
            for e in sorted(hierarchy.edges, key=lambda e: (e.lower, e.upper))
        ],
    }
