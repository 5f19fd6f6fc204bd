"""Declarative hierarchy documents.

A hierarchy's topology can be described in JSON: node ids bound to
registered operator bundles, edges bound to registered function bundles,
and a world node id. The operator bundles themselves are code, registered
under string keys; documents only wire keys to topology.

Document shape::

    {
      "world_node": "N0",
      "nodes": [{"id": "N1", "operators": "some.key"}, ...],
      "edges": [{"lower": "N0", "upper": "N1", "functions": "other.key"}, ...]
    }
"""

from __future__ import annotations

from typing import Any, Callable

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


class DocumentError(Exception):
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
    """The named fields of a document record, each of which must be a string."""
    try:
        values = [rec[name] for name in names]
    except (TypeError, KeyError):
        raise DocumentError(f"bad {what} record: {rec!r}") from None
    if not all(isinstance(value, str) for value in values):
        raise DocumentError(f"bad {what} record: {', '.join(names)} must be strings: {rec!r}")
    return values


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
    "servo": lambda: servo.build_servo_hierarchy(servo.ServoParams()),
}


def default_registry() -> OperatorRegistry:
    """Registry with the built-in bundles: noop, word/letter demo, servo."""
    registry = OperatorRegistry()
    registry.register_node("noop.node", make_world_node_spec)  # without actuate it is inert
    registry.register_node("noop.world", make_world_node_spec)
    registry.register_edge("noop.edge", lambda lower, upper: (emit_nothing, emit_nothing, emit_nothing))
    for name, build in _DEMOS.items():
        hierarchy = build()
        for nid in hierarchy.node_ids:
            registry.register_node(f"{name}.{nid}", _exact_node(hierarchy, nid))
        registry.register_edge(f"{name}.edge", _exact_edge(hierarchy, name))
    return registry


def _exact_node(hierarchy: Hierarchy, node_id: str) -> NodeBuilder:
    def build(nid: str) -> CognitiveNodeSpec:
        if nid != node_id:
            raise DocumentError(f"bundle is bound to node {node_id!r}, not {nid!r}")
        return hierarchy.node(node_id)

    return build


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
