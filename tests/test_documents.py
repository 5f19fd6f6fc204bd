"""Document loading: registries, topology wiring, kind detection."""

import re

import numpy as np
import pytest

from coghier import bp, documents, kernel, servo


@pytest.mark.parametrize(
    "name, node_ids, edges",
    [
        (
            "thecat",
            {"N0", "N1", "N2", "N3", "N4"},
            [("N0", "N1"), ("N0", "N2"), ("N0", "N3"), ("N0", "N4"),
             ("N1", "N4"), ("N2", "N4"), ("N3", "N4")],
        ),
        ("servo", {"N0", "N1", "N2"}, [("N0", "N1"), ("N1", "N2")]),
    ],
    ids=["thecat", "servo"],
)
def test_a_demo_document_loads_and_validates(name, node_ids, edges):
    """The word/letter and servo demos: their node ids and (lower, upper) edge pairs."""
    h = documents.load_hierarchy_document(documents.demo_document(name))
    assert kernel.validate(h) == []
    assert h.world_node == "N0"
    assert set(h.node_ids) == node_ids
    assert [(e.lower, e.upper) for e in h.edges] == edges


def test_loaded_document_runs_a_tick():
    h = documents.load_hierarchy_document(documents.demo_document("thecat"))
    ah = kernel.init_active(h, bp.initial_world_state(bp.thecat_tree()))
    ah = kernel.process_update(ah)
    np.testing.assert_allclose(bp.node_belief(ah.node("N2").belief), [0.0, 1.0])


@pytest.mark.parametrize(
    "lower, upper, message",
    [
        ("N0", "N1", "expected one position reading, got 0"),
        ("N1", "N2", "expected one position estimate, got 0"),
    ],
)
def test_a_servo_edge_that_senses_nothing_fails_its_upper_node_on_the_first_tick(
    lower, upper, message
):
    doc = documents.demo_document("servo")
    for rec in doc["edges"]:
        if (rec["lower"], rec["upper"]) == (lower, upper):
            rec["functions"] = "noop.edge"
    h = documents.load_hierarchy_document(doc)
    assert kernel.validate(h) == []
    at_rest = np.zeros(1)
    ah = kernel.init_active(h, servo.ServoWorld(0.0, 0.0, at_rest, at_rest))
    with pytest.raises(kernel.OperatorError, match=message) as failure:
        kernel.process_update(ah)
    assert (failure.value.node, failure.value.edge) == (upper, None)


def test_extra_edge_can_introduce_a_cycle():
    doc = documents.demo_document("thecat")
    doc["edges"].append({"lower": "N4", "upper": "N1", "functions": "noop.edge"})
    h = documents.load_hierarchy_document(doc)
    assert any(line.startswith("cycle: ") for line in kernel.validate(h))


def test_unknown_bundle_key_rejected():
    doc = documents.demo_document("thecat")
    doc["nodes"][0]["operators"] = "no.such.bundle"
    with pytest.raises(documents.DocumentError):
        documents.load_hierarchy_document(doc)


def test_bundle_bound_to_other_node_rejected():
    doc = documents.demo_document("thecat")
    for rec in doc["nodes"]:
        if rec["id"] == "N1":
            rec["operators"] = "thecat.N2"
    with pytest.raises(documents.DocumentError):
        documents.load_hierarchy_document(doc)


def test_missing_fields_rejected():
    with pytest.raises(documents.DocumentError):
        documents.load_hierarchy_document([])
    with pytest.raises(documents.DocumentError):
        documents.load_hierarchy_document({"nodes": []})
    with pytest.raises(documents.DocumentError):
        documents.load_hierarchy_document({"world_node": "W", "nodes": [{}], "edges": []})


def test_non_string_fields_rejected_at_parse_time():
    doc = documents.demo_document("thecat")
    doc["world_node"] = [doc["world_node"]]
    with pytest.raises(documents.DocumentError, match="world_node"):
        documents.load_hierarchy_document(doc)
    for records, field in (("nodes", "id"), ("nodes", "operators"), ("edges", "functions")):
        doc = documents.demo_document("thecat")
        doc[records][0][field] = {"not": "a string"}
        with pytest.raises(documents.DocumentError, match="must be strings"):
            documents.load_hierarchy_document(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.update(processors=[]), "a hierarchy document cannot carry 'processors'"),
        (
            lambda doc: doc["nodes"][0].update(operator="x", Id="y"),
            "node 'N0': the record cannot carry 'operator', 'Id'",
        ),
        (
            lambda doc: doc["edges"][0].update(upper2="N2"),
            "edge 'N0' -> 'N1': the record cannot carry 'upper2'",
        ),
    ],
)
def test_a_key_the_loader_would_drop_is_refused(mutate, message):
    doc = documents.demo_document("thecat")
    mutate(doc)
    with pytest.raises(documents.DocumentError, match=f"^{re.escape(message)}$"):
        documents.load_hierarchy_document(doc)


def test_document_kind_detection():
    assert documents.document_kind({"processors": []}) == "tree"
    assert documents.document_kind({"nodes": [], "edges": [], "world_node": "W"}) == "hierarchy"
    with pytest.raises(documents.DocumentError):
        documents.document_kind({"something": 1})
    with pytest.raises(documents.DocumentError):
        documents.document_kind([1, 2, 3])


def test_custom_registry_nodes_and_edges():
    registry = documents.OperatorRegistry()
    registry.register_node("w", lambda nid: kernel.make_world_node_spec(nid))
    registry.register_node("n", kernel.make_world_node_spec)
    registry.register_edge(
        "e",
        lambda lower, upper: (
            lambda _b: (),
            kernel.emit_nothing,
            kernel.emit_nothing,
        ),
    )
    doc = {
        "world_node": "ground",
        "nodes": [
            {"id": "ground", "operators": "w"},
            {"id": "up", "operators": "n"},
        ],
        "edges": [{"lower": "ground", "upper": "up", "functions": "e"}],
    }
    h = documents.load_hierarchy_document(doc, registry)
    assert kernel.validate(h) == []
