"""Document loading: registries, topology wiring, kind detection."""

import numpy as np
import pytest

from coghier import bp, documents, kernel


def test_word_demo_document_loads_and_validates():
    doc = documents.demo_document("thecat")
    h = documents.load_hierarchy_document(doc)
    assert kernel.validate(h).ok
    assert h.world_node == "N0"
    assert set(h.node_ids) == {"N0", "N1", "N2", "N3", "N4"}


def test_loaded_document_runs_a_tick():
    h = documents.load_hierarchy_document(documents.demo_document("thecat"))
    ah = kernel.init_active(h, bp.initial_world_state(bp.thecat_tree()))
    ah = kernel.process_update(ah)
    np.testing.assert_allclose(bp.node_belief(ah.node("N2").belief), [0.0, 1.0])


def test_servo_demo_document_loads_and_validates():
    doc = documents.demo_document("servo")
    h = documents.load_hierarchy_document(doc)
    assert kernel.validate(h).ok
    assert set(h.node_ids) == {"N0", "N1", "N2"}


def test_extra_edge_can_introduce_a_cycle():
    doc = documents.demo_document("thecat")
    doc["edges"].append({"lower": "N4", "upper": "N1", "functions": "noop.edge"})
    h = documents.load_hierarchy_document(doc)
    report = kernel.validate(h)
    assert any(v.kind == "cycle" for v in report.violations)


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
    assert kernel.validate(h).ok
