"""Property tests for JSON documents: round trips, and malformed fields exit cleanly.

Trees are drawn with a dimension per processor, so a conditional matrix is
(parent n, n) and not square, or by ``bp.random_tree``, or as any parent
map. Each valid one reads back from its document with every field bit for
bit, and every reader refuses an invalid one with the same message. The
mutation properties replace one field of a valid document with a value from
a fixed bad set and run the CLI on it:
the exit code must be 0, 1 or 2, no exception may escape, an input error
(exit 2) must be one line on stderr, and ``bp`` must not refuse as input a
tree that ``validate`` accepts.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_bp import PARENT_MAPS, parent_map_tree

from coghier import bp, documents
from coghier.cli import main

MISSING = object()  # the field is deleted instead of replaced
BAD_VALUES = (
    MISSING, None, True, 0, -1, 1, 1.5, 1e12, 10**400, float("nan"), float("inf"), "", "x",
    [], {}, [1], [0, 0], [-1.0, 2.0], ["a", "b"], [[0.5, 0.5]], [None], [True, False],
    [10**400, 1], [float("nan"), 1.0], "N1", "P0",  # these two repeat a processor id
    bp.WORLD_ID, [1e308, 1e308], [5e-324, 5e-324],  # world id, overflowing and underflowing sums
)
TREE_FIELDS = ("id", "n", "parent", "matrix", "prior", "external_input")


@st.composite
def mixed_dimension_trees(draw, max_nodes=6):
    """Random valid tree whose processors each draw their own dimension."""
    size = draw(st.integers(1, max_nodes))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, size)]
    dims = draw(st.lists(st.integers(2, 4), min_size=size, max_size=size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [f"P{i}" for i in range(size)]
    procs = {}
    for i, pid in enumerate(ids):
        parent = None if i == 0 else parents[i - 1]
        matrix = None
        if parent is not None:
            matrix = rng.uniform(0.05, 1.0, (dims[parent], dims[i]))
            matrix = matrix / matrix.sum(axis=1, keepdims=True)
        procs[pid] = bp.Processor(
            feature_dim=dims[i],
            parent=None if parent is None else ids[parent],
            cond_matrix=matrix,
            causal=rng.uniform(0.05, 1.0, dims[i]) if parent is None else None,
            external_input=rng.uniform(0.05, 1.0, dims[i]),
        )
    return bp.CausalTree(processors=procs)


def run_cli(argv):
    """Exit code and standard error of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_exits_cleanly(argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.splitlines()) == 1, err
    return code


def mutated(doc, record, field, value):
    """A copy of ``doc`` with ``field`` of ``record`` replaced (or deleted)."""
    doc = json.loads(json.dumps(doc))
    if value is MISSING:
        record(doc).pop(field, None)
    else:
        record(doc)[field] = value
    return doc


def round_trip(tree):
    """The tree read back from its document's JSON text."""
    return documents.tree_from_document(json.loads(json.dumps(documents.tree_to_document(tree))))


def assert_same_processors(back, tree):
    """Every field of every processor, bit for bit: JSON writes each float with ``repr``."""
    assert back.processors.keys() == tree.processors.keys()
    for pid, p in tree.processors.items():
        for f in dataclasses.fields(bp.Processor):
            got, want = getattr(back.processors[pid], f.name), getattr(p, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), (pid, f.name)
            else:
                assert got == want, (pid, f.name)  # n, parent, and a root's absent matrix


@given(tree=mixed_dimension_trees())
def test_mixed_dimension_tree_documents_round_trip(tmp_path_factory, tree):
    doc = documents.tree_to_document(tree)
    text = json.dumps(doc)
    back = documents.tree_from_document(json.loads(text))
    assert_same_processors(back, tree)
    assert documents.tree_to_document(back) == doc
    assert back.children == tree.children
    assert bp.equivalence_check(back).passed
    path = tmp_path_factory.getbasetemp() / "mixed.json"
    path.write_text(text)
    assert run_cli(["bp", str(path)]) == (0, "")


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_tree_documents_round_trip(seed):
    tree = bp.random_tree(np.random.default_rng(seed))
    assert_same_processors(round_trip(tree), tree)


@settings(max_examples=300)
@given(parents=PARENT_MAPS)
def test_every_reader_refuses_a_refused_parent_map_with_its_violations(parents):
    """Each reader raises the violations as one message; an accepted map round-trips."""
    tree = parent_map_tree(parents)
    if not (violations := bp.tree_violations(tree)):
        assert_same_processors(round_trip(tree), tree)
        return
    for read in (bp.encode, bp.bp_propagate, documents.tree_to_document):
        with pytest.raises(ValueError) as refusal:
            read(tree)
        assert str(refusal.value) == "; ".join(violations)


def test_equivalence_check_checks_each_tree_once(monkeypatch):
    """``encode`` runs ``tree_violations``, and ``bp_propagate`` reads the cached result."""
    checked = []
    check = bp.tree_violations
    monkeypatch.setattr(bp, "tree_violations", lambda tree: checked.append(tree) or check(tree))
    trees = [bp.thecat_tree(), *(bp.random_tree(np.random.default_rng(s)) for s in range(5))]
    for tree in trees:
        assert bp.equivalence_check(tree).passed
    assert list(map(id, checked)) == list(map(id, trees))


@settings(max_examples=150)
@given(
    tree=st.one_of(st.just(bp.thecat_tree()), mixed_dimension_trees()),
    index=st.integers(0, 5),
    field=st.sampled_from(TREE_FIELDS),
    value=st.sampled_from(BAD_VALUES),
)
# the defects found by hand: a leaf named as the world, and a root prior whose sum overflows
@example(tree=bp.thecat_tree(), index=1, field="id", value=bp.WORLD_ID)
@example(tree=bp.thecat_tree(), index=0, field="prior", value=[1e308, 1e308])
def test_mutated_tree_documents_exit_cleanly(tmp_path_factory, tree, index, field, value):
    base = documents.tree_to_document(tree)
    index %= len(base["processors"])
    doc = mutated(base, lambda d: d["processors"][index], field, value)
    path = tmp_path_factory.getbasetemp() / "mutated-tree.json"
    path.write_text(json.dumps(doc))
    validated, propagated = (assert_exits_cleanly([cmd, str(path)]) for cmd in ("validate", "bp"))
    if validated == 0:
        assert propagated != 2, "bp refused a tree that validate accepts"


@given(
    target=st.sampled_from(
        [(None, f) for f in ("world_node", "nodes", "edges")]
        + [("nodes", f) for f in ("id", "operators")]
        + [("edges", f) for f in ("lower", "upper", "functions")]
    ),
    index=st.integers(0, 7),
    value=st.sampled_from(BAD_VALUES),
)
def test_mutated_hierarchy_documents_exit_cleanly(tmp_path_factory, target, index, value):
    records, field = target
    base = documents.demo_document("thecat")

    def record(doc):
        return doc if records is None else doc[records][index % len(doc[records])]

    path = tmp_path_factory.getbasetemp() / "mutated-hierarchy.json"
    path.write_text(json.dumps(mutated(base, record, field, value)))
    assert_exits_cleanly(["validate", str(path)])
