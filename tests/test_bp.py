"""Tree propagation vs brute-force enumeration, and the hierarchy embedding."""

import contextlib
import copy
import functools
import hashlib
import itertools
import json
import math
import re
import signal
import warnings
from dataclasses import fields, replace

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coghier import bp, documents, kernel


def make_tree(parents, n, rng):
    """Tree from a parent vector (node 0 is the root), random fills."""
    ids = [f"P{i}" for i in range(len(parents) + 1)]

    def rand_matrix():
        m = rng.uniform(0.05, 1.0, (n, n))
        return m / m.sum(axis=1, keepdims=True)

    procs = {}
    for i, pid in enumerate(ids):
        parent = None if i == 0 else ids[parents[i - 1]]
        procs[pid] = bp.Processor(
            feature_dim=n,
            parent=parent,
            cond_matrix=None if parent is None else rand_matrix(),
            causal=rng.uniform(0.05, 1.0, n) if parent is None else None,
            external_input=rng.uniform(0.05, 1.0, n),
        )
    return bp.CausalTree(processors=procs)


def all_parent_vectors(size):
    if size == 1:
        yield ()
        return
    yield from itertools.product(*(range(i) for i in range(1, size)))


# ---------------------------------------------------------------------------
# Reference propagation against the joint distribution


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_propagation_matches_enumeration_exhaustively(size, n):
    rng = np.random.default_rng(1000 * size + n)
    for parents in all_parent_vectors(size):
        for _ in range(2):
            tree = make_tree(parents, n, rng)
            assert not bp.tree_violations(tree)
            fast = bp.bp_propagate(tree)
            slow = oracles.enumerate_joint_beliefs(tree)
            assert not fast.degenerate and not slow.degenerate
            for pid in tree.processors:
                np.testing.assert_allclose(
                    fast.beliefs[pid], slow.beliefs[pid], rtol=0.0, atol=1e-12
                )


def test_uniform_everything_gives_uniform_beliefs():
    eye = np.eye(2)
    procs = {
        "root": bp.Processor(feature_dim=2),
        "a": bp.Processor(feature_dim=2, parent="root", cond_matrix=eye),
        "b": bp.Processor(feature_dim=2, parent="root", cond_matrix=eye),
    }
    table = bp.bp_propagate(bp.CausalTree(processors=procs))
    for vec in table.beliefs.values():
        np.testing.assert_allclose(vec, [0.5, 0.5], atol=1e-15)


def test_word_demo_beliefs():
    table = bp.bp_propagate(bp.thecat_tree())
    np.testing.assert_allclose(table.beliefs["N4"], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(table.beliefs["N2"], [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(table.beliefs["N1"], [0.0, 1.0], atol=1e-15)


def test_contradictory_evidence_is_degenerate():
    eye = np.eye(2)
    procs = {
        "root": bp.Processor(feature_dim=2),
        "a": bp.Processor(
            feature_dim=2, parent="root", cond_matrix=eye,
            external_input=np.array([1.0, 0.0]),
        ),
        "b": bp.Processor(
            feature_dim=2, parent="root", cond_matrix=eye,
            external_input=np.array([0.0, 1.0]),
        ),
    }
    tree = bp.CausalTree(processors=procs)
    table = bp.bp_propagate(tree)
    assert table.degenerate
    report = bp.equivalence_check(tree)
    assert not report.passed
    assert report.degenerate


def _zero_product_cases():
    """(tree, world state or None for the tree's own, where) for each embedding site but one."""
    thecat = bp.thecat_tree()
    zero_n1 = {**bp.initial_world_state(thecat), "N1": np.zeros(2)}
    collapsing_child = bp.CausalTree(
        {
            "R": bp.Processor(2),
            "C": bp.Processor(2, "R", [[1, 0], [1, 0]], external_input=[0, 1]),
        }
    )
    opposed_root = bp.CausalTree(
        {
            "R": bp.Processor(2, causal=[1, 0], external_input=[0, 1]),
            "C": bp.Processor(2, "R", np.eye(2)),
        }
    )
    return [
        (thecat, zero_n1, "external input of 'N1'"),
        (collapsing_child, None, "upward message from 'C'"),
        (opposed_root, None, "context for 'C'"),
    ]


@pytest.mark.parametrize("tree, world, where", _zero_product_cases())
def test_each_zero_product_in_a_tick_names_where_it_arose(tree, world, where):
    assert bp.tree_violations(tree) == []
    ah = kernel.init_active(bp.encode(tree), world or bp.initial_world_state(tree))
    with pytest.raises(bp.DegenerateBeliefError) as failure:
        kernel.process_update(ah)
    assert failure.value.where == where
    assert str(failure.value) == f"contradictory evidence: zero belief product at {where}"
    if world is None:  # the tree's own evidence collapses, so the reference reports it first
        report = bp.equivalence_check(tree)
        assert (report.passed, report.ticks, report.degenerate) == (False, 0, ("C", "R"))
        assert report.detail == "reference propagation hit contradictory evidence"


def test_a_zero_product_only_the_embedding_meets_is_reported_with_its_tick(monkeypatch):
    """``node_belief`` and ``bp_propagate`` multiply in other orders; they may part on a zero."""

    def collapsed(belief_state):
        raise bp.DegenerateBeliefError("belief state")

    monkeypatch.setattr(bp, "node_belief", collapsed)
    report = bp.equivalence_check(bp.thecat_tree())
    assert (report.passed, math.isfinite(report.max_deviation), report.ticks) == (False, False, 2)
    assert report.degenerate == ("belief state",)
    assert report.detail == "contradictory evidence: zero belief product at belief state"
    assert report.max_deviation == np.inf


# ---------------------------------------------------------------------------
# Belief extraction


def test_node_belief_examples():
    np.testing.assert_allclose(
        bp.node_belief((((0.5, 0.5),), (0.0, 1.0))), [0.0, 1.0], atol=1e-15
    )
    np.testing.assert_allclose(
        bp.node_belief((((0.5, 0.5),), (0.5, 0.5))), [0.5, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(
        bp.node_belief((((0.0, 1.0), (0.5, 0.5), (0.0, 1.0)), (0.5, 0.5))),
        [0.0, 1.0],
        atol=1e-15,
    )


def test_node_belief_zero_product_raises():
    with pytest.raises(bp.DegenerateBeliefError):
        bp.node_belief((((1.0, 0.0), (0.0, 1.0)), (0.5, 0.5)))


# ---------------------------------------------------------------------------
# Encoding


def test_encode_structure_mirrors_tree():
    tree = bp.thecat_tree()
    h = bp.encode(tree)
    assert kernel.validate(h) == []
    pairs = {(e.lower, e.upper) for e in h.edges}
    expected = {("N0", pid) for pid in tree.processors}
    expected |= {(pid, p.parent) for pid, p in tree.processors.items() if p.parent}
    assert pairs == expected


def test_encode_leaf_has_single_slot():
    tree = bp.thecat_tree()
    h = bp.encode(tree)
    slots, causal = h.node("N2").initial_belief
    assert len(slots) == 1
    np.testing.assert_allclose(slots[0], [0.5, 0.5])
    np.testing.assert_allclose(causal, [0.5, 0.5])
    slots4, _ = h.node("N4").initial_belief
    assert len(slots4) == 4


def test_encoded_nodes_share_the_kernels_one_idle_policy():
    """And the module's two node operators; each edge function binds one of its three messages."""
    h = bp.encode(bp.thecat_tree())
    idle = kernel.make_world_node_spec("W")
    assert all(spec.policies is idle.policies for spec in h.nodes)
    assert all(spec.policy_selector is idle.policy_selector for spec in h.nodes)
    processors = [spec for spec in h.nodes if spec.node_id != bp.WORLD_ID]
    assert all(spec.observation_update is bp._write_slots for spec in processors)
    assert all(spec.prediction_update is bp._take_context for spec in processors)
    messages = {bp._evidence, bp._upward, bp._context}
    for fn in (fn for e in h.edges for fn in (e.sensing_fn, e.task_param_fn, e.context_fn)):
        assert fn is kernel.emit_nothing or (
            isinstance(fn, functools.partial) and fn.func in messages
        ), fn


def test_a_processor_given_a_second_context_fails_its_tick():
    """Encoding gives each processor one context at most; a hand-wired second one is refused."""
    tree = bp.thecat_tree()
    h = bp.encode(tree)
    second = kernel.EdgeTriple(
        lower="N1",
        upper="X",
        sensing_fn=kernel.emit_nothing,
        context_fn=lambda _belief: (kernel.Tagged("ctx:N1", np.full(2, 0.5)),),
    )
    wired = kernel.Hierarchy(
        nodes=(*h.nodes, kernel.make_world_node_spec("X")),
        world_node=h.world_node,
        edges=(*h.edges, second),
    )
    assert kernel.validate(wired) == []
    ah = kernel.init_active(wired, bp.initial_world_state(tree))
    with pytest.raises(kernel.OperatorError) as failure:
        kernel.process_update(ah)
    assert (failure.value.node, failure.value.edge) == ("N1", None)
    message = "operator failed: expected a single context value, got 2 (node 'N1')"
    assert str(failure.value) == message


def test_sensing_emission_names_its_slot():
    tree = bp.thecat_tree()
    h = bp.encode(tree)
    ah = kernel.init_active(h, bp.initial_world_state(tree))
    ah = kernel.sensing_node_update(ah, "N2")
    edge = next(e for e in h.edges if (e.lower, e.upper) == ("N2", "N4"))
    (tagged,) = edge.sensing_fn(ah.node("N2").belief)
    slot, vec = tagged.value
    assert slot == 2
    np.testing.assert_allclose(vec, [0.5, 0.5])


def test_one_tick_reproduces_worked_example():
    tree = bp.thecat_tree()
    ah = kernel.init_active(bp.encode(tree), bp.initial_world_state(tree))
    ah = kernel.sensing_node_update(ah, "N2")
    slots, causal = ah.node("N2").belief
    np.testing.assert_allclose(slots[0], [0.5, 0.5])
    np.testing.assert_allclose(causal, [0.5, 0.5])

    ah = kernel.init_active(bp.encode(tree), bp.initial_world_state(tree))
    ah = kernel.process_update(ah)
    slots4, causal4 = ah.node("N4").belief
    np.testing.assert_allclose(slots4[1], [0.0, 1.0])
    np.testing.assert_allclose(slots4[2], [0.5, 0.5])
    np.testing.assert_allclose(slots4[3], [0.0, 1.0])
    np.testing.assert_allclose(causal4, [0.5, 0.5])

    slots2, causal2 = ah.node("N2").belief
    np.testing.assert_allclose(slots2[0], [0.5, 0.5])
    np.testing.assert_allclose(causal2, [0.0, 1.0])
    np.testing.assert_allclose(bp.node_belief(ah.node("N2").belief), [0.0, 1.0])
    np.testing.assert_allclose(bp.node_belief(ah.node("N4").belief), [0.0, 1.0])


def test_a_fresh_sensing_update_reads_the_childrens_starting_slots():
    """Node-level updates on a fresh state read ``encode``'s uniform starting slots.

    Each child sends its matrix times the product of its slots, so the starting
    slots must be the no-evidence message; a row-stochastic matrix keeps it uniform.
    """
    tree = bp.random_tree(np.random.default_rng(4), max_depth=2)
    assert len(tree.children[tree.root]) == 3  # a leaf and two children with children of their own
    ah = kernel.init_active(bp.encode(tree), bp.initial_world_state(tree))
    slots, _ = kernel.sensing_node_update(ah, tree.root).node(tree.root).belief
    for k, child_id in enumerate(tree.children[tree.root], start=1):
        child = tree.processors[child_id]
        message = child.cond_matrix @ np.full(child.feature_dim, 1.0 / child.feature_dim)
        np.testing.assert_allclose(slots[k], message / message.sum(), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Equivalence harness


def test_equivalence_on_word_demo():
    report = bp.equivalence_check(bp.thecat_tree())
    assert report.passed
    assert report.max_deviation < 1e-9


def test_equivalence_single_processor_is_exact():
    tree = bp.CausalTree(
        processors={"only": bp.Processor(feature_dim=3, external_input=np.array([0.2, 0.5, 0.3]))}
    )
    report = bp.equivalence_check(tree)
    assert report.passed
    assert report.max_deviation == 0.0


def test_equivalence_random_suite():
    rng = np.random.default_rng(123)
    for _ in range(30):
        tree = bp.random_tree(rng)
        report = bp.equivalence_check(tree, tolerance=1e-9)
        assert report.passed, f"deviation {report.max_deviation} on {len(tree.processors)} nodes"


def test_a_zero_product_the_embedding_meets_in_its_first_tick_reports_one_tick(monkeypatch):
    """``encode`` binds ``_upward`` into each upward edge, so the first tick fails."""

    def collapsed(tag, k, matrix, cid, belief):
        raise bp.DegenerateBeliefError(f"upward message from {cid!r}")

    monkeypatch.setattr(bp, "_upward", collapsed)
    report = bp.equivalence_check(bp.thecat_tree())
    assert (report.passed, report.ticks, report.max_deviation) == (False, 1, math.inf)
    assert report.degenerate == ("upward message from 'N1'",)


def test_equivalence_check_fails_a_deviation_of_1e_6_by_default_but_not_within_1e_5(monkeypatch):
    real = bp.node_belief

    def shifted(belief_state):
        bel = real(belief_state).copy()
        bel[0] += 1e-6
        return bel

    monkeypatch.setattr(bp, "node_belief", shifted)
    report = bp.equivalence_check(bp.thecat_tree())
    assert not report.passed and report.max_deviation == pytest.approx(1e-6, rel=1e-6)
    assert bp.equivalence_check(bp.thecat_tree(), tolerance=1e-5).passed


def test_two_level_random_tree_single_tick_matches_oracle():
    rng = np.random.default_rng(5)
    n = 3
    m = rng.uniform(0.05, 1.0, (n, n))
    m = m / m.sum(axis=1, keepdims=True)
    m2 = rng.uniform(0.05, 1.0, (n, n))
    m2 = m2 / m2.sum(axis=1, keepdims=True)
    procs = {
        "r": bp.Processor(
            feature_dim=n,
            causal=rng.uniform(0.05, 1, n), external_input=rng.uniform(0.05, 1, n),
        ),
        "c1": bp.Processor(
            feature_dim=n, parent="r", cond_matrix=m,
            external_input=rng.uniform(0.05, 1, n),
        ),
        "c2": bp.Processor(
            feature_dim=n, parent="r", cond_matrix=m2,
            external_input=rng.uniform(0.05, 1, n),
        ),
    }
    tree = bp.CausalTree(processors=procs)
    oracle = bp.bp_propagate(tree)
    ah = kernel.init_active(bp.encode(tree), bp.initial_world_state(tree))
    ah = kernel.process_update(ah)
    for pid in procs:
        np.testing.assert_allclose(
            bp.node_belief(ah.node(pid).belief), oracle.beliefs[pid], atol=1e-12
        )


@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 4))
def test_equivalence_check_settles_after_one_tick(seed, depth):
    # Pearl's two passes are one tick, so the first tick reaches the
    # fixpoint and the second only confirms it, at any depth.
    tree = bp.random_tree(np.random.default_rng(seed), max_depth=depth)
    report = bp.equivalence_check(tree)
    assert not report.degenerate
    assert math.isfinite(report.max_deviation) and report.ticks == 2
    assert report.passed
    oracle = bp.bp_propagate(tree)
    ah = kernel.process_update(kernel.init_active(bp.encode(tree), bp.initial_world_state(tree)))
    for pid in tree.processors:
        assert np.abs(bp.node_belief(ah.node(pid).belief) - oracle.beliefs[pid]).max() <= 1e-9


def perturb_second_tick(monkeypatch, pid, change):
    """Make the second ``process_update`` return ``pid``'s belief passed through ``change``."""
    real, ticks = kernel.process_update, itertools.count(1)

    def process_update(ah):
        ah = real(ah)
        if next(ticks) != 2:
            return ah
        node = ah.node(pid)
        active = {**ah.active, pid: node._replace(belief=change(node.belief))}
        return kernel.ActiveHierarchy(ah.hierarchy, active, ah.world_state)

    monkeypatch.setattr(kernel, "process_update", process_update)


def shift_causal(delta):
    return lambda belief: (belief[0], belief[1] + delta)


@pytest.mark.parametrize("tree", [bp.thecat_tree(), bp.random_tree(np.random.default_rng(5), 4)])
def test_a_second_tick_that_moves_a_vector_has_no_fixpoint(monkeypatch, tree):
    perturb_second_tick(monkeypatch, tree.root, shift_causal(1e-9))
    report = bp.equivalence_check(tree)
    assert (math.isfinite(report.max_deviation), report.passed, report.ticks) == (False, False, 2)
    assert report.detail == "no fixpoint after 2 ticks"


def test_a_second_tick_within_the_fixpoint_tolerance_passes(monkeypatch):
    perturb_second_tick(monkeypatch, "N2", shift_causal(1e-13))
    report = bp.equivalence_check(bp.thecat_tree())
    assert math.isfinite(report.max_deviation) and report.passed and report.ticks == 2


@pytest.mark.parametrize(
    "change",
    [
        shift_causal(np.nan),
        lambda belief: ((np.ones(3), *belief[0][1:]), belief[1]),  # slot 0 one entry longer
        lambda belief: (belief[0][:-1], belief[1]),  # one slot fewer
    ],
)
def test_a_second_tick_with_nan_or_another_shape_has_no_fixpoint(monkeypatch, change):
    perturb_second_tick(monkeypatch, "N4", change)
    report = bp.equivalence_check(bp.thecat_tree())
    assert (math.isfinite(report.max_deviation), report.passed, report.ticks) == (False, False, 2)
    assert report.detail == "no fixpoint after 2 ticks"
    assert report.max_deviation == np.inf


def test_beliefs_are_normalized_across_random_trees():
    rng = np.random.default_rng(9)
    for _ in range(10):
        tree = bp.random_tree(rng, max_depth=3)
        table = bp.bp_propagate(tree)
        for vec in table.beliefs.values():
            assert abs(float(vec.sum()) - 1.0) <= 1e-9
            assert np.all(vec >= 0)
        ah = kernel.init_active(bp.encode(tree), bp.initial_world_state(tree))
        ah = kernel.process_update(ah)
        for pid in tree.processors:
            bel = bp.node_belief(ah.node(pid).belief)
            assert abs(float(bel.sum()) - 1.0) <= 1e-9



# ---------------------------------------------------------------------------
# Message arithmetic: BLAS products and totals, no defensive copies

# Zero, the smallest subnormal, a subnormal near the normal range, and 1e300,
# which 1024 entries cannot add past float64's largest value.
EDGE_ENTRIES = st.sampled_from([0.0, 5e-324, 1e-310, 1e300])


@settings(max_examples=200)
@example(vec=np.zeros(1024))
@example(vec=np.full(1024, 5e-324))
@example(vec=np.full(1024, 1e300))
@given(
    vec=hnp.arrays(
        np.float64,
        st.integers(1, 1024),
        elements=EDGE_ENTRIES | st.floats(0.0, 1e300),
        fill=EDGE_ENTRIES,
    )
)
def test_normalize_agrees_with_the_pairwise_sum(vec):
    """Refuses exactly the vectors the oracle refuses; otherwise agrees within n roundings.

    A BLAS dot may add the entries in another order than numpy's pairwise
    sum. A quotient below the normal range keeps no relative precision, so
    there the two are compared to within the smallest normal double.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bp._normalize(vec)
    want = oracles.reference_normalize(vec)
    assert (got is None) == (want is None)
    if want is not None:
        np.testing.assert_allclose(got, want, rtol=1e-15 * len(vec), atol=np.finfo(float).tiny)


# Random trees, and the word/letter tree, whose evidence sums to exactly 1.
TREES = st.integers(0, 2**32 - 1).map(lambda seed: bp.random_tree(np.random.default_rng(seed), 3))


def ticked_once(tree):
    """The tree's encoded hierarchy and its state after one tick."""
    hierarchy = bp.encode(tree)
    return hierarchy, kernel.process_update(
        kernel.init_active(hierarchy, bp.initial_world_state(tree))
    )


@settings(max_examples=20)
@example(tree=bp.thecat_tree())
@given(tree=TREES)
def test_messages_and_beliefs_share_no_memory_with_their_inputs(tree):
    """Every message and belief is a new array, and computing them writes into no input."""
    hierarchy, ah = ticked_once(tree)
    beliefs = {pid: ah.node(pid).belief for pid in tree.processors}
    before = copy.deepcopy((beliefs, ah.world_state))
    inputs = [*ah.world_state.values()]
    inputs += [vec for slots, causal in beliefs.values() for vec in (*slots, causal)]
    outputs = [bp.node_belief(belief) for belief in beliefs.values()]
    for edge in hierarchy.edges:
        if edge.lower == bp.WORLD_ID:
            outputs += [item.value[1] for item in edge.sensing_fn(ah.world_state)]
        else:
            outputs += [item.value[1] for item in edge.sensing_fn(beliefs[edge.lower])]
            outputs += [item.value for item in edge.context_fn(beliefs[edge.upper])]
    assert len(outputs) == 4 * len(tree.processors) - 2  # belief and evidence each, 2 per edge
    assert not [(o, i) for o in outputs for i in inputs if np.shares_memory(o, i)]
    assert oracles.payloads_equal((beliefs, ah.world_state), before)


@settings(max_examples=20)
@example(tree=bp.thecat_tree())
@given(tree=TREES)
def test_a_tick_leaves_its_input_snapshot_unchanged(tree):
    hierarchy, ah = ticked_once(tree)
    fresh = kernel.init_active(hierarchy, bp.initial_world_state(tree))
    for snapshot in (fresh, ah):
        before = copy.deepcopy((snapshot.active, snapshot.world_state))
        kernel.process_update(snapshot)
        assert oracles.payloads_equal((snapshot.active, snapshot.world_state), before)

# ---------------------------------------------------------------------------
# Documents


def test_tree_document_roundtrip():
    tree = bp.thecat_tree()
    doc = documents.tree_to_document(tree)
    back = documents.tree_from_document(doc)
    assert set(back.processors) == set(tree.processors)
    assert back.root == tree.root
    table = bp.bp_propagate(back)
    np.testing.assert_allclose(table.beliefs["N2"], [0.0, 1.0])


def test_a_tree_is_its_processors_keyed_by_id_and_its_root_is_the_first_without_a_parent():
    assert [f.name for f in fields(bp.CausalTree)] == ["processors"]
    assert "id" not in [f.name for f in fields(bp.Processor)]
    eye = np.eye(2)
    procs = {"c": bp.Processor(2, "a", eye), "a": bp.Processor(2), "b": bp.Processor(2)}
    tree = bp.CausalTree(procs)
    assert tree.root == "a" and tree.topological_ids() == ("a", "c")
    assert bp.tree_violations(tree) == ["processor 'b' is not reachable from the root"]
    with pytest.raises(ValueError, match="^processor 'b' is not reachable from the root$"):
        documents.tree_to_document(tree)


def test_tree_document_requires_single_root():
    doc = {
        "processors": [
            {"id": "a", "n": 2, "parent": None, "prior": [0.5, 0.5]},
            {"id": "b", "n": 2, "parent": None, "prior": [0.5, 0.5]},
        ]
    }
    with pytest.raises(ValueError):
        documents.tree_from_document(doc)


@pytest.mark.parametrize(
    "record",
    [
        1, "a", {"id": "a"}, {"n": 2}, {"id": ["a"], "n": 2}, {"id": "a", "n": 2, "parent": ["r"]},
        {"id": "a", "n": None}, {"id": "a", "n": 0}, {"id": "a", "n": 1e12}, {"id": "a", "n": 1.5},
        {"id": "a", "n": True}, {"id": "a", "n": bp.MAX_FEATURE_DIM + 1},
        {"id": "a", "n": 2, "prior": {}}, {"id": "a", "n": 2, "prior": [[0.5, 0.5]]},
        {"id": "a", "n": 2, "external_input": [0.5, "x"]},
        {"id": "a", "n": 2, "external_input": [float("nan"), 1.0]},
    ],
)
def test_tree_document_rejects_malformed_records(record):
    with pytest.raises(ValueError):
        documents.tree_from_document({"processors": [record]})


@pytest.mark.parametrize(
    ("root", "leaf", "message"),
    [
        ({}, {"prior": [1, 0]}, "'b': a non-root processor cannot carry 'prior'"),
        ({"matrix": [1, 0, 0, 1]}, {}, "'a': a root processor cannot carry 'matrix'"),
        ({}, {"extrenal_input": [1, 0]}, "'b': a non-root processor cannot carry 'extrenal_input'"),
        ({"matrix": None, "x": 1}, {}, "'a': a root processor cannot carry 'matrix', 'x'"),
    ],
)
def test_a_tree_record_refuses_every_field_the_loader_would_drop(root, leaf, message):
    """A misplaced or misspelt field is refused, never silently ignored."""
    leaf = {"id": "b", "n": 2, "parent": "a", "matrix": [0.5] * 4, **leaf}
    with pytest.raises(ValueError, match=re.escape(f"processor {message}")):
        documents.tree_from_document({"processors": [{"id": "a", "n": 2, **root}, leaf]})


@pytest.mark.parametrize(
    ("parent_n", "matrix", "message"),
    [
        (2, [0.5] * 4 + [0.1], "processor 'b': 'matrix' must hold 2 x 2 = 4 numbers, got 5"),
        (2, [0.5, 0.5, 1.0], "processor 'b': 'matrix' must hold 2 x 2 = 4 numbers, got 3"),
        (3, [0.5, 0.5] * 2, "processor 'b': 'matrix' must hold 3 x 2 = 6 numbers, got 4"),
    ],
)
def test_a_matrix_of_the_wrong_length_names_its_processor(parent_n, matrix, message):
    """The parent's n times the child's n entries, checked before any reshape."""
    doc = {
        "processors": [
            {"id": "a", "n": parent_n},
            {"id": "b", "n": 2, "parent": "a", "matrix": matrix},
        ]
    }
    with pytest.raises(ValueError, match=re.escape(message)):
        documents.tree_from_document(doc)


def test_tree_document_dimension_one_is_a_violation():
    tree = documents.tree_from_document({"processors": [{"id": "r", "n": 1, "parent": None}]})
    assert bp.tree_violations(tree) == ["'r': feature_dim must be at least 2"]


def test_tree_violations_flag_all_zero_evidence_and_prior():
    procs = dict(bp.thecat_tree().processors)
    procs["N2"] = replace(procs["N2"], external_input=np.zeros(2))
    procs["N4"] = replace(procs["N4"], causal=np.zeros(2))
    procs["N1"] = replace(procs["N1"], causal=np.zeros(2))  # overwritten by context: allowed
    bad = bp.tree_violations(bp.CausalTree(processors=procs))
    assert sorted(bad) == [
        "'N2': external_input is all zero, so no value can have support",
        "'N4': causal is all zero, so no value can have support",
    ]


def test_random_tree_caps_its_size_at_2000_processors():
    assert bp.MAX_RANDOM_PROCESSORS == 2000  # the cap README states


def test_random_tree_draws_dimensions_2_to_5_by_default():
    roots = [bp.random_tree(np.random.default_rng(seed), max_depth=0) for seed in range(40)]
    assert {tree.processors["P0"].feature_dim for tree in roots} == {2, 3, 4, 5}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dims": (2, 1)},
        {"dims": (1, 3)},
        {"dims": (2, bp.MAX_FEATURE_DIM + 1)},
        {"max_branching": -1},
        {"max_depth": bp.MAX_RANDOM_DEPTH + 1},
    ],
)
def test_random_tree_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        bp.random_tree(np.random.default_rng(0), **kwargs)


def test_random_tree_checks_its_size_before_each_processor(monkeypatch):
    tree = bp.random_tree(np.random.default_rng(5), max_depth=6)
    size = len(tree.processors)
    monkeypatch.setattr(bp, "MAX_RANDOM_PROCESSORS", size)
    at_cap = bp.random_tree(np.random.default_rng(5), max_depth=6)
    assert documents.tree_to_document(at_cap) == documents.tree_to_document(tree)
    monkeypatch.setattr(bp, "MAX_RANDOM_PROCESSORS", size - 1)
    with pytest.raises(ValueError, match=f"past {size - 1} processors"):
        bp.random_tree(np.random.default_rng(5), max_depth=6)


def test_random_tree_checks_its_matrix_entries_before_each_processor(monkeypatch):
    tree = bp.random_tree(np.random.default_rng(5), max_depth=6)
    entries = len(tree.processors) * tree.processors[tree.root].feature_dim ** 2
    monkeypatch.setattr(bp, "MAX_RANDOM_MATRIX_ENTRIES", entries)
    at_cap = bp.random_tree(np.random.default_rng(5), max_depth=6)
    assert documents.tree_to_document(at_cap) == documents.tree_to_document(tree)
    monkeypatch.setattr(bp, "MAX_RANDOM_MATRIX_ENTRIES", entries - 1)
    with pytest.raises(ValueError, match=f"more than {entries - 1} entries"):
        bp.random_tree(np.random.default_rng(5), max_depth=6)


@pytest.mark.parametrize(
    "seed, depth, digest",
    [
        (7, 4, "12ed61559b57722f477afe18bfeb2ce305cbc1c2ab3b868f9f35bea5c0d6071b"),
        (7, 6, "694d6f7f5ddcaeeb2db48dcefd13fcd13e4848d91063727f08d2bad63655aa38"),
        (1001, 4, "c08bf60d69072aadb5257b1fb83e49a2565076c243791a216418b8f5322b06f5"),
        (1001, 6, "a2d84a2c433685a8a75a2ceabc6f5a6ac036f0134bdf6c2c795b6af7ebcd9f7f"),
    ],
)
def test_random_tree_draws_are_pinned(seed, depth, digest):
    """The generator's draws, their order and the processors' order stay as recorded."""
    tree = bp.random_tree(np.random.default_rng(seed), max_depth=depth)
    text = json.dumps(documents.tree_to_document(tree))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert list(tree.processors) == list(tree.topological_ids())


def test_tree_violations_catch_bad_matrix():
    eye_bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    procs = {
        "r": bp.Processor(feature_dim=2),
        "c": bp.Processor(feature_dim=2, parent="r", cond_matrix=eye_bad),
    }
    tree = bp.CausalTree(processors=procs)
    assert any("sum to 1" in v for v in bp.tree_violations(tree))


def two_processor_tree(root=None, child=None):
    """Root ``r`` over the leaf ``c`` by an identity matrix; ``root``, ``child`` replace fields."""
    r = bp.Processor(feature_dim=2)
    c = bp.Processor(feature_dim=2, parent="r", cond_matrix=np.eye(2))
    return bp.CausalTree({"r": replace(r, **root or {}), "c": replace(c, **child or {})})


@pytest.mark.parametrize(
    "root, child, violation",
    [
        (
            None,
            {"cond_matrix": np.eye(3)},
            "'c': conditional matrix shape (3, 3), expected (2, 2)",
        ),
        (None, {"cond_matrix": [[1.5, -0.5], [0, 1]]}, "'c': conditional matrix has negative entries"),
        (None, {"parent": "x"}, "processor 'c' is not reachable from the root"),
        (None, {"cond_matrix": None}, "'c': non-root processor without a conditional matrix"),
        (
            {"parent": "c"},
            None,
            "the tree has no root: every processor has a parent link",
        ),
    ],
)
def test_tree_violations_name_each_structural_fault(root, child, violation):
    assert bp.tree_violations(two_processor_tree(root, child)) == [violation]


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
def test_a_conditional_matrix_row_that_holds_nan_does_not_sum_to_1(row):
    """A NaN row sum compares false both ways, so the check must pass only on a true ``<=``.

    ``inf - inf`` sums to NaN too, and the check reports it without a numpy warning.
    """
    tree = two_processor_tree(child={"cond_matrix": np.array([row, [0.0, 1.0]])})
    violation = "'c': conditional matrix rows do not sum to 1"
    assert bp.tree_violations(tree) == [violation]
    with pytest.raises(ValueError, match=re.escape(violation)):
        bp.equivalence_check(tree)


def thecat_with_parent(pid, parent):
    """The word/letter tree with processor ``pid``'s parent link set to ``parent``."""
    tree = bp.thecat_tree()
    moved = replace(tree.processors[pid], parent=parent)
    return bp.CausalTree({**tree.processors, pid: moved})


@pytest.mark.parametrize(
    "tree, violation",
    [
        (thecat_with_parent("N1", "N9"), "processor 'N1' is not reachable from the root"),
        (thecat_with_parent("N4", "N1"), "the tree has no root: every processor has a parent link"),
    ],
)
def test_equivalence_check_refuses_an_ill_formed_tree_before_walking_it(tree, violation):
    with pytest.raises(ValueError, match=re.escape(violation)):
        bp.equivalence_check(tree)


@contextlib.contextmanager
def within_a_second():
    """Raise ``TimeoutError`` in the block if it runs for more than a second."""

    def give_up(_signum, _frame):
        raise TimeoutError("walked for a second")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(1)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "walk", [bp.CausalTree.topological_ids, bp.bp_propagate, documents.tree_to_document]
)
def test_a_cyclic_mapping_is_refused_rather_than_walked_forever(walk):
    """The bare walk skips the cycle; every reader refuses the tree with its violations."""
    eye = np.eye(2)
    procs = {
        "r": bp.Processor(feature_dim=2),
        "a": bp.Processor(feature_dim=2, parent="b", cond_matrix=eye),
        "b": bp.Processor(feature_dim=2, parent="a", cond_matrix=eye),
    }
    tree = bp.CausalTree(processors=procs)
    violations = [
        "processor 'a' is not reachable from the root",
        "processor 'b' is not reachable from the root",
    ]
    assert bp.tree_violations(tree) == violations
    with within_a_second():
        if walk is bp.CausalTree.topological_ids:
            assert walk(tree) == ("r",)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape('; '.join(violations))}$"):
                walk(tree)


PARENT_MAP_IDS = ("P0", "P1", "P2", "P3", "P4", "P5")
# The parent links of P0, P1, ... in turn; dangling and cyclic links included.
PARENT_MAPS = st.lists(
    st.sampled_from(PARENT_MAP_IDS + (None, "ghost")), min_size=1, max_size=len(PARENT_MAP_IDS)
)


def parent_map_tree(parents):
    """Two-valued processors under the ``parents`` links, an identity matrix on each link."""
    eye = np.eye(2)
    return bp.CausalTree(
        {
            pid: bp.Processor(2, parent, cond_matrix=None if parent is None else eye)
            for pid, parent in zip(PARENT_MAP_IDS, parents)
        }
    )


@settings(max_examples=300)
@given(parents=PARENT_MAPS)
def test_children_and_the_one_walk_follow_arbitrary_parent_links(parents):
    """Any parent map, dangling and cyclic links included: one walk, each processor once.

    The root is the first processor without a parent link; a map with none walks nothing.
    """
    ids = PARENT_MAP_IDS[: len(parents)]
    tree = parent_map_tree(parents)
    procs = tree.processors
    with within_a_second():
        order = tree.topological_ids()
        violations = bp.tree_violations(tree)
    assert list(tree.children) == list(ids)
    for pid in ids:
        assert tree.children[pid] == tuple(c for c in ids if procs[c].parent == pid)
    if None not in parents:
        assert tree.root is None and order == ()
        assert violations == ["the tree has no root: every processor has a parent link"]
        return
    root = ids[parents.index(None)]
    assert tree.root == root
    assert order[0] == root and len(order) == len(set(order)) and set(order) <= set(ids)

    def reaches_root(pid):
        seen = set()
        while pid != root and pid in procs and pid not in seen:
            seen.add(pid)
            pid = procs[pid].parent
        return pid == root

    for pid in ids:
        unreachable = f"processor {pid!r} is not reachable from the root" in violations
        assert unreachable == (not reaches_root(pid)) == (pid not in order)


def test_beliefs_document_is_json_ready():
    table = bp.bp_propagate(bp.thecat_tree())
    doc = oracles.beliefs_to_document(table)
    assert doc["N4"] == [0.0, 1.0]
