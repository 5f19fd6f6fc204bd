"""Tree propagation vs brute-force enumeration, and the hierarchy embedding."""

import hashlib
import itertools
import json
import signal
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coghier import bp, kernel


def make_tree(parents, n, rng):
    """Tree from a parent vector (node 0 is the root), random fills."""
    ids = [f"P{i}" for i in range(len(parents) + 1)]
    children = {pid: [] for pid in ids}
    for i, par in enumerate(parents, start=1):
        children[ids[par]].append(ids[i])

    def rand_matrix():
        m = rng.uniform(0.05, 1.0, (n, n))
        return m / m.sum(axis=1, keepdims=True)

    procs = {}
    for i, pid in enumerate(ids):
        parent = None if i == 0 else ids[parents[i - 1]]
        procs[pid] = bp.Processor(
            id=pid,
            feature_dim=n,
            parent=parent,
            children=tuple(children[pid]),
            cond_matrix=None if parent is None else rand_matrix(),
            causal=rng.uniform(0.05, 1.0, n) if parent is None else None,
            external_input=rng.uniform(0.05, 1.0, n),
        )
    return bp.CausalTree(processors=procs, root=ids[0])


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
        "root": bp.Processor(id="root", feature_dim=2, children=("a", "b")),
        "a": bp.Processor(id="a", feature_dim=2, parent="root", cond_matrix=eye),
        "b": bp.Processor(id="b", feature_dim=2, parent="root", cond_matrix=eye),
    }
    table = bp.bp_propagate(bp.CausalTree(processors=procs, root="root"))
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
        "root": bp.Processor(id="root", feature_dim=2, children=("a", "b")),
        "a": bp.Processor(
            id="a", feature_dim=2, parent="root", cond_matrix=eye,
            external_input=np.array([1.0, 0.0]),
        ),
        "b": bp.Processor(
            id="b", feature_dim=2, parent="root", cond_matrix=eye,
            external_input=np.array([0.0, 1.0]),
        ),
    }
    tree = bp.CausalTree(processors=procs, root="root")
    table = bp.bp_propagate(tree)
    assert table.degenerate
    report = bp.equivalence_check(tree)
    assert not report.passed
    assert report.degenerate


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
    assert kernel.validate(h).ok
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


# ---------------------------------------------------------------------------
# Equivalence harness


def test_equivalence_on_word_demo():
    report = bp.equivalence_check(bp.thecat_tree())
    assert report.passed
    assert report.max_deviation < 1e-9


def test_equivalence_single_processor_is_exact():
    tree = bp.CausalTree(
        processors={
            "only": bp.Processor(
                id="only", feature_dim=3, external_input=np.array([0.2, 0.5, 0.3])
            )
        },
        root="only",
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


def test_two_level_random_tree_single_tick_matches_oracle():
    rng = np.random.default_rng(5)
    n = 3
    m = rng.uniform(0.05, 1.0, (n, n))
    m = m / m.sum(axis=1, keepdims=True)
    m2 = rng.uniform(0.05, 1.0, (n, n))
    m2 = m2 / m2.sum(axis=1, keepdims=True)
    procs = {
        "r": bp.Processor(
            id="r", feature_dim=n, children=("c1", "c2"),
            causal=rng.uniform(0.05, 1, n), external_input=rng.uniform(0.05, 1, n),
        ),
        "c1": bp.Processor(
            id="c1", feature_dim=n, parent="r", cond_matrix=m,
            external_input=rng.uniform(0.05, 1, n),
        ),
        "c2": bp.Processor(
            id="c2", feature_dim=n, parent="r", cond_matrix=m2,
            external_input=rng.uniform(0.05, 1, n),
        ),
    }
    tree = bp.CausalTree(processors=procs, root="r")
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
    assert report.converged and report.ticks == 2
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
    assert (report.converged, report.passed, report.ticks) == (False, False, 2)
    assert report.detail == "no fixpoint after 2 ticks"


def test_a_second_tick_within_the_fixpoint_tolerance_passes(monkeypatch):
    perturb_second_tick(monkeypatch, "N2", shift_causal(1e-13))
    report = bp.equivalence_check(bp.thecat_tree())
    assert report.converged and report.passed and report.ticks == 2


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
    assert (report.converged, report.passed, report.ticks) == (False, False, 2)
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
# Documents


def test_tree_document_roundtrip():
    tree = bp.thecat_tree()
    doc = bp.tree_to_document(tree)
    back = bp.tree_from_document(doc)
    assert set(back.processors) == set(tree.processors)
    assert back.root == tree.root
    table = bp.bp_propagate(back)
    np.testing.assert_allclose(table.beliefs["N2"], [0.0, 1.0])


def test_tree_document_requires_single_root():
    doc = {
        "processors": [
            {"id": "a", "n": 2, "parent": None, "prior": [0.5, 0.5]},
            {"id": "b", "n": 2, "parent": None, "prior": [0.5, 0.5]},
        ]
    }
    with pytest.raises(ValueError):
        bp.tree_from_document(doc)


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
        bp.tree_from_document({"processors": [record]})


def test_tree_document_dimension_one_is_a_violation():
    tree = bp.tree_from_document({"processors": [{"id": "r", "n": 1, "parent": None}]})
    assert bp.tree_violations(tree) == ["'r': feature_dim must be at least 2"]


def test_tree_violations_flag_all_zero_evidence_and_prior():
    procs = dict(bp.thecat_tree().processors)
    procs["N2"] = replace(procs["N2"], external_input=np.zeros(2))
    procs["N4"] = replace(procs["N4"], causal=np.zeros(2))
    procs["N1"] = replace(procs["N1"], causal=np.zeros(2))  # overwritten by context: allowed
    bad = bp.tree_violations(bp.CausalTree(processors=procs, root="N4"))
    assert sorted(bad) == [
        "'N2': external_input is all zero, so no value can have support",
        "'N4': causal is all zero, so no value can have support",
    ]


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
    assert bp.tree_to_document(at_cap) == bp.tree_to_document(tree)
    monkeypatch.setattr(bp, "MAX_RANDOM_PROCESSORS", size - 1)
    with pytest.raises(ValueError, match=f"past {size - 1} processors"):
        bp.random_tree(np.random.default_rng(5), max_depth=6)


def test_random_tree_checks_its_matrix_entries_before_each_processor(monkeypatch):
    tree = bp.random_tree(np.random.default_rng(5), max_depth=6)
    entries = len(tree.processors) * tree.processors[tree.root].feature_dim ** 2
    monkeypatch.setattr(bp, "MAX_RANDOM_MATRIX_ENTRIES", entries)
    at_cap = bp.random_tree(np.random.default_rng(5), max_depth=6)
    assert bp.tree_to_document(at_cap) == bp.tree_to_document(tree)
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
    text = json.dumps(bp.tree_to_document(tree))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert list(tree.processors) == list(tree.topological_ids())


def test_tree_violations_catch_bad_matrix():
    eye_bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    procs = {
        "r": bp.Processor(id="r", feature_dim=2, children=("c",)),
        "c": bp.Processor(id="c", feature_dim=2, parent="r", cond_matrix=eye_bad),
    }
    tree = bp.CausalTree(processors=procs, root="r")
    assert any("sum to 1" in v for v in bp.tree_violations(tree))


@pytest.mark.parametrize(
    "walk", [bp.CausalTree.topological_ids, bp.bp_propagate, bp.tree_to_document]
)
def test_a_cyclic_mapping_is_refused_rather_than_walked_forever(walk):
    eye = np.eye(2)
    procs = {
        "r": bp.Processor(id="r", feature_dim=2, children=("a",)),
        "a": bp.Processor(id="a", feature_dim=2, parent="r", children=("b",), cond_matrix=eye),
        "b": bp.Processor(id="b", feature_dim=2, parent="a", children=("a",), cond_matrix=eye),
    }
    tree = bp.CausalTree(processors=procs, root="r")
    assert "cycle: processor 'a' reached twice" in bp.tree_violations(tree)

    def give_up(_signum, _frame):
        raise TimeoutError("walked the cycle for a second")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(1)
    try:
        with pytest.raises(ValueError, match="processor 'a' reached twice"):
            walk(tree)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_beliefs_document_is_json_ready():
    table = bp.bp_propagate(bp.thecat_tree())
    doc = oracles.beliefs_to_document(table)
    assert doc["N4"] == [0.0, 1.0]
