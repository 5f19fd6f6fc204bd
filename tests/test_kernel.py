"""Kernel tests: validation, sweeps, ordering, locality, atomicity."""

from dataclasses import replace

import oracles
import pytest
from conftest import (
    build_recorder_hierarchy,
    diamond,
    recorder_edge,
    recorder_node,
    world_edge,
)

from coghier import kernel
from coghier.kernel import (
    EdgeTriple,
    Hierarchy,
    InvalidHierarchyError,
    OperatorError,
    Tagged,
    TagMismatchError,
    default_spaces,
    emit_nothing,
    make_world_node_spec,
)


# ---------------------------------------------------------------------------
# Validation


def test_two_node_chain_is_valid():
    h = build_recorder_hierarchy(["A"], [])
    assert kernel.validate(h) == []


def test_two_cycle_reported():
    h = build_recorder_hierarchy(["A", "B"], [("A", "B"), ("B", "A")])
    assert any(line.startswith("cycle: ") for line in kernel.validate(h))


def test_fan_in_structure_is_valid():
    h = build_recorder_hierarchy(
        ["N1", "N2", "N3", "N4"], [("N1", "N4"), ("N2", "N4"), ("N3", "N4")]
    )
    assert kernel.validate(h) == []


def test_duplicate_edge_reported():
    spaces = {"A": default_spaces("A"), "W": default_spaces("W")}
    world = make_world_node_spec("W")
    node = recorder_node("A")
    e = world_edge({"A": node.spaces, "W": world.spaces}, "W", "A")
    h = Hierarchy(nodes=(world, node), world_node="W", edges=(e, e))
    assert any(line.startswith("duplicate_edge: ") for line in kernel.validate(h))


def test_unreachable_node_reported():
    specs = [recorder_node("A"), recorder_node("B")]
    world = make_world_node_spec("W")
    spaces = {s.node_id: s.spaces for s in specs}
    spaces["W"] = world.spaces
    edges = (world_edge(spaces, "W", "A"), recorder_edge(spaces, "B", "A"))
    h = Hierarchy(nodes=(world, *specs), world_node="W", edges=edges)
    # B is unreachable from the world because nothing senses into it, so it is a second source
    expected = "unique_source: node 'B' has no incoming sensing edge; world must be the only source"
    assert kernel.validate(h) == [expected]


def test_world_with_incoming_sensing_edge_reported():
    specs = [recorder_node("A")]
    world = make_world_node_spec("W")
    spaces = {"A": specs[0].spaces, "W": world.spaces}
    edges = (world_edge(spaces, "W", "A"), recorder_edge(spaces, "A", "W"))
    h = Hierarchy(nodes=(world, *specs), world_node="W", edges=edges)
    assert any(line.startswith("unique_source: ") for line in kernel.validate(h))


def test_policy_selector_default_checked():
    node = recorder_node("A")
    broken = kernel.CognitiveNodeSpec(
        node_id="A",
        spaces=node.spaces,
        policies=node.policies,
        policy_selector=lambda task_params: "p0" if task_params else "other",
        observation_update=node.observation_update,
        prediction_update=node.prediction_update,
        initial_belief=node.initial_belief,
        initial_policy="p0",
    )
    world = make_world_node_spec("W")
    spaces = {"A": broken.spaces, "W": world.spaces}
    h = Hierarchy(
        nodes=(world, broken), world_node="W", edges=(world_edge(spaces, "W", "A"),)
    )
    assert any(line.startswith("policy_default: ") for line in kernel.validate(h))


def test_unknown_initial_policy_reported():
    node = recorder_node("A")
    broken = kernel.CognitiveNodeSpec(
        node_id="A",
        spaces=node.spaces,
        policies=node.policies,
        policy_selector=lambda task_params: "missing",
        observation_update=node.observation_update,
        prediction_update=node.prediction_update,
        initial_belief=node.initial_belief,
        initial_policy="missing",
    )
    world = make_world_node_spec("W")
    spaces = {"A": broken.spaces, "W": world.spaces}
    h = Hierarchy(
        nodes=(world, broken), world_node="W", edges=(world_edge(spaces, "W", "A"),)
    )
    assert any(line.startswith("initial_policy: ") for line in kernel.validate(h))


def test_duplicate_node_and_self_edge_reported():
    world, node = make_world_node_spec("W"), recorder_node("A")
    spaces = {"A": node.spaces, "W": world.spaces}
    edges = (world_edge(spaces, "W", "A"), recorder_edge(spaces, "A", "A"))
    h = Hierarchy(nodes=(world, node, node), world_node="W", edges=edges)
    lines = kernel.validate(h)
    assert "duplicate_node: node id 'A' declared twice" in lines
    assert "self_edge: edge from 'A' to itself" in lines


def test_policy_selector_failing_on_the_empty_set_reported():
    world = make_world_node_spec("W")
    broken = replace(recorder_node("A"), policy_selector=lambda task_params: 1 / len(task_params))
    spaces = {"A": broken.spaces, "W": world.spaces}
    h = Hierarchy(nodes=(world, broken), world_node="W", edges=(world_edge(spaces, "W", "A"),))
    expected = "policy_default: node 'A': policy selector failed on the empty set: division by zero"
    assert kernel.validate(h) == [expected]


def test_validate_gives_the_graph_lines_in_walk_order_then_the_policy_lines():
    """Nodes, then each edge as declared, then the Kahn pass's lines, then each node's policy."""
    nodes = (
        make_world_node_spec("W"),
        *map(recorder_node, "ABCDA"),
        replace(recorder_node("E"), policy_selector=lambda _: "missing", initial_policy="missing"),
        replace(recorder_node("F"), policy_selector=lambda _: "p1"),
    )
    pairs = [("A", "Z"), ("A", "A"), ("W", "A"), ("W", "A"), ("W", "B"), ("B", "C"), ("C", "B")]
    pairs += [("D", "W"), ("W", "E"), ("W", "F")]
    edges = tuple(EdgeTriple(lower, upper, emit_nothing) for lower, upper in pairs)
    assert kernel.validate(Hierarchy(nodes, "W", edges)) == [
        "duplicate_node: node id 'A' declared twice",
        "unknown_node: edge references unknown node 'Z'",
        "self_edge: edge from 'A' to itself",
        "duplicate_edge: more than one edge for ('W', 'A')",
        "cycle: sensing graph has a cycle through B, C",
        "unique_source: world node 'W' has incoming sensing edges from D",
        "unique_source: node 'D' has no incoming sensing edge; world must be the only source",
        "initial_policy: node 'E': initial policy 'missing' is not a known policy",
        "policy_default: node 'F': policy selector maps the empty set to 'p1', "
        "expected the initial policy 'p0'",
    ]


@pytest.mark.parametrize(
    "extra, kind",
    [
        ((("A", "B"), ("B", "A")), "cycle: "),
        ((("W", "B"), ("A", "Z")), "unknown_node: "),
        ((), "unique_source: "),
    ],
    ids=["cycle", "unknown-end", "second-source"],
)
def test_every_reader_refuses_a_graph_that_validate_refuses(extra, kind):
    """Sweeps, node updates and dependency readers on a hierarchy that skipped ``init_active``."""
    h = build_recorder_hierarchy(["A"], [])
    h = replace(
        h,
        nodes=(*h.nodes, recorder_node("B")),
        edges=h.edges + tuple(EdgeTriple(lower, upper, emit_nothing) for lower, upper in extra),
    )
    lines = kernel.validate(h)
    assert len(lines) == 1 and lines[0].startswith(kind)
    active = {spec.node_id: kernel.ActiveNode(None, spec.initial_policy, ()) for spec in h.nodes}
    ah = kernel.ActiveHierarchy(h, active, "env")
    for read in (
        lambda: kernel.process_update(ah),
        lambda: kernel.sensing_process_update(ah),
        lambda: kernel.prediction_process_update(ah),
        lambda: kernel.sensing_node_update(ah, "A"),
        lambda: kernel.prediction_node_update(ah, "A"),
        lambda: kernel.sensing_dependencies(h),
        lambda: kernel.prediction_dependencies(h),
    ):
        with pytest.raises(InvalidHierarchyError) as refused:
            read()
        assert refused.value.violations == lines


# ---------------------------------------------------------------------------
# Activation


def test_init_active_uses_initials_and_empty_actions():
    h = diamond()
    ah = kernel.init_active(h, world_state="env0")
    for nid in ["A", "B", "C", "D"]:
        node = ah.node(nid)
        assert node.belief == ("init", nid)
        assert node.policy == "p0"
        assert node.actions == ()
    assert ah.world_state == "env0"


def test_an_active_node_is_its_belief_policy_and_actions_keyed_by_its_id():
    ah = kernel.init_active(diamond(), world_state="env0")
    assert kernel.ActiveNode._fields == ("belief", "policy", "actions")
    assert ah.active["A"] == (("init", "A"), "p0", ())


def test_specs_given_no_policies_share_one_read_only_idle_policy():
    a = kernel.CognitiveNodeSpec(
        node_id="A",
        spaces=default_spaces("A"),
        observation_update=lambda _obs, belief: belief,
        prediction_update=lambda _contexts, _actions, belief: belief,
    )
    world = make_world_node_spec("W")
    assert a.policies is world.policies and a.policy_selector is world.policy_selector
    assert list(a.policies) == ["idle"] and a.policies["idle"]("any belief") == ()
    assert (a.policy_selector(("task",)), a.initial_policy) == ("idle", "idle")
    assert a.initial_belief is None
    with pytest.raises(TypeError):
        a.policies["other"] = a.policies["idle"]  # a write would reach every idle node
    edges = (world_edge({"A": a.spaces, "W": world.spaces}, "W", "A"),)
    ah = kernel.init_active(Hierarchy(nodes=(world, a), world_node="W", edges=edges), "env0")
    assert kernel.process_update(ah).node("A") == (None, "idle", ())


def test_init_active_rejects_invalid():
    h = build_recorder_hierarchy(["A", "B"], [("A", "B"), ("B", "A")])
    with pytest.raises(InvalidHierarchyError) as refused:
        kernel.init_active(h, world_state=None)
    assert refused.value.violations == kernel.validate(h)
    assert any(line.startswith("cycle: ") for line in refused.value.violations)


# ---------------------------------------------------------------------------
# Sensing updates


def test_sensing_update_folds_sorted_observations():
    h = diamond()
    ah = kernel.init_active(h, "env0")
    ah = kernel.sensing_node_update(ah, "A")
    assert ah.node("A").belief == ("S", (("env", "env0"),), ("init", "A"))

    for nid in ["B", "D"]:
        ah = kernel.sensing_node_update(ah, nid)
    ah = kernel.sensing_node_update(ah, "C")
    obs = ah.node("C").belief[1]
    # multiset union ordered by source id: A, B, D, then W
    assert [o[1] for o in obs[:3]] == ["A", "B", "D"]
    assert obs[3] == ("env", "env0")


def test_sensing_update_with_no_edges_passes_empty_union():
    node = recorder_node("A")
    lonely = recorder_node("B")
    world = make_world_node_spec("W")
    spaces = {"A": node.spaces, "B": lonely.spaces, "W": world.spaces}
    h = Hierarchy(
        nodes=(world, node, lonely),
        world_node="W",
        edges=(world_edge(spaces, "W", "A"), EdgeTriple("A", "B", emit_nothing)),
    )
    # B's only incoming edge emits nothing, so it folds an empty union
    ah = kernel.sensing_node_update(kernel.init_active(h, "env"), "B")
    assert ah.node("B").belief == ("S", (), ("init", "B"))


def test_sensing_update_rejects_world_node():
    ah = kernel.init_active(diamond(), "env")
    with pytest.raises(ValueError):
        kernel.sensing_node_update(ah, "W")


@pytest.mark.parametrize("update", [kernel.sensing_node_update, kernel.prediction_node_update])
def test_node_updates_reject_an_unknown_node(update):
    ah = kernel.init_active(diamond(), "env")
    with pytest.raises(ValueError, match="unknown node 'Z'"):
        update(ah, "Z")


def test_sensing_locality():
    ah = kernel.init_active(diamond(), "env")
    ah2 = kernel.sensing_node_update(ah, "B")
    for nid in ["A", "C", "D"]:
        assert ah2.node(nid) is ah.node(nid)
    assert ah2.world_state is ah.world_state
    assert ah2.node("B") is not ah.node("B")


# ---------------------------------------------------------------------------
# Prediction updates


def test_top_node_keeps_policy_and_fires_on_current_belief():
    ah = kernel.init_active(diamond(), "env")
    ah = kernel.sensing_process_update(ah)
    belief_before = ah.node("C").belief
    ah2 = kernel.prediction_node_update(ah, "C")
    node = ah2.node("C")
    assert node.policy == "p0"
    assert node.actions == (("C", belief_before),)
    assert node.belief == ("P", (), node.actions, belief_before)


def test_lower_node_gathers_task_params_and_context():
    ah = kernel.init_active(diamond(), "env")
    ah = kernel.sensing_process_update(ah)
    ah = kernel.prediction_node_update(ah, "C")
    c_state = ah.node("C")
    ah2 = kernel.prediction_node_update(ah, "A")
    node = ah2.node("A")
    assert node.belief[1] == (("c", "C", c_state.belief),)
    assert node.actions == (("A", ah.node("A").belief),)


def test_world_node_actuates_task_params():
    ah = kernel.init_active(diamond(), "env0")
    ah = kernel.sensing_process_update(ah)
    ah = kernel.prediction_process_update(ah)
    tag, task_params, previous = ah.world_state
    assert tag == "acted"
    assert previous == "env0"
    # one command per world edge, sorted by commanding node
    assert [t[1][0][0] for t in task_params] == ["A", "B", "C", "D"]


def test_runtime_unknown_policy_is_operator_error():
    node = recorder_node("A")
    fickle = kernel.CognitiveNodeSpec(
        node_id="A",
        spaces=node.spaces,
        policies=node.policies,
        policy_selector=lambda task_params: "ghost" if task_params else "p0",
        observation_update=node.observation_update,
        prediction_update=node.prediction_update,
        initial_belief=node.initial_belief,
        initial_policy="p0",
    )
    upper = recorder_node("B")
    world = make_world_node_spec("W")
    spaces = {"A": fickle.spaces, "B": upper.spaces, "W": world.spaces}
    h = Hierarchy(
        nodes=(world, fickle, upper),
        world_node="W",
        edges=(
            world_edge(spaces, "W", "A"),
            recorder_edge(spaces, "A", "B"),
        ),
    )
    ah = kernel.init_active(h, "env")
    ah = kernel.sensing_process_update(ah)
    ah = kernel.prediction_node_update(ah, "B")
    with pytest.raises(OperatorError) as err:
        kernel.prediction_node_update(ah, "A")
    assert err.value.node == "A"


# ---------------------------------------------------------------------------
# Full ticks, ordering, determinism


def test_process_update_equals_sensing_then_prediction():
    ah = kernel.init_active(diamond(), "env")
    combined = kernel.process_update(ah)
    manual = kernel.prediction_process_update(kernel.sensing_process_update(ah))
    assert oracles.active_states_equal(combined, manual)


def test_world_only_hierarchy_ticks_as_noop():
    world = make_world_node_spec("W", actuate=lambda tp, ws: ("acted", tp, ws))
    h = Hierarchy(nodes=(world,), world_node="W", edges=())
    ah = kernel.init_active(h, "env")
    ticked = kernel.process_update(ah)
    # nothing senses and nothing commands; actuation sees no task params
    assert ticked.world_state == ("acted", (), "env")
    assert ticked.node("W").belief is None
    assert ticked.node("W").actions == ()


def test_identity_operators_leave_state_unchanged_except_actions():
    def identity_node(nid):
        spaces = default_spaces(nid)
        return kernel.CognitiveNodeSpec(
            node_id=nid,
            spaces=spaces,
            policies={"p0": lambda belief: (belief,)},
            policy_selector=lambda task_params: "p0",
            observation_update=lambda obs, belief: belief,
            prediction_update=lambda ctx, actions, belief: belief,
            initial_belief=("keep", nid),
            initial_policy="p0",
        )

    a, b = identity_node("A"), identity_node("B")
    world = make_world_node_spec("W")
    spaces = {"A": a.spaces, "B": b.spaces, "W": world.spaces}
    h = Hierarchy(
        nodes=(world, a, b),
        world_node="W",
        edges=(world_edge(spaces, "W", "A"), recorder_edge(spaces, "A", "B")),
    )
    ah = kernel.init_active(h, "env")
    ticked = kernel.process_update(ah)
    for nid in ("A", "B"):
        assert ticked.node(nid).belief == ("keep", nid)
        assert ticked.node(nid).policy == "p0"
        assert ticked.node(nid).actions == (("keep", nid),)
    assert ticked.world_state == "env"


def test_prediction_locality():
    ah = kernel.init_active(diamond(), "env")
    ah = kernel.sensing_process_update(ah)
    ah2 = kernel.prediction_node_update(ah, "C")
    for nid in ["A", "B", "D"]:
        assert ah2.node(nid) is ah.node(nid)
    assert ah2.world_state is ah.world_state

    ah3 = kernel.prediction_node_update(ah2, "W")
    for nid in ["A", "B", "C", "D"]:
        assert ah3.node(nid) is ah2.node(nid)
    assert ah3.world_state is not ah2.world_state


def test_all_sensing_orders_give_identical_state():
    h = diamond()
    ah = kernel.init_active(h, "env")
    deps = kernel.sensing_dependencies(h)
    orders = list(oracles.all_topological_orders(set(deps), deps))
    assert len(orders) > 1
    reference = kernel.sensing_process_update(ah)
    for order in orders:
        assert oracles.active_states_equal(reference, kernel.sensing_process_update(ah, order))


def test_all_prediction_orders_give_identical_state():
    h = diamond()
    ah = kernel.sensing_process_update(kernel.init_active(h, "env"))
    deps = kernel.prediction_dependencies(h)
    orders = list(oracles.all_topological_orders(set(deps), deps))
    assert len(orders) > 1
    reference = kernel.prediction_process_update(ah)
    for order in orders:
        assert order[-1] == "W"
        assert oracles.active_states_equal(reference, kernel.prediction_process_update(ah, order))


def test_invalid_order_rejected():
    h = diamond()
    ah = kernel.init_active(h, "env")
    with pytest.raises(ValueError):
        kernel.sensing_process_update(ah, ["C", "A", "B", "D"])
    with pytest.raises(ValueError):
        kernel.prediction_process_update(ah, ["W", "C", "A", "B", "D"])
    for order in (["A", "B", "D"], ["A", "B", "D", "C", "C"], ["A", "B", "D", "X"]):
        with pytest.raises(ValueError, match="sensing order must cover each node exactly once"):
            kernel.sensing_process_update(ah, order)
    with pytest.raises(ValueError, match="prediction order violates '[BD]' before 'W'"):
        kernel.prediction_process_update(ah, ["C", "A", "W", "B", "D"])


def test_process_update_is_deterministic():
    ah = kernel.init_active(diamond(), "env")
    assert oracles.active_states_equal(kernel.process_update(ah), kernel.process_update(ah))


def test_hierarchy_is_never_mutated_by_ticks():
    h = diamond()
    ah = kernel.init_active(h, "env")
    ah2 = kernel.process_update(ah)
    assert ah2.hierarchy is h
    assert kernel.validate(h) == []


def test_actions_match_policy_of_pre_prediction_belief():
    ah = kernel.init_active(diamond(), "env")
    sensed = kernel.sensing_process_update(ah)
    done = kernel.prediction_process_update(sensed)
    for nid in ["A", "B", "C", "D"]:
        fired_on = sensed.node(nid).belief
        assert done.node(nid).actions == ((nid, fired_on),)


# ---------------------------------------------------------------------------
# Failure handling


def test_operator_failure_aborts_tick_and_preserves_state():
    h = build_recorder_hierarchy(
        ["A", "B", "C"], [("A", "B"), ("B", "C")], fail_nodes={"B"}
    )
    ah = kernel.init_active(h, "env")
    before = kernel.ActiveHierarchy(ah.hierarchy, dict(ah.active), ah.world_state)
    with pytest.raises(OperatorError) as err:
        kernel.process_update(ah)
    assert err.value.node == "B"
    assert oracles.active_states_equal(ah, before)
    assert ah.world_state is before.world_state


def test_failing_sensing_edge_reports_node_and_edge():
    def bad_edge(spaces, lower, upper):
        def boom(_belief):
            raise RuntimeError("broken sensor")

        return EdgeTriple(lower=lower, upper=upper, sensing_fn=boom)

    a, b = recorder_node("A"), recorder_node("B")
    world = make_world_node_spec("W")
    spaces = {"A": a.spaces, "B": b.spaces, "W": world.spaces}
    h = Hierarchy(
        nodes=(world, a, b),
        world_node="W",
        edges=(world_edge(spaces, "W", "A"), bad_edge(spaces, "A", "B")),
    )
    ah = kernel.init_active(h, "env")
    ah = kernel.sensing_node_update(ah, "A")
    with pytest.raises(OperatorError) as err:
        kernel.sensing_node_update(ah, "B")
    assert err.value.node == "B"
    assert err.value.edge == ("A", "B")


def test_tag_mismatch_rejected_before_operator_runs():
    seen = []

    def observing(obs, belief):
        seen.append(obs)
        return belief

    node = recorder_node("A")
    watcher = kernel.CognitiveNodeSpec(
        node_id="A",
        spaces=node.spaces,
        policies=node.policies,
        policy_selector=node.policy_selector,
        observation_update=observing,
        prediction_update=node.prediction_update,
        initial_belief=node.initial_belief,
        initial_policy="p0",
    )
    world = make_world_node_spec("W")
    mistagged = EdgeTriple(
        lower="W",
        upper="A",
        sensing_fn=lambda ws: (Tagged("not-the-right-tag", ws),),
    )
    h = Hierarchy(nodes=(world, watcher), world_node="W", edges=(mistagged,))
    ah = kernel.init_active(h, "env")
    with pytest.raises(TagMismatchError) as err:
        kernel.sensing_node_update(ah, "A")
    assert err.value.edge == ("W", "A")
    assert seen == []


@pytest.mark.parametrize("fn, tag", [("task_param_fn", "task:A"), ("context_fn", "ctx:A")])
def test_prediction_tag_mismatch_names_the_lower_node_and_its_edge(fn, tag):
    h = build_recorder_hierarchy(["A", "B"], [("A", "B")])
    *world_edges, inner = h.edges
    wrong = replace(inner, **{fn: lambda _value: (Tagged("wrong", None),)})
    ah = kernel.init_active(replace(h, edges=(*world_edges, wrong)), "env")
    expected = f"edge emitted tag 'wrong', node expects '{tag}'"
    with pytest.raises(TagMismatchError, match=expected) as err:
        kernel.process_update(ah)
    assert (err.value.node, err.value.edge) == ("A", ("A", "B"))


def test_untagged_payload_rejected():
    node = recorder_node("A")
    world = make_world_node_spec("W")
    bare = EdgeTriple(lower="W", upper="A", sensing_fn=lambda ws: (ws,))
    h = Hierarchy(nodes=(world, node), world_node="W", edges=(bare,))
    ah = kernel.init_active(h, "env")
    with pytest.raises(TagMismatchError):
        kernel.sensing_node_update(ah, "A")


def sensed_from_world(sensing_fn):
    """``W -> A`` with ``sensing_fn`` on the edge, activated."""
    node, world = recorder_node("A"), make_world_node_spec("W")
    edge = EdgeTriple(lower="W", upper="A", sensing_fn=sensing_fn)
    return kernel.init_active(Hierarchy(nodes=(world, node), world_node="W", edges=(edge,)), "env")


class Veto(kernel.KernelError):
    """A kernel error raised from inside an edge function."""


VETO = Veto("edge vetoed the tick")


def veto(_ws):
    raise VETO


def test_failure_while_iterating_emitted_values_names_node_and_edge():
    def flaky(ws):
        yield Tagged("obs:A", ws)
        raise RuntimeError("sensor dropped out")

    ah = sensed_from_world(flaky)
    with pytest.raises(OperatorError) as err:
        kernel.process_update(ah)
    assert (err.value.node, err.value.edge) == ("A", ("W", "A"))
    assert isinstance(err.value.__cause__, RuntimeError)


def test_plain_tuple_is_still_an_untagged_payload():
    assert Tagged("obs:A", 1.0) == ("obs:A", 1.0)  # equal as tuples, yet not a Tagged
    ah = sensed_from_world(lambda ws: (("obs:A", 1.0),))
    with pytest.raises(TagMismatchError, match="untagged payload of type tuple") as err:
        kernel.process_update(ah)
    assert (err.value.node, err.value.edge) == ("A", ("W", "A"))


def test_kernel_error_from_an_edge_reaches_the_caller_unchanged():
    with pytest.raises(Veto) as err:
        kernel.process_update(sensed_from_world(veto))
    assert err.value is VETO
    assert err.value.__cause__ is not err.value


@pytest.mark.parametrize("sensing_fn", [lambda ws: (("obs:A", 1.0),), veto])
def test_rejected_emissions_leave_the_snapshot_untouched(sensing_fn):
    ah = sensed_from_world(sensing_fn)
    active, world_state = ah.active, ah.world_state
    before = kernel.ActiveHierarchy(ah.hierarchy, dict(active), world_state)
    with pytest.raises(kernel.KernelError):
        kernel.process_update(ah)
    assert ah.active is active and ah.world_state is world_state
    assert oracles.active_states_equal(ah, before)


# ---------------------------------------------------------------------------
# Compiled schedule: one state copy per tick, orders computed once


def test_failure_at_the_last_step_leaves_the_snapshot_untouched():
    def jammed(_task_params, _world_state):
        raise RuntimeError("actuator jammed")

    h = build_recorder_hierarchy(["A", "B", "C"], [("A", "B"), ("B", "C")])
    # The world actuates last in the prediction sweep, so every other node's
    # update has already been written into the tick's copy when it raises.
    h = Hierarchy(
        nodes=(make_world_node_spec("W", actuate=jammed), *h.nodes[1:]),
        world_node="W",
        edges=h.edges,
    )
    ah = kernel.init_active(h, ("env", 0))
    active, world_state = ah.active, ah.world_state
    before = kernel.ActiveHierarchy(h, dict(ah.active), ah.world_state)
    with pytest.raises(OperatorError) as err:
        kernel.process_update(ah)
    assert err.value.node == "W"
    assert ah.active is active
    assert ah.world_state is world_state
    assert oracles.active_states_equal(ah, before)


def test_ticks_reuse_the_schedule_compiled_at_activation(monkeypatch):
    calls = {}
    compiling = ("canonical_topological_order", "_sensing_step", "_prediction_step")
    for name in (*compiling, "sensing_dependencies", "prediction_dependencies"):

        def counting(*args, _name=name, _inner=getattr(kernel, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(*args)

        monkeypatch.setattr(kernel, name, counting)

    ah = kernel.init_active(diamond(), "env")
    # One Kahn pass checks the graph and gives the sensing order; the prediction sweep is its
    # reverse. Each node gets its steps built once: a sensing step for each of A, B, C and D,
    # and a prediction step for those four and the world.
    assert calls == {"canonical_topological_order": 1, "_sensing_step": 4, "_prediction_step": 5}
    calls.clear()
    for _ in range(10):
        ah = kernel.process_update(ah)
    ah = kernel.prediction_node_update(kernel.sensing_node_update(ah, "A"), "A")
    ah = kernel.sensing_process_update(ah, ["D", "B", "A", "C"])
    assert calls == {}
