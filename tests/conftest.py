"""Shared fixture builders: a world plus transcript-recording nodes.

Recorder nodes fold every input into nested tuples, so two runtime states
are bit-identical exactly when every update saw identical inputs in an
identical order. That makes them the reference instrument for ordering,
locality and atomicity checks.
"""

from hypothesis import settings

from coghier import kernel
from coghier.kernel import (
    CognitiveNodeSpec,
    EdgeTriple,
    Hierarchy,
    Tagged,
    default_spaces,
    make_world_node_spec,
)

# Property tests replay the same examples on every run, so the suite stays
# deterministic and its run time bounded; no example database is written.
settings.register_profile(
    "coghier", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("coghier")


def recorder_node(nid, fail_on_observe=False):
    """Node whose belief transcript captures every input it ever saw."""
    spaces = default_spaces(nid)

    def observe(obs, belief):
        if fail_on_observe:
            raise ValueError("injected sensing failure")
        return ("S", obs, belief)

    def predict(contexts, actions, belief):
        return ("P", contexts, actions, belief)

    return CognitiveNodeSpec(
        node_id=nid,
        spaces=spaces,
        policies={"p0": lambda belief: ((nid, belief),)},
        policy_selector=lambda task_params: "p0",
        observation_update=observe,
        prediction_update=predict,
        initial_belief=("init", nid),
        initial_policy="p0",
    )


def recorder_edge(hierarchy_spaces, lower, upper):
    up = hierarchy_spaces[upper]
    low = hierarchy_spaces[lower]
    return EdgeTriple(
        lower=lower,
        upper=upper,
        sensing_fn=lambda belief: (Tagged(up.observation_space, ("from", lower, belief)),),
        task_param_fn=lambda actions: (Tagged(low.task_param_space, ("t", upper, actions)),),
        context_fn=lambda belief: (Tagged(low.context_space, ("c", upper, belief)),),
    )


def world_edge(hierarchy_spaces, world, upper):
    up = hierarchy_spaces[upper]
    return EdgeTriple(
        lower=world,
        upper=upper,
        sensing_fn=lambda ws: (Tagged(up.observation_space, ("env", ws)),),
        task_param_fn=lambda actions: (
            Tagged(hierarchy_spaces[world].task_param_space, ("cmd", actions)),
        ),
    )


def build_recorder_hierarchy(node_ids, inner_edges, fail_nodes=()):
    """World plus recorder nodes; every non-world node senses the world."""
    specs = {nid: recorder_node(nid, fail_on_observe=nid in fail_nodes) for nid in node_ids}
    world = make_world_node_spec(
        "W", actuate=lambda task_params, ws: ("acted", task_params, ws)
    )
    spaces = {nid: s.spaces for nid, s in specs.items()}
    spaces["W"] = world.spaces
    edges = [world_edge(spaces, "W", nid) for nid in node_ids]
    edges += [recorder_edge(spaces, lo, up) for lo, up in inner_edges]
    return Hierarchy(nodes=(world, *specs.values()), world_node="W", edges=tuple(edges))


def diamond():
    """W -> {A, B, D} -> C with A, B, D all feeding C (five nodes)."""
    return build_recorder_hierarchy(
        ["A", "B", "C", "D"], [("A", "C"), ("B", "C"), ("D", "C")]
    )
