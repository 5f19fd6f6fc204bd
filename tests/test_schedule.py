"""Property tests for the compiled sweep schedule.

Random valid hierarchies are a world node plus recorder nodes wired by
edges from a lower index to a higher one, every non-world node having at
least one incoming edge. Node ids are shuffled against the index order, so
the id-sorted levels of the canonical order differ from the wiring order.
The reference ordering is the quadratic one the kernel used before it
compiled its schedule once per hierarchy
(``oracles.reference_topological_order``). The reference functions below
are the cycle search of that time and the edge walks that built both
dependency relations before they were read from the compiled schedule.
"""

from dataclasses import replace

import oracles
from conftest import recorder_edge, recorder_node, world_edge
from hypothesis import assume, given
from hypothesis import strategies as st

from coghier import kernel
from coghier.kernel import EdgeTriple, Hierarchy, emit_nothing, make_world_node_spec

WORLD = "W"
NAMES = tuple(f"N{i:02d}" for i in range(12))


def reference_cycle_members(ids, preceded):
    """Kahn elimination; whatever cannot be scheduled lies on a cycle."""
    remaining = {nid: set(pre) for nid, pre in preceded.items()}
    ready = [nid for nid, pre in remaining.items() if not pre]
    while ready:
        nid = ready.pop()
        del remaining[nid]
        for other, pre in remaining.items():
            if nid in pre:
                pre.discard(nid)
                if not pre:
                    ready.append(other)
    return set(remaining)


def reference_sensing_dependencies(hierarchy):
    """lower-before-upper constraints among non-world nodes, one edge at a time."""
    world = hierarchy.world_node
    deps = {nid: set() for nid in hierarchy.node_ids if nid != world}
    for edge in hierarchy.edges:
        if edge.lower != world and edge.upper != world:
            deps[edge.upper].add(edge.lower)
    return deps


def reference_prediction_dependencies(hierarchy):
    """upper-before-lower constraints over all nodes, one edge at a time."""
    deps = {nid: set() for nid in hierarchy.node_ids}
    for edge in hierarchy.edges:
        deps[edge.lower].add(edge.upper)
    return deps


@st.composite
def dag_wirings(draw, max_fan_in=3):
    """(ids by index with the world first, lower-to-upper index pairs)."""
    names = draw(st.permutations(NAMES))
    n = draw(st.integers(min_value=0, max_value=len(NAMES)))
    ids = (WORLD, *names[:n])
    pairs = []
    for upper in range(1, len(ids)):
        lowers = draw(st.sets(st.integers(0, upper - 1), min_size=1, max_size=max_fan_in))
        pairs += [(lower, upper) for lower in sorted(lowers)]
    return ids, pairs


def build(ids, pairs, extra=()):
    """The recorder hierarchy for a wiring, plus ``extra`` (lower, upper) id pairs."""
    world = make_world_node_spec(WORLD, actuate=lambda task_params, ws: ("acted", task_params, ws))
    specs = [recorder_node(nid) for nid in ids[1:]]
    spaces = {spec.node_id: spec.spaces for spec in (world, *specs)}
    edges = [
        world_edge(spaces, WORLD, ids[up]) if lo == 0 else recorder_edge(spaces, ids[lo], ids[up])
        for lo, up in pairs
    ]
    edges += [recorder_edge(spaces, lo, up) for lo, up in extra]
    return Hierarchy(nodes=(world, *specs), world_node=WORLD, edges=tuple(edges))


def noting_visits(hierarchy, visits):
    """``hierarchy`` with each operator, the world's actuator too, noting its id in ``visits``."""

    def noted(nid, update):
        def run(*args):
            visits.append(nid)
            return update(*args)

        return run

    nodes = tuple(
        replace(
            spec,
            observation_update=noted(spec.node_id, spec.observation_update),
            prediction_update=noted(spec.node_id, spec.prediction_update),
        )
        for spec in hierarchy.nodes
    )
    return replace(hierarchy, nodes=nodes)


def random_linear_extension(preceded, rng):
    """A valid order drawn by picking any ready node at each step."""
    done, order = set(), []
    while len(order) < len(preceded):
        ready = sorted(nid for nid, pre in preceded.items() if nid not in done and pre <= done)
        pick = rng.choice(ready)
        done.add(pick)
        order.append(pick)
    return order


@given(dag_wirings())
def test_canonical_order_matches_the_level_sorted_reference(wiring):
    hierarchy = build(*wiring)
    for preceded in (
        kernel.sensing_dependencies(hierarchy),
        kernel.prediction_dependencies(hierarchy),
    ):
        assert kernel.canonical_topological_order(preceded, preceded) == (
            oracles.reference_topological_order(preceded, preceded)
        )


@given(dag_wirings())
def test_dependencies_read_from_the_plans_match_the_edge_walks(wiring):
    hierarchy = build(*wiring)
    sensing = kernel.sensing_dependencies(hierarchy)
    assert list(sensing.items()) == list(reference_sensing_dependencies(hierarchy).items())
    assert kernel.prediction_dependencies(hierarchy) == reference_prediction_dependencies(hierarchy)
    for pre in sensing.values():
        pre.add("intruder")  # a copy: the compiled constraints stay as they were
    assert kernel.sensing_dependencies(hierarchy) == reference_sensing_dependencies(hierarchy)


@given(dag_wirings())
def test_prediction_sweep_is_the_sensing_sweep_reversed_then_the_world(wiring):
    visits = []
    hierarchy = noting_visits(build(*wiring), visits)
    kernel.process_update(kernel.init_active(hierarchy, "env"))
    sensed = visits[: len(wiring[0]) - 1]
    assert sorted(sensed) == sorted(wiring[0][1:])
    assert visits == [*sensed, *reversed(sensed), WORLD]


@given(
    st.lists(st.sampled_from(NAMES[:8]), min_size=0, max_size=8, unique=True),
    st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES[:8])), max_size=20),
)
def test_canonical_order_matches_the_reference_on_any_graph(ids, constraints):
    """Cycles, self-loops and predecessors outside ``ids`` included."""
    preceded = {}
    for before, after in constraints:
        preceded.setdefault(after, set()).add(before)
    try:
        expected = oracles.reference_topological_order(ids, preceded)
    except ValueError as err:
        expected = str(err)
    try:
        found = kernel.canonical_topological_order(ids, preceded)
    except ValueError as err:
        found = str(err)
    assert found == expected


# Recorder transcripts grow with the number of paths through the graph, and
# comparing them walks every path, so this property keeps fan-in at two.
@given(dag_wirings(max_fan_in=2), st.randoms(use_true_random=False))
def test_process_update_equals_a_fold_of_node_updates(wiring, rng):
    hierarchy = build(*wiring)
    start = kernel.init_active(hierarchy, "env")
    folded = start
    for nid in random_linear_extension(kernel.sensing_dependencies(hierarchy), rng):
        folded = kernel.sensing_node_update(folded, nid)
    for nid in random_linear_extension(kernel.prediction_dependencies(hierarchy), rng):
        folded = kernel.prediction_node_update(folded, nid)
    assert oracles.active_states_equal(kernel.process_update(start), folded)


@given(dag_wirings())
def test_each_node_reads_exactly_its_edges_in_id_order(wiring):
    """Observations come in by source id; contexts and world commands by upper id."""
    hierarchy = build(*wiring)
    ticked = kernel.process_update(kernel.init_active(hierarchy, "env"))
    edges = hierarchy.edges
    for nid in wiring[0][1:]:
        _, contexts, _, (_, observations, _) = ticked.node(nid).belief
        sources = [WORLD if obs[0] == "env" else obs[1] for obs in observations]
        assert sources == sorted(e.lower for e in edges if e.upper == nid)
        assert [ctx[1] for ctx in contexts] == sorted(e.upper for e in edges if e.lower == nid)
    _, task_params, _ = ticked.world_state
    commanders = [actions[0][0] for _, actions in task_params]
    assert commanders == sorted(e.upper for e in edges if e.lower == WORLD)


@given(dag_wirings(), st.randoms(use_true_random=False))
def test_cycle_violation_names_what_the_reference_search_leaves(wiring, rng):
    ids, pairs = wiring
    assume(len(ids) >= 2)
    # Close a cycle: an edge from some node back down to one of its ancestors.
    upper = rng.randrange(1, len(ids))
    ancestors, frontier = set(), [upper]
    while frontier:
        node = frontier.pop()
        for lo, up in pairs:
            if up == node and lo not in ancestors:
                ancestors.add(lo)
                frontier.append(lo)
    target = rng.choice(sorted(ancestors))
    hierarchy = build(ids, pairs, extra=[(ids[upper], ids[target])])

    preceded = {nid: set() for nid in ids}
    for edge in hierarchy.edges:
        preceded[edge.upper].add(edge.lower)
    cyclic = reference_cycle_members(set(ids), preceded)
    assert cyclic
    expected = ["cycle: sensing graph has a cycle through " + ", ".join(sorted(cyclic))]
    lines = kernel.validate(hierarchy)
    assert [line for line in lines if line.startswith("cycle:")] == expected


@given(
    st.lists(st.sampled_from(NAMES[:6]), max_size=6, unique=True),
    st.booleans(),
    st.lists(st.tuples(st.sampled_from((WORLD, *NAMES[:7])), st.sampled_from((WORLD, *NAMES[:7])))),
)
def test_a_node_unreachable_from_the_world_is_always_reported(ids, with_world, pairs):
    """Partly malformed wirings: unknown ends, self-edges, duplicate edges, cycles, no world."""
    nodes = [recorder_node(nid) for nid in ids]
    if with_world:
        nodes.append(make_world_node_spec(WORLD))
    edges = tuple(EdgeTriple(lower, upper, emit_nothing) for lower, upper in pairs)
    hierarchy = Hierarchy(nodes=tuple(nodes), world_node=WORLD, edges=edges)
    reachable = {WORLD} if with_world else set()
    frontier = list(reachable)
    while frontier:
        lower = frontier.pop()
        for upper in {e.upper for e in edges if e.lower == lower} & set(ids) - reachable:
            reachable.add(upper)
            frontier.append(upper)
    kinds = {line.split(": ", 1)[0] for line in kernel.validate(hierarchy)}
    if set(ids) - reachable:
        assert kinds & {"cycle", "unique_source", "world_missing"}
