"""Property tests for the compiled sweep schedule.

Random valid hierarchies are a world node plus recorder nodes wired by
edges from a lower index to a higher one, every non-world node having at
least one incoming edge. Node ids are shuffled against the index order, so
the id-sorted levels of the canonical order differ from the wiring order.
The reference functions below are the quadratic ordering and cycle search
the kernel used before it compiled its schedule once per hierarchy.
"""

import oracles
from conftest import recorder_edge, recorder_node, world_edge
from hypothesis import assume, given
from hypothesis import strategies as st

from coghier import kernel
from coghier.kernel import Hierarchy, make_world_node_spec

WORLD = "W"
NAMES = tuple(f"N{i:02d}" for i in range(12))


def reference_topological_order(ids, preceded):
    """Level-sorted Kahn order, recomputing the ready set level by level."""
    remaining = {nid: set(preceded.get(nid, ())) & set(ids) for nid in ids}
    order = []
    while remaining:
        ready = sorted(nid for nid, pre in remaining.items() if not pre)
        if not ready:
            raise ValueError("dependency graph has a cycle")
        for nid in ready:
            order.append(nid)
            del remaining[nid]
        for pre in remaining.values():
            pre.difference_update(ready)
    return tuple(order)


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
            reference_topological_order(preceded, preceded)
        )


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
        expected = reference_topological_order(ids, preceded)
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
    lines = kernel.validate(hierarchy).format_lines()
    assert [line for line in lines if line.startswith("cycle:")] == expected
