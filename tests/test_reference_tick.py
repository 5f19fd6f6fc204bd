"""The kernel against ``oracles.reference_tick``, an independent transcription of a tick.

The oracle walks the edges afresh in every sweep and shares no code with the
kernel's compiled schedule, so a fault in a compiled step, or in how the
schedule is compiled, shows up as a difference here even where node updates
and sweeps agree with each other. Each comparison starts both from the same
state, so their results share every payload from before the tick.
"""

from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_schedule import WORLD, build, dag_wirings

from coghier import bp, kernel, servo
from coghier.kernel import KernelError, Tagged

TICKS = 3


def reference_state(ah):
    """The state ``oracles.reference_tick`` reaches from ``ah``."""
    active, world_state = oracles.reference_tick(ah.hierarchy, ah.active, ah.world_state)
    return kernel.ActiveHierarchy(ah.hierarchy, active, world_state)


def assert_ticks_match(ah, ticks=TICKS):
    """``ticks`` kernel ticks from ``ah``, each bit-identical to the oracle's from the same state."""
    for _ in range(ticks):
        ticked = kernel.process_update(ah)
        assert oracles.active_states_equal(ticked, reference_state(ah))
        ah = ticked


@given(dag_wirings())
def test_ticks_match_the_reference_on_recorder_hierarchies(wiring):
    assert_ticks_match(kernel.init_active(build(*wiring), "env"))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ticks_match_the_reference_on_encoded_random_trees(seed):
    tree = bp.random_tree(np.random.default_rng(seed), max_depth=3)
    assert_ticks_match(kernel.init_active(bp.encode(tree), bp.initial_world_state(tree)), ticks=2)


@pytest.mark.parametrize("mode", servo.MODES)
def test_ticks_match_the_reference_on_the_servo_hierarchy(mode):
    hierarchy = servo.build_servo_hierarchy(servo.ServoParams(), mode)
    readings = np.random.default_rng(7).normal(0.0, 0.1, 3)
    world = servo.ServoWorld(0.05, 0.01, np.zeros(3), readings)
    assert_ticks_match(kernel.init_active(hierarchy, world))


class Veto(KernelError):
    """A kernel error raised by user code, which both must pass through."""


def fail(*_args):
    raise RuntimeError("injected failure")


def veto(*_args):
    raise Veto("injected veto")


def mistagged(*_args):
    return (Tagged("nobody's tag", None),)


def probed_once(initial):
    """A selector that answers validate's probe of the empty set, then fails whenever called."""
    probes = []

    def select(task_params):
        if probes:
            raise RuntimeError("selector called")
        probes.append(task_params)
        return initial

    return select


def node_faults(spec):
    """``spec`` with its operators broken in each way this suite breaks them."""
    initial = spec.initial_policy
    yield replace(spec, observation_update=fail)
    yield replace(spec, prediction_update=fail)
    yield replace(spec, observation_update=veto, prediction_update=veto)
    yield replace(spec, policies={name: fail for name in spec.policies})
    yield replace(spec, policy_selector=lambda task_params: "ghost" if task_params else initial)
    yield replace(spec, policy_selector=probed_once(initial))


def edge_faults(edge):
    """``edge`` with one function broken, in each way this suite breaks them."""
    for field in ("sensing_fn", "task_param_fn", "context_fn"):
        for fault in (fail, veto, mistagged):
            yield replace(edge, **{field: fault})


def broken_at(hierarchy, nid):
    """Copies of ``hierarchy``, each with one fault in ``nid``'s operators or edges."""
    nodes, edges = hierarchy.nodes, hierarchy.edges
    for i, spec in enumerate(nodes):
        if spec.node_id == nid:
            for faulty in node_faults(spec):
                yield replace(hierarchy, nodes=(*nodes[:i], faulty, *nodes[i + 1 :]))
    for i, edge in enumerate(edges):
        if nid in (edge.lower, edge.upper):
            for faulty in edge_faults(edge):
                yield replace(hierarchy, edges=(*edges[:i], faulty, *edges[i + 1 :]))


def outcome(tick, ah):
    """The ticked state, or the type, node and edge of the error the tick raised."""
    try:
        return tick(ah), None
    except KernelError as exc:
        return None, (type(exc), getattr(exc, "node", None), getattr(exc, "edge", None))


@given(dag_wirings(), st.data())
def test_an_injected_failure_is_reported_alike(wiring, data):
    nid = data.draw(st.sampled_from(wiring[0]), label="node")
    for hierarchy in broken_at(build(*wiring), nid):
        ah = kernel.init_active(hierarchy, "env")
        found, error = outcome(kernel.process_update, ah)
        expected, reference_error = outcome(reference_state, ah)
        assert error == reference_error
        if error is None:
            assert oracles.active_states_equal(found, expected)
