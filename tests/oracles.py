"""Reference implementations that the tests compare the engine against.

None of these is called by the package, the CLI or the benchmark. They
live with the tests so that each stays independent of the code it checks.
"""

from itertools import product
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from coghier.bp import BeliefTable, CausalTree
from coghier.kernel import (
    ActiveHierarchy,
    ActiveNode,
    Hierarchy,
    KernelError,
    OperatorError,
    Tagged,
    TagMismatchError,
)


def all_topological_orders(
    ids: Iterable[str], preceded: Mapping[str, set[str]]
) -> Iterator[tuple[str, ...]]:
    """Yield every linearisation of the partial order (small graphs only)."""
    ids = set(ids)
    preceded = {nid: set(preceded.get(nid, ())) & ids for nid in ids}

    def rec(done: tuple[str, ...], left: set[str]) -> Iterator[tuple[str, ...]]:
        if not left:
            yield done
            return
        for nid in sorted(left):
            if preceded[nid] <= set(done):
                yield from rec(done + (nid,), left - {nid})

    yield from rec((), ids)


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


def _gather(fn, arg, tag: str, node: str, edge: tuple[str, str]) -> list:
    """The values an edge function emits for ``node``, each checked against ``tag``."""
    values = []
    try:
        for item in fn(arg):
            if not isinstance(item, Tagged) or item.tag != tag:
                raise TagMismatchError(f"edge emitted {item!r}, node expects {tag!r}", node, edge)
            values.append(item.value)
    except KernelError:
        raise
    except Exception as exc:
        raise OperatorError(f"edge failed: {exc}", node, edge) from exc
    return values


def _operate(fn, node: str, *args):
    """``fn(*args)``, a failure blamed on ``node`` alone."""
    try:
        return fn(*args)
    except KernelError:
        raise
    except Exception as exc:
        raise OperatorError(f"operator failed: {exc}", node) from exc


def reference_tick(
    hierarchy: Hierarchy, active: Mapping[str, ActiveNode], world_state: Any
) -> tuple[dict[str, ActiveNode], Any]:
    """One tick of the process model, transcribed from its definition.

    A sensing sweep, then a prediction sweep, each walking
    ``hierarchy.edges`` afresh. Observations are gathered by lower id, and
    task parameters and context by upper id. The sensing order is the
    level-sorted Kahn order of the non-world nodes; prediction runs it
    reversed, with the world last. A node with no uppers keeps its policy.
    A failure is an ``OperatorError`` naming the node being updated and, for
    an edge, its (lower, upper) pair; a ``KernelError`` from user code passes
    through. Shares nothing with the kernel but its data classes and errors.
    Returns the new node states and world state; ``active`` is not changed.
    """
    world, edges, active = hierarchy.world_node, hierarchy.edges, dict(active)
    lowers = {
        nid: {e.lower for e in edges if e.upper == nid and e.lower != world}
        for nid in hierarchy.node_ids
        if nid != world
    }
    order = reference_topological_order(lowers, lowers)

    for nid in order:
        spec, observations = hierarchy.node(nid), []
        for edge in sorted((e for e in edges if e.upper == nid), key=lambda e: e.lower):
            source = world_state if edge.lower == world else active[edge.lower].belief
            tag, pair = spec.spaces.observation_space, (edge.lower, nid)
            observations += _gather(edge.sensing_fn, source, tag, nid, pair)
        node = active[nid]
        belief = _operate(spec.observation_update, nid, tuple(observations), node.belief)
        active[nid] = ActiveNode(belief, node.policy, node.actions)

    for nid in (*reversed(order), world):
        spec, task_params, contexts = hierarchy.node(nid), [], []
        above = sorted((e for e in edges if e.lower == nid), key=lambda e: e.upper)
        for edge in above:
            upper, pair = active[edge.upper], (nid, edge.upper)
            task_tag, context_tag = spec.spaces.task_param_space, spec.spaces.context_space
            task_params += _gather(edge.task_param_fn, upper.actions, task_tag, nid, pair)
            contexts += _gather(edge.context_fn, upper.belief, context_tag, nid, pair)
        if nid == world:
            args = (tuple(contexts), tuple(task_params), world_state)
            world_state = _operate(spec.prediction_update, nid, *args)
            continue
        node = active[nid]
        policy = node.policy
        if above:
            policy = _operate(spec.policy_selector, nid, tuple(task_params))
            if policy not in spec.policies:
                raise OperatorError(f"selector chose unknown policy {policy!r}", nid)
        actions = _operate(lambda belief: tuple(spec.policies[policy](belief)), nid, node.belief)
        belief = _operate(spec.prediction_update, nid, tuple(contexts), actions, node.belief)
        active[nid] = ActiveNode(belief, policy, actions)
    return active, world_state


def reference_normalize(vec: np.ndarray) -> np.ndarray | None:
    """``vec`` over its total by numpy's pairwise sum; ``None`` when that total is not positive."""
    total = float(np.add.reduce(vec, axis=None))
    if total <= 0.0:
        return None
    return vec / total


def payloads_equal(a: Any, b: Any) -> bool:
    """Exact structural equality over nested tuples, arrays and scalars.

    An object equals itself, so states that share earlier payloads compare
    in time proportional to what differs between them.
    """
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        return a_arr.shape == b_arr.shape and bool(np.array_equal(a_arr, b_arr))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(payloads_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(payloads_equal(a[k], b[k]) for k in a)
    return bool(a == b)


def active_states_equal(a: ActiveHierarchy, b: ActiveHierarchy) -> bool:
    """Bit-identical comparison of two runtime states (world state included)."""
    if a.active.keys() != b.active.keys():
        return False
    for nid, x in a.active.items():
        y = b.active[nid]
        if x.policy != y.policy or not payloads_equal((x.actions, x.belief), (y.actions, y.belief)):
            return False
    return payloads_equal(a.world_state, b.world_state)


def enumerate_joint_beliefs(tree: CausalTree) -> BeliefTable:
    """Brute-force marginals from the explicit joint distribution.

    Sums prior(root) * prod P(child | parent) * prod evidence over every
    assignment of values to processors. Exponential; for small trees only.
    A marginal with no positive mass is reported as degenerate.
    """
    procs = tree.processors
    order = tree.topological_ids()
    dims = [procs[pid].feature_dim for pid in order]
    index = {pid: i for i, pid in enumerate(order)}
    root_prior = procs[tree.root].causal / procs[tree.root].causal.sum()

    marginals = [np.zeros(d) for d in dims]
    for assignment in product(*(range(d) for d in dims)):
        weight = root_prior[assignment[index[tree.root]]]
        for pid in order:
            p = procs[pid]
            weight *= p.external_input[assignment[index[pid]]]
            if p.parent is not None:
                weight *= p.cond_matrix[assignment[index[p.parent]], assignment[index[pid]]]
        for i, val in enumerate(assignment):
            marginals[i][val] += weight

    beliefs: dict[str, np.ndarray] = {}
    degenerate: set[str] = set()
    for pid, marg in zip(order, marginals):
        total = float(marg.sum())
        if total <= 0.0:
            degenerate.add(pid)
        else:
            beliefs[pid] = marg / total
    return BeliefTable(beliefs, frozenset(degenerate))


def beliefs_to_document(table: BeliefTable) -> dict:
    """A belief table as JSON-ready lists, degenerate processors listed apart."""
    doc = {pid: [float(x) for x in vec] for pid, vec in sorted(table.beliefs.items())}
    if table.degenerate:
        doc["_degenerate"] = sorted(table.degenerate)
    return doc
