"""Reference implementations that the tests compare the engine against.

None of these is called by the package, the CLI or the benchmark. They
live with the tests so that each stays independent of the code it checks.
"""

from itertools import product
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from coghier.bp import BeliefTable, CausalTree
from coghier.kernel import ActiveHierarchy


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


def payloads_equal(a: Any, b: Any) -> bool:
    """Exact structural equality over nested tuples, arrays and scalars."""
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
