"""Causal-tree belief propagation and its embedding into a hierarchy.

``bp_propagate`` is the reference engine: one message pass up the tree and
one pass down, after Pearl. ``encode`` turns the same tree into a
:mod:`coghier.kernel` hierarchy whose single-tick behaviour reproduces those
beliefs; ``equivalence_check`` runs both and compares.

Conventions: a processor's conditional matrix ``M`` has rows indexed by
parent values and columns by its own values, with rows summing to one, so
``M @ d`` carries a child-space diagnostic into parent space and ``v @ M``
carries a parent-space context into child space. "No evidence" is the
all-ones external input. Every emitted support vector is renormalised; an
all-zero product means contradictory evidence and is reported as degenerate
rather than divided by zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from . import kernel
from .kernel import (
    CognitiveNodeSpec,
    EdgeTriple,
    Hierarchy,
    KernelError,
    NodeValueSpaces,
    Tagged,
    default_spaces,
    make_world_node_spec,
)


# Largest feature dimension a tree document or a random tree may ask for.
MAX_FEATURE_DIM = 1024
# Random trees grow exponentially in depth; past these limits they are refused.
MAX_RANDOM_DEPTH = 64
MAX_RANDOM_PROCESSORS = 2000
# Total conditional-matrix entries (processors x n^2 float64 values) a random tree may hold.
MAX_RANDOM_MATRIX_ENTRIES = 1 << 24


class DegenerateBeliefError(KernelError):
    """A support product collapsed to the zero vector."""

    def __init__(self, where: str):
        super().__init__(f"contradictory evidence: zero belief product at {where}")
        self.where = where


# ---------------------------------------------------------------------------
# Trees


@dataclass(frozen=True)
class Processor:
    """One tree node: supports, conditional matrix, external evidence.

    ``cond_matrix`` is required for every non-root processor and gives
    P(own value | parent value) with parent values indexing rows. The root
    carries its prior in ``causal``.
    """

    id: str
    feature_dim: int
    parent: str | None = None
    children: tuple[str, ...] = ()
    cond_matrix: np.ndarray | None = None
    causal: np.ndarray | None = None
    external_input: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.feature_dim
        if self.causal is None:
            object.__setattr__(self, "causal", np.full(n, 1.0 / n))
        if self.external_input is None:
            object.__setattr__(self, "external_input", np.ones(n))
        for name in ("causal", "external_input"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.cond_matrix is not None:
            object.__setattr__(self, "cond_matrix", np.asarray(self.cond_matrix, dtype=float))


@dataclass(frozen=True)
class CausalTree:
    processors: Mapping[str, Processor]
    root: str

    def topological_ids(self) -> tuple[str, ...]:
        """Parents before children; ``ValueError`` if a processor is reached twice."""
        order: list[str] = []
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            pid = stack.pop()
            if pid in seen:
                raise ValueError(f"processor {pid!r} reached twice")
            seen.add(pid)
            order.append(pid)
            stack.extend(reversed(self.processors[pid].children))
        return tuple(order)


def tree_violations(tree: CausalTree) -> list[str]:
    """Structural checks; empty list means the tree is usable."""
    bad: list[str] = []
    procs = tree.processors
    if tree.root not in procs:
        return [f"root {tree.root!r} is not a processor"]
    seen: set[str] = set()
    stack = [tree.root]
    while stack:
        pid = stack.pop()
        if pid in seen:
            bad.append(f"cycle: processor {pid!r} reached twice")
            continue
        seen.add(pid)
        p = procs[pid]
        if p.feature_dim < 2:
            bad.append(f"{pid!r}: feature_dim must be at least 2")
        for vec_name, needs_support in (("causal", pid == tree.root), ("external_input", True)):
            vec = getattr(p, vec_name)
            if vec.shape != (p.feature_dim,):
                bad.append(f"{pid!r}: {vec_name} has shape {vec.shape}, expected ({p.feature_dim},)")
            elif (vec < 0).any():
                bad.append(f"{pid!r}: {vec_name} has negative entries")
            elif needs_support and not vec.any():
                bad.append(f"{pid!r}: {vec_name} is all zero, so no value can have support")
        for child in p.children:
            if child not in procs:
                bad.append(f"{pid!r} lists unknown child {child!r}")
                continue
            c = procs[child]
            if c.parent != pid:
                bad.append(f"{child!r}: parent link does not match {pid!r}")
            if c.cond_matrix is None:
                bad.append(f"{child!r}: non-root processor without a conditional matrix")
            else:
                expected = (p.feature_dim, c.feature_dim)
                if c.cond_matrix.shape != expected:
                    bad.append(f"{child!r}: conditional matrix shape {c.cond_matrix.shape}, expected {expected}")
                elif (np.abs(np.add.reduce(c.cond_matrix, axis=1) - 1.0) > 1e-12).any():
                    bad.append(f"{child!r}: conditional matrix rows do not sum to 1")
                elif (c.cond_matrix < 0).any():
                    bad.append(f"{child!r}: conditional matrix has negative entries")
            stack.append(child)
    if procs[tree.root].parent is not None:
        bad.append(f"root {tree.root!r} has a parent link")
    orphans = set(procs) - seen
    for pid in sorted(orphans):
        bad.append(f"processor {pid!r} is not reachable from the root")
    return bad


# ---------------------------------------------------------------------------
# Reference propagation


@dataclass(frozen=True)
class BeliefTable:
    """Per-processor normalised beliefs; degenerate ids have no entry."""

    beliefs: Mapping[str, np.ndarray]
    degenerate: frozenset[str] = frozenset()


def _normalize(vec: np.ndarray) -> np.ndarray | None:
    total = float(np.add.reduce(vec, axis=None))  # what vec.sum() reduces, minus its Python wrapper
    if total <= 0.0:
        return None
    return vec / total


def bp_propagate(tree: CausalTree) -> BeliefTable:
    """Exact single-pass message propagation over the tree.

    Upward: each processor's total diagnostic is its external input times
    the matrix-mapped diagnostics of its children. Downward: each child
    receives the product of its parent's external input, sibling messages
    and causal support, carried through its own conditional matrix. Belief
    is the normalised product of total diagnostic and causal support.
    """
    procs = tree.processors
    order = tree.topological_ids()

    up_msg: dict[str, np.ndarray] = {}
    lam: dict[str, np.ndarray] = {}
    for pid in reversed(order):
        p = procs[pid]
        total = p.external_input.copy()
        for child in p.children:
            total = total * up_msg[child]
        lam[pid] = total
        if p.parent is not None:
            msg = procs[pid].cond_matrix @ total
            normed = _normalize(msg)
            up_msg[pid] = msg if normed is None else normed

    causal_in: dict[str, np.ndarray] = {}
    root_prior = _normalize(procs[tree.root].causal)
    causal_in[tree.root] = (
        procs[tree.root].causal if root_prior is None else root_prior
    )
    for pid in order:
        p = procs[pid]
        for child in p.children:
            others = p.external_input * causal_in[pid]
            for sibling in p.children:
                if sibling != child:
                    others = others * up_msg[sibling]
            msg = others @ procs[child].cond_matrix
            normed = _normalize(msg)
            causal_in[child] = msg if normed is None else normed

    beliefs: dict[str, np.ndarray] = {}
    degenerate: set[str] = set()
    for pid in order:
        bel = _normalize(lam[pid] * causal_in[pid])
        if bel is None:
            degenerate.add(pid)
        else:
            beliefs[pid] = bel
    return BeliefTable(beliefs, frozenset(degenerate))


# ---------------------------------------------------------------------------
# Embedding into a hierarchy


def node_belief(belief_state: tuple) -> np.ndarray:
    """Normalised product of the causal support and all diagnostic slots."""
    slots, causal = belief_state
    total = np.array(causal, dtype=float)
    for slot in slots:
        total = total * np.asarray(slot, dtype=float)
    normed = _normalize(total)
    if normed is None:
        raise DegenerateBeliefError("belief state")
    return normed


def encode(tree: CausalTree, world_id: str = "N0") -> Hierarchy:
    """Build the hierarchy whose process update mirrors tree propagation.

    Each processor with m children becomes a node whose belief is a pair of
    (m + 1 diagnostic slots, causal support); slot 0 holds the externally
    sensed evidence and slot k the k-th child's upward message. Each sensing
    edge emits one ``(slot, vector)`` pair, which the observation update
    writes into that slot; exactly one pair arrives per slot per tick. The
    world state is a mapping from processor id to its external input vector.
    """
    if tree_violations(tree):
        raise ValueError("cannot encode an ill-formed tree")
    procs = tree.processors
    order = tree.topological_ids()
    spaces = {pid: default_spaces(pid) for pid in order}
    nodes: list[CognitiveNodeSpec] = [make_world_node_spec(world_id)]
    edges: list[EdgeTriple] = []

    for pid in order:
        p, obs_tag = procs[pid], spaces[pid].observation_space
        nodes.append(_processor_node(p, len(p.children), spaces[pid]))
        edges.append(EdgeTriple(world_id, pid, _external_sensing_fn(p, obs_tag)))
        for k, child_id in enumerate(p.children, start=1):
            child = procs[child_id]
            edges.append(
                EdgeTriple(
                    lower=child_id,
                    upper=pid,
                    sensing_fn=_child_sensing_fn(obs_tag, k, child),
                    context_fn=_context_fn(spaces[child_id].context_space, k, child),
                )
            )
    return Hierarchy(nodes=tuple(nodes), world_node=world_id, edges=tuple(edges))


def _processor_node(p: Processor, m: int, spaces: NodeValueSpaces) -> CognitiveNodeSpec:
    def observation_update(observations: tuple, belief: tuple) -> tuple:
        slots, causal = belief
        slots = list(slots)
        for k, vec in observations:
            slots[k] = vec
        return tuple(slots), causal

    def prediction_update(contexts: tuple, actions: tuple, belief: tuple) -> tuple:
        del actions
        if not contexts:
            return belief
        if len(contexts) != 1:
            raise ValueError(f"expected a single context value, got {len(contexts)}")
        return belief[0], contexts[0]

    # Every slot is written by the first sensing sweep, so its starting value never shows.
    initial = ((np.full(p.feature_dim, 1.0 / p.feature_dim),) * (m + 1), p.causal.copy())
    return CognitiveNodeSpec(
        node_id=p.id,
        spaces=spaces,
        policies={"idle": lambda _belief: ()},
        policy_selector=lambda _task_params: "idle",
        observation_update=observation_update,
        prediction_update=prediction_update,
        initial_belief=initial,
        initial_policy="idle",
    )


def _external_sensing_fn(p: Processor, obs_tag: str):
    def sensing(world_state: Mapping[str, np.ndarray]) -> tuple[Tagged, ...]:
        vec = _normalize(np.asarray(world_state[p.id], dtype=float))
        if vec is None:
            raise DegenerateBeliefError(f"external input of {p.id!r}")
        return (Tagged(obs_tag, (0, vec)),)

    return sensing


def _child_sensing_fn(obs_tag: str, k: int, child: Processor):
    matrix = child.cond_matrix

    def sensing(belief: tuple) -> tuple[Tagged, ...]:
        slots, _causal = belief
        prod = slots[0].copy()
        for slot in slots[1:]:
            prod = prod * slot
        msg = _normalize(matrix @ prod)
        if msg is None:
            raise DegenerateBeliefError(f"upward message from {child.id!r}")
        return (Tagged(obs_tag, (k, msg)),)

    return sensing


def _context_fn(ctx_tag: str, k: int, child: Processor):
    matrix = child.cond_matrix

    def context(belief: tuple) -> tuple[Tagged, ...]:
        slots, causal = belief
        prod = causal.copy()
        for i, slot in enumerate(slots):
            if i != k:
                prod = prod * slot
        msg = _normalize(prod @ matrix)
        if msg is None:
            raise DegenerateBeliefError(f"context for {child.id!r}")
        return (Tagged(ctx_tag, msg),)

    return context


def initial_world_state(tree: CausalTree) -> dict[str, np.ndarray]:
    return {pid: p.external_input.copy() for pid, p in tree.processors.items()}


# ---------------------------------------------------------------------------
# Equivalence harness


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool = False
    max_deviation: float = math.inf
    ticks: int = 0
    converged: bool = False
    tolerance: float = 1e-9
    degenerate: tuple[str, ...] = ()
    detail: str = ""


def _unmoved(before: list, after: list) -> bool:
    """Same vector shapes, and every entry within 1e-12 as ``np.allclose(rtol=0)`` has it."""
    a, b = np.concatenate(before, axis=None), np.concatenate(after, axis=None)
    with np.errstate(invalid="ignore"):  # inf - inf
        same_shapes = list(map(np.shape, before)) == list(map(np.shape, after))
        return same_shapes and bool(((np.abs(a - b) <= 1e-12) & np.isfinite(b) | (a == b)).all())


def equivalence_check(tree: CausalTree, tolerance: float = 1e-9) -> EquivalenceReport:
    """Propagate both ways and compare per-node beliefs after exactly two ticks.

    Pearl's two passes are one tick, so the second tick must leave every slot
    and causal vector within 1e-12 of where the first put it, or the check
    fails with no fixpoint after 2 ticks and no deviation measured (``inf``).
    The reference beliefs come from :func:`bp_propagate`.
    """
    oracle = bp_propagate(tree)
    if oracle.degenerate:
        return EquivalenceReport(
            tolerance=tolerance,
            degenerate=tuple(sorted(oracle.degenerate)),
            detail="reference propagation hit contradictory evidence",
        )

    ah = kernel.init_active(encode(tree), initial_world_state(tree))
    vectors = []
    try:
        for ticks in (1, 2):
            ah = kernel.process_update(ah)
            beliefs = [ah.node(pid).belief for pid in tree.processors]
            vectors.append([vec for slots, causal in beliefs for vec in (*slots, causal)])
        if not _unmoved(*vectors):  # an unsettled state has no deviation worth measuring
            return EquivalenceReport(ticks=2, tolerance=tolerance, detail="no fixpoint after 2 ticks")
        deviation = 0.0
        for pid in tree.processors:
            bel = node_belief(ah.node(pid).belief)
            deviation = max(deviation, float(np.max(np.abs(bel - oracle.beliefs[pid]))))
    except DegenerateBeliefError as exc:
        return EquivalenceReport(
            ticks=ticks, tolerance=tolerance, degenerate=(str(exc.where),), detail=str(exc)
        )
    return EquivalenceReport(deviation < tolerance, deviation, 2, True, tolerance)


# ---------------------------------------------------------------------------
# Fixtures and generators


def thecat_tree() -> CausalTree:
    """Two-layer word/letter disambiguation fixture.

    A word recogniser with equal prior over the two candidate words sits
    above three letter recognisers. The outer letters are read unambiguously
    while the middle sensor cannot tell its two candidates apart; identity
    conditional matrices tie letter positions to words.
    """
    eye = np.eye(2)
    procs = {
        "N4": Processor(
            id="N4",
            feature_dim=2,
            children=("N1", "N2", "N3"),
            causal=np.array([0.5, 0.5]),
        ),
        "N1": Processor(
            id="N1", feature_dim=2, parent="N4", cond_matrix=eye,
            external_input=np.array([0.0, 1.0]),
        ),
        "N2": Processor(
            id="N2", feature_dim=2, parent="N4", cond_matrix=eye,
            external_input=np.array([0.5, 0.5]),
        ),
        "N3": Processor(
            id="N3", feature_dim=2, parent="N4", cond_matrix=eye,
            external_input=np.array([0.0, 1.0]),
        ),
    }
    return CausalTree(processors=procs, root="N4")


def random_tree(
    rng: np.random.Generator,
    max_depth: int = 4,
    max_branching: int = 3,
    dims: tuple[int, int] = (2, 5),
) -> CausalTree:
    """Seeded random tree with strictly positive evidence and priors."""
    if not 2 <= dims[0] <= dims[1] <= MAX_FEATURE_DIM:
        raise ValueError(f"dims {dims} must satisfy 2 <= low <= high <= {MAX_FEATURE_DIM}")
    if max_branching < 0:
        raise ValueError(f"max_branching must be non-negative, not {max_branching}")
    if max_depth > MAX_RANDOM_DEPTH:
        raise ValueError(f"max_depth must be at most {MAX_RANDOM_DEPTH}, not {max_depth}")
    n = int(rng.integers(dims[0], dims[1] + 1))

    def rand_vec() -> np.ndarray:
        return rng.uniform(0.05, 1.0, n)

    def rand_matrix() -> np.ndarray:
        m = rng.uniform(0.05, 1.0, (n, n))
        return m / m.sum(axis=1, keepdims=True)

    procs: dict[str, Processor] = {}
    counter = 0

    def build(parent: str | None, depth: int) -> str:
        nonlocal counter
        if counter == MAX_RANDOM_PROCESSORS:
            raise ValueError(f"random tree would grow past {MAX_RANDOM_PROCESSORS} processors")
        if (counter + 1) * n * n > MAX_RANDOM_MATRIX_ENTRIES:
            raise ValueError(
                f"random tree matrices would hold more than {MAX_RANDOM_MATRIX_ENTRIES} entries"
            )
        pid = f"P{counter}"
        counter += 1
        n_children = int(rng.integers(0, max_branching + 1)) if depth < max_depth else 0
        matrix = None if parent is None else rand_matrix()
        causal = rand_vec() if parent is None else None
        external_input = rand_vec()
        procs[pid] = None  # holds the parent's place ahead of its children
        children = tuple(build(pid, depth + 1) for _ in range(n_children))
        procs[pid] = Processor(pid, n, parent, children, matrix, causal, external_input)
        return pid

    root = build(None, 0)
    return CausalTree(processors=procs, root=root)


# ---------------------------------------------------------------------------
# Document format


def tree_to_document(tree: CausalTree) -> dict:
    """JSON-ready description: one record per processor, row-major matrix."""
    records = []
    for pid in tree.topological_ids():
        p = tree.processors[pid]
        rec: dict = {
            "id": p.id,
            "n": p.feature_dim,
            "parent": p.parent,
            "external_input": [float(x) for x in p.external_input],
        }
        if p.parent is None:
            rec["prior"] = [float(x) for x in p.causal]
        else:
            rec["matrix"] = [float(x) for x in p.cond_matrix.reshape(-1)]
        records.append(rec)
    return {"processors": records}


def tree_from_document(doc: Any) -> CausalTree:
    """Tree of a parsed document; ``ValueError`` if a record is malformed.

    A matrix has one row per value of the parent and one column per value
    of its own processor, so parent and child may differ in dimension.
    """
    records = doc.get("processors") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not records:
        raise ValueError("document must contain a non-empty 'processors' list")
    dims: dict[str, int] = {}
    children: dict[str, list[str]] = {}
    roots = []
    for rec in records:
        if not isinstance(rec, dict) or "id" not in rec or "n" not in rec:
            raise ValueError(f"bad processor record (needs 'id' and 'n'): {rec!r}")
        if not isinstance(rec["id"], str) or not isinstance(rec.get("parent"), (str, type(None))):
            raise ValueError(f"processor 'id' and 'parent' must be strings: {rec!r}")
        if rec["id"] in dims:
            raise ValueError(f"duplicate processor id {rec['id']!r}")
        n = rec["n"]
        if type(n) is not int or not 1 <= n <= MAX_FEATURE_DIM:
            raise ValueError(
                f"processor {rec['id']!r}: 'n' must be an integer in [1, {MAX_FEATURE_DIM}]"
            )
        dims[rec["id"]] = n
        if rec.get("parent") is None:
            roots.append(rec["id"])
        else:
            children.setdefault(rec["parent"], []).append(rec["id"])
    if len(roots) != 1:
        raise ValueError(f"document must have exactly one root processor, found {len(roots)}")

    procs: dict[str, Processor] = {}
    for rec in records:
        pid, n, parent = rec["id"], rec["n"], rec.get("parent")
        matrix = None
        if parent is not None:
            flat = _numbers(rec, "matrix")
            if flat is None:
                raise ValueError(f"processor {pid!r} needs a conditional matrix")
            if parent not in dims:
                raise ValueError(f"processor {pid!r} names an unknown parent {parent!r}")
            matrix = flat.reshape(dims[parent], n)
        procs[pid] = Processor(
            id=pid,
            feature_dim=n,
            parent=parent,
            children=tuple(children.get(pid, ())),
            cond_matrix=matrix,
            causal=_numbers(rec, "prior") if parent is None else None,
            external_input=_numbers(rec, "external_input"),
        )
    return CausalTree(processors=procs, root=roots[0])


def _numbers(rec: dict, field: str) -> np.ndarray | None:
    """A record's list of finite numbers as a vector; None if the field is absent or null."""
    value = rec.get(field)
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        type(x) in (int, float) and abs(x) <= sys.float_info.max for x in value
    ):
        raise ValueError(f"processor {rec['id']!r}: {field!r} must be a list of finite numbers")
    return np.asarray(value, dtype=float)
