"""Causal-tree belief propagation and its embedding into a hierarchy.

``bp_propagate`` is the reference engine: one message pass up the tree and
one pass down, after Pearl. ``encode`` turns the same tree into a
:mod:`coghier.kernel` hierarchy whose single-tick behaviour reproduces those
beliefs; ``equivalence_check`` runs both and compares. Each of them, and
:func:`coghier.documents.tree_to_document`, reads a tree only through
:attr:`CausalTree.checked_ids`, so an ill-formed tree is refused with one
``ValueError``, checked once per tree.

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
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Mapping

import numpy as np

from . import kernel
from .kernel import (
    CognitiveNodeSpec,
    EdgeTriple,
    Hierarchy,
    KernelError,
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
WORLD_ID = "N0"  # the world node of every encoded hierarchy


class DegenerateBeliefError(KernelError):
    """A support product collapsed to the zero vector."""

    def __init__(self, where: str):
        super().__init__(f"contradictory evidence: zero belief product at {where}")
        self.where = where


# ---------------------------------------------------------------------------
# Trees


@dataclass(frozen=True)
class Processor:
    """One tree node, keyed by its id in a tree: supports, conditional matrix, external evidence.

    ``cond_matrix`` is required for every non-root processor and gives
    P(own value | parent value) with parent values indexing rows. Only the
    root carries ``causal``, its prior (uniform when omitted).
    """

    feature_dim: int
    parent: str | None = None
    cond_matrix: np.ndarray | None = None
    causal: np.ndarray | None = None
    external_input: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.feature_dim
        if self.causal is None and self.parent is None:
            object.__setattr__(self, "causal", np.full(n, 1.0 / n))
        if self.external_input is None:
            object.__setattr__(self, "external_input", np.ones(n))
        for name in ("causal", "external_input", "cond_matrix"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))


@dataclass(frozen=True)
class CausalTree:
    """Processors keyed by id; each one's ``parent`` link is the tree's only shape."""

    processors: Mapping[str, Processor]

    @cached_property
    def root(self) -> str | None:
        """The first processor with no parent link; ``None`` when every processor has one."""
        return next((pid for pid, p in self.processors.items() if p.parent is None), None)

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        """Each processor's children: the processors whose parent names it, in order."""
        kids: dict[str, list[str]] = {pid: [] for pid in self.processors}
        for pid, p in self.processors.items():
            if p.parent in kids:
                kids[p.parent].append(pid)
        return {pid: tuple(ids) for pid, ids in kids.items()}

    @cached_property
    def checked_ids(self) -> tuple[str, ...]:
        """:meth:`topological_ids` once :func:`tree_violations` passes; else ``ValueError``."""
        if bad := tree_violations(self):
            raise ValueError("; ".join(bad))
        return self.topological_ids()

    def topological_ids(self) -> tuple[str, ...]:
        """The processors reachable from the root, depth first, parents before children.

        Each processor has at most one parent and the root has none, so the
        walk meets no processor twice: one whose parent chain misses the root
        (a dangling or cyclic link) is simply not visited. A tree with no
        root walks nothing.
        """
        order: list[str] = []
        stack = [] if self.root is None else [self.root]
        while stack:
            pid = stack.pop()
            order.append(pid)
            stack.extend(reversed(self.children[pid]))
        return tuple(order)


def tree_violations(tree: CausalTree) -> list[str]:
    """Structural checks; empty list means the tree is usable.

    A tree needs a processor with no parent link. Processors are checked in
    :meth:`CausalTree.topological_ids` order, each one's matrix against its
    parent's dimension; then every processor the walk did not reach is
    reported, a second parentless one among them.
    """
    procs = tree.processors
    if tree.root is None:
        return ["the tree has no root: every processor has a parent link"]
    bad: list[str] = []
    if WORLD_ID in procs:
        bad.append(f"processor id {WORLD_ID!r} is reserved for the world node")
    order = tree.topological_ids()
    with np.errstate(over="ignore", invalid="ignore"):  # a row of 1e308s or of inf and -inf
        for pid in order:
            p = procs[pid]
            if p.feature_dim < 2:
                bad.append(f"{pid!r}: feature_dim must be at least 2")
            vectors = ("causal", "external_input") if pid == tree.root else ("external_input",)
            for vec_name in vectors:
                vec = getattr(p, vec_name)
                if vec.shape != (p.feature_dim,):
                    bad.append(
                        f"{pid!r}: {vec_name} has shape {vec.shape}, expected ({p.feature_dim},)"
                    )
                elif (vec < 0).any():
                    bad.append(f"{pid!r}: {vec_name} has negative entries")
                elif not math.isfinite(total := sum(vec.tolist())):  # inf on overflow
                    bad.append(f"{pid!r}: {vec_name} sums to {total}, which is not finite")
                elif not total:
                    bad.append(f"{pid!r}: {vec_name} is all zero, so no value can have support")
            if pid == tree.root:
                continue
            if p.causal is not None:
                bad.append(f"{pid!r}: a non-root processor cannot carry 'causal'")
            matrix, expected = p.cond_matrix, (procs[p.parent].feature_dim, p.feature_dim)
            if matrix is None:
                bad.append(f"{pid!r}: non-root processor without a conditional matrix")
            elif matrix.shape != expected:
                bad.append(f"{pid!r}: conditional matrix shape {matrix.shape}, expected {expected}")
            elif not (np.abs(np.add.reduce(matrix, axis=1) - 1.0) <= 1e-12).all():  # NaN fails too
                bad.append(f"{pid!r}: conditional matrix rows do not sum to 1")
            elif (matrix < 0).any():
                bad.append(f"{pid!r}: conditional matrix has negative entries")
    for pid in sorted(set(procs) - set(order)):
        bad.append(f"processor {pid!r} is not reachable from the root")
    return bad


# ---------------------------------------------------------------------------
# Reference propagation


@dataclass(frozen=True)
class BeliefTable:
    """Per-processor normalised beliefs; degenerate ids have no entry."""

    beliefs: Mapping[str, np.ndarray]
    degenerate: frozenset[str] = frozenset()


@cache
def _ones(n: int) -> np.ndarray:
    """A read-only vector of n ones, built once per length.

    All :data:`MAX_FEATURE_DIM` lengths a document or random tree may have take about 4 MiB.
    """
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _normalize(vec: np.ndarray) -> np.ndarray | None:
    # One BLAS dot: on vectors of a few entries numpy's reduction machinery costs more than the sum.
    total = float(vec.dot(_ones(vec.shape[0])))
    if total <= 0.0:
        return None
    return vec / total


def _normalized(vec: np.ndarray, where: str, *ids: str) -> np.ndarray:
    """``vec`` scaled to sum 1; a zero sum raises at ``where.format(*ids)``, formatted only then."""
    normed = _normalize(vec)
    if normed is None:
        raise DegenerateBeliefError(where.format(*ids))
    return normed


def bp_propagate(tree: CausalTree) -> BeliefTable:
    """Exact single-pass message propagation over the tree.

    Upward: each processor's total diagnostic is its external input times
    the matrix-mapped diagnostics of its children. Downward: each child
    receives the product of its parent's external input, sibling messages
    and causal support, carried through its own conditional matrix. Belief
    is the normalised product of total diagnostic and causal support. Each
    external input is normalised once, as the embedding's sensing edges do,
    so subnormal evidence does not underflow to a zero product. An
    ill-formed tree raises ``ValueError``, as in :func:`encode`.
    """
    order = tree.checked_ids
    procs, children = tree.processors, tree.children

    def unit(vec: np.ndarray) -> np.ndarray:
        normed = _normalize(vec)
        return vec if normed is None else normed

    evidence = {pid: unit(procs[pid].external_input) for pid in order}
    up_msg: dict[str, np.ndarray] = {}
    lam: dict[str, np.ndarray] = {}
    for pid in reversed(order):
        total = evidence[pid]
        for child in children[pid]:
            total = total * up_msg[child]
        lam[pid] = total
        if pid != tree.root:
            up_msg[pid] = unit(procs[pid].cond_matrix.dot(total))

    causal_in = {tree.root: unit(procs[tree.root].causal)}
    for pid in order:
        for child in children[pid]:
            others = evidence[pid] * causal_in[pid]
            for sibling in children[pid]:
                if sibling != child:
                    others = others * up_msg[sibling]
            causal_in[child] = unit(others.dot(procs[child].cond_matrix))

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
    total = np.asarray(causal, dtype=float)
    for slot in slots:
        total = total * np.asarray(slot, dtype=float)
    return _normalized(total, "belief state")


def encode(tree: CausalTree) -> Hierarchy:
    """Build the hierarchy whose process update mirrors tree propagation.

    Each processor with m children becomes a node whose belief is a pair of
    (m + 1 diagnostic slots, causal support); slot 0 holds the externally
    sensed evidence and slot k the k-th child's upward message. Each sensing
    edge emits one ``(slot, vector)`` pair, which the observation update
    writes into that slot; exactly one pair arrives per slot per tick. The
    world node :data:`WORLD_ID` holds each processor's external input vector.
    An ill-formed tree raises ``ValueError``: its violations joined by "; ".
    """
    tree.checked_ids  # refuses an ill-formed tree, once per tree
    procs = tree.processors
    spaces = {pid: default_spaces(pid) for pid in procs}
    nodes: list[CognitiveNodeSpec] = [make_world_node_spec(WORLD_ID)]
    edges: list[EdgeTriple] = []

    for pid, p in procs.items():
        obs_tag, kids = spaces[pid].observation_space, tree.children[pid]
        # Slots and a non-root's causal support start as the no-evidence message, which
        # node-level updates read on a fresh state.
        uniform = np.full(p.feature_dim, 1.0 / p.feature_dim)
        slots = (uniform,) * (len(kids) + 1)
        nodes.append(
            CognitiveNodeSpec(
                node_id=pid,
                spaces=spaces[pid],
                observation_update=_write_slots,
                prediction_update=_take_context,
                initial_belief=(slots, (uniform if p.causal is None else p.causal).copy()),
            )
        )
        edges.append(EdgeTriple(WORLD_ID, pid, partial(_evidence, obs_tag, pid)))
        for k, cid in enumerate(kids, start=1):
            matrix, ctx_tag = procs[cid].cond_matrix, spaces[cid].context_space
            edges.append(
                EdgeTriple(
                    lower=cid,
                    upper=pid,
                    sensing_fn=partial(_upward, obs_tag, k, matrix, cid),
                    context_fn=partial(_context, ctx_tag, k, matrix, cid),
                )
            )
    return Hierarchy(nodes=tuple(nodes), world_node=WORLD_ID, edges=tuple(edges))


def _write_slots(observations: tuple, belief: tuple) -> tuple:
    slots, causal = belief
    slots = list(slots)
    for k, vec in observations:
        slots[k] = vec
    return tuple(slots), causal


def _take_context(contexts: tuple, actions: tuple, belief: tuple) -> tuple:
    del actions
    if not contexts:
        return belief
    if len(contexts) != 1:
        raise ValueError(f"expected a single context value, got {len(contexts)}")
    return belief[0], contexts[0]


# The three edge messages; ``encode`` binds every argument but the last to each edge.


def _evidence(tag: str, pid: str, world_state: Mapping[str, np.ndarray]) -> tuple[Tagged, ...]:
    """Slot 0 of ``pid``: its external input, read from the world state."""
    vec = np.asarray(world_state[pid], dtype=float)
    return (Tagged(tag, (0, _normalized(vec, "external input of {!r}", pid))),)


def _upward(tag: str, k: int, matrix: np.ndarray, cid: str, belief: tuple) -> tuple[Tagged, ...]:
    """Slot k of the parent: child ``cid``'s diagnostic product carried through its matrix."""
    slots, _causal = belief
    prod = slots[0]
    for slot in slots[1:]:
        prod = prod * slot
    msg = _normalized(matrix.dot(prod), "upward message from {!r}", cid)
    return (Tagged(tag, (k, msg)),)


def _context(tag: str, k: int, matrix: np.ndarray, cid: str, belief: tuple) -> tuple[Tagged, ...]:
    """Child ``cid``'s causal support: the parent's product without slot k, through its matrix."""
    slots, causal = belief
    prod = causal
    for i, slot in enumerate(slots):
        if i != k:
            prod = prod * slot
    msg = _normalized(prod.dot(matrix), "context for {!r}", cid)
    return (Tagged(tag, msg),)


def initial_world_state(tree: CausalTree) -> dict[str, np.ndarray]:
    return {pid: p.external_input.copy() for pid, p in tree.processors.items()}


# ---------------------------------------------------------------------------
# Equivalence harness


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool = False
    max_deviation: float = math.inf
    ticks: int = 0
    degenerate: tuple[str, ...] = ()
    detail: str = ""
    reference: Mapping[str, np.ndarray] = field(default_factory=dict)  # bp_propagate's beliefs


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
    The reference beliefs come from :func:`bp_propagate`, and every report
    carries them as ``reference``. An ill-formed tree raises ``ValueError``
    from :func:`encode` before either side walks it.
    """
    hierarchy = encode(tree)
    oracle = bp_propagate(tree)
    report = partial(EquivalenceReport, reference=oracle.beliefs)
    if oracle.degenerate:
        return report(
            degenerate=tuple(sorted(oracle.degenerate)),
            detail="reference propagation hit contradictory evidence",
        )

    ah = kernel.init_active(hierarchy, initial_world_state(tree))
    vectors = []
    try:
        for ticks in (1, 2):
            ah = kernel.process_update(ah)
            beliefs = [ah.node(pid).belief for pid in tree.processors]
            vectors.append([vec for slots, causal in beliefs for vec in (*slots, causal)])
        if not _unmoved(*vectors):  # an unsettled state has no deviation worth measuring
            return report(ticks=2, detail="no fixpoint after 2 ticks")
        deviation = 0.0
        for pid in tree.processors:
            bel = node_belief(ah.node(pid).belief)
            deviation = max(deviation, float(np.max(np.abs(bel - oracle.beliefs[pid]))))
    except DegenerateBeliefError as exc:
        return report(ticks=ticks, degenerate=(str(exc.where),), detail=str(exc))
    return report(passed=deviation < tolerance, max_deviation=deviation, ticks=2)


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
        "N4": Processor(feature_dim=2, causal=np.array([0.5, 0.5])),
        "N1": Processor(
            feature_dim=2, parent="N4", cond_matrix=eye,
            external_input=np.array([0.0, 1.0]),
        ),
        "N2": Processor(
            feature_dim=2, parent="N4", cond_matrix=eye,
            external_input=np.array([0.5, 0.5]),
        ),
        "N3": Processor(
            feature_dim=2, parent="N4", cond_matrix=eye,
            external_input=np.array([0.0, 1.0]),
        ),
    }
    return CausalTree(processors=procs)


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

    def build(parent: str | None, depth: int) -> None:
        if len(procs) == MAX_RANDOM_PROCESSORS:
            raise ValueError(f"random tree would grow past {MAX_RANDOM_PROCESSORS} processors")
        if (len(procs) + 1) * n * n > MAX_RANDOM_MATRIX_ENTRIES:
            raise ValueError(
                f"random tree matrices would hold more than {MAX_RANDOM_MATRIX_ENTRIES} entries"
            )
        pid = f"P{len(procs)}"
        n_children = int(rng.integers(0, max_branching + 1)) if depth < max_depth else 0
        matrix = None if parent is None else rand_matrix()
        causal = rand_vec() if parent is None else None
        procs[pid] = Processor(n, parent, matrix, causal, rand_vec())
        for _ in range(n_children):
            build(pid, depth + 1)

    build(None, 0)
    return CausalTree(processors=procs)
