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
from dataclasses import astuple, dataclass, field
from functools import cached_property, lru_cache, partial
from types import MappingProxyType
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
        fields = vars(self)  # each array given is copied and frozen: no caller can write into a tree
        for name in ("causal", "external_input", "cond_matrix"):
            if (value := fields[name]) is not None:
                fields[name] = frozen = np.array(value, dtype=float)
                frozen.setflags(write=False)
        if fields["causal"] is None and self.parent is None:
            fields["causal"] = _uniform(self.feature_dim)
        if fields["external_input"] is None:
            fields["external_input"] = _ones(self.feature_dim)

    def __reduce__(self) -> tuple:  # a copy goes through __init__, so its arrays are frozen too
        return Processor, astuple(self)


@dataclass(frozen=True)
class CausalTree:
    """Processors keyed by id; each one's ``parent`` link is the tree's only shape.

    A tree keeps a read-only copy of its mapping, and its processors' arrays are frozen, so
    what it derives when built cannot go stale: ``root``, the first processor with no parent
    link (``None`` if none), each one's ``children`` in order, and :meth:`topological_ids`.
    """

    processors: Mapping[str, Processor]

    def __post_init__(self) -> None:
        procs, root = MappingProxyType(dict(self.processors)), None
        kids: dict[str, list[str]] = {pid: [] for pid in procs}
        for pid, p in procs.items():
            if p.parent is None and root is None:
                root = pid
            if p.parent in kids:
                kids[p.parent].append(pid)
        children = {pid: tuple(ids) for pid, ids in kids.items()}
        walk, stack = [], [] if root is None else [root]
        while stack:
            walk.append(pid := stack.pop())
            stack.extend(reversed(children[pid]))
        # A frozen dataclass takes what it derives straight into its instance dict.
        vars(self).update(processors=procs, root=root, children=children, _walk=tuple(walk))

    def __reduce__(self) -> tuple:  # the read-only mapping does not pickle: rebuild from a copy
        return CausalTree, (dict(self.processors),)

    @cached_property
    def checked_ids(self) -> tuple[str, ...]:
        """:meth:`topological_ids` once :func:`tree_violations` passes; else ``ValueError``."""
        if bad := tree_violations(self):
            raise ValueError("; ".join(bad))
        return self.topological_ids()

    @cached_property
    def _unit_inputs(self) -> dict[str, np.ndarray]:
        """Each external input scaled to sum 1, once per tree, after :attr:`checked_ids`."""
        return {pid: _normalize(self.processors[pid].external_input) for pid in self.checked_ids}

    def topological_ids(self) -> tuple[str, ...]:
        """The processors reachable from the root, depth first, parents before children.

        Each processor has at most one parent and the root has none, so the
        walk meets no processor twice: one whose parent chain misses the root
        (a dangling or cyclic link) is simply not visited. A tree with no
        root walks nothing. A tree cannot change, so it is walked once, when built.
        """
        return self._walk


def tree_violations(tree: CausalTree) -> list[str]:
    """Structural checks; empty list means the tree is usable.

    A tree needs a processor with no parent link. Processors are checked in
    :meth:`CausalTree.topological_ids` order, each one's matrix against its
    parent's dimension; then every processor the walk did not reach is
    reported, a second parentless one among them. The numeric checks run
    once per array shape (:func:`_flaws`), so their numpy calls do not grow with the tree.
    """
    procs, root = tree.processors, tree.root
    if root is None:
        return ["the tree has no root: every processor has a parent link"]
    bad = [f"processor id {WORLD_ID!r} is reserved for the world node"] if WORLD_ID in procs else []
    order = tree.topological_ids()
    vectors = [procs[root].causal, *(procs[pid].external_input for pid in order)]
    flaws = _flaws(vectors, [procs[pid].cond_matrix for pid in order[1:]])
    for pid in order:
        p = procs[pid]
        if p.feature_dim < 2:
            bad.append(f"{pid!r}: feature_dim must be at least 2")
        for name in ("causal", "external_input") if pid == root else ("external_input",):
            vec = getattr(p, name)
            if vec.shape != (p.feature_dim,):
                bad.append(f"{pid!r}: {name} has shape {vec.shape}, expected ({p.feature_dim},)")
            elif flaw := flaws[id(vec)]:
                bad.append(f"{pid!r}: {name} {flaw}")
        if pid == root:
            continue
        if p.causal is not None:
            bad.append(f"{pid!r}: a non-root processor cannot carry 'causal'")
        matrix, expected = p.cond_matrix, (procs[p.parent].feature_dim, p.feature_dim)
        if matrix is None:
            bad.append(f"{pid!r}: non-root processor without a conditional matrix")
        elif matrix.shape != expected:
            bad.append(f"{pid!r}: conditional matrix shape {matrix.shape}, expected {expected}")
        elif flaw := flaws[id(matrix)]:
            bad.append(f"{pid!r}: conditional matrix {flaw}")
    bad += [f"processor {pid!r} is not reachable from the root" for pid in sorted(procs.keys() - order)]
    return bad


def _flaws(vectors: list[np.ndarray], matrices: list[np.ndarray | None]) -> dict[int, str]:
    """Each 1-d vector's and 2-d matrix's first numeric flaw by ``id`` ("" for none), checked
    on the stacked arrays of each shape; a vector sums left to right, as ``sum`` adds."""
    groups: dict[tuple, dict[int, np.ndarray]] = {}
    for array, ndim in [(vec, 1) for vec in vectors] + [(mat, 2) for mat in matrices]:
        if array is not None and array.ndim == ndim:
            groups.setdefault(array.shape, {})[id(array)] = array
    flaws: dict[int, str] = {}
    for group in groups.values():
        stack = np.array(list(group.values()))
        negative = np.logical_or.reduce(stack < 0, axis=tuple(range(1, stack.ndim))).tolist()
        if stack.ndim == 2:
            found = [
                "has negative entries" if neg
                else f"sums to {total}, which is not finite" if not math.isfinite(total)
                else "" if total else "is all zero, so no value can have support"
                for neg, total in zip(negative, map(sum, stack.tolist()))
            ]
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # rows of 1e308s, or of inf and -inf
                rows = np.abs(np.add.reduce(stack, axis=2) - 1.0) <= 1e-12  # a NaN sum is not 1
            found = [
                "has negative entries" if neg and ok else "" if ok else "rows do not sum to 1"
                for ok, neg in zip(np.logical_and.reduce(rows, axis=1).tolist(), negative)
            ]
        flaws.update(zip(group, found))
    return flaws


# ---------------------------------------------------------------------------
# Reference propagation


@dataclass(frozen=True)
class BeliefTable:
    """Per-processor normalised beliefs; degenerate ids have no entry."""

    beliefs: Mapping[str, np.ndarray]
    degenerate: frozenset[str] = frozenset()


@lru_cache(maxsize=None, typed=True)  # typed: a float length fails as np.ones fails on it
def _ones(n: int) -> np.ndarray:
    """A read-only vector of n ones, built once per length (all lengths take about 4 MiB)."""
    ones = np.ones(n)
    ones.setflags(write=False)
    return ones


@lru_cache(maxsize=None, typed=True)
def _uniform(n: int) -> np.ndarray:
    """A read-only vector of n entries 1/n, the no-evidence message, built once per length."""
    uniform = np.full(n, 1.0 / n)
    uniform.setflags(write=False)
    return uniform


def _normalize(vec: np.ndarray, where: str | None = None, pid: str = "") -> np.ndarray | None:
    """``vec`` scaled to sum 1. A zero total is contradictory evidence: ``None``, or with
    ``where`` a :class:`DegenerateBeliefError` at ``where.format(pid)``, formatted only then."""
    # One BLAS dot: on vectors of a few entries numpy's reduction machinery costs more than the sum.
    total = vec.dot(_ones(len(vec)))
    if total <= 0.0:
        if where is None:
            return None
        raise DegenerateBeliefError(where.format(pid))
    return vec / total


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
    procs, children, root = tree.processors, tree.children, tree.root

    def unit(vec: np.ndarray) -> np.ndarray:  # a zero message is passed on, to zero what it reaches
        normed = _normalize(vec)
        return vec if normed is None else normed

    # A checked tree's evidence and prior are finite and not all zero, so they normalise.
    evidence = tree._unit_inputs
    up_msg: dict[str, np.ndarray] = {}
    lam: dict[str, np.ndarray] = {}
    for pid in reversed(order):
        total = evidence[pid]
        for child in children[pid]:
            total = total * up_msg[child]
        lam[pid] = total
        if pid != root:
            up_msg[pid] = unit(procs[pid].cond_matrix.dot(total))

    causal_in = {root: _normalize(procs[root].causal)}
    beliefs: dict[str, np.ndarray] = {}
    degenerate: set[str] = set()
    for pid in order:
        if (bel := _normalize(lam[pid] * causal_in[pid])) is None:
            degenerate.add(pid)
        else:
            beliefs[pid] = bel
        if kids := children[pid]:
            own = evidence[pid] * causal_in[pid]  # once per parent, not once per child
        for child in kids:
            others = own
            for sibling in kids:
                if sibling != child:
                    others = others * up_msg[sibling]
            causal_in[child] = unit(others.dot(procs[child].cond_matrix))
    return BeliefTable(beliefs, frozenset(degenerate))


# ---------------------------------------------------------------------------
# Embedding into a hierarchy


def node_belief(belief_state: tuple) -> np.ndarray:
    """Normalised product of the causal support and all diagnostic slots."""
    slots, causal = belief_state
    total = np.asarray(causal, dtype=float)
    for slot in slots:
        total = total * slot
    return _normalize(total, "belief state")


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
    units = tree._unit_inputs  # refuses an ill-formed tree, once per tree
    procs, nodes, edges = tree.processors, [_WORLD_SPEC], []
    for pid, p in procs.items():
        spaces, kids = _spaces(pid), tree.children[pid]
        obs_tag = spaces.observation_space
        # Slots and a non-root's causal support start as the read-only no-evidence message,
        # which node-level updates read on a fresh state; the root's prior is frozen too.
        uniform = _uniform(p.feature_dim)
        belief = ((uniform,) * (len(kids) + 1), uniform if p.causal is None else p.causal)
        nodes.append(CognitiveNodeSpec(pid, spaces, _write_slots, _take_context, initial_belief=belief))
        evidence = partial(_evidence, obs_tag, pid, p.external_input, units[pid])
        edges.append(EdgeTriple(WORLD_ID, pid, evidence))
        for k, cid in enumerate(kids, start=1):
            matrix, ctx_tag = procs[cid].cond_matrix, _spaces(cid).context_space
            upward = partial(_upward, obs_tag, k, matrix, cid)
            context = partial(_context, ctx_tag, k, matrix, cid)
            edges.append(EdgeTriple(cid, pid, upward, context_fn=context))
    return Hierarchy(nodes=tuple(nodes), world_node=WORLD_ID, edges=tuple(edges))


_WORLD_SPEC = make_world_node_spec(WORLD_ID)  # every encoded hierarchy shares it; it is frozen
_spaces = lru_cache(maxsize=1 << 12)(default_spaces)  # each recent id's tags, built once


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
_tagged = tuple.__new__  # builds a ``Tagged`` without the Python-level ``__new__``


def _evidence(tag: str, pid: str, own: np.ndarray, unit: np.ndarray, world_state: Mapping) -> tuple:
    """Slot 0 of ``pid``: its external input, read from the world state and normalised. While
    the world holds the tree's own read-only input ``own``, the message is a copy of ``unit``."""
    if (vec := world_state[pid]) is own:
        return (_tagged(Tagged, (tag, (0, unit.copy()))),)
    vec = _normalize(np.asarray(vec, dtype=float), "external input of {!r}", pid)
    return (_tagged(Tagged, (tag, (0, vec))),)


def _upward(tag: str, k: int, matrix: np.ndarray, cid: str, belief: tuple) -> tuple[Tagged, ...]:
    """Slot k of the parent: child ``cid``'s diagnostic product carried through its matrix."""
    slots, _causal = belief
    prod = slots[0]
    for slot in slots[1:]:
        prod = prod * slot
    msg = _normalize(matrix.dot(prod), "upward message from {!r}", cid)
    return (_tagged(Tagged, (tag, (k, msg))),)


def _context(tag: str, k: int, matrix: np.ndarray, cid: str, belief: tuple) -> tuple[Tagged, ...]:
    """Child ``cid``'s causal support: the parent's product without slot k, through its matrix."""
    slots, causal = belief
    prod = causal
    for i, slot in enumerate(slots):
        if i != k:
            prod = prod * slot
    msg = _normalize(prod.dot(matrix), "context for {!r}", cid)
    return (_tagged(Tagged, (tag, msg)),)


def initial_world_state(tree: CausalTree) -> dict[str, np.ndarray]:
    """Each processor's external input; the arrays are the tree's own, which are read-only."""
    return {pid: p.external_input for pid, p in tree.processors.items()}


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
    same_shapes = [vec.shape for vec in before] == [vec.shape for vec in after]
    a, b = np.concatenate(before, axis=None), np.concatenate(after, axis=None)
    if same_shapes and (a == b).all():  # the common case, read without the arithmetic below
        return True
    with np.errstate(invalid="ignore"):  # inf - inf
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

    ids, ah = tree.processors, kernel.init_active(hierarchy, initial_world_state(tree))
    vectors = []
    try:
        for ticks in (1, 2):
            ah = kernel.process_update(ah)
            beliefs = [ah.active[pid].belief for pid in ids]
            vectors.append([vec for slots, causal in beliefs for vec in (*slots, causal)])
        if not _unmoved(*vectors):  # an unsettled state has no deviation worth measuring
            return report(ticks=2, detail="no fixpoint after 2 ticks")
        # _unmoved passed, so every tick-2 vector is finite and no NaN reaches the maximum.
        found = np.concatenate([node_belief(belief) for belief in beliefs])
        expected = np.concatenate([oracle.beliefs[pid] for pid in ids])
        deviation = float(np.abs(found - expected).max())
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
    procs = {"N4": Processor(feature_dim=2, causal=np.array([0.5, 0.5]))}
    for pid, evidence in (("N1", [0.0, 1.0]), ("N2", [0.5, 0.5]), ("N3", [0.0, 1.0])):
        procs[pid] = Processor(2, "N4", np.eye(2), external_input=np.array(evidence))
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
    parents, draws = {}, []  # each processor's parent link, and its draw
    stack: list[tuple[str | None, int]] = [(None, 0)]  # (parent, depth) of each processor to draw
    while stack:  # depth first, each processor before its children, as a recursive walk goes
        parent, depth = stack.pop()
        if len(parents) == MAX_RANDOM_PROCESSORS:
            raise ValueError(f"random tree would grow past {MAX_RANDOM_PROCESSORS} processors")
        if (len(parents) + 1) * n * n > (cap := MAX_RANDOM_MATRIX_ENTRIES):
            raise ValueError(f"random tree matrices would hold more than {cap} entries")
        pid = f"P{len(parents)}"
        n_children = int(rng.integers(0, max_branching + 1)) if depth < max_depth else 0
        parents[pid] = parent
        # One draw per processor: its matrix rows (the root: its prior), then its evidence.
        draws.append(rng.uniform(0.05, 1.0, (2 if parent is None else n + 1) * n))
        stack += [(pid, depth + 1)] * n_children

    (root, _), *links = parents.items()
    procs = {root: Processor(n, None, None, draws[0][:n], draws[0][n:])}
    if links:  # every matrix row is normalised in one call, each row as it would be alone
        drawn = np.array(draws[1:]).reshape(-1, n + 1, n)
        matrices = drawn[:, :n]
        matrices /= np.add.reduce(matrices, axis=2, keepdims=True)
        for (pid, parent), block in zip(links, drawn):
            procs[pid] = Processor(n, parent, block[:n], None, block[n])
    return CausalTree(processors=procs)
