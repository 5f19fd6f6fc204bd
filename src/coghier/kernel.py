"""Core data model and two-phase update scheduler for cognitive hierarchies.

A hierarchy is a DAG of nodes over a distinguished world node. Observations
flow up the sensing graph (world node is the unique source) and task
parameters plus context flow back down the converse prediction graph (world
node is the unique sink). One tick of the process model is a full sensing
sweep followed by a full prediction sweep.

Everything here is functional: update operations take an ``ActiveHierarchy``
and return a new one, so a failed tick leaves the caller's state untouched
as long as operators and edge functions build new payloads instead of
mutating the ones they receive (nothing enforces that yet). Values travel
between nodes as tagged payloads; the kernel checks each tag against the
receiving node's declared value spaces and never looks at the payload itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, NamedTuple


# ---------------------------------------------------------------------------
# Errors


class KernelError(Exception):
    """Base class for kernel failures."""


class InvalidHierarchyError(KernelError):
    """Raised when an invalid hierarchy is activated."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        lines = "; ".join(v.detail for v in report.violations)
        super().__init__(f"hierarchy is not well-formed: {lines}")


class OperatorError(KernelError):
    """An operator or edge function failed; the tick was aborted.

    Carries the node whose update was in progress and, when the failure
    happened while evaluating an edge function, the (lower, upper) pair.
    """

    def __init__(self, message: str, node: str, edge: tuple[str, str] | None = None):
        self.node = node
        self.edge = edge
        where = f"node {node!r}" + (f", edge {edge!r}" if edge else "")
        super().__init__(f"{message} ({where})")


class TagMismatchError(OperatorError):
    """An edge function emitted a payload with the wrong tag."""


# ---------------------------------------------------------------------------
# Tagged payloads


class Tagged(NamedTuple):
    """A value labelled with the kind of slot it is destined for."""

    tag: str
    value: Any


def emit_nothing(*_args: Any) -> tuple:
    """Edge function of any arity that contributes no values."""
    return ()


# ---------------------------------------------------------------------------
# Static model


@dataclass(frozen=True)
class NodeValueSpaces:
    """Per-node tags for the five value kinds a node exchanges."""

    belief_space: str
    action_space: str
    task_param_space: str
    observation_space: str
    context_space: str


def default_spaces(node_id: str) -> NodeValueSpaces:
    """Distinct per-node tags derived from the node id."""
    return NodeValueSpaces(
        belief_space=f"belief:{node_id}",
        action_space=f"action:{node_id}",
        task_param_space=f"task:{node_id}",
        observation_space=f"obs:{node_id}",
        context_space=f"ctx:{node_id}",
    )


@dataclass(frozen=True)
class CognitiveNodeSpec:
    """A node's operator bundle.

    ``policies`` maps policy ids to functions from belief to an iterable of
    action values. ``policy_selector`` maps a tuple of task parameters to a
    policy id and must return ``initial_policy`` for the empty tuple.
    ``observation_update(observations, belief)`` folds a tuple of observation
    values into the belief; ``prediction_update(contexts, actions, belief)``
    folds downward context and the node's own fresh actions into the belief.
    All operators must be deterministic.

    For the world node the kernel calls
    ``prediction_update(contexts, task_params, world_state)`` and stores the
    result as the new world state; see :func:`make_world_node_spec`.
    """

    node_id: str
    spaces: NodeValueSpaces
    policies: Mapping[str, Callable[[Any], Iterable[Any]]]
    policy_selector: Callable[[tuple], str]
    observation_update: Callable[[tuple, Any], Any]
    prediction_update: Callable[[tuple, tuple, Any], Any]
    initial_belief: Any
    initial_policy: str


def make_world_node_spec(
    node_id: str, actuate: Callable[[tuple, Any], Any] | None = None
) -> CognitiveNodeSpec:
    """Build the opaque world node.

    The world node never senses and never runs a policy. During the
    prediction sweep the kernel hands it the task parameters gathered from
    its upper neighbours; ``actuate(task_params, world_state)`` must return
    the new world state. Without ``actuate`` the world state is left alone,
    and the spec serves as an inert non-world node too.
    """
    return CognitiveNodeSpec(
        node_id=node_id,
        spaces=default_spaces(node_id),
        policies={"idle": lambda _belief: ()},
        policy_selector=lambda _task_params: "idle",
        observation_update=lambda _obs, belief: belief,
        prediction_update=(
            (lambda _contexts, _task_params, world_state: world_state)
            if actuate is None
            else lambda _contexts, task_params, world_state: actuate(task_params, world_state)
        ),
        initial_belief=None,
        initial_policy="idle",
    )


@dataclass(frozen=True)
class EdgeTriple:
    """Functions linking a lower node to an upper node.

    ``sensing_fn(lower_belief)`` emits observations for the upper node;
    ``task_param_fn(upper_actions)`` emits task parameters for the lower
    node; ``context_fn(upper_belief)`` emits context for the lower node.
    Emitted values must be :class:`Tagged` with the receiving node's tag for
    that slot. For edges whose lower node is the world, ``sensing_fn``
    receives the world state instead of a belief.
    """

    lower: str
    upper: str
    sensing_fn: Callable[[Any], Iterable[Tagged]]
    task_param_fn: Callable[[tuple], Iterable[Tagged]] = emit_nothing
    context_fn: Callable[[Any], Iterable[Tagged]] = emit_nothing


@dataclass(frozen=True)
class Hierarchy:
    """A set of node specs plus the edge triples wiring them together."""

    nodes: tuple[CognitiveNodeSpec, ...]
    world_node: str
    edges: tuple[EdgeTriple, ...]

    @cached_property
    def _by_id(self) -> dict[str, CognitiveNodeSpec]:
        return {spec.node_id: spec for spec in self.nodes}

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)

    def node(self, node_id: str) -> CognitiveNodeSpec:
        return self._by_id[node_id]

    @cached_property
    def _schedule(self) -> "tuple[dict[str, _NodePlan], _Phase, _Phase]":
        """Node plans by id and both sweeps, compiled on first use; the hierarchy is frozen."""
        return _compile_schedule(self)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format_lines(self) -> list[str]:
        return [f"{v.kind}: {v.detail}" for v in self.violations]


def validate(hierarchy: Hierarchy) -> ValidationReport:
    """Check well-formedness; violations are data, not exceptions."""
    found: list[Violation] = []

    def flag(kind: str, detail: str) -> None:
        found.append(Violation(kind, detail))

    seen: set[str] = set()
    for nid in (spec.node_id for spec in hierarchy.nodes):
        if nid in seen:
            flag("duplicate_node", f"node id {nid!r} declared twice")
        seen.add(nid)
    world = hierarchy.world_node
    if world not in seen:
        flag("world_missing", f"world node {world!r} is not among the nodes")

    pairs: set[tuple[str, str]] = set()
    usable_edges: list[EdgeTriple] = []
    for edge in hierarchy.edges:
        bad = False
        for end in (edge.lower, edge.upper):
            if end not in seen:
                flag("unknown_node", f"edge references unknown node {end!r}")
                bad = True
        if edge.lower == edge.upper:
            flag("self_edge", f"edge from {edge.lower!r} to itself")
            bad = True
        if (edge.lower, edge.upper) in pairs:
            flag("duplicate_edge", f"more than one edge for ({edge.lower!r}, {edge.upper!r})")
            bad = True
        pairs.add((edge.lower, edge.upper))
        if not bad:
            usable_edges.append(edge)

    if world in seen:
        preceded: dict[str, set[str]] = {nid: set() for nid in seen}
        children: dict[str, list[str]] = {nid: [] for nid in seen}
        for edge in usable_edges:
            preceded[edge.upper].add(edge.lower)
            children[edge.lower].append(edge.upper)
        _, cyclic = _kahn(seen, preceded)
        if cyclic:
            flag("cycle", "sensing graph has a cycle through " + ", ".join(sorted(cyclic)))
        if preceded[world]:
            sources = ", ".join(sorted(preceded[world]))
            flag("unique_source", f"world node {world!r} has incoming sensing edges from {sources}")
        orphan = "has no incoming sensing edge; world must be the only source"
        for nid in sorted(seen - {world}):
            if not preceded[nid]:
                flag("unique_source", f"node {nid!r} {orphan}")
        reachable, frontier = {world}, [world]
        while frontier:
            for nxt in children[frontier.pop()]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        for nid in sorted(seen - reachable):
            flag("unreachable", f"node {nid!r} is not reachable from the world node")

    for spec in hierarchy.nodes:
        nid, initial = spec.node_id, spec.initial_policy
        if initial not in spec.policies:
            flag("initial_policy", f"node {nid!r}: initial policy {initial!r} is not a known policy")
        try:
            default = spec.policy_selector(())
        except Exception as exc:  # selector is user code
            flag("policy_default", f"node {nid!r}: policy selector failed on the empty set: {exc}")
            continue
        if default != initial:
            mapped = f"maps the empty set to {default!r}, expected the initial policy {initial!r}"
            flag("policy_default", f"node {nid!r}: policy selector {mapped}")
    return ValidationReport(tuple(found))


# ---------------------------------------------------------------------------
# Topological ordering


def _kahn(ids: Iterable[str], preceded: Mapping[str, set[str]]) -> tuple[list[str], set[str]]:
    """Level-sorted Kahn pass in O(N + E) plus sorting; also the nodes on or behind a cycle."""
    ids = set(ids)
    indegree = dict.fromkeys(ids, 0)
    successors: dict[str, list[str]] = {nid: [] for nid in ids}
    for nid in ids:
        for p in set(preceded.get(nid, ())) & ids:
            indegree[nid] += 1
            successors[p].append(nid)
    order: list[str] = []
    level = sorted(nid for nid, count in indegree.items() if not count)
    while level:
        order.extend(level)
        for nid in level:
            for nxt in successors[nid]:
                indegree[nxt] -= 1
        level = sorted({nxt for nid in level for nxt in successors[nid] if not indegree[nxt]})
    return order, ids.difference(order)


def canonical_topological_order(
    ids: Iterable[str], preceded: Mapping[str, set[str]]
) -> tuple[str, ...]:
    """Deterministic Kahn order; ties broken by sorting node ids."""
    order, left = _kahn(ids, preceded)
    if left:
        raise ValueError("dependency graph has a cycle")
    return tuple(order)


def sensing_dependencies(hierarchy: Hierarchy) -> dict[str, set[str]]:
    """lower-before-upper constraints among non-world nodes."""
    world = hierarchy.world_node
    deps: dict[str, set[str]] = {nid: set() for nid in hierarchy.node_ids if nid != world}
    for edge in hierarchy.edges:
        if edge.lower != world and edge.upper != world:
            deps[edge.upper].add(edge.lower)
    return deps


def prediction_dependencies(hierarchy: Hierarchy) -> dict[str, set[str]]:
    """upper-before-lower constraints over all nodes, world included."""
    deps: dict[str, set[str]] = {nid: set() for nid in hierarchy.node_ids}
    for edge in hierarchy.edges:
        deps[edge.lower].add(edge.upper)
    return deps


# ---------------------------------------------------------------------------
# Runtime state


class ActiveNode(NamedTuple):
    """Mutable-per-tick facet of one node: belief, policy, actions."""

    node_id: str
    belief: Any
    policy: str
    actions: tuple


@dataclass(frozen=True)
class ActiveHierarchy:
    """Snapshot of the whole system between (or during) ticks."""

    hierarchy: Hierarchy
    active: Mapping[str, ActiveNode]
    world_state: Any

    def node(self, node_id: str) -> ActiveNode:
        return self.active[node_id]


def init_active(hierarchy: Hierarchy, world_state: Any) -> ActiveHierarchy:
    """Activate a hierarchy: initial beliefs and policies, no actions yet."""
    report = validate(hierarchy)
    if not report.ok:
        raise InvalidHierarchyError(report)
    active = {
        spec.node_id: ActiveNode(spec.node_id, spec.initial_belief, spec.initial_policy, ())
        for spec in hierarchy.nodes
    }
    hierarchy._schedule  # compile the sweeps here, once, rather than in the first tick
    return ActiveHierarchy(hierarchy, active, world_state)


# ---------------------------------------------------------------------------
# Update operations


def _tag_error(item: Any, tag: str, node: str, edge: tuple[str, str]) -> TagMismatchError:
    """The error for an emitted ``item`` that is not a :class:`Tagged` with ``tag``."""
    if isinstance(item, Tagged):
        problem = f"edge emitted tag {item.tag!r}, node expects {tag!r}"
    else:
        problem = f"edge emitted an untagged payload of type {type(item).__name__}"
    return TagMismatchError(problem, node=node, edge=edge)


class _NodePlan(NamedTuple):
    """What one node's updates read from the static model, looked up once."""

    spec: CognitiveNodeSpec
    is_world: bool
    observation_tag: str
    task_param_tag: str
    context_tag: str
    sources: tuple[tuple[str, bool, Callable], ...]  # (lower id, "lower is world", sensing_fn)
    uppers: tuple[tuple[str, Callable, Callable], ...]  # (upper id, task_param_fn, context_fn)


def _sense(plan: _NodePlan, active: dict[str, ActiveNode], world_state: Any) -> Any:
    """One node's sensing step, written into ``active``; returns the world state."""
    node_id, tag = plan.spec.node_id, plan.observation_tag
    observations: list[Any] = []
    lower = None  # the edge in progress runs from here; None while the node's own operators run
    try:
        for lower, from_world, sensing_fn in plan.sources:
            for item in sensing_fn(world_state if from_world else active[lower].belief):
                if not isinstance(item, Tagged) or item.tag != tag:
                    raise _tag_error(item, tag, node_id, (lower, node_id))
                observations.append(item.value)
        lower = None
        current = active[node_id]
        belief = plan.spec.observation_update(tuple(observations), current.belief)
    except KernelError:
        raise
    except Exception as exc:
        pair = None if lower is None else (lower, node_id)
        raise OperatorError(f"operator failed: {exc}", node=node_id, edge=pair) from exc
    active[node_id] = ActiveNode(node_id, belief, current.policy, current.actions)
    return world_state


def _predict(plan: _NodePlan, active: dict[str, ActiveNode], world_state: Any) -> Any:
    """One node's prediction step, written into ``active``; returns the world state."""
    spec, is_world, _, task_tag, context_tag, _, uppers = plan
    node_id = spec.node_id
    task_params: list[Any] = []
    contexts: list[Any] = []
    upper = None  # the edge in progress runs to here
    try:
        for upper, task_param_fn, context_fn in uppers:
            upper_active = active[upper]
            for item in task_param_fn(upper_active.actions):
                if not isinstance(item, Tagged) or item.tag != task_tag:
                    raise _tag_error(item, task_tag, node_id, (node_id, upper))
                task_params.append(item.value)
            for item in context_fn(upper_active.belief):
                if not isinstance(item, Tagged) or item.tag != context_tag:
                    raise _tag_error(item, context_tag, node_id, (node_id, upper))
                contexts.append(item.value)
        upper = None
        if is_world:
            return spec.prediction_update(tuple(contexts), tuple(task_params), world_state)
        current = active[node_id]
        if not uppers:
            policy_id = current.policy
        else:
            policy_id = spec.policy_selector(tuple(task_params))
            if policy_id not in spec.policies:
                raise OperatorError(f"selector chose unknown policy {policy_id!r}", node=node_id)
        actions = tuple(spec.policies[policy_id](current.belief))
        belief = spec.prediction_update(tuple(contexts), actions, current.belief)
    except KernelError:
        raise
    except Exception as exc:
        pair = None if upper is None else (node_id, upper)
        raise OperatorError(f"operator failed: {exc}", node=node_id, edge=pair) from exc
    active[node_id] = ActiveNode(node_id, belief, policy_id, actions)
    return world_state


class _Phase(NamedTuple):
    """One sweep: its per-node step, its constraints and its node plans in order."""

    name: str
    step: Callable[[_NodePlan, dict[str, ActiveNode], Any], Any]
    preceded: dict[str, set[str]]
    plans: tuple[_NodePlan, ...]


def _compile_schedule(hierarchy: Hierarchy) -> tuple[dict[str, _NodePlan], _Phase, _Phase]:
    """Every node's plan by id, then the sensing and the prediction sweep in canonical order."""
    world = hierarchy.world_node
    into: dict[str, list[tuple[str, bool, Callable]]] = {nid: [] for nid in hierarchy.node_ids}
    above: dict[str, list[tuple[str, Callable, Callable]]] = {nid: [] for nid in hierarchy.node_ids}
    for edge in sorted(hierarchy.edges, key=lambda e: (e.lower, e.upper)):
        into[edge.upper].append((edge.lower, edge.lower == world, edge.sensing_fn))
        above[edge.lower].append((edge.upper, edge.task_param_fn, edge.context_fn))
    plans = {
        nid: _NodePlan(
            spec, nid == world,
            spec.spaces.observation_space, spec.spaces.task_param_space, spec.spaces.context_space,
            tuple(into[nid]), tuple(above[nid]),
        )
        for nid, spec in hierarchy._by_id.items()
    }
    sensing, prediction = (
        _Phase(name, step, pre, tuple(plans[nid] for nid in canonical_topological_order(pre, pre)))
        for name, step, pre in (
            ("sensing", _sense, sensing_dependencies(hierarchy)),
            ("prediction", _predict, prediction_dependencies(hierarchy)),
        )
    )
    return plans, sensing, prediction


def _check_order(
    plans: Mapping[str, _NodePlan], phase: _Phase, order: Iterable[str] | None
) -> _Phase:
    """``phase`` in a caller-supplied order, checked against its constraints."""
    if order is None:
        return phase
    order, preceded, what = tuple(order), phase.preceded, phase.name
    if set(order) != set(preceded) or len(order) != len(preceded):
        raise ValueError(f"{what} order must cover each node exactly once")
    position = {nid: i for i, nid in enumerate(order)}
    for nid, pre in preceded.items():
        for p in pre:
            if position[p] > position[nid]:
                raise ValueError(f"{what} order violates {p!r} before {nid!r}")
    return phase._replace(plans=tuple(plans[nid] for nid in order))


def _sweep(ah: ActiveHierarchy, *phases: _Phase) -> ActiveHierarchy:
    """Run ``phases`` on one copy of the active state; the caller's stays as it was."""
    active, world_state = dict(ah.active), ah.world_state
    for phase in phases:
        for plan in phase.plans:
            world_state = phase.step(plan, active, world_state)
    return ActiveHierarchy(ah.hierarchy, active, world_state)


def sensing_node_update(ah: ActiveHierarchy, node_id: str) -> ActiveHierarchy:
    """Fold the observations from all incoming sensing edges into one node.

    Observations arrive as the multiset union over the node's incoming
    edges, ordered by source node id. Only this node's belief changes.
    """
    if node_id == ah.hierarchy.world_node:
        raise ValueError("the world node does not perform sensing updates")
    return _sweep(ah, _Phase("sensing", _sense, {}, (ah.hierarchy._schedule[0][node_id],)))


def prediction_node_update(ah: ActiveHierarchy, node_id: str) -> ActiveHierarchy:
    """Select a policy, fire it, and fold context plus actions into belief.

    With no upper neighbours the policy is kept and fires with empty
    context. Otherwise task parameters gathered from the uppers' current
    actions select the policy, the policy fires on the current belief, and
    context gathered from the uppers' current beliefs joins the fresh
    actions in the prediction update. For the world node the gathered task
    parameters are folded into the world state instead.
    """
    return _sweep(ah, _Phase("prediction", _predict, {}, (ah.hierarchy._schedule[0][node_id],)))


def sensing_process_update(
    ah: ActiveHierarchy, order: Iterable[str] | None = None
) -> ActiveHierarchy:
    """Sweep observations up: every non-world node, sources before sinks."""
    plans, sensing, _ = ah.hierarchy._schedule
    return _sweep(ah, _check_order(plans, sensing, order))


def prediction_process_update(
    ah: ActiveHierarchy, order: Iterable[str] | None = None
) -> ActiveHierarchy:
    """Sweep task parameters and context down: uppers first, world last."""
    plans, _, prediction = ah.hierarchy._schedule
    return _sweep(ah, _check_order(plans, prediction, order))


def process_update(ah: ActiveHierarchy) -> ActiveHierarchy:
    """One tick: a full sensing sweep, then a full prediction sweep.

    Both run on one copy of the state, in orders compiled once per hierarchy.
    """
    _, sensing, prediction = ah.hierarchy._schedule
    return _sweep(ah, sensing, prediction)

