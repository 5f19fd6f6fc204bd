"""The chain workload's inputs: a JSON chain document, scalar bundles, a reference.

A chain of ``n`` nodes sits on a world node: ``W0 -> C001 -> ... -> Cnnn``.
Every node holds one float. The operators cost almost nothing, so a tick of
the chain measures the kernel itself: ordering, state copies and tag checks.

``Reference`` steps the same recurrence in plain Python, in the order the
kernel's two sweeps visit the nodes, with the same float expressions. Its
beliefs must equal the kernel's bit for bit after every tick.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORLD = "W0"
DRIVE_LENGTH = 64


def node_id(i: int) -> str:
    return f"C{i:03d}"


@dataclass(frozen=True)
class ChainInputs:
    """Seeded coefficients per node and the world's drive sequence."""

    keep: tuple[float, ...]  # observation update: keep * belief + (1 - keep) * observation
    pull: tuple[float, ...]  # prediction update: belief + pull * (context - belief)
    gain: tuple[float, ...]  # "run" policy: (gain * belief,)
    drive: tuple[float, ...]


def make_inputs(seed: int, n: int) -> ChainInputs:
    rng = random.Random(seed)
    return ChainInputs(
        keep=tuple(rng.uniform(0.2, 0.8) for _ in range(n)),
        pull=tuple(rng.uniform(0.1, 0.5) for _ in range(n)),
        gain=tuple(rng.uniform(0.5, 0.95) for _ in range(n)),
        drive=tuple(rng.uniform(-1.0, 1.0) for _ in range(DRIVE_LENGTH)),
    )


def document_text(n: int) -> str:
    """The chain as a hierarchy document; bundles are bound by key only."""
    doc = {
        "world_node": WORLD,
        "nodes": [{"id": WORLD, "operators": "perfbench.world"}]
        + [{"id": node_id(i), "operators": "perfbench.scalar"} for i in range(1, n + 1)],
        "edges": [{"lower": WORLD, "upper": node_id(1), "functions": "perfbench.source"}]
        + [
            {"lower": node_id(i), "upper": node_id(i + 1), "functions": "perfbench.link"}
            for i in range(1, n)
        ],
    }
    return json.dumps(doc)


def initial_world(inputs: ChainInputs) -> tuple[int, float]:
    return (0, inputs.drive[0])


def _select(task_params: tuple) -> str:
    return "hold" if task_params and task_params[0] < 0.0 else "run"


def register(registry, kernel, inputs: ChainInputs) -> None:
    """Register the chain's node, world and edge bundles on ``registry``.

    The world state is ``(step, value)``; the world moves to the next drive
    value plus half of the task parameter sent down by ``C001``.
    """
    Tagged, spaces = kernel.Tagged, kernel.default_spaces
    drive = inputs.drive

    def scalar_node(nid: str):
        i = int(nid[1:]) - 1
        keep, pull, gain = inputs.keep[i], inputs.pull[i], inputs.gain[i]

        def observe(observations: tuple, belief: float) -> float:
            return keep * belief + (1.0 - keep) * observations[0]

        def predict(contexts: tuple, actions: tuple, belief: float) -> float:
            if contexts:
                return belief + pull * (contexts[0] - belief)
            return belief

        return kernel.CognitiveNodeSpec(
            node_id=nid,
            spaces=spaces(nid),
            policies={"run": lambda belief: (gain * belief,), "hold": lambda belief: (0.0,)},
            policy_selector=_select,
            observation_update=observe,
            prediction_update=predict,
            initial_belief=0.0,
            initial_policy="run",
        )

    def actuate(task_params: tuple, world: tuple) -> tuple:
        step = world[0] + 1
        return (step, drive[step % DRIVE_LENGTH] + 0.5 * task_params[0])

    def edge(sensing):
        def build(lower: str, upper: str):
            obs, task, ctx = (
                spaces(upper).observation_space,
                spaces(lower).task_param_space,
                spaces(lower).context_space,
            )
            return (
                lambda state: (Tagged(obs, sensing(state)),),
                lambda actions: tuple(Tagged(task, a) for a in actions),
                lambda belief: (Tagged(ctx, belief),),
            )

        return build

    def source(lower: str, upper: str):
        sense, task, _ctx = edge(lambda world: world[1])(lower, upper)
        return sense, task, kernel.emit_nothing

    registry.register_node("perfbench.scalar", scalar_node)
    registry.register_node("perfbench.world", lambda nid: kernel.make_world_node_spec(nid, actuate))
    registry.register_edge("perfbench.link", edge(lambda belief: belief))
    registry.register_edge("perfbench.source", source)


class Reference:
    """The chain's recurrence in plain Python, one tick per ``step``."""

    def __init__(self, inputs: ChainInputs):
        self.inputs = inputs
        n = len(inputs.keep)
        self.beliefs = [0.0] * n
        self.policies = ["run"] * n
        self.world = initial_world(inputs)

    def step(self) -> None:
        keep, pull, gain = self.inputs.keep, self.inputs.pull, self.inputs.gain
        b, pol = self.beliefs, self.policies
        n = len(b)
        # Sensing sweep, bottom up.
        below = self.world[1]
        for i in range(n):
            b[i] = keep[i] * b[i] + (1.0 - keep[i]) * below
            below = b[i]
        # Prediction sweep, top down: the top node keeps its policy and has no context.
        actions = (gain[n - 1] * b[n - 1],) if pol[n - 1] == "run" else (0.0,)
        for i in range(n - 2, -1, -1):
            pol[i] = _select(actions)
            actions = (gain[i] * b[i],) if pol[i] == "run" else (0.0,)
            b[i] = b[i] + pull[i] * (b[i + 1] - b[i])
        step = self.world[0] + 1
        self.world = (step, self.inputs.drive[step % DRIVE_LENGTH] + 0.5 * actions[0])

    def matches(self, ah, ids: tuple[str, ...]) -> bool:
        active = ah.active
        return (
            ah.world_state == self.world
            and [active[nid].belief for nid in ids] == self.beliefs
            and [active[nid].policy for nid in ids] == self.policies
        )
