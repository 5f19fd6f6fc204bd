"""Visual-servoing simulation: a camera tracking an accelerating object.

Three nodes: the world (object sliding down a frictionless incline, plus
the camera), a fixed-gain filter node estimating the object position from
noisy readings, and a physics node that integrates the known dynamics one
time step ahead. In ``context`` mode the physics node's position estimate
is passed back down and becomes the filter node's prior for the next tick;
in ``no_context`` mode the filter node keeps its own estimate.

Each tick: the world advances and takes one noisy position reading, the
hierarchy runs one process update (which moves the camera), and the
absolute camera-to-object distance is recorded.

The physics node's velocity lags the object's by one step, by choice of
model: it starts at 0 on the first tick (t = dt) and gains k*dt per tick,
so each one-step prediction falls k*dt**2 (0.021 m at the defaults) short
of the object. Without the lag the expected context error would be
0.0298 m rather than 0.0620 m. ``expected_error`` models the lag as well.

The kernel never inspects payloads, so the trials of one mode travel
through one hierarchy as float64 vectors with one entry per trial: an
experiment takes ``steps`` ticks per mode however many trials it runs.
The modes run in lockstep on one draw of readings: each trial's generator
is seeded once per experiment, and each tick every mode's hierarchy reads
the same read-only reading vector.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import kernel
from .kernel import (
    CognitiveNodeSpec,
    EdgeTriple,
    Hierarchy,
    Tagged,
    default_spaces,
    emit_nothing,
    make_world_node_spec,
)

WORLD, FILTER_NODE, PHYSICS_NODE = "N0", "N1", "N2"

MODES = ("no_context", "context")

# Most steps one episode may take (duration / dt); the default is 60.
MAX_STEPS = 100_000

# Most trials one experiment may run; every tick carries one float64 per trial.
MAX_TRIALS = 10_000

# Each trial draws its readings this many steps at a time. A block draw
# yields the same stream as one draw per step, and memory stays O(trials).
NOISE_BLOCK = 64


@dataclass(frozen=True)
class ServoParams:
    accel: float = 8.49
    dt: float = 0.05
    duration: float = 3.0
    noise_sigma: float = 0.1
    kalman_gain: float = 0.25
    seed: int = 42
    trials: int = 100

    def __post_init__(self) -> None:
        for name in ("accel", "dt", "duration", "noise_sigma", "kalman_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")
        if self.duration / self.dt > MAX_STEPS:
            raise ValueError(f"duration / dt must be at most {MAX_STEPS} steps")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0.0 <= self.kalman_gain <= 1.0:
            raise ValueError("kalman_gain must lie in [0, 1]")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.dt))


class ServoWorld(NamedTuple):
    """Environment payload of a batch of trials that share one clock.

    The object position is the closed form 0.5*k*t**2, the same in every
    trial. The camera position and the noisy reading hold one float64 per
    trial. ``_run_trials`` draws the readings before each tick, once for
    every mode, so the hierarchy update itself is free of random state. The
    readings and the initial camera position are read-only, because every
    mode shares them.
    """

    elapsed: float
    true_position: float
    camera_position: np.ndarray
    sensor_reading: np.ndarray


def build_servo_hierarchy(params: ServoParams, mode: str) -> Hierarchy:
    """Wire the world, filter and physics nodes for ``mode``, one of :data:`MODES`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    gain, keep = params.kalman_gain, 1.0 - params.kalman_gain
    k, dt = params.accel, params.dt
    drift, dv = 0.5 * k * dt * dt, k * dt

    filter_spaces = default_spaces(FILTER_NODE)
    physics_spaces = default_spaces(PHYSICS_NODE)

    def filter_observation(observations: tuple, belief: float) -> float:
        if len(observations) != 1:
            raise ValueError(f"expected one position reading, got {len(observations)}")
        return keep * belief + gain * observations[0]

    def filter_prediction(contexts: tuple, actions: tuple, belief: float) -> float:
        # Only the relay edge of ``context`` mode emits context, and ``track`` fires one action.
        return contexts[0] if contexts else actions[0]

    filter_node = CognitiveNodeSpec(
        node_id=FILTER_NODE,
        spaces=filter_spaces,
        policies={"track": lambda belief: (belief,)},
        policy_selector=lambda _task_params: "track",
        observation_update=filter_observation,
        prediction_update=filter_prediction,
        initial_belief=0.0,
        initial_policy="track",
    )

    def physics_observation(observations: tuple, belief: tuple) -> tuple:
        if len(observations) != 1:
            raise ValueError(f"expected one position estimate, got {len(observations)}")
        _, velocity = belief  # noise-free, so one scalar serves every trial of a batch
        return (observations[0], velocity)

    def physics_prediction(contexts: tuple, actions: tuple, belief: tuple) -> tuple:
        del contexts, actions
        x, v = belief
        return (x + v * dt + drift, v + dv)

    physics_node = CognitiveNodeSpec(
        node_id=PHYSICS_NODE,
        spaces=physics_spaces,
        observation_update=physics_observation,
        prediction_update=physics_prediction,
        initial_belief=(0.0, 0.0),
    )

    def actuate(task_params: tuple, world: ServoWorld) -> ServoWorld:
        return ServoWorld(world.elapsed, world.true_position, task_params[0], world.sensor_reading)

    world_node = make_world_node_spec(WORLD, actuate=actuate)
    world_tag = world_node.spaces.task_param_space

    sense_edge = EdgeTriple(
        lower=WORLD,
        upper=FILTER_NODE,
        sensing_fn=lambda world: (Tagged(filter_spaces.observation_space, world.sensor_reading),),
        task_param_fn=lambda actions: [Tagged(world_tag, a) for a in actions],
    )

    relay_edge = EdgeTriple(
        lower=FILTER_NODE,
        upper=PHYSICS_NODE,
        sensing_fn=lambda belief: (Tagged(physics_spaces.observation_space, belief),),
        context_fn=(
            (lambda belief: (Tagged(filter_spaces.context_space, belief[0]),))
            if mode == "context"
            else emit_nothing
        ),
    )

    return Hierarchy(
        nodes=(world_node, filter_node, physics_node),
        world_node=WORLD,
        edges=(sense_edge, relay_edge),
    )


# ---------------------------------------------------------------------------
# Episodes and experiments


@dataclass(frozen=True)
class StepRecord:
    t: float
    true_position: float
    camera_position: float
    n1_belief: float
    n2_belief: tuple[float, float]
    abs_error: float


@dataclass(frozen=True)
class ServoEpisode:
    steps: tuple[StepRecord, ...]
    mean_error: float


def _run_trials(
    params: ServoParams,
    modes: Sequence[str],
    seeds: Sequence[int],
    on_tick: Callable[[kernel.ActiveHierarchy, np.ndarray], None] | None = None,
) -> list[np.ndarray]:
    """Run one batch of trials per mode, the modes in lockstep; each mode's per-trial mean |error|.

    Trial i draws its readings from its own generator, seeded ``seeds[i]``
    once per call, in the order one draw per step would take them. Each
    tick every mode's hierarchy reads the same read-only reading vector.
    Each trial's error sum accumulates step by step. ``on_tick(state,
    errors)`` sees every tick of every mode. Every mode's hierarchy is
    built, so an unknown mode is refused, before any generator is seeded.
    """
    hierarchies = [build_servo_hierarchy(params, mode) for mode in modes]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    at_rest = np.zeros(len(rngs))
    at_rest.setflags(write=False)
    start = ServoWorld(0.0, 0.0, at_rest, at_rest)
    states = [kernel.init_active(hierarchy, start) for hierarchy in hierarchies]
    totals = [0.0] * len(states)
    t = 0.0
    for first in range(0, params.steps, NOISE_BLOCK):
        size = min(NOISE_BLOCK, params.steps - first)
        block = np.stack([rng.normal(0.0, params.noise_sigma, size) for rng in rngs], axis=1)
        for noise in block:
            t = t + params.dt
            true_position = 0.5 * params.accel * t * t
            reading = true_position + noise
            reading.setflags(write=False)
            for i, ah in enumerate(states):
                world = ServoWorld(t, true_position, ah.world_state.camera_position, reading)
                ah = kernel.process_update(kernel.ActiveHierarchy(ah.hierarchy, ah.active, world))
                states[i] = ah
                errors = abs(ah.world_state.camera_position - true_position)
                totals[i] = totals[i] + errors
                if on_tick is not None:
                    on_tick(ah, errors)
    return [total / params.steps for total in totals]


def run_episode(params: ServoParams, mode: str) -> ServoEpisode:
    """Simulate one episode in ``mode`` seeded ``params.seed``: a batch of one trial."""
    records: list[StepRecord] = []

    def record(ah: kernel.ActiveHierarchy, errors: np.ndarray) -> None:
        world = ah.world_state
        position, velocity = ah.node(PHYSICS_NODE).belief
        records.append(
            StepRecord(
                t=world.elapsed,
                true_position=world.true_position,
                camera_position=float(world.camera_position[0]),
                n1_belief=float(ah.node(FILTER_NODE).belief[0]),
                n2_belief=(float(position[0]), float(velocity)),
                abs_error=float(errors[0]),
            )
        )

    (mean_error,) = _run_trials(params, (mode,), (params.seed,), record)
    return ServoEpisode(tuple(records), float(mean_error[0]))


def _folded_normal_mean(mean: float, std: float) -> float:
    """E|X| for X ~ N(mean, std**2)."""
    if std == 0.0:
        return abs(mean)
    return std * math.sqrt(2.0 / math.pi) * math.exp(
        -0.5 * (mean / std) ** 2
    ) + mean * math.erf(mean / (std * math.sqrt(2.0)))


def expected_error(params: ServoParams, mode: str) -> float:
    """Closed-form expectation of ``run_episode(...).mean_error`` in ``mode``.

    Derived from the model, not from the hierarchy: at step i the object is
    at 0.5*k*t**2 with t = i*dt, the reading adds N(0, sigma**2) noise, the
    filter estimate is (1 - g)*prior + g*reading and the camera moves onto
    it. The next prior is the estimate itself (no context) or the physics
    node's one-step prediction from it, estimate + v*dt + 0.5*k*dt**2 with
    the noise-free velocity v = (i - 1)*k*dt (context). Every step is linear
    in independent Gaussian readings, so the camera error is Gaussian with
    a mean and variance given by the recursion below, and E|error| is the
    folded-normal mean. The result is the average over the episode's steps.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    k, dt, gain = params.accel, params.dt, params.kalman_gain
    prior_mean = prior_var = velocity = 0.0
    total = 0.0
    for i in range(1, params.steps + 1):
        t = i * dt
        true_position = 0.5 * k * t * t
        estimate_mean = (1.0 - gain) * prior_mean + gain * true_position
        estimate_var = (1.0 - gain) ** 2 * prior_var + (gain * params.noise_sigma) ** 2
        total += _folded_normal_mean(estimate_mean - true_position, math.sqrt(estimate_var))
        prior_mean, prior_var = estimate_mean, estimate_var
        if mode == "context":
            prior_mean += velocity * dt + 0.5 * k * dt * dt
            velocity += k * dt
    return total / params.steps


@dataclass(frozen=True)
class ModeStats:
    mean: float
    std: float
    n: int


@dataclass(frozen=True)
class ExperimentSummary:
    per_mode: dict[str, ModeStats]
    reduction_percent: float | None
    errors: dict[str, tuple[float, ...]]  # each mode's per-trial mean |error|, trial i at index i


def run_experiment(
    params: ServoParams, modes: Iterable[str] = MODES
) -> ExperimentSummary:
    """Run seeded trials per mode and summarise episode mean errors.

    Trial i uses seed ``params.seed + i``. Its generator is seeded once per
    experiment and the modes run in lockstep on that one draw of readings,
    so per-trial comparisons across modes share their noise realisations.
    The trials of a mode run as one batch, each equal to ``run_episode``
    with its seed. Raises ``ValueError`` for an unknown mode, before any
    generator is seeded, and when a mode's errors or their summary overflow
    float64.
    """
    modes = tuple(modes)
    per_mode: dict[str, ModeStats] = {}
    errors: dict[str, tuple[float, ...]] = {}
    seeds = range(params.seed, params.seed + params.trials)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports any overflow
        results = _run_trials(params, modes, seeds)
    for mode, batch in zip(modes, results):
        overflow = ValueError(f"the {mode} run overflows float64; lower accel, noise or duration")
        if not np.isfinite(batch).all():
            raise overflow
        errors[mode] = values = tuple(batch.tolist())
        try:
            std = statistics.stdev(values) if len(values) > 1 else 0.0
            per_mode[mode] = ModeStats(mean=statistics.fmean(values), std=std, n=len(values))
        except OverflowError as exc:
            raise overflow from exc
    reduction = None
    if "context" in per_mode and "no_context" in per_mode and per_mode["no_context"].mean > 0:
        reduction = 100.0 * (1.0 - per_mode["context"].mean / per_mode["no_context"].mean)
    return ExperimentSummary(per_mode=per_mode, reduction_percent=reduction, errors=errors)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def summary_to_document(summary: ExperimentSummary) -> dict:
    doc: dict = {
        mode: {"mean": _sig12(s.mean), "std": _sig12(s.std), "n": s.n}
        for mode, s in sorted(summary.per_mode.items())
    }
    if summary.reduction_percent is not None:
        doc["reduction_percent"] = _sig12(summary.reduction_percent)
    return doc


def write_csv(path: str, summary: ExperimentSummary) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial", "mode", "mean_error"])
        modes = sorted(summary.errors)
        for trial, errors in enumerate(zip(*(summary.errors[mode] for mode in modes))):
            for mode, error in zip(modes, errors):
                writer.writerow([trial, mode, repr(error)])


def write_json(path: str, summary: ExperimentSummary) -> None:
    with open(path, "w") as handle:
        json.dump(summary_to_document(summary), handle, indent=2, sort_keys=True)
        handle.write("\n")
