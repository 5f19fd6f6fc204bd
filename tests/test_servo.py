"""Tracking-simulation tests: operators, hand-derived traces, statistics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coghier import kernel, servo
from coghier.servo import ServoParams


def hand_trace(params, ticks):
    """Direct recurrence for the noise-free episode, no hierarchy involved.

    Per tick: advance time, filter the exact reading, relay the estimate to
    the physics state, integrate the physics state one step, pass its
    position back as the filter prior (context mode only), command the
    camera to the filtered estimate.
    """
    k, dt, g = params.accel, params.dt, params.kalman_gain
    with_context = params.mode == "context"
    prior = 0.0
    x2, v2 = 0.0, 0.0
    rows = []
    for i in range(1, ticks + 1):
        t = i * dt
        p = 0.5 * k * t * t
        f = (1.0 - g) * prior + g * p
        x2 = f
        x2, v2 = x2 + v2 * dt + 0.5 * k * dt * dt, v2 + k * dt
        prior = x2 if with_context else f
        rows.append(
            {
                "t": t,
                "true": p,
                "camera": f,
                "n1": prior,
                "n2": (x2, v2),
                "err": abs(f - p),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Parameters


def test_params_defaults_give_sixty_steps():
    assert ServoParams().steps == 60


def test_params_allow_exactly_the_step_cap():
    assert ServoParams(dt=1.0, duration=float(servo.MAX_STEPS)).steps == servo.MAX_STEPS


def test_params_allow_exactly_the_trial_cap():
    assert ServoParams(trials=servo.MAX_TRIALS).trials == servo.MAX_TRIALS


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": 0.0},
        {"dt": -0.1},
        {"duration": 0.01},
        {"noise_sigma": -1.0},
        {"kalman_gain": 1.5},
        {"mode": "sideways"},
        {"trials": 0},
        {"accel": float("nan")},
        {"dt": float("nan")},
        {"duration": float("inf")},
        {"noise_sigma": float("inf")},
        {"kalman_gain": float("nan")},
        {"duration": 1e9},
        {"duration": 1e308, "dt": 1e-300},
        {"trials": servo.MAX_TRIALS + 1},
        {"seed": -1},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ServoParams(**kwargs)


# ---------------------------------------------------------------------------
# Operator arithmetic


def test_filter_observation_update():
    h = servo.build_servo_hierarchy(ServoParams())
    node = h.node(servo.FILTER_NODE)
    assert node.observation_update((4.0,), 0.0) == pytest.approx(1.0)
    assert node.initial_belief == 0.0


def test_physics_prediction_from_rest():
    h = servo.build_servo_hierarchy(ServoParams())
    node = h.node(servo.PHYSICS_NODE)
    x, v = node.prediction_update((), (), (0.0, 0.0))
    assert x == pytest.approx(0.5 * 8.49 * 0.05**2)
    assert x == pytest.approx(0.0106125)
    assert v == pytest.approx(0.4245)
    assert node.initial_belief == (0.0, 0.0)


def test_filter_prediction_without_context_returns_action():
    h = servo.build_servo_hierarchy(ServoParams(mode="no_context"))
    node = h.node(servo.FILTER_NODE)
    assert node.prediction_update((), (7.5,), 1.0) == 7.5


def test_filter_prediction_with_context_returns_context():
    h = servo.build_servo_hierarchy(ServoParams(mode="context"))
    node = h.node(servo.FILTER_NODE)
    assert node.prediction_update((3.25,), (7.5,), 1.0) == 3.25
    # empty context falls back to the commanded action
    assert node.prediction_update((), (7.5,), 1.0) == 7.5


def test_context_edge_present_only_in_context_mode():
    with_ctx = servo.build_servo_hierarchy(ServoParams(mode="context"))
    without = servo.build_servo_hierarchy(ServoParams(mode="no_context"))
    relay = next(e for e in with_ctx.edges if e.lower == servo.FILTER_NODE)
    assert relay.context_fn((3.0, 1.0)) != ()
    relay = next(e for e in without.edges if e.lower == servo.FILTER_NODE)
    assert relay.context_fn((3.0, 1.0)) == ()


def test_hierarchies_validate():
    for mode in servo.MODES:
        assert kernel.validate(servo.build_servo_hierarchy(ServoParams(mode=mode))).ok


# ---------------------------------------------------------------------------
# Episodes against the hand recurrence


@pytest.mark.parametrize("mode", servo.MODES)
def test_first_five_ticks_match_hand_recurrence(mode):
    params = ServoParams(noise_sigma=0.0, mode=mode, trials=1)
    episode = servo.run_episode(params)
    expected = hand_trace(params, 5)
    for record, want in zip(episode.steps[:5], expected):
        assert record.t == pytest.approx(want["t"], abs=1e-12)
        assert record.true_position == pytest.approx(want["true"], abs=1e-12)
        assert record.camera_position == pytest.approx(want["camera"], abs=1e-12)
        assert record.n1_belief == pytest.approx(want["n1"], abs=1e-12)
        assert record.n2_belief[0] == pytest.approx(want["n2"][0], abs=1e-12)
        assert record.n2_belief[1] == pytest.approx(want["n2"][1], abs=1e-12)
        assert record.abs_error == pytest.approx(want["err"], abs=1e-12)


def test_first_tick_filter_prior_becomes_physics_prediction():
    params = ServoParams(noise_sigma=0.0, mode="context", trials=1)
    episode = servo.run_episode(params)
    first = episode.steps[0]
    # the camera follows the filtered estimate; the physics prediction
    # lands in the filter node as its prior for the next reading
    assert first.camera_position == pytest.approx(0.25 * first.true_position)
    assert first.n1_belief == pytest.approx(first.n2_belief[0])
    assert first.n2_belief[0] == pytest.approx(first.camera_position + 0.0106125)


def test_full_episode_matches_hand_recurrence():
    params = ServoParams(noise_sigma=0.0, mode="context", trials=1)
    episode = servo.run_episode(params)
    expected = hand_trace(params, params.steps)
    assert len(episode.steps) == params.steps
    assert episode.mean_error == pytest.approx(
        sum(r["err"] for r in expected) / len(expected), abs=1e-12
    )


def test_mean_error_is_mean_of_step_errors():
    episode = servo.run_episode(ServoParams(trials=1, seed=3))
    assert episode.mean_error == pytest.approx(
        sum(s.abs_error for s in episode.steps) / len(episode.steps)
    )


def noisy_mean_error(params):
    """Scalar recurrence of one noisy episode, one reading drawn per step.

    The arithmetic follows the operators term by term, so the hierarchy
    must match it bit for bit.
    """
    k, dt, g = params.accel, params.dt, params.kalman_gain
    rng = np.random.default_rng(params.seed)
    t = prior = x2 = v2 = total = 0.0
    for _ in range(params.steps):
        t = t + dt
        p = 0.5 * k * t * t
        reading = p + rng.normal(0.0, params.noise_sigma)
        f = (1.0 - g) * prior + g * reading
        x2, v2 = f + v2 * dt + 0.5 * k * dt * dt, v2 + k * dt
        prior = x2 if params.mode == "context" else f
        total = total + abs(f - p)
    return total / params.steps


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
    gain=st.floats(0.0, 1.0),
    trials=st.integers(1, 12),
    steps=st.sampled_from([1, 2, 63, 64, 65, 70, 130]),
)
def test_batched_experiment_equals_per_episode_runs(seed, sigma, gain, trials, steps):
    params = ServoParams(
        duration=steps * 0.05, noise_sigma=sigma, kalman_gain=gain, seed=seed, trials=trials
    )
    assert params.steps == steps
    summary = servo.run_experiment(params)
    assert len(summary.rows) == 2 * trials
    for row in summary.rows:
        single = replace(params, mode=row.mode, seed=seed + row.trial)
        episode = servo.run_episode(single)
        assert row.mean_error == episode.mean_error
        assert episode.mean_error == noisy_mean_error(single)


# ---------------------------------------------------------------------------
# Statistical properties


def test_episodes_are_deterministic_per_seed():
    params = ServoParams(seed=11, trials=1)
    a = servo.run_episode(params)
    b = servo.run_episode(params)
    assert a.steps == b.steps
    assert a.mean_error == b.mean_error


def test_no_context_error_is_seed_independent_without_noise():
    means = {
        servo.run_episode(
            ServoParams(noise_sigma=0.0, mode="no_context", seed=seed, trials=1)
        ).mean_error
        for seed in (0, 1, 2)
    }
    assert len(means) == 1


def test_noise_increases_context_error():
    # the gap between the noise-free run and a noisy one exceeds per-seed
    # fluctuation once sigma is well above the deterministic bias
    for sigma in (0.25, 0.5):
        for seed in range(5):
            quiet = servo.run_episode(
                ServoParams(noise_sigma=0.0, mode="context", seed=seed, trials=1)
            ).mean_error
            noisy = servo.run_episode(
                ServoParams(noise_sigma=sigma, mode="context", seed=seed, trials=1)
            ).mean_error
            assert quiet < noisy


def test_context_dominates_every_seed():
    for seed in range(8):
        ctx = servo.run_episode(ServoParams(mode="context", seed=seed, trials=1))
        plain = servo.run_episode(ServoParams(mode="no_context", seed=seed, trials=1))
        assert ctx.mean_error < plain.mean_error


def test_no_context_error_grows_with_an_accelerating_target():
    episode = servo.run_episode(ServoParams(noise_sigma=0.0, mode="no_context", trials=1))
    assert episode.mean_error > 0
    errors = [s.abs_error for s in episode.steps]
    assert errors[-1] > errors[20] > errors[5]


def test_physics_node_tracks_closed_form_within_drift_bound():
    params = ServoParams()
    h = servo.build_servo_hierarchy(params)
    predict = h.node(servo.PHYSICS_NODE).prediction_update
    state = (0.0, 0.0)
    for _ in range(params.steps):
        state = predict((), (), state)
    closed_form = 0.5 * params.accel * params.duration**2
    bound = 0.5 * params.accel * params.dt * params.duration
    assert abs(state[0] - closed_form) <= bound


def test_experiment_reduction_and_shared_seed_schedule():
    summary = servo.run_experiment(ServoParams(trials=10, seed=42))
    assert summary.reduction_percent is not None
    assert summary.reduction_percent >= 90.0
    by_trial = {}
    for row in summary.rows:
        by_trial.setdefault(row.trial, {})[row.mode] = row.mean_error
    assert len(by_trial) == 10
    for errs in by_trial.values():
        assert errs["context"] < errs["no_context"]


@pytest.mark.parametrize("mode", servo.MODES)
def test_expected_error_equals_noise_free_episode(mode):
    params = ServoParams(noise_sigma=0.0, mode=mode, trials=1)
    assert servo.expected_error(params, mode) == pytest.approx(
        servo.run_episode(params).mean_error, abs=1e-12
    )


def test_expected_error_matches_experiment_within_monte_carlo_error():
    params = ServoParams(kalman_gain=0.5, noise_sigma=0.3, seed=1001, trials=100)
    summary = servo.run_experiment(params)
    for mode in servo.MODES:
        stats = summary.per_mode[mode]
        standard_error = stats.std / math.sqrt(stats.n)
        assert abs(stats.mean - servo.expected_error(params, mode)) <= 4.0 * standard_error


def test_expected_error_rejects_unknown_mode():
    with pytest.raises(ValueError):
        servo.expected_error(ServoParams(), "sideways")


def test_single_mode_experiment_has_no_reduction():
    summary = servo.run_experiment(ServoParams(trials=2), modes=("no_context",))
    assert summary.reduction_percent is None
    assert set(summary.per_mode) == {"no_context"}


# ---------------------------------------------------------------------------
# Output files


def test_csv_and_json_outputs_are_stable(tmp_path):
    params = ServoParams(trials=3, seed=5)
    summary = servo.run_experiment(params)
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
    servo.write_csv(csv_a, summary)
    servo.write_json(json_a, summary)
    summary2 = servo.run_experiment(params)
    servo.write_csv(csv_b, summary2)
    servo.write_json(json_b, summary2)
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert json_a.read_bytes() == json_b.read_bytes()
    header, first = csv_a.read_text().splitlines()[:2]
    assert header == "trial,mode,mean_error"
    assert first.startswith("0,context,")


def test_summary_document_rounds_to_twelve_significant_digits():
    doc = servo.summary_to_document(
        servo.ExperimentSummary(
            per_mode={"context": servo.ModeStats(mean=1.0 / 3.0, std=0.0, n=1)},
            reduction_percent=None,
            rows=(),
        )
    )
    assert doc["context"]["mean"] == 0.333333333333
    assert math.isfinite(doc["context"]["mean"])
