"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` they appear in captured output on failure.
"""

import itertools
import math
import time

import numpy as np
import oracles
from conftest import build_recorder_hierarchy, diamond
from test_bp import all_parent_vectors, make_tree

from coghier import bp, kernel, servo
from coghier.servo import ServoParams


def report(number, name, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    tail = f" | {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status} in {elapsed:.2f}s{tail}")


def test_criterion_1_word_demo_end_to_end():
    started = time.perf_counter()
    tree = bp.thecat_tree()
    ah = kernel.init_active(bp.encode(tree), bp.initial_world_state(tree))
    ah = kernel.process_update(ah)
    bel_word = bp.node_belief(ah.node("N4").belief)
    bel_middle = bp.node_belief(ah.node("N2").belief)
    dev = max(
        float(np.max(np.abs(bel_word - np.array([0.0, 1.0])))),
        float(np.max(np.abs(bel_middle - np.array([0.0, 1.0])))),
    )
    elapsed = time.perf_counter() - started
    passed = dev < 1e-9 and elapsed < 1.0
    report(1, "word demo end to end", passed, elapsed, f"max deviation {dev:.2e}")
    assert dev < 1e-9
    assert elapsed < 1.0


def test_criterion_2_tree_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_random = 0.0
    for index in range(100):
        tree = bp.random_tree(rng, max_depth=4, max_branching=3, dims=(2, 5))
        result = bp.equivalence_check(tree, tolerance=1e-9)
        assert result.passed, (
            f"tree {index} ({len(tree.processors)} nodes): deviation "
            f"{result.max_deviation:.2e}, detail {result.detail!r}"
        )
        worst_random = max(worst_random, result.max_deviation)

    worst_oracle = 0.0
    fill_rng = np.random.default_rng(77)
    for size in range(1, 6):
        for parents in all_parent_vectors(size):
            for n in (2, 3):
                tree = make_tree(parents, n, fill_rng)
                fast = bp.bp_propagate(tree)
                slow = oracles.enumerate_joint_beliefs(tree)
                for pid in tree.processors:
                    worst_oracle = max(
                        worst_oracle,
                        float(np.max(np.abs(fast.beliefs[pid] - slow.beliefs[pid]))),
                    )
    elapsed = time.perf_counter() - started
    passed = worst_random < 1e-9 and worst_oracle < 1e-12 and elapsed < 30.0
    report(
        2,
        "tree equivalence",
        passed,
        elapsed,
        f"100 random trees worst {worst_random:.2e}; oracle vs enumeration worst {worst_oracle:.2e}",
    )
    assert worst_random < 1e-9
    assert worst_oracle < 1e-12
    assert elapsed < 30.0


def test_criterion_3_order_independence():
    started = time.perf_counter()
    hierarchy = diamond()
    assert len(hierarchy.node_ids) == 5
    ah = kernel.init_active(hierarchy, "env")

    sensing_deps = kernel.sensing_dependencies(hierarchy)
    prediction_deps = kernel.prediction_dependencies(hierarchy)
    sensing_orders = list(oracles.all_topological_orders(set(sensing_deps), sensing_deps))
    prediction_orders = list(
        oracles.all_topological_orders(set(prediction_deps), prediction_deps)
    )
    assert len(sensing_orders) == 6
    assert len(prediction_orders) == 6

    reference = kernel.prediction_process_update(kernel.sensing_process_update(ah))
    checked = 0
    for s_order, p_order in itertools.product(sensing_orders, prediction_orders):
        state = kernel.sensing_process_update(ah, s_order)
        state = kernel.prediction_process_update(state, p_order)
        assert oracles.active_states_equal(state, reference), (s_order, p_order)
        checked += 1
    elapsed = time.perf_counter() - started
    passed = checked == 36 and elapsed < 5.0
    report(3, "order independence", passed, elapsed, f"{checked} order pairs bit-identical")
    assert checked == 36
    assert elapsed < 5.0


def test_criterion_4_tracking_error_reproduction():
    started = time.perf_counter()
    params = ServoParams(trials=100, seed=42)
    summary = servo.run_experiment(params)
    reduction = summary.reduction_percent

    per_trial_reductions = [
        100.0 * (1.0 - context / no_context)
        for context, no_context in zip(summary.errors["context"], summary.errors["no_context"])
    ]
    elapsed = time.perf_counter() - started

    # each mode's simulated mean must agree with the model's closed-form
    # expected error within Monte Carlo error (4 standard errors of the mean)
    problems = []
    levels = []
    for mode in servo.MODES:
        stats = summary.per_mode[mode]
        expected = servo.expected_error(params, mode)
        z = (stats.mean - expected) / (stats.std / math.sqrt(stats.n))
        levels.append(f"{mode} {stats.mean:.4f} (expected {expected:.4f}, z {z:+.2f})")
        if abs(z) > 4.0:
            problems.append(
                f"{mode} mean {stats.mean:.4f} is {z:+.2f} standard errors "
                f"from the expected {expected:.4f}"
            )
    if reduction < 90.0:
        problems.append(f"overall reduction {reduction:.2f}% below 90%")
    if min(per_trial_reductions) < 90.0:
        problems.append(f"worst per-trial reduction {min(per_trial_reductions):.2f}% below 90%")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s over budget")

    report(
        4,
        "tracking error reproduction",
        not problems,
        elapsed,
        f"{', '.join(levels)}, reduction {reduction:.2f}% "
        f"(per-trial worst {min(per_trial_reductions):.2f}%)",
    )
    assert not problems, "; ".join(problems)


def test_criterion_5_property_suite():
    started = time.perf_counter()
    details = []

    # determinism: identical seeds give bit-identical episodes and ticks
    params = ServoParams(trials=1, seed=13)
    assert servo.run_episode(params, "context") == servo.run_episode(params, "context")
    ah = kernel.init_active(diamond(), "env")
    assert oracles.active_states_equal(kernel.process_update(ah), kernel.process_update(ah))
    details.append("determinism ok")

    # normalization: tree and hierarchy beliefs sum to one
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        tree = bp.random_tree(rng, max_depth=3)
        table = bp.bp_propagate(tree)
        state = kernel.init_active(bp.encode(tree), bp.initial_world_state(tree))
        state = kernel.process_update(state)
        for pid in tree.processors:
            worst = max(worst, abs(float(table.beliefs[pid].sum()) - 1.0))
            worst = max(worst, abs(float(bp.node_belief(state.node(pid).belief).sum()) - 1.0))
    assert worst <= 1e-9
    details.append(f"normalization worst {worst:.1e}")

    # transactional tick: injected operator failure leaves the state intact
    broken = build_recorder_hierarchy(
        ["A", "B", "C"], [("A", "B"), ("B", "C")], fail_nodes={"B"}
    )
    state = kernel.init_active(broken, "env")
    snapshot = kernel.ActiveHierarchy(state.hierarchy, dict(state.active), state.world_state)
    try:
        kernel.process_update(state)
        raise AssertionError("expected the injected failure to abort the tick")
    except kernel.OperatorError as err:
        assert err.node == "B"
    assert oracles.active_states_equal(state, snapshot)
    details.append("atomic abort ok")

    # integrator drift: repeated one-step physics stays near the closed form
    p = ServoParams()
    predict = servo.build_servo_hierarchy(p, "context").node(servo.PHYSICS_NODE).prediction_update
    position_velocity = (0.0, 0.0)
    for _ in range(p.steps):
        position_velocity = predict((), (), position_velocity)
    drift = abs(position_velocity[0] - 0.5 * p.accel * p.duration**2)
    bound = 0.5 * p.accel * p.dt * p.duration
    assert drift <= bound
    details.append(f"drift {drift:.1e} <= {bound:.3f}")

    elapsed = time.perf_counter() - started
    report(5, "property suite", True, elapsed, "; ".join(details))
