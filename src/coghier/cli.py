"""Command-line entry point.

Subcommands: ``validate`` checks a hierarchy or causal-tree document,
``bp`` runs the tree-versus-hierarchy equivalence suite, ``servo`` runs the
tracking experiment. Exit codes: 0 success, 1 semantic failure (validation
violations, equivalence failures, missing context dominance), 2 input
errors. All randomness is seeded through explicit flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import bp, documents, kernel, servo


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _fmt_vector(vec) -> str:
    return "[" + ", ".join(f"{float(x):.6g}" for x in vec) + "]"


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        doc = _load_json(args.path)
        kind = documents.document_kind(doc)
        if kind == "tree":
            tree = bp.tree_from_document(doc)
            violations = bp.tree_violations(tree)
        else:
            hierarchy = documents.load_hierarchy_document(doc)
            violations = kernel.validate(hierarchy).format_lines()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except (documents.DocumentError, ValueError) as exc:
        print(f"parse error in {args.path}: {exc}", file=sys.stderr)
        return 2

    for line in violations:
        print(line)
    if violations:
        print(f"{args.path}: {len(violations)} violation(s)")
        return 1
    print(f"{args.path}: OK ({kind})")
    return 0


def _report_equivalence(name: str, tree: bp.CausalTree, tolerance: float) -> bool:
    """Check one tree, print its result line(s) and return whether it passed."""
    report = bp.equivalence_check(tree, tolerance=tolerance)
    status = "PASS" if report.passed else "FAIL"
    extra = f" ({report.detail})" if report.detail else ""
    print(
        f"{name}: {status} nodes={len(tree.processors)} "
        f"max_deviation={report.max_deviation:.3e} ticks={report.ticks}{extra}"
    )
    if report.degenerate:
        print(f"{name}: degenerate evidence at {', '.join(report.degenerate)}")
    return report.passed


def cmd_bp(args: argparse.Namespace) -> int:
    if not 0 <= args.tolerance < math.inf:
        print("bad parameters: tolerance must be finite and non-negative", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bad parameters: seed must be non-negative", file=sys.stderr)
        return 2

    if args.path:
        try:
            tree = bp.tree_from_document(_load_json(args.path))
        except OSError as exc:
            print(f"cannot read {args.path}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"parse error in {args.path}: {exc}", file=sys.stderr)
            return 2
        bad = bp.tree_violations(tree)
        if bad:
            print(f"invalid tree in {args.path}: {'; '.join(bad)}", file=sys.stderr)
            return 2
        passed = _report_equivalence(os.path.basename(args.path), tree, args.tolerance)
        table = bp.bp_propagate(tree)
        for pid in sorted(table.beliefs):
            print(f"BEL({pid}) = {_fmt_vector(table.beliefs[pid])}")
        return 0 if passed else 1

    # Each tree is checked as soon as it is drawn, so only one is held at a time.
    rng = np.random.default_rng(args.seed)
    all_passed = True
    for i in range(args.random):
        try:
            tree = bp.random_tree(rng, args.max_depth, args.max_branch, (2, args.max_dim))
        except ValueError as exc:
            print(f"bad parameters: {exc}", file=sys.stderr)
            return 2
        all_passed = _report_equivalence(f"tree-{i:03d}", tree, args.tolerance) and all_passed
    return 0 if all_passed else 1


def cmd_servo(args: argparse.Namespace) -> int:
    try:
        params = servo.ServoParams(
            accel=args.accel,
            dt=args.dt,
            duration=args.duration,
            noise_sigma=args.noise_sigma,
            kalman_gain=args.gain,
            seed=args.seed,
            trials=args.trials,
        )
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2

    modes = servo.MODES if args.mode == "both" else (args.mode,)
    summary = servo.run_experiment(params, modes=modes)
    for path, write in ((args.csv, servo.write_csv), (args.json_path, servo.write_json)):
        if not path:
            continue
        try:
            write(path, summary)
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return 2

    for mode in modes:
        stats = summary.per_mode[mode]
        print(f"{mode}: mean={stats.mean:.6f} std={stats.std:.6f} n={stats.n}")
    if summary.reduction_percent is not None:
        print(f"reduction: {summary.reduction_percent:.2f}%")

    if len(modes) < 2:
        return 0
    by_trial: dict[int, dict[str, float]] = {}
    for row in summary.rows:
        by_trial.setdefault(row.trial, {})[row.mode] = row.mean_error
    dominated = all(
        errs["context"] < errs["no_context"] for errs in by_trial.values() if len(errs) == 2
    )
    if not dominated:
        print("context mode did not dominate on every trial", file=sys.stderr)
    return 0 if dominated else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coghier",
        description="Cognitive-hierarchy engine: validate documents, run the "
        "belief-propagation equivalence suite, run the tracking experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a hierarchy or causal-tree document")
    p_val.add_argument("path", help="JSON document to check")
    p_val.set_defaults(func=cmd_validate)

    p_bp = sub.add_parser("bp", help="check tree propagation against the encoded hierarchy")
    p_bp.add_argument("path", nargs="?", help="causal-tree JSON document")
    p_bp.add_argument("--random", type=int, default=0, metavar="N", help="run N random trees")
    p_bp.add_argument("--seed", type=int, default=7)
    p_bp.add_argument("--tolerance", type=float, default=1e-9)
    p_bp.add_argument("--max-depth", type=int, default=4)
    p_bp.add_argument("--max-branch", type=int, default=3)
    p_bp.add_argument("--max-dim", type=int, default=5)
    p_bp.set_defaults(func=cmd_bp)

    p_servo = sub.add_parser("servo", help="run the camera-tracking experiment")
    p_servo.add_argument("--accel", type=float, default=8.49)
    p_servo.add_argument("--dt", type=float, default=0.05)
    p_servo.add_argument("--duration", type=float, default=3.0)
    p_servo.add_argument("--noise-sigma", type=float, default=0.1)
    p_servo.add_argument("--gain", type=float, default=0.25)
    p_servo.add_argument("--seed", type=int, default=42)
    p_servo.add_argument("--trials", type=int, default=100)
    p_servo.add_argument(
        "--mode", choices=("both",) + servo.MODES, default="both", help="which arm(s) to run"
    )
    p_servo.add_argument("--csv", metavar="PATH", help="write per-trial results as CSV")
    p_servo.add_argument("--json", dest="json_path", metavar="PATH", help="write summary as JSON")
    p_servo.set_defaults(func=cmd_servo)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("COGHIER_LOG_LEVEL", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        names = "DEBUG, INFO, WARNING, ERROR or CRITICAL, in any case"
        print(f"bad environment: COGHIER_LOG_LEVEL={level!r} is not {names}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bp" and not args.path and args.random <= 0:
        parser.error("bp needs a document path or --random N")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
