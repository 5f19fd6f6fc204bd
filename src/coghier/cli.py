"""Command-line entry point.

Subcommands: ``validate`` checks a hierarchy or causal-tree document
(both formats are read by :mod:`coghier.documents`),
``bp`` runs the tree-versus-hierarchy equivalence suite, ``servo`` runs the
tracking experiment. Exit codes: 0 success, 1 semantic failure (validation
violations, equivalence failures, missing context dominance), 2 input
errors, which :func:`main` alone prints, as one stderr line; the console
script also exits 2 when stdout cannot be written and 141 when its reader
closes it early. All randomness is seeded through explicit flags.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import bp, documents, kernel, servo


class _InputError(Exception):
    """An input error, as the one stderr line that reports it; :func:`main` prints it."""


@contextlib.contextmanager
def _relabel(label: str):
    """Report a ``ValueError`` raised in the block as an input error headed ``label``."""
    try:
        yield
    except ValueError as exc:
        raise _InputError(f"{label}: {exc}") from exc


def _load_json(path: str):
    """The parsed document at ``path``; a file that cannot be read or parsed is an input error."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise _InputError(f"parse error in {path}: {exc}") from exc


def _fmt_vector(vec) -> str:
    return "[" + ", ".join(f"{float(x):.6g}" for x in vec) + "]"


def cmd_validate(args: argparse.Namespace) -> int:
    doc = _load_json(args.path)
    with _relabel(f"parse error in {args.path}"):
        kind = documents.document_kind(doc)
        if kind == "tree":
            violations = bp.tree_violations(documents.tree_from_document(doc))
        else:
            violations = kernel.validate(documents.load_hierarchy_document(doc))

    for line in violations:
        print(line)
    if violations:
        print(f"{args.path}: {len(violations)} violation(s)")
        return 1
    print(f"{args.path}: OK ({kind})")
    return 0


def _report_equivalence(name: str, tree: bp.CausalTree, tolerance: float) -> bp.EquivalenceReport:
    """Check one tree, print its result line(s) and return its report."""
    report = bp.equivalence_check(tree, tolerance=tolerance)
    status = "PASS" if report.passed else "FAIL"
    extra = f" ({report.detail})" if report.detail else ""
    print(
        f"{name}: {status} nodes={len(tree.processors)} "
        f"max_deviation={report.max_deviation:.3e} ticks={report.ticks}{extra}"
    )
    if report.degenerate:
        print(f"{name}: degenerate evidence at {', '.join(report.degenerate)}")
    return report


def cmd_bp(args: argparse.Namespace) -> int:
    if bool(args.path) == (args.random > 0):
        build_parser().error("bp needs a document path or --random N, not both")
    if not 0 <= args.tolerance < math.inf:
        raise _InputError("bad parameters: tolerance must be finite and non-negative")
    if args.seed < 0:
        raise _InputError("bad parameters: seed must be non-negative")

    if args.path:
        with _relabel(f"parse error in {args.path}"):
            tree = documents.tree_from_document(_load_json(args.path))
        with _relabel(f"invalid tree in {args.path}"):
            report = _report_equivalence(os.path.basename(args.path), tree, args.tolerance)
        for pid in sorted(report.reference):
            print(f"BEL({pid}) = {_fmt_vector(report.reference[pid])}")
        return 0 if report.passed else 1

    # Each tree is checked as soon as it is drawn, so only one is held at a time.
    rng = np.random.default_rng(args.seed)
    all_passed = True
    for i in range(args.random):
        with _relabel("bad parameters"):
            tree = bp.random_tree(rng, args.max_depth, args.max_branch, (2, args.max_dim))
        report = _report_equivalence(f"tree-{i:03d}", tree, args.tolerance)
        all_passed = report.passed and all_passed
    return 0 if all_passed else 1


def _fmt_stat(x: float, digits: int) -> str:
    """Fixed point, or exponent form from 1e15 up, so a huge result prints on a short line."""
    return f"{x:.{digits}{'e' if abs(x) >= 1e15 else 'f'}}"


def cmd_servo(args: argparse.Namespace) -> int:
    with _relabel("bad parameters"):
        fields = dataclasses.fields(servo.ServoParams)
        params = servo.ServoParams(**{f.name: getattr(args, f.name) for f in fields})
        modes = servo.MODES if args.mode == "both" else (args.mode,)
        summary = servo.run_experiment(params, modes=modes)

    for path, write in ((args.csv, servo.write_csv), (args.json_path, servo.write_json)):
        if not path:
            continue
        try:
            write(path, summary)
        except OSError as exc:
            raise _InputError(f"cannot write {path}: {exc}") from exc

    for mode in modes:
        stats = summary.per_mode[mode]
        print(f"{mode}: mean={_fmt_stat(stats.mean, 6)} std={_fmt_stat(stats.std, 6)} n={stats.n}")
    if summary.reduction_percent is not None:
        print(f"reduction: {_fmt_stat(summary.reduction_percent, 2)}%")

    if len(modes) < 2:
        return 0
    errors = summary.errors
    dominated = all(ctx < plain for ctx, plain in zip(errors["context"], errors["no_context"]))
    if not dominated:
        print("context mode did not dominate on every trial", file=sys.stderr)
    return 0 if dominated else 1


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one stderr line, without the usage block."""

    def error(self, message: str):
        raise _InputError(f"{self.prog}: error: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = _Parser(
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
    for f in dataclasses.fields(servo.ServoParams):  # one flag per field; cmd_servo reads them back
        flag = "gain" if f.name == "kalman_gain" else f.name.replace("_", "-")
        metavar = flag.upper().replace("-", "_")
        p_servo.add_argument(
            f"--{flag}", type=type(f.default), default=f.default, dest=f.name, metavar=metavar
        )
    p_servo.add_argument(
        "--mode", choices=("both",) + servo.MODES, default="both", help="which arm(s) to run"
    )
    p_servo.add_argument("--csv", metavar="PATH", help="write per-trial results as CSV")
    p_servo.add_argument("--json", dest="json_path", metavar="PATH", help="write summary as JSON")
    p_servo.set_defaults(func=cmd_servo)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every input error is printed here, as one stderr line, and returns 2."""
    try:
        level = os.environ.get("COGHIER_LOG_LEVEL", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            names = "DEBUG, INFO, WARNING, ERROR or CRITICAL, in any case"
            raise _InputError(f"bad environment: COGHIER_LOG_LEVEL={level!r} is not {names}")
        logging.basicConfig(level=level.upper())
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2


def console_main() -> int:
    """The ``coghier`` script: :func:`main`, or exit 141 (silently) or 2 when an output fails.

    A stream that cannot be written then points at the null device, as the Python docs
    advise for SIGPIPE, so the interpreter's last flush at exit cannot raise again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141  # 128 + SIGPIPE, what a shell reports for a writer the signal ended
    except OSError as exc:  # each file a command opens reports its own, so this is stdout or stderr
        code = 2
        with contextlib.suppress(OSError):  # when stderr failed, this line is lost as well
            print(f"cannot write stdout: {exc}", file=sys.stderr)
    for stream in (sys.stdout, sys.stderr):  # a failed stream still holds what it could not write
        try:
            stream.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(console_main())
