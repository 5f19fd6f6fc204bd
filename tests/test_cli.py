"""Command-line behaviour: exit codes, outputs, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coghier
from coghier import bp, documents, servo
from coghier.cli import build_parser, main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def thecat_tree_doc(tmp_path):
    return write_json(tmp_path / "tree.json", documents.tree_to_document(bp.thecat_tree()))


# ---------------------------------------------------------------------------
# validate


@pytest.mark.parametrize("demo", ["thecat", "servo"])
def test_validate_hierarchy_document_ok(tmp_path, capsys, demo):
    path = write_json(tmp_path / f"{demo}.json", documents.demo_document(demo))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == f"{path}: OK (hierarchy)\n"


def test_validate_tree_document_ok(thecat_tree_doc, capsys):
    assert main(["validate", thecat_tree_doc]) == 0
    assert "OK (tree)" in capsys.readouterr().out


def test_validate_cyclic_document_fails(tmp_path, capsys):
    doc = documents.demo_document("thecat")
    doc["edges"].append({"lower": "N4", "upper": "N1", "functions": "noop.edge"})
    path = write_json(tmp_path / "cyclic.json", doc)
    assert main(["validate", path]) == 1
    assert "cycle" in capsys.readouterr().out


def test_validate_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_missing_file_is_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_validate_an_unknown_edge_bundle_is_parse_error(tmp_path, capsys):
    doc = documents.demo_document("thecat")
    doc["edges"][0]["functions"] = "nope"
    path = write_json(tmp_path / "nope.json", doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error in {path}: unknown edge function bundle 'nope'\n"


def assert_one_line_input_error(argv, capsys, start):
    """Exit 2 with a single stderr line beginning ``start`` and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(start)


@pytest.mark.parametrize("command", ["validate", "bp"])
def test_non_object_processor_record_is_parse_error(tmp_path, capsys, command):
    path = write_json(tmp_path / "tree.json", {"processors": [1]})
    assert_one_line_input_error([command, path], capsys, "parse error")


@pytest.mark.parametrize("command", ["validate", "bp"])
def test_an_empty_tree_document_is_parse_error(tmp_path, capsys, command):
    path = write_json(tmp_path / "empty-tree.json", {"processors": []})
    assert main([command, path]) == 2
    message = f"parse error in {path}: document must contain a non-empty 'processors' list\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("command", ["validate", "bp"])
def test_a_matrix_of_the_wrong_length_is_a_parse_error_naming_its_processor(
    tmp_path, capsys, command
):
    child = {"id": "b", "n": 2, "parent": "a", "matrix": [0.5, 0.5, 0.5, 0.5, 0.1]}
    doc = {"processors": [{"id": "a", "n": 2}, child]}
    path = write_json(tmp_path / "bad-matrix.json", doc)
    start = f"parse error in {path}: processor 'b': 'matrix' must hold 2 x 2 = 4 numbers, got 5"
    assert_one_line_input_error([command, path], capsys, start)


@pytest.mark.parametrize("command", ["validate", "bp"])
@pytest.mark.parametrize(
    ("root", "leaf", "refused"),
    [
        ({}, {"prior": [1, 0]}, "'b': a non-root processor cannot carry 'prior'"),
        ({"matrix": [1, 0, 0, 1]}, {}, "'a': a root processor cannot carry 'matrix'"),
        ({}, {"extrenal_input": [1, 0]}, "'b': a non-root processor cannot carry 'extrenal_input'"),
    ],
)
def test_a_field_the_tree_loader_would_drop_is_a_parse_error(
    tmp_path, capsys, command, root, leaf, refused
):
    leaf = {"id": "b", "n": 2, "parent": "a", "matrix": [0.5, 0.5, 0.5, 0.5], **leaf}
    doc = {"processors": [{"id": "a", "n": 2, **root}, leaf]}
    path = write_json(tmp_path / "refused.json", doc)
    start = f"parse error in {path}: processor {refused}"
    assert_one_line_input_error([command, path], capsys, start)


@pytest.mark.parametrize("command", ["validate", "bp"])
@pytest.mark.parametrize(
    ("extra", "refused"),
    [
        ({"nodes": [], "edges": [], "world_node": "N0"}, "'nodes', 'edges', 'world_node'"),
        ({"processor": []}, "'processor'"),
    ],
)
def test_a_tree_document_carrying_another_top_level_key_is_a_parse_error(
    tmp_path, capsys, command, extra, refused
):
    doc = {**documents.tree_to_document(bp.thecat_tree()), **extra}
    path = write_json(tmp_path / "both.json", doc)
    start = f"parse error in {path}: a tree document cannot carry {refused}\n"
    assert_one_line_input_error([command, path], capsys, start)


def misspell(records, index, key):
    """Add the misspelt ``key`` to record ``index`` of the word/letter hierarchy's ``records``."""

    def mutate(doc):
        doc[records][index][key] = "x"

    return mutate


@pytest.mark.parametrize(
    ("mutate", "refused"),
    [
        (lambda doc: doc.update(edge=[]), "a hierarchy document cannot carry 'edge'"),
        (misspell("nodes", 1, "operator"), "node 'N1': the record cannot carry 'operator'"),
        (misspell("edges", 0, "function"), "edge 'N0' -> 'N1': the record cannot carry 'function'"),
    ],
)
def test_a_hierarchy_key_the_loader_would_drop_is_a_parse_error(tmp_path, capsys, mutate, refused):
    doc = documents.demo_document("thecat")
    mutate(doc)
    path = write_json(tmp_path / "misspelt.json", doc)
    assert_one_line_input_error(["validate", path], capsys, f"parse error in {path}: {refused}\n")


@pytest.mark.parametrize("command", ["validate", "bp"])
def test_undecodable_document_is_parse_error(tmp_path, capsys, command):
    """Bytes that are not UTF-8, and arrays nested too deep for the decoder's recursion."""
    for name, body in [
        ("binary.json", b'\xff\xfe{"processors": []}'),
        ("deep.json", b"[" * 100_000 + b"]" * 100_000),
    ]:
        path = tmp_path / name
        path.write_bytes(body)
        assert_one_line_input_error([command, str(path)], capsys, f"parse error in {path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bp", "--random", "1", "--tolerance", "nan"],
        ["bp", "--random", "1", "--max-dim", "1"],
        ["bp", "--random", "1", "--max-branch", "-1"],
        ["servo", "--trials", "1", "--duration", "1e9"],
        ["bp", "--random", "1", "--max-depth", str(bp.MAX_RANDOM_DEPTH + 1)],
        ["bp", "--random", "20", "--max-depth", "20"],
        ["servo", "--trials", str(servo.MAX_TRIALS + 1)],
        ["servo", "--trials", "1", "--seed", "-1"],
        ["bp", "--random", "2", "--seed", "-1"],
    ],
)
def test_bad_numeric_flags_are_input_errors(capsys, argv):
    assert_one_line_input_error(argv, capsys, "bad parameters")


@pytest.mark.parametrize(
    "argv",
    [
        ["bp", "--seed", "abc", "--random", "1"],
        ["servo", "--trials", "x"],
        ["bp"],
        ["frob"],
        ["servo", "--mode", "bogus"],
    ],
)
def test_malformed_command_lines_exit_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("coghier")


def test_bp_random_matrix_cap_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr(bp, "MAX_RANDOM_MATRIX_ENTRIES", 100)
    assert_one_line_input_error(["bp", "--random", "1", "--max-dim", "8"], capsys, "bad parameters")


def test_bp_missing_document_is_input_error(tmp_path, capsys):
    assert_one_line_input_error(["bp", str(tmp_path / "absent.json")], capsys, "cannot read")


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_servo_unwritable_output_is_input_error(tmp_path, capsys, flag):
    path = str(tmp_path / "absent" / "out")
    argv = ["servo", "--trials", "1", flag, path]
    assert_one_line_input_error(argv, capsys, f"cannot write {path}")


@pytest.mark.parametrize("pid, field", [("N2", "external_input"), ("N4", "prior")])
def test_validate_and_bp_both_reject_all_zero_evidence(tmp_path, capsys, pid, field):
    doc = documents.tree_to_document(bp.thecat_tree())
    next(rec for rec in doc["processors"] if rec["id"] == pid)[field] = [0.0, 0.0]
    path = write_json(tmp_path / "zero.json", doc)
    assert main(["validate", path]) == 1
    assert "all zero" in capsys.readouterr().out
    assert_one_line_input_error(["bp", path], capsys, "invalid tree")


def unreachable_pair(doc):
    """Two processors whose parent links point at each other, apart from the root."""
    rec = {"n": 2, "matrix": [1.0, 0.0, 0.0, 1.0], "external_input": [1.0, 1.0]}
    doc["processors"] += [{**rec, "id": "A", "parent": "B"}, {**rec, "id": "B", "parent": "A"}]


def set_field(pid, field, value):
    def mutate(doc):
        next(rec for rec in doc["processors"] if rec["id"] == pid)[field] = value

    return mutate


def root_named_as_world(doc):
    """The root takes the id of the world node that ``bp.encode`` adds."""
    for rec in doc["processors"]:
        rec["id"] = bp.WORLD_ID if rec["id"] == "N4" else rec["id"]
        rec["parent"] = bp.WORLD_ID if rec["parent"] == "N4" else rec["parent"]


WRONG_SHAPE = "has shape (3,), expected (2,)"
UNREACHABLE = [f"processor {pid!r} is not reachable from the root" for pid in ("A", "B")]


@pytest.mark.parametrize(
    "mutate, violations",
    [
        (set_field("N1", "external_input", [1, 2, 3]), [f"'N1': external_input {WRONG_SHAPE}"]),
        (set_field("N4", "prior", [-1.0, 2.0]), ["'N4': causal has negative entries"]),
        (unreachable_pair, UNREACHABLE),
        (root_named_as_world, [f"processor id {bp.WORLD_ID!r} is reserved for the world node"]),
        (set_field("N4", "prior", [1e308, 1e308]), ["'N4': causal sums to inf, which is not finite"]),
        (
            set_field("N3", "external_input", [1e308, 1e308]),
            ["'N3': external_input sums to inf, which is not finite"],
        ),
        (  # the row's sum overflows, which must not leak a numpy warning
            set_field("N1", "matrix", [1e308, 1e308, 0.5, 0.5]),
            ["'N1': conditional matrix rows do not sum to 1"],
        ),
    ],
)
def test_tree_violations_reach_validate_and_bp(tmp_path, capsys, mutate, violations):
    """``validate`` prints each violation and their count; ``bp`` refuses the tree in one line."""
    doc = documents.tree_to_document(bp.thecat_tree())
    mutate(doc)
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["validate", path]) == 1
    summary = f"{path}: {len(violations)} violation(s)"
    out, err = capsys.readouterr()
    assert out.splitlines() == [*violations, summary]
    assert err == ""
    start = f"invalid tree in {path}: {'; '.join(violations)}"
    assert_one_line_input_error(["bp", path], capsys, start)


@pytest.mark.parametrize("command", ["validate", "bp"])
def test_duplicate_processor_id_is_parse_error(tmp_path, capsys, command):
    doc = documents.tree_to_document(bp.thecat_tree())
    leaf = doc["processors"][-1]
    doc["processors"].append(dict(leaf))
    path = write_json(tmp_path / "twice.json", doc)
    start = f"parse error in {path}: duplicate processor id {leaf['id']!r}"
    assert_one_line_input_error([command, path], capsys, start)


def test_non_string_world_node_is_parse_error(tmp_path, capsys):
    doc = documents.demo_document("thecat")
    doc["world_node"] = [doc["world_node"]]
    path = write_json(tmp_path / "world.json", doc)
    assert_one_line_input_error(["validate", path], capsys, "parse error")


def test_demo_bundle_bound_to_another_node_is_parse_error(tmp_path, capsys):
    doc = documents.demo_document("thecat")
    doc["nodes"] = [
        dict(rec, operators="thecat.N2") if rec["id"] == "N1" else rec for rec in doc["nodes"]
    ]
    path = write_json(tmp_path / "misbound.json", doc)
    start = f"parse error in {path}: bundle 'thecat.N2' built node 'N2', document says 'N1'"
    assert_one_line_input_error(["validate", path], capsys, start)


# ---------------------------------------------------------------------------
# bp


def test_bp_fixture_passes_and_prints_beliefs(thecat_tree_doc, capsys):
    assert main(["bp", thecat_tree_doc]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "BEL(N2) = [0, 1]" in out


def test_bp_contradictory_evidence_fails_and_names_the_degenerate_processors(tmp_path, capsys):
    doc = documents.tree_to_document(bp.thecat_tree())
    set_field("N3", "external_input", [1, 0])(doc)
    assert main(["bp", write_json(tmp_path / "contra.json", doc)]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == (
        "contra.json: FAIL nodes=4 max_deviation=inf ticks=0 "
        "(reference propagation hit contradictory evidence)"
    )
    assert "contra.json: degenerate evidence at N1, N2, N3, N4" in lines
    assert err == ""


def test_bp_reports_a_zero_product_only_the_embedding_meets(thecat_tree_doc, monkeypatch, capsys):
    def collapsed(belief_state):
        raise bp.DegenerateBeliefError("belief state")

    monkeypatch.setattr(bp, "node_belief", collapsed)
    assert main(["bp", thecat_tree_doc]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[:2] == [
        "tree.json: FAIL nodes=4 max_deviation=inf ticks=2 "
        "(contradictory evidence: zero belief product at belief state)",
        "tree.json: degenerate evidence at belief state",
    ]
    assert err == ""


def test_bp_fails_a_deviation_of_1e_6_by_default(thecat_tree_doc, monkeypatch, capsys):
    """``--tolerance`` defaults to 1e-9, so a belief 1e-6 off fails the check."""
    real = bp.node_belief

    def shifted(belief_state):
        bel = real(belief_state).copy()
        bel[0] += 1e-6
        return bel

    monkeypatch.setattr(bp, "node_belief", shifted)
    assert main(["bp", thecat_tree_doc]) == 1
    out = capsys.readouterr().out
    assert out.startswith("tree.json: FAIL nodes=4 max_deviation=1.000e-06 ticks=2\n")


def test_bp_document_propagates_the_tree_once(thecat_tree_doc, monkeypatch, capsys):
    """The printed beliefs are the equivalence check's reference, not a second propagation."""
    calls = []
    propagate = bp.bp_propagate
    monkeypatch.setattr(bp, "bp_propagate", lambda tree: calls.append(tree) or propagate(tree))
    assert main(["bp", thecat_tree_doc]) == 0
    assert len(calls) == 1
    assert "BEL(N4) = [0, 1]" in capsys.readouterr().out


def test_subnormal_root_evidence_is_not_contradictory(tmp_path, capsys):
    """Uniform evidence of subnormal size is still uniform once normalised."""
    doc = documents.tree_to_document(bp.thecat_tree())
    set_field("N4", "external_input", [5e-324, 5e-324])(doc)
    path = write_json(tmp_path / "subnormal.json", doc)
    assert main(["validate", path]) == 0
    assert main(["bp", path]) == 0
    out, err = capsys.readouterr()
    assert "subnormal.json: PASS nodes=4 max_deviation=0.000e+00 ticks=2" in out
    assert [line for line in out.splitlines() if line.startswith("BEL")] == [
        f"BEL(N{k}) = [0, 1]" for k in range(1, 5)
    ]
    assert err == ""


def test_bp_random_suite_passes(capsys):
    assert main(["bp", "--random", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10


def test_bp_random_suite_output_is_pinned(capsys):
    """Deviations masked, as the benchmark masks them: they may move in the last bits."""
    assert main(["bp", "--random", "100", "--seed", "7"]) == 0
    masked = re.sub(r"max_deviation=\S+", "max_deviation=*", capsys.readouterr().out)
    digest = "0bebafb13b925ee9f24bb0cd4d4dc70393697710e81f368dd30994efa2bae048"
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


def test_bp_random_suite_passes_on_wide_vectors(capsys):
    """Vectors of 61, 4, 15, 40 and 64 values: past 8, a BLAS dot may add in another order."""
    assert main(["bp", "--random", "5", "--max-dim", "64", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert all(": PASS " in line for line in lines)


def test_a_closed_stdout_ends_the_script_without_a_traceback():
    """The reader stops after one line, as ``| head -n 1`` does; the script exits 141."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coghier.__file__))}
    argv = [sys.executable, "-m", "coghier.cli", "bp", "--random", "300", "--seed", "7"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    ) as proc:
        assert proc.stdout.readline().startswith("tree-000: PASS ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_is_an_input_error_without_a_traceback():
    """Every write to ``/dev/full`` fails with ENOSPC; the script exits 2 with one stderr line."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coghier.__file__))}
    argv = [sys.executable, "-m", "coghier.cli", "bp", "--random", "3", "--seed", "7"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("cannot write stdout: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, stdout_full, kept",
    [
        (["bp"], False, []),
        (["validate", "/nonexistent.json"], False, []),
        (["bp", "--random", "2", "--seed", "7"], True, []),
        # the third tree of this suite hits the 2000-processor cap
        (["bp", "--random", "5", "--seed", "8", "--max-depth", "64"], False, [7, 2]),
    ],
    ids=["bp-without-input", "validate-missing-file", "stdout-full-too", "bp-cap-part-way"],
)
def test_a_full_stderr_still_exits_2_and_keeps_what_stdout_took(argv, stdout_full, kept):
    """Buffered streams, as an installed script has them: an unwritten line stays buffered."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coghier.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "coghier.cli", *argv],
            stdout=full if stdout_full else subprocess.PIPE,
            stderr=full,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 2
    lines = (proc.stdout or "").splitlines()
    assert [line.split(" max_deviation=")[0] for line in lines] == [
        f"tree-{i:03d}: PASS nodes={n}" for i, n in enumerate(kept)
    ]


def test_bp_deep_chain_document_passes(tmp_path, capsys):
    """No step recurses once per level, so a long valid chain is checked like a short one."""
    records = [{"id": "P0", "n": 2, "parent": None, "prior": [0.3, 0.7], "external_input": [1, 1]}]
    records += [
        {"id": f"P{i}", "n": 2, "parent": f"P{i - 1}", "matrix": [0.9, 0.1, 0.2, 0.8],
         "external_input": [0.6, 0.4]}
        for i in range(1, 1500)
    ]
    path = write_json(tmp_path / "deep.json", {"processors": records})
    assert main(["bp", path]) == 0
    out, err = capsys.readouterr()
    first = out.splitlines()[0]
    assert first.startswith("deep.json: PASS nodes=1500 ")
    assert first.endswith(" ticks=2")
    assert err == ""


def test_bp_zero_tolerance_fails_on_rounding(capsys):
    assert main(["bp", "--random", "3", "--seed", "1", "--tolerance", "0"]) == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["servo", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: coghier servo")


def test_repeated_calls_share_one_parser_and_leak_nothing(thecat_tree_doc, capsys):
    """Flags given to one call leave the defaults of the next call alone."""
    plain = ["servo", "--trials", "2"]
    assert main(plain) == 0
    first = capsys.readouterr()
    assert main(["servo", "--trials", "3", "--seed", "5", "--mode", "context", "--gain", "0.5"]) == 0
    assert main(["servo", "--trials", "x"]) == 2
    assert main(["bp", thecat_tree_doc, "--tolerance", "0.1"]) == 0
    assert main(["bp", "--random", "1", "--max-dim", "3"]) == 0
    capsys.readouterr()
    assert main(plain) == 0
    assert capsys.readouterr() == first
    assert build_parser() is build_parser()


def test_bp_requires_input():
    assert main(["bp"]) == 2


def test_bp_takes_a_document_path_or_random_trees_not_both(thecat_tree_doc, capsys):
    argv = ["bp", thecat_tree_doc, "--random", "3", "--seed", "5", "--max-depth", "9"]
    start = "coghier: error: bp needs a document path or --random N, not both\n"
    assert_one_line_input_error(argv, capsys, start)


def test_bp_negative_tolerance_is_input_error(thecat_tree_doc):
    assert main(["bp", thecat_tree_doc, "--tolerance", "-1"]) == 2


def test_bp_random_checks_each_tree_as_soon_as_it_is_drawn(monkeypatch, capsys):
    """Draws and checks alternate; a cap hit part-way keeps the lines already printed."""
    events = []
    draw, check = bp.random_tree, bp.equivalence_check

    def drawing(*args):
        events.append("draw")
        if events.count("draw") == 3:
            raise ValueError("cap reached")
        return draw(*args)

    def checking(tree, tolerance):
        events.append("check")
        return check(tree, tolerance=tolerance)

    monkeypatch.setattr(bp, "random_tree", drawing)
    monkeypatch.setattr(bp, "equivalence_check", checking)
    assert main(["bp", "--random", "5", "--seed", "7"]) == 2
    assert events == ["draw", "check", "draw", "check", "draw"]
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in out.splitlines()] == ["tree-000", "tree-001"]
    assert err == "bad parameters: cap reached\n"


# ---------------------------------------------------------------------------
# servo


def test_servo_writes_outputs_and_reports_reduction(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    json_path = tmp_path / "summary.json"
    code = main(
        [
            "servo",
            "--trials",
            "5",
            "--seed",
            "42",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "reduction:" in out
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert summary["reduction_percent"] >= 90.0
    assert set(summary) == {"context", "no_context", "reduction_percent"}
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,mode,mean_error"
    assert len(lines) == 1 + 5 * 2


def test_servo_outputs_bit_identical_across_runs(tmp_path):
    args = ["servo", "--trials", "3", "--seed", "9"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(first)]) == 0
    assert main(args + ["--csv", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_servo_single_mode_csv(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    code = main(
        ["servo", "--trials", "2", "--mode", "no_context", "--csv", str(csv_path)]
    )
    assert code == 0
    body = csv_path.read_text()
    assert "no_context" in body
    assert ",context," not in body
    assert "reduction" not in capsys.readouterr().out


def test_servo_deterministic_without_noise(capsys):
    args = ["servo", "--trials", "1", "--noise-sigma", "0"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "flag, field, value",
    [
        ("--accel", "accel", 2.5),
        ("--dt", "dt", 0.1),
        ("--duration", "duration", 2.0),
        ("--noise-sigma", "noise_sigma", 0.3),
        ("--gain", "kalman_gain", 0.5),
        ("--seed", "seed", 9),
        ("--trials", "trials", 3),
    ],
)
def test_each_servo_flag_reaches_its_parameter(monkeypatch, capsys, flag, field, value):
    """Every other parameter keeps its ``ServoParams`` default."""
    seen = []

    def run_experiment(params, modes):
        seen.append(params)
        raise ValueError("stopped before running")

    monkeypatch.setattr(servo, "run_experiment", run_experiment)
    assert_one_line_input_error(["servo", flag, str(value)], capsys, "bad parameters: stopped")
    assert seen == [servo.ServoParams(**{field: value})]


def test_one_servo_trial_has_a_std_of_zero(capsys):
    assert main(["servo", "--trials", "1", "--mode", "context"]) == 0
    assert re.fullmatch(r"context: mean=\S+ std=0\.000000 n=1\n", capsys.readouterr().out)


def test_servo_exits_1_when_context_does_not_dominate(capsys):
    """With gain 1 both modes follow the readings alone, so their errors tie on every trial."""
    assert main(["servo", "--trials", "5", "--gain", "1.0"]) == 1
    out, err = capsys.readouterr()
    assert "reduction: 0.00%" in out.splitlines()
    assert err == "context mode did not dominate on every trial\n"


def test_servo_bad_params_are_input_errors(capsys):
    assert main(["servo", "--dt", "0"]) == 2
    assert "bad parameters" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["debug", "Info", "WARNING", "error"])
def test_log_level_names_are_accepted_in_any_case(monkeypatch, capsys, level):
    monkeypatch.setenv("COGHIER_LOG_LEVEL", level)
    assert main(["servo", "--trials", "1"]) == 0


@pytest.mark.parametrize("command", [["servo", "--trials", "1"], ["bp", "--random", "1"]])
@pytest.mark.parametrize("level", ["loud", "", "10"])
def test_unknown_log_level_is_input_error(monkeypatch, capsys, command, level):
    monkeypatch.setenv("COGHIER_LOG_LEVEL", level)
    assert_one_line_input_error(command, capsys, "bad environment: COGHIER_LOG_LEVEL")


@pytest.mark.parametrize(
    "flags", [["--dt", "nan"], ["--duration", "inf"], ["--accel", "nan"], ["--noise-sigma", "inf"]]
)
def test_servo_non_finite_params_are_input_errors(capsys, flags):
    assert_one_line_input_error(["servo", "--trials", "1", *flags], capsys, "bad parameters")


@pytest.mark.parametrize("trials", ["1", "2"])
@pytest.mark.parametrize("flag", ["--accel", "--noise-sigma"])
def test_servo_runs_that_overflow_are_input_errors(capsys, trials, flag):
    argv = ["servo", "--trials", trials, flag, "1e308"]
    assert_one_line_input_error(argv, capsys, "bad parameters: the no_context run overflows")


def test_servo_summary_that_overflows_is_input_error(capsys):
    """Each trial's error is finite here, but the sum over 100 trials is not."""
    argv = ["servo", "--trials", "100", "--accel", "1e307"]
    assert_one_line_input_error(argv, capsys, "bad parameters: the no_context run overflows")


def test_servo_prints_a_huge_result_in_exponent_form(capsys):
    """Fixed point would print all 300 integer digits of each mean."""
    assert main(["servo", "--accel", "1e300", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("no_context: mean=2.038125e+299 std=0.000000 n=2\n")
    assert max(len(line) for line in out.splitlines()) <= 100


# ---------------------------------------------------------------------------
# Whole flag sets drawn from boundary values

EDGES = ["0", "-1", "1", "1e300", "nan", "inf"]


def caps(cap):
    return [str(cap), str(cap + 1)]


# --random and --max-branch get no large values: neither has a cap, every random
# tree is checked in full, and a node with m children costs O(m^2) to check.
SERVO_FLAGS = {
    "--accel": EDGES,
    "--dt": EDGES,
    "--duration": EDGES + caps(servo.MAX_STEPS),
    "--noise-sigma": EDGES,
    "--gain": EDGES,
    "--seed": EDGES,
    "--trials": EDGES + caps(servo.MAX_TRIALS),
    "--mode": ["both", *servo.MODES],
}
BP_FLAGS = {
    "--random": EDGES,
    "--seed": EDGES,
    "--tolerance": EDGES,
    "--max-depth": EDGES + caps(bp.MAX_RANDOM_DEPTH),
    "--max-branch": EDGES,
    "--max-dim": EDGES + caps(bp.MAX_FEATURE_DIM),
}


def flag_sets(command, values):
    """``command`` with each flag left at its default or set to one of its values."""
    optional = {flag: st.sampled_from(choices) for flag, choices in values.items()}
    chosen = st.fixed_dictionaries({}, optional=optional)
    return chosen.map(lambda flags: [command, *itertools.chain.from_iterable(flags.items())])


def short_enough(argv):
    """Leaves out ``--dt 1 --duration MAX_STEPS``: 100,000 ticks a mode take seconds."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    return (flags.get("--dt"), flags.get("--duration")) != ("1", str(servo.MAX_STEPS))


@settings(derandomize=True, max_examples=200)
@example(argv=["servo", "--accel", "1e300", "--trials", "2"])
@given(
    argv=st.one_of(
        flag_sets("servo", SERVO_FLAGS).filter(short_enough), flag_sets("bp", BP_FLAGS)
    )
)
def test_whole_flag_sets_keep_the_exit_contract(argv):
    """Exit 0, 1 or 2 and never an exception; one stderr line on 2; no nan; short servo lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert not re.search(r"\bnan\b", out.getvalue() + err.getvalue(), re.IGNORECASE)
    if argv[0] == "servo":
        assert all(len(line) <= 100 for line in out.getvalue().splitlines())
