"""Command-line behaviour: exit codes, outputs, determinism."""

import json

import pytest

from coghier import bp, documents, servo
from coghier.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def thecat_doc(tmp_path):
    return write_json(tmp_path / "thecat.json", documents.demo_document("thecat"))


@pytest.fixture
def thecat_tree_doc(tmp_path):
    return write_json(tmp_path / "tree.json", bp.tree_to_document(bp.thecat_tree()))


# ---------------------------------------------------------------------------
# validate


def test_validate_hierarchy_document_ok(thecat_doc, capsys):
    assert main(["validate", thecat_doc]) == 0
    assert "OK" in capsys.readouterr().out


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
def test_undecodable_document_is_parse_error(tmp_path, capsys, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b'\xff\xfe{"processors": []}')
    assert_one_line_input_error([command, str(path)], capsys, "parse error")


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


def test_bp_missing_document_is_input_error(tmp_path, capsys):
    assert_one_line_input_error(["bp", str(tmp_path / "absent.json")], capsys, "cannot read")


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_servo_unwritable_output_is_input_error(tmp_path, capsys, flag):
    path = str(tmp_path / "absent" / "out")
    argv = ["servo", "--trials", "1", flag, path]
    assert_one_line_input_error(argv, capsys, f"cannot write {path}")


@pytest.mark.parametrize("pid, field", [("N2", "external_input"), ("N4", "prior")])
def test_validate_and_bp_both_reject_all_zero_evidence(tmp_path, capsys, pid, field):
    doc = bp.tree_to_document(bp.thecat_tree())
    next(rec for rec in doc["processors"] if rec["id"] == pid)[field] = [0.0, 0.0]
    path = write_json(tmp_path / "zero.json", doc)
    assert main(["validate", path]) == 1
    assert "all zero" in capsys.readouterr().out
    assert_one_line_input_error(["bp", path], capsys, "invalid tree")


@pytest.mark.parametrize("command", ["validate", "bp"])
def test_duplicate_processor_id_is_parse_error(tmp_path, capsys, command):
    doc = bp.tree_to_document(bp.thecat_tree())
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


# ---------------------------------------------------------------------------
# bp


def test_bp_fixture_passes_and_prints_beliefs(thecat_tree_doc, capsys):
    assert main(["bp", thecat_tree_doc]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "BEL(N2) = [0, 1]" in out


def test_bp_random_suite_passes(capsys):
    assert main(["bp", "--random", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10


def test_bp_zero_tolerance_fails_on_rounding(capsys):
    assert main(["bp", "--random", "3", "--seed", "1", "--tolerance", "0"]) == 1


def test_bp_requires_input():
    with pytest.raises(SystemExit) as err:
        main(["bp"])
    assert err.value.code == 2


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
