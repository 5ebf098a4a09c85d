"""CLI grammar, JSON determinism, exit codes."""

import json

from complementa.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_cyclic(capsys):
    code, out, _ = run_cli(capsys, "build", "--recipe", "cyclic", "--n", "8")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == "cayley-v1"
    assert data["order"] == 8
    assert len(data["mult"]) == 64


def test_build_catalog_entry(capsys):
    code, out, _ = run_cli(capsys, "build", "--recipe", "holomorph8")
    assert code == 0
    assert json.loads(out)["order"] == 32


def test_bounds_m2(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--m", "2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["zeta"] == 8 and data["d_bound"] == 11


def test_bounds_with_q(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--m", "2", "--q", "3")
    assert json.loads(out)["prop1_bound"] == 36


def test_check_supercomplemented_x(capsys):
    code, out, _ = run_cli(capsys, "check", "supercomplemented",
                           "--recipe", "holomorph8", "--subgroup", "x")
    assert code == 0
    assert json.loads(out)["result"] is True


def test_check_complemented_all_mode(capsys):
    code, out, _ = run_cli(capsys, "check", "complemented", "--recipe", "s3",
                           "--subgroup", "1", "--mode", "all")
    data = json.loads(out)
    assert data["result"] is True
    assert data["complements"] == [[0, 2, 5]]


def test_check_subgroup_index_list(capsys):
    code, out, _ = run_cli(capsys, "check", "normal", "--recipe", "s3",
                           "--subgroup", "2")
    assert json.loads(out)["result"] is True


def test_check_completely_factorizable(capsys):
    code, out, _ = run_cli(capsys, "check", "completely-factorizable",
                           "--recipe", "c4")
    data = json.loads(out)
    assert data["result"] is False and data["witness"] == [0, 2]


def test_verify_holomorph8_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "holomorph8", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 8
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["elapsed_ms"] is None for r in reports)
    assert "pass=8" in err


def test_verify_output_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--suite", "split-p5-2", "--json")
    _, out2, _ = run_cli(capsys, "verify", "--suite", "split-p5-2", "--json")
    assert out1 == out2


def test_verify_human_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "holomorph8")
    assert code == 0
    assert "holomorph8.seven-index-2: pass" in out


def test_lattice_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--recipe", "c4")
    data = json.loads(out)
    assert data["orders"] == [1, 2, 4]
    code, out, _ = run_cli(capsys, "lattice", "--recipe", "c4", "--format", "dot")
    assert out.startswith("digraph")


def test_export_and_reload(tmp_path, capsys):
    path = tmp_path / "group.json"
    code, _, _ = run_cli(capsys, "export", "--recipe", "dih8",
                         "--format", "cayley", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "nilpotent", "--recipe", str(path))
    assert code == 0
    assert json.loads(out)["result"] is True


def test_export_dot(tmp_path, capsys):
    path = tmp_path / "lat.dot"
    code, _, _ = run_cli(capsys, "export", "--recipe", "s3",
                         "--format", "dot", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("digraph")


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "check", "supercomplemented",
                         "--recipe", "holomorph8")  # missing --subgroup
    assert code == 2
    code, _, _ = run_cli(capsys, "build", "--recipe", "no-such-recipe")
    assert code == 2
    code, _, _ = run_cli(capsys, "build", "--recipe", "cyclic", "--n", "8",
                         "--bogus-flag")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--suite", "no-such-suite")
    assert code == 2
    code, _, _ = run_cli(capsys, "bounds")  # --m required
    assert code == 2


def test_cap_override(capsys):
    code, _, err = run_cli(capsys, "lattice", "--recipe", "cyclic", "--n", "40",
                           "--cap", "20")
    assert code == 2
    assert "lattice" in err


def test_unknown_subgroup_handle(capsys):
    code, _, err = run_cli(capsys, "check", "normal", "--recipe", "s3",
                           "--subgroup", "nope")
    assert code == 2
    assert "handle" in err


C3_MULT = [0, 1, 2, 1, 2, 0, 2, 0, 1]


def run_on_document(tmp_path, capsys, doc):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    return run_cli(capsys, "lattice", "--recipe", str(path))


def test_generator_index_out_of_range_is_usage_error(tmp_path, capsys):
    doc = {"version": "cayley-v1", "order": 3, "mult": C3_MULT, "generators": [7]}
    code, out, err = run_on_document(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "[7]" in err


def test_negative_generator_index_is_usage_error(tmp_path, capsys):
    doc = {"version": "cayley-v1", "order": 3, "mult": C3_MULT, "generators": [-1]}
    code, out, err = run_on_document(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "[-1]" in err


def test_top_level_array_is_usage_error(tmp_path, capsys):
    code, out, err = run_on_document(tmp_path, capsys, [C3_MULT])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "JSON object" in err


def test_huge_table_entry_is_usage_error(tmp_path, capsys):
    doc = {"version": "cayley-v1", "order": 2, "mult": [0, 1, 2**70, 0]}
    code, out, err = run_on_document(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "mult entries" in err
