"""CLI grammar, JSON determinism, exit codes."""

import ast
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import complementa as ca
import complementa.cli as cli
from complementa.cli import _PREDICATES, run
from complementa.subgroups import lattice_to_json
from references import LARGE_LATTICES, lattice_group


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


def test_bounds_with_a_large_prime_q_answers_at_once(capsys):
    q = 2 ** 61 - 1
    code, out, _ = run_cli(capsys, "bounds", "--m", "2", "--q", str(q))
    assert code == 0 and json.loads(out)["prop1_bound"] == q ** 2 * 4


@pytest.mark.parametrize("argv, message", [
    (["--m", "2", "--q", "3317044064679887385961981"], "error: primality is decided only"),
    (["--m", str(2 ** 70 + 1)], "error: m! is not computed"),
])
def test_bounds_out_of_range_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 2 and out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("m", [10 ** 155, 10 ** 400])
def test_bounds_refuse_m_beyond_float_range_before_any_float(capsys, m):
    # (n - 2) / 8 in derived_length_bound overflows a float from about 1.2e154
    code, out, err = run_cli(capsys, "bounds", "--m", str(m))
    assert code == 2 and out == ""
    assert err.startswith("error: m! is not computed")


@pytest.fixture
def int_str_limit():
    """Sets the integer-to-string digit limit for one test, then restores it."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("argv, printed", [
    (["--m", "1558"], True), (["--m", "1559"], False),
    (["--m", "116", "--q", "2"], True), (["--m", "117", "--q", "2"], False),
    (["--m", "93", "--q", "3"], True), (["--m", "94", "--q", "3"], False),
])
def test_bounds_print_up_to_the_integer_string_limit(capsys, int_str_limit, argv, printed):
    int_str_limit(4300)
    code, out, err = run_cli(capsys, "bounds", *argv)
    if printed:
        assert code == 0 and json.loads(out)["m"] == int(argv[1])
    else:
        assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("m", [10 ** 6, 10 ** 7])
def test_bounds_refuse_oversize_factorials_at_once(capsys, int_str_limit, m):
    int_str_limit(4300)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--m", str(m))
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == "" and err.startswith("error: m! has about")


def test_bounds_without_a_digit_limit_compute_in_full(capsys, int_str_limit):
    int_str_limit(0)
    code, out, _ = run_cli(capsys, "bounds", "--m", "3000")
    assert code == 0 and json.loads(out)["factorial_bound"] == math.factorial(3000)


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


@pytest.mark.parametrize("name", [e.name for e in ca.catalog()]
                         + list(LARGE_LATTICES) + ["trivial"])
def test_lattice_writer_is_json_dumps_of_the_lattice_dict(name):
    g = ca.cyclic(1) if name == "trivial" else lattice_group(name)
    lat = ca.all_subgroups(g, cap=g.order)
    assert "".join(lattice_to_json(lat)) == json.dumps(ca.lattice_to_dict(lat), indent=2)


RECIPE_ARGVS = [
    ("--recipe", "cyclic", "--n", "1"),
    ("--recipe", "elementary", "--p", "2", "--n", "4"),
    *(("--recipe", e.name) for e in ca.catalog()),
]


@pytest.mark.parametrize("argv", RECIPE_ARGVS, ids=lambda argv: "-".join(argv[1:]))
def test_lattice_and_export_print_json_dumps_of_the_lattice_dict(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, "lattice", *argv)
    assert code == 0
    g = ca.group_from_json(run_cli(capsys, "build", *argv)[1])
    expected = json.dumps(ca.lattice_to_dict(ca.all_subgroups(g)), indent=2) + "\n"
    assert out == expected
    path = tmp_path / "lattice.json"
    code, out, _ = run_cli(capsys, "export", *argv, "--format", "lattice", "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("argv", RECIPE_ARGVS, ids=lambda argv: "-".join(argv[1:]))
def test_build_and_export_print_json_dumps_of_the_group_dict(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, "build", *argv)
    assert code == 0
    g = cli._resolve_group(cli._build_parser().parse_args(["build", *argv])).group
    expected = json.dumps(ca.group_to_dict(g), indent=2) + "\n"
    assert out == expected
    path = tmp_path / "group.json"
    code, out, _ = run_cli(capsys, "export", *argv, "--format", "cayley", "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_text(encoding="utf-8") == expected


def test_export_and_reload(tmp_path, capsys):
    path = tmp_path / "group.json"
    code, _, _ = run_cli(capsys, "export", "--recipe", "dih8",
                         "--format", "cayley", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", "nilpotent", "--recipe", str(path))
    assert code == 0
    assert json.loads(out)["result"] is True


@pytest.mark.parametrize("argv", [
    ("check", "supercomplemented", "--subgroup", "1"),
    ("lattice",),
    ("check", "complemented", "--subgroup", "99"),  # out of range: exit 2
])
def test_group_read_from_a_file_is_freed_when_the_request_ends(tmp_path, capsys,
                                                               monkeypatch, argv):
    path = tmp_path / "group.json"
    assert run_cli(capsys, "export", "--recipe", "holomorph8",
                   "--format", "cayley", "--out", str(path))[0] == 0
    loaded = []

    def load(text):
        g = ca.group_from_json(text)
        loaded.append(weakref.ref(g))
        return g

    monkeypatch.setattr(cli, "group_from_json", load)
    gc.collect()
    gc.disable()
    try:
        code, out, _ = run_cli(capsys, *argv[:2], "--recipe", str(path), *argv[2:])
        assert [ref() for ref in loaded] == [None]
    finally:
        gc.enable()
    assert code == (2 if "99" in argv else 0)


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


UNREAD_FLAGS = [
    (["build", "--recipe", "c4"], ["--json"]),
    (["lattice", "--recipe", "c4"], ["--json"]),
    (["check", "normal", "--recipe", "s3", "--subgroup", "a"], ["--json"]),
    (["bounds", "--m", "2"], ["--json"]),
    (["export", "--recipe", "c4"], ["--json"]),
    (["build", "--recipe", "c4"], ["--cap", "10"]),
    (["bounds", "--m", "2"], ["--cap", "10"]),
    (["verify", "--suite", "holomorph8"], ["--cap", "10"]),
    (["verify", "--suite", "holomorph8"], ["--recipe", "c4"]),
    (["verify", "--suite", "holomorph8"], ["--n", "3"]),
]


@pytest.mark.parametrize("argv, unread", UNREAD_FLAGS,
                         ids=[f"{argv[0]} {unread[0]}" for argv, unread in UNREAD_FLAGS])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv, unread):
    code, out, err = run_cli(capsys, *argv, *unread)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == \
        [f"complementa: error: unrecognized arguments: {' '.join(unread)}"]


UNREAD_VALUES = [
    (["build", "--recipe", "c8", "--n", "100"], "catalog entry 'c8' reads no --n"),
    (["lattice", "--recipe", "s3", "--p", "5"], "catalog entry 's3' reads no --p"),
    (["build", "--recipe", "cyclic", "--n", "8", "--p", "3"], "recipe 'cyclic' reads no --p"),
    (["verify", "--suite", "holomorph8", "--p", "3"], "suite 'holomorph8' reads no --p"),
    (["verify", "--suite", "split-p5-2", "--p", "3"], "suite 'split-p5-2' reads no --p"),
    (["check", "nilpotent", "--recipe", "s3", "--subgroup", "r"],
     "predicate 'nilpotent' reads no --subgroup"),
    (["check", "completely-factorizable", "--recipe", "s3", "--subgroup", "r"],
     "predicate 'completely-factorizable' reads no --subgroup"),
]


@pytest.mark.parametrize("argv, message", UNREAD_VALUES,
                         ids=[" ".join(argv) for argv, _ in UNREAD_VALUES])
def test_values_the_named_group_or_predicate_does_not_read_are_usage_errors(
        capsys, argv, message):
    """A declared flag whose value the recipe, catalog entry, suite or
    predicate never reads would be ignored: ``check nilpotent --subgroup r``
    would answer for S3, not for <r>."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _help_lines(capsys, monkeypatch, command):
    """The option lines of ``command -h``, unwrapped, by option name."""
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run_cli(capsys, command, "-h")
    assert code == 0
    return {line.split()[0]: line for line in out.splitlines()
            if line.lstrip().startswith("--")}


def test_verify_help_names_its_suites_and_the_prime_it_reads(capsys, monkeypatch):
    lines = _help_lines(capsys, monkeypatch, "verify")
    assert lines["--p"].endswith("prime p of the split-p5 suite")
    assert not any("recipe" in line for line in lines.values())
    for suite in ("holomorph8", "split-p5 ", "split-p5-2", "split-p5-3",
                  "catalog,", "all,", "catalog:<names>"):
        assert suite in lines["--suite"], suite


@pytest.mark.parametrize("command", ["build", "lattice", "check", "export"])
def test_recipe_subcommands_keep_the_recipe_help_of_p(capsys, monkeypatch, command):
    lines = _help_lines(capsys, monkeypatch, command)
    assert lines["--p"].endswith("prime parameter for parametrized recipes")
    assert "--suite" not in lines


def test_too_deeply_nested_document_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice", "--recipe", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_one_parser_serves_every_request_as_a_fresh_one_would(tmp_path, capsys):
    out_file = tmp_path / "c8.json"
    requests = [("build", "--recipe", "cyclic", "--n", "8", "--bogus-flag"),
                ("build", "--recipe", "cyclic", "--n", "8", "--out", str(out_file)),
                ("build", "--recipe", "cyclic", "--n", "8")]

    def send(argv):
        code, out, err = run_cli(capsys, *argv)
        written = out_file.read_text(encoding="utf-8") if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        return code, out, err, written

    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(send(argv))
    assert [(code, bool(out), written is None) for code, out, _, written in fresh] == \
        [(2, False, True), (0, False, False), (0, True, True)]
    assert fresh[1][3] == fresh[2][1]
    parser = cli._build_parser()
    assert [send(argv) for argv in requests] == fresh
    assert cli._build_parser() is parser


def test_cap_override(capsys):
    code, _, err = run_cli(capsys, "lattice", "--recipe", "cyclic", "--n", "40",
                           "--cap", "20")
    assert code == 2
    assert "lattice" in err


def _refuse(*args, **kwargs):
    raise AssertionError("work done before the cap check")


@pytest.mark.parametrize("predicate, subgroup", [
    ("complemented", ["--subgroup", "a"]),
    ("supercomplemented", ["--subgroup", "a"]),
    ("completely-factorizable", []),
    ("c-separating", ["--subgroup", "a"]),
    ("c-separating", ["--subgroup", "1,3,9,27,81"]),  # H = G
])
def test_check_refuses_over_the_lattice_cap_before_any_scan(capsys, monkeypatch,
                                                            predicate, subgroup):
    for module in (ca.subgroups, ca.complementation):
        monkeypatch.setattr(module, "_subgroups_order_dividing", _refuse)
    monkeypatch.setattr(ca.subgroups, "overgroups_by_joins", _refuse)
    code, out, err = run_cli(capsys, "check", predicate, "--recipe", "elementary",
                             "--p", "3", "--n", "5", "--cap", "10", *subgroup)
    assert code == 2 and out == ""
    assert err == "error: lattice cap exceeded: 243 > 10\n"


@pytest.mark.parametrize("argv", [
    ["--recipe", "split-p5"],
    ["--recipe", "elementary", "--n", "1"],
])
def test_construction_cap_is_checked_before_primality(capsys, monkeypatch, argv):
    monkeypatch.setattr(ca.constructions, "is_prime", _refuse)
    code, out, err = run_cli(capsys, "build", *argv, "--p", str(2**61 - 1))
    assert code == 2 and out == ""
    assert err.startswith("error: construction cap exceeded")


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "split-p5"],
    ["lattice", "--recipe", "split-p5"],
], ids=["verify", "lattice"])
def test_split_p5_refuses_a_composite_p_before_its_cap(capsys, command):
    # 4⁵ = 1024 is over the cap of 243, but no cap admits p = 4
    code, out, err = run_cli(capsys, *command, "--p", "4")
    assert code == 2 and out == ""
    assert err == "error: 4 is not prime\n"


@pytest.mark.parametrize("n, message", [
    ("5000", "error: construction cap exceeded: 10000 > 4096\n"),
    ("0", "error: n must be >= 1\n"),
])
def test_dihedral_reports_its_own_order_and_argument(capsys, n, message):
    code, out, err = run_cli(capsys, "lattice", "--recipe", "dihedral", "--n", n)
    assert code == 2 and out == ""
    assert err == message


def test_unknown_subgroup_handle(capsys):
    code, _, err = run_cli(capsys, "check", "normal", "--recipe", "s3",
                           "--subgroup", "nope")
    assert code == 2
    assert "handle" in err


@pytest.mark.parametrize("spec", ["1,,1", ",", "1,", ""])
def test_subgroup_list_with_an_empty_index_is_a_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "check", "normal", "--recipe", "s3",
                             "--subgroup", spec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--subgroup 0" in err


def test_subgroup_zero_names_the_trivial_subgroup(capsys):
    code, out, _ = run_cli(capsys, "check", "normal", "--recipe", "s3",
                           "--subgroup", "0")
    assert code == 0
    assert json.loads(out)["subgroup"] == {"order": 1, "members": [0]}


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


@pytest.mark.parametrize("labels", [0, False, "", {}, []],
                         ids=["zero", "false", "empty-string", "empty-object", "empty-list"])
def test_empty_or_false_labels_are_usage_errors(tmp_path, capsys, labels):
    doc = {"version": "cayley-v1", "order": 3, "mult": C3_MULT, "generators": [1],
           "labels": labels}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "build", "--recipe", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "labels" in err


@pytest.mark.parametrize("extra", [{}, {"labels": None}], ids=["missing", "null"])
def test_missing_or_null_labels_default_to_indices(tmp_path, capsys, extra):
    doc = {"version": "cayley-v1", "order": 3, "mult": C3_MULT, "generators": [1],
           **extra}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "build", "--recipe", str(path))
    assert code == 0 and json.loads(out)["labels"] == ["0", "1", "2"]


def test_top_level_array_is_usage_error(tmp_path, capsys):
    code, out, err = run_on_document(tmp_path, capsys, [C3_MULT])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("suite, named", [
    ("catalog:nonexistent", "nonexistent"),
    ("catalog:", "'catalog:'"),
    ("catalog:c4,nope,s3", "nope"),
])
def test_verify_rejects_unknown_catalog_entries(capsys, suite, named):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and named in err


def test_huge_table_entry_is_usage_error(tmp_path, capsys):
    doc = {"version": "cayley-v1", "order": 2, "mult": [0, 1, 2**70, 0]}
    code, out, err = run_on_document(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "mult entries" in err


def test_non_associative_order_640_table_is_usage_error(tmp_path, capsys, loop640):
    mult, gens = loop640
    doc = {"version": "cayley-v1", "order": len(mult),
           "mult": [v for row in mult for v in row], "generators": gens}
    code, out, err = run_on_document(tmp_path, capsys, doc)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not associative" in err


FUZZ_BASES = {name: ca.group_to_dict(ca.catalog_entry(name).build().group)
              for name in ("c4", "s3", "ea2r2", "c5", "dih8", "a4")}

FUZZ_COMMANDS = (["lattice"], ["build"], ["check", "nilpotent"],
                 ["check", "normal", "--subgroup", "0"])

NOT_AN_INDEX = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                         st.text(max_size=3), st.integers(-3, -1))


@st.composite
def broken_documents(draw):
    """The text of a valid cayley-v1 document with one change that makes it
    invalid."""
    doc = dict(FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))])
    n = doc["order"]
    mult = doc["mult"] = list(doc["mult"])
    cell = st.integers(0, n * n - 1)
    kind = draw(st.sampled_from(["swap", "corrupt", "entry", "order", "generators",
                                 "labels", "version", "drop", "truncate"]))
    if kind == "swap":
        # two cells of one row or one column hold different values
        i = draw(cell)
        r, c = divmod(i, n)
        same_row = draw(st.booleans())
        k = draw(st.integers(0, n - 1).filter(lambda k: k != (c if same_row else r)))
        j = r * n + k if same_row else k * n + c
        mult[i], mult[j] = mult[j], mult[i]
    elif kind == "corrupt":
        i = draw(cell)
        mult[i] = draw(st.integers(0, n - 1).filter(lambda v: v != mult[i]))
    elif kind == "entry":
        mult[draw(cell)] = draw(NOT_AN_INDEX | st.integers(n, 2**70))
    elif kind == "order":
        doc["order"] = draw(NOT_AN_INDEX | st.integers(0, 4 * n).filter(lambda m: m != n))
    elif kind == "generators":
        bad = st.lists(NOT_AN_INDEX | st.integers(n, 2**70), min_size=1, max_size=3)
        doc["generators"] = draw(st.sampled_from([[], [0], {"0": 1}])
                                 | NOT_AN_INDEX
                                 | bad.map(lambda extra: doc["generators"] + extra))
    elif kind == "labels":
        labels = list(doc["labels"])
        labels[draw(st.integers(0, n - 1))] = draw(st.integers() | st.none())
        doc["labels"] = draw(
            st.sampled_from([labels, {"0": "e"}, "e", 1])
            | st.lists(st.text(max_size=2), min_size=1, max_size=2 * n).filter(
                lambda wrong: len(wrong) != n))
    elif kind == "version":
        doc["version"] = draw((st.text(max_size=9) | st.none()).filter(
            lambda v: v != "cayley-v1"))
    elif kind == "drop":
        del doc[draw(st.sampled_from(["version", "order", "mult", "generators"]))]
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@given(broken_documents(), st.sampled_from(FUZZ_COMMANDS))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_fuzzed_documents_exit_2_with_error_line(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*command[:2], "--recipe", path, *command[2:]])
    assert code == 2, text
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:"), err.getvalue()


SMALL_RECIPES = ("cyclic", "dihedral", "holomorph", "elementary", "split-p5",
                 "c1", "c4", "s3", "dih8", "a4", "holomorph8", "split-p5-2")

# no recipe accepts these as --n or --p: out of range, over the construction
# cap, or not an integer (the large ones are valid caps)
BAD_NUMBERS = st.sampled_from(["-1", "0", "4099", str(2**70), "2.5", "x", ""])


def numbers(small):
    """Mostly valid small values, one draw in four a bad one."""
    good = small.map(str)
    return st.one_of(good, good, good, BAD_NUMBERS)


SUITES = (
    st.sampled_from(["holomorph8", "split-p5", "split-p5-2", "split-p5-3", "catalog:"])
    | st.lists(st.sampled_from(["c4", "s3", "dih8", "a4", "nope", ""]), max_size=3).map(
        lambda names: "catalog:" + ",".join(names))
    # the whole catalog takes seconds per run; its suites are tested elsewhere
    | st.text(max_size=8).filter(lambda s: s not in ("catalog", "all")))

SUBGROUPS = (
    st.sampled_from(["x", "a", "b", "B", "V", "r", "s", ""])
    | st.lists(st.integers(0, 40) | st.integers(-2, 300), max_size=3).map(
        lambda xs: ",".join(map(str, xs)))
    | st.text(alphabet="0123456789,- x", max_size=6))


@st.composite
def small_group_requests(draw):
    """argv of a request on a small group, with fuzzed --subgroup, --n, --p,
    --cap and --suite values, each drawn only for a command that declares
    it; each option is left out one time in four."""

    def maybe(flag, values):
        return [flag, draw(values)] if draw(st.integers(0, 3)) else []

    p_values = numbers(st.sampled_from([2, 3, 4]))
    command = draw(st.sampled_from(["build", "lattice", "check", "verify"]))
    if command == "verify":
        return ["verify", "--suite", draw(SUITES), "--json", *maybe("--p", p_values)]
    argv = [command]
    if command == "check":
        argv += [draw(st.sampled_from(_PREDICATES)), *maybe("--subgroup", SUBGROUPS),
                 *maybe("--mode", st.sampled_from(["first", "all"]))]
    argv += ["--recipe", draw(st.sampled_from(SMALL_RECIPES)),
             *maybe("--n", numbers(st.integers(1, 4))), *maybe("--p", p_values)]
    if command == "build":
        return argv
    return [*argv, *maybe("--cap", numbers(st.integers(1, 600)))]


@given(small_group_requests())
@settings(derandomize=True, max_examples=250, deadline=None)
def test_fuzzed_arguments_give_json_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert code == 2, (argv, err.getvalue())
        assert out.getvalue() == ""
        assert "error:" in err.getvalue(), err.getvalue()


# -- the numpy import boundary ---------------------------------------------------

SRC = Path(ca.__file__).resolve().parent.parent

# Runs ``cli.run`` on its arguments in a fresh interpreter and prints the exit
# code and whether numpy was imported.
# which of numpy, dataclasses and inspect a fresh CLI process has imported
_NUMPY_PROBE = """
import sys
from complementa import cli
rc = cli.run(sys.argv[1:])
print(rc, *(name in sys.modules for name in ("numpy", "dataclasses", "inspect")))
"""


def _numpy_probe(argv) -> tuple[int, bool, bool, bool]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    rc, *loaded = out.split()[-4:]
    return int(rc), *(flag == "True" for flag in loaded)


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--m", "2"], 0),
    (["-h"], 0),
    (["bounds", "--bogus"], 2),
    (["lattice", "--recipe", "{bad}"], 2),
], ids=["bounds", "help", "usage-error", "malformed-cayley"])
def test_requests_that_build_no_group_never_import_numpy(tmp_path, argv, code):
    """Nor dataclasses and inspect, which the package never imports."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "bad"}', encoding="utf-8")
    argv = [str(bad) if a == "{bad}" else a for a in argv]
    assert _numpy_probe(argv) == (code, False, False, False)


def test_a_request_that_builds_a_group_imports_numpy():
    rc, numpy_loaded, *_ = _numpy_probe(["check", "complemented", "--recipe", "dihedral",
                                         "--n", "4", "--subgroup", "1"])
    assert (rc, numpy_loaded) == (0, True)


@pytest.mark.parametrize("entry, builder, args, flags", [
    ("split-p5-3", ca.split_p5_group, (3,), ["--recipe", "split-p5", "--p", "3"]),
    ("dih8", ca.dihedral, (4,), ["--recipe", "dihedral", "--n", "4"]),
    ("ea2r3", ca.elementary_abelian, (2, 3), ["--recipe", "elementary", "--p", "2", "--n", "3"]),
    ("c6", ca.constructions.cyclic_named, (6,), ["--recipe", "cyclic", "--n", "6"]),
], ids=["split-p5-3", "dih8", "ea2r3", "c6"])
def test_every_path_to_a_construction_finds_one_group(entry, builder, args, flags):
    """The catalog entry, a positional call, and the CLI by recipe and by
    entry name all reach one cached group, built once."""
    builder.cache_clear()
    parse = cli._build_parser().parse_args
    groups = [ca.catalog_entry(entry).build().group, builder(*args).group,
              cli._resolve_group(parse(["build", *flags])).group,
              cli._resolve_group(parse(["build", "--recipe", entry])).group]
    assert all(g is groups[0] for g in groups)
    assert builder.cache_info().misses == 1


def test_the_package_holds_one_numpy_import():
    found = []
    for path in sorted((SRC / "complementa").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [path.name for a in node.names if a.name.partition(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy":
                found.append(path.name)
    assert found == ["groups.py"]
