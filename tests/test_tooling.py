"""Tooling outside the library that depends on its names."""

import ast
import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

import complementa as ca
from complementa.cli import run

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
EXPECTED = ROOT / "perfbench" / "expected"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = "complementa"
# The modules of one library tree by the field of ``Tree`` in
# scripts/harness.py that holds them; the scripts use the same names for
# those modules of any tree.
TREE_FIELDS = {"ca": PACKAGE, "cli_module": f"{PACKAGE}.cli",
               "subgroups_module": f"{PACKAGE}.subgroups",
               "verify_module": f"{PACKAGE}.verify"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_library():
    """The tracer patches each (module, path) by bare lookup, so a renamed or
    deleted name would break ``perfbench/run.py --trace 1``."""
    traced = _load_tracer().TRACED
    assert traced
    for mod_name, path, _ in traced:
        mod = importlib.import_module(f"complementa.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(mod, cls_name)), path
        else:
            assert callable(getattr(mod, path, None)), f"{mod_name}.{path}"


def _attribute_chain(node):
    """["ca", "groups", "f"] for the expression ca.groups.f, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _library_names(tree):
    """(module, attribute path) for every name of the package that a script
    imports, or reads as an attribute chain from a name bound to a module
    of the package, from a name in ``TREE_FIELDS`` or from such a field of
    a tree (``tree.verify_module.name``)."""
    modules = {}
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == PACKAGE:
                    modules[alias.asname or PACKAGE] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.partition(".")[0] == PACKAGE:
            reached += [(node.module, [alias.name]) for alias in node.names]
    for node in ast.walk(tree):
        chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            reached.append((modules[chain[0]], chain[1:]))
        elif chain and chain[0] in TREE_FIELDS:
            reached.append((TREE_FIELDS[chain[0]], chain[1:]))
        elif chain and len(chain) > 2 and chain[1] in TREE_FIELDS:
            reached.append((TREE_FIELDS[chain[1]], chain[2:]))
    return reached


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_library_name_a_script_reaches_resolves(script):
    """The scripts are not run by the tests, so a renamed or deleted library
    name they use, such as ``groups._light_generators``, would go unseen."""
    reached = _library_names(ast.parse(script.read_text(encoding="utf-8")))
    assert reached
    for module, path in reached:
        obj = importlib.import_module(module)
        for attr in path:
            assert hasattr(obj, attr), f"{script.name}: {module}.{'.'.join(path)}"
            obj = getattr(obj, attr)


def _import_script(name, monkeypatch):
    """Import scripts/<name>.py as the module ``name``, writing no bytecode."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module(name)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_script_imports(script, monkeypatch):
    """The checks above read the source, so a broken ``from harness import X``
    would go unseen.  Importing leaves ``main`` unrun and perfbench/ as it was."""
    perfbench = sorted((ROOT / "perfbench").rglob("*"))
    _import_script(script.stem, monkeypatch)
    assert sorted((ROOT / "perfbench").rglob("*")) == perfbench


@pytest.fixture
def harness(monkeypatch):
    return _import_script("harness", monkeypatch)


def test_tree_fields_are_the_fields_of_a_harness_tree(harness):
    assert tuple(TREE_FIELDS) == harness.Tree._fields


def test_interleaved_puts_each_tree_first_in_alternate_rounds(harness):
    calls = []
    out = harness.interleaved(["a", "b"], lambda tree, i: calls.append((i, tree)) or f"{tree}{i}")
    rounds = range(harness.REPEATS)
    assert calls == [call for i in rounds
                     for call in ([(i, "a"), (i, "b")] if i % 2 == 0 else [(i, "b"), (i, "a")])]
    assert out == [[f"a{i}" for i in rounds], [f"b{i}" for i in rounds]]


def _holders(monkeypatch, function, *names):
    """Modules ``names``, registered in sys.modules, each binding ``function``."""
    modules = [types.ModuleType(name) for name in names]
    for module in modules:
        setattr(module, function.__name__, function)
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return modules


def _double(x):
    return 2 * x


def test_patches_count_through_every_holder_and_restore_when_the_body_raises(
        harness, monkeypatch):
    monkeypatch.setattr(_double, "__module__", "pkg.a")
    a, b, other = _holders(monkeypatch, _double, "pkg.a", "pkg.b", "elsewhere")
    counts = {"calls": 0}
    with pytest.raises(TypeError), harness.Patches() as patches:
        patches.wrap(_double, harness.counting(counts, "calls"))
        assert a._double(1) + b._double(2) + other._double(3) == 12
        b._double(None)
    assert counts == {"calls": 3}
    assert a._double is b._double is other._double is _double


def test_patches_wrap_only_the_given_owners(harness, monkeypatch):
    class Box:
        def value(self):
            return 1

    value = Box.value
    a, b = _holders(monkeypatch, _double, "pkg.a", "pkg.b")
    counts = {"value": 0, "double": 0}
    with harness.Patches() as patches:
        patches.wrap(Box.value, harness.counting(counts, "value"), Box)
        patches.wrap(_double, harness.counting(counts, "double"), a)
        assert Box().value() + a._double(1) + b._double(1) == 5
        with pytest.raises(ValueError):
            patches.wrap(len, harness.counting(counts, "double"), a)
    assert counts == {"value": 1, "double": 1}
    assert Box.value is value and a._double is _double


def test_write_reports_heads_each_report(harness, tmp_path, capsys):
    harness.write_reports(str(tmp_path), ["x", "x-parent"], [{"n": 1}, {"n": 2}], repeats=3)
    harness.write_reports(str(tmp_path), ["y"], [{"n": 3}])
    x, parent, y = (json.loads((tmp_path / f"BENCH_{label}.json").read_text(encoding="utf-8"))
                    for label in ("x", "x-parent", "y"))
    assert list(x) == ["label", "repeats", "machine", "interleaved_with", "n"]
    assert (x["label"], x["repeats"], x["interleaved_with"], x["n"]) == ("x", 3, "x-parent", 1)
    assert (parent["label"], parent["interleaved_with"], parent["n"]) == ("x-parent", "x", 2)
    assert set(x["machine"]) == {"cpu", "cpus", "python"}
    assert list(y) == ["label", "repeats", "machine", "n"]
    assert y["repeats"] == harness.REPEATS
    assert capsys.readouterr().out.count("wrote ") == 3


def test_join_loops_are_what_a_tree_without_kept_joins_counts(harness):
    """``count_join_loops`` reads ``_kept_joins`` calls in this tree.  They
    equal what it counts in an older tree: one loop per orbit of a search by
    orbit, one per subgroup found by the first search without orbits, and
    none after that, since the joins are memoized."""
    base = ca.holomorph8().group
    g = ca.FiniteGroup(base.mult, base.generators, base.labels)  # an empty memo
    counts = {"loops": 0}
    with harness.Patches() as patches:
        harness.count_join_loops(patches, ca.subgroups, counts, "loops")
        lat = ca.all_subgroups(g)
        assert counts["loops"] == len(lat.orbits) < len(lat)
        counts["loops"] = 0
        for s in lat.subgroups:
            ca.subgroups.overgroups_by_joins(g, s)
        assert counts["loops"] == len(lat)


# The suites the perfbench ``verify`` workload sends, each with its recorded
# ``verify --suite SUITE --json`` output in perfbench/expected/.
VERIFY_SUITES = ["holomorph8", "split-p5-3"] + [
    f"catalog:{name}" for name in ("dih24", "c24", "c2xa4", "holomorph8", "split-p5-2",
                                   "s3xs3", "ea3r4", "ea5r3", "split-p5-3")]


def _verify_golden(suite: str) -> Path:
    return EXPECTED / ("verify-" + suite.replace(":", "-") + ".json")


def test_every_verify_golden_has_a_suite():
    recorded = {p.name for p in EXPECTED.glob("verify-*.json")}
    assert recorded == {_verify_golden(s).name for s in VERIFY_SUITES}


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_json_is_byte_identical_to_the_recorded_output(capsys, suite):
    """The benchmark refuses any answer that differs from these bytes, so a
    change that moves one byte of a claim, status or witness shows here."""
    assert run(["verify", "--suite", suite, "--json"]) == 0
    assert capsys.readouterr().out == _verify_golden(suite).read_text(encoding="utf-8")


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, with the inputs.py it imports, writing no
    bytecode."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("workloads", "inputs"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["check", "lattice"])
def test_perfbench_requests_give_the_recorded_answers(tmp_path, monkeypatch, capsys,
                                                      workload):
    """One pass of the benchmark's ``check`` or ``lattice`` requests at seed
    3, on relabeled files under tmp_path, each summarized as the benchmark
    does and compared with the answers in perfbench/expected/, which the
    benchmark refuses to differ from."""
    workloads = _perfbench_workloads(monkeypatch)
    setup = workloads.WORKLOADS[workload](ca, 3, str(tmp_path))
    answers, _ = workloads.expected_for(workload)
    assert len(setup.requests) == {"check": 100, "lattice": 5}[workload]
    for req in setup.requests:
        assert run(req.argv) == 0, req.key
        out = capsys.readouterr().out
        assert req.summarize(out) == answers[req.key], req.key
        assert req.extra_check(out), req.key
