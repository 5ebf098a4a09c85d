"""Tooling outside the library that depends on its names."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from complementa.cli import run

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
EXPECTED = ROOT / "perfbench" / "expected"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = "complementa"


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
    of the package."""
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
