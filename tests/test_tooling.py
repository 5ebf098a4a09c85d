"""Tooling outside the library that depends on its names."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
