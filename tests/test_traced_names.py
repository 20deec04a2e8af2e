"""The benchmark's tracer (`bench/tracer.py`) wraps prostar functions by name.

A renamed or deleted function would otherwise only show up when a traced
benchmark runs; here every name it lists must resolve the way the tracer
binds it: a function as a module attribute, a method in its class's own
namespace.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_prostar():
    tracer = _load_tracer()
    names = {**tracer.SPANS, **tracer.COUNTED}
    assert names
    for metric, (module_name, path) in names.items():
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
            assert owner is not None, f"{metric}: {module_name}.{path} does not resolve"
        found = vars(owner).get(attr) if owner_path else getattr(owner, attr, None)
        assert callable(found), f"{metric}: {module_name}.{path} does not resolve"
