"""The names the benchmark's tracer patches must exist in the program.

``bench/tracer.py`` wraps the boundaries it lists by module and attribute
path and reads the shape of every lattice from its constructor's
positional ``(rows, width, ...)`` arguments.  A renamed or deleted
boundary would only show when a traced benchmark run fails, so it is
checked here.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    obj = importlib.import_module("regquot." + module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_every_traced_boundary_resolves():
    tracer = _tracer()
    targets = [t for group in (tracer.TIMED, tracer.COUNTED) for ts in group.values() for t in ts]
    assert ("linalg", "cleared_rows") in targets and ("linalg", "cleared_matrix") in targets
    for module, path in targets:
        assert callable(_resolve(module, path)), (module, path)
    for module, attr in tracer.CACHES.values():
        assert callable(_resolve(module, attr).cache_info), (module, attr)


def test_lattice_constructors_take_rows_and_width_first():
    tracer = _tracer()
    positional = (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )
    for name in tracer.LATTICES:
        (module, path), = tracer.TIMED[name]
        assert path.endswith(".__init__"), name
        params = list(inspect.signature(_resolve(module, path)).parameters.values())
        assert [q.name for q in params[1:3]] == ["rows", "width"], name
        assert all(q.kind in positional for q in params[1:3]), name
