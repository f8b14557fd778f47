"""The benchmark tracer's names still resolve in the package.

``bench/tracing.py`` wraps each ``(module, attribute path)`` of its
SPANS and COUNTS tables by name when a traced run starts. A renamed or
deleted name fails that run, so it is checked here too, reading the
tables only.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracer_tables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS + module.COUNTS


@pytest.mark.parametrize("module_name, path, name", tracer_tables())
def test_each_traced_name_resolves_to_a_callable(module_name, path, name):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), f"{module_name}.{path} ({name})"
