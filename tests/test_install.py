"""The install contract: numpy 2.0 or later is a required dependency,
and the package exports the names it imports from its modules."""

import types
from pathlib import Path

import numpy
import pytest

import mvgroups

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"


def test_numpy_2_is_required():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert "numpy>=2.0" in project["dependencies"]
    assert "fast" not in project.get("optional-dependencies", {})
    # numpy.bitwise_count is new in 2.0: the installed numpy meets the requirement
    assert hasattr(numpy, "bitwise_count")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from mvgroups import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == mvgroups.__all__
    assert len(mvgroups.__all__) == 61
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert {"algebra", "classify", "core", "errors", "srg"}.isdisjoint(namespace)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    example = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert example.startswith("from mvgroups import *\n")
    exec(example, {})
