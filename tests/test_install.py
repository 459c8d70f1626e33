"""The install contract: numpy 2.0 or later is a required dependency."""

from pathlib import Path

import numpy
import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_2_is_required():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert "numpy>=2.0" in project["dependencies"]
    assert "fast" not in project.get("optional-dependencies", {})
    # numpy.bitwise_count is new in 2.0: the installed numpy meets the requirement
    assert hasattr(numpy, "bitwise_count")
