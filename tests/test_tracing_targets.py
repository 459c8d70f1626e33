"""The benchmark's tracer wraps the program's functions by name, and a
traced run stops at the first name that is gone; every one must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_exists():
    targets = _traced_names()
    assert targets
    missing = [
        f"mvgroups.{layer}.{attr}"
        for layer, attr in targets
        if not hasattr(importlib.import_module(f"mvgroups.{layer}"), attr)
    ]
    assert missing == []
