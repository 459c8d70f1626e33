"""The benchmark's tracer wraps the program's functions by name, and a
traced run stops at the first name that is gone; every one must exist.
So must every function its workloads call directly."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _package_chains(tree):
    """The names after mv of each chain mv.<module>.<name> (or
    self.mv.<module>.<name>) in a tree, where mv is the package."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)):
            continue
        root = node.value.value
        if isinstance(root, ast.Name) and root.id == "mv" or (
            isinstance(root, ast.Attribute) and root.attr == "mv" and isinstance(root.value, ast.Name)
        ):
            yield node.value.attr, node.attr


def test_every_name_the_workloads_call_exists():
    # read without running the file: it imports the benchmark's helpers
    chains = set(_package_chains(ast.parse(WORKLOADS.read_text(encoding="utf-8"))))
    assert ("classify", "enumerate_families") in chains and ("cli", "main") in chains
    missing = [
        f"mvgroups.{module}.{name}"
        for module, name in sorted(chains)
        if not hasattr(importlib.import_module(f"mvgroups.{module}"), name)
    ]
    assert missing == []
