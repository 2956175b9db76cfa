"""Every public name of the package is used by the program, not only by tests."""

import ast
import importlib
import re
from pathlib import Path

import sparsemix

SRC = Path(sparsemix.__file__).parent
ROOT = SRC.parent.parent

# names whose only caller is a test, each with the reason it stays
ALLOWED = set()


def loaded_names(path):
    """Names read in a module's code: loads of a bare name and attributes."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    # definitions store a name and __all__ lists it as a string, so neither
    # counts as a load
    used = set().union(*(loaded_names(p) for p in modules))
    text = "\n".join(
        p.read_text(encoding="utf-8")
        for p in [ROOT / "README.md", *sorted((ROOT / "bench").glob("*.py"))]
    )
    uncalled = []
    for path in modules:
        module = importlib.import_module(f"sparsemix.{path.stem}")
        for name in module.__all__:
            if name in used or re.search(rf"\b{name}\b", text):
                continue
            uncalled.append(f"{path.stem}.{name}")
    assert sorted(uncalled) == sorted(ALLOWED)


def private_reads(path):
    """'module._name' for each private name a module reads from a sibling module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            reads.add(f"{siblings[node.value.id]}.{node.attr}")
    return reads


def test_private_names_read_across_modules_are_pinned():
    # rng alone decides whether work splits (_on_both) and how many CPUs
    # may run it (_cpus); no other module sizes its work around rng's split
    reads = {p.stem: private_reads(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in reads.items() if v} == {
        "chernoff": {"rng._on_both"},
        "cli": {"rng._cpus"},
        "harness": {"rng._cpus"},
    }
