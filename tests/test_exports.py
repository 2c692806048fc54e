from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
import symtable
from pathlib import Path

import pytest

import graphlets

MODULES = ["graphlets"] + [
    f"graphlets.{info.name}" for info in pkgutil.iter_modules(graphlets.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


# Exported for the paper's definitions rather than for a caller in the package.
PAPER_ARTEFACTS = {
    "eq1_loss", "overlap_adjusted_costs", "canonicalize", "feature_sim", "sequence_sim"
}
SOURCES = {
    "graphlets" if path.stem == "__init__" else f"graphlets.{path.stem}": path
    for path in sorted(Path(graphlets.__file__).parent.glob("*.py"))
}


def _global_reads(table: symtable.SymbolTable, owner: str | None, reads: set) -> None:
    """Add ``(name, owner)`` for every global read in ``table`` and the scopes
    nested in it, and for every read of a name a nested scope imports itself;
    ``owner`` is the top-level def or class that holds the read."""
    for sym in table.get_symbols():
        if sym.is_referenced() and (
            table.get_type() == "module" or sym.is_global() or sym.is_imported()
        ):
            reads.add((sym.get_name(), owner))
    for child in table.get_children():
        _global_reads(child, owner or child.get_name(), reads)


@functools.cache
def _usage() -> dict[str, tuple[set, set]]:
    """Per module, its global reads and the ``(source, name)`` pairs it imports."""
    usage = {}
    for module, path in SOURCES.items():
        source = path.read_text(encoding="utf-8")
        reads: set = set()
        _global_reads(symtable.symtable(source, str(path), "exec"), None, reads)
        imports = {
            (f"graphlets.{node.module}" if node.module else "graphlets", alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        usage[module] = (reads, imports)
    return usage


def _home(module: str, name: str, usage) -> str:
    """The module that defines a name the package ``__init__`` re-exports."""
    homes = [src for src, imported in usage[module][1] if imported == name]
    return homes[0] if homes else module


@pytest.mark.parametrize("module_name", sorted(SOURCES))
def test_every_exported_name_has_a_caller_in_the_package(module_name):
    usage = _usage()
    unused = []
    for name in getattr(importlib.import_module(module_name), "__all__", []):
        home = _home(module_name, name, usage)
        called = any(
            read == name and owner != name
            for module, (reads, imports) in usage.items()
            if module == home or (home, name) in imports
            for read, owner in reads
        )
        if not called and name not in PAPER_ARTEFACTS:
            unused.append(name)
    assert unused == []
