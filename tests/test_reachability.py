"""Every module under ``src/repro`` is run by something other than tests.

A module counts as reached when it is imported, transitively, from one
of the roots a runner starts at: the CLI (``repro.cli``,
``repro.__main__``), the shard worker modules a spawned process
imports, or any file under ``benchmarks/`` (the paper artifacts and the
bench spine).  Tests and examples are not roots.

Edges are read from the AST (``import`` / ``from ... import``
statements anywhere in a file, function bodies included), never by
importing.  A package ``__init__`` has no edges of its own: its
re-exports are what lets ``from repro.geo import Router`` name a class,
so such an import is followed through the re-export to the module that
defines the name, and a module only an ``__init__`` imports is not
reached.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Optional, Set

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = "repro"

ROOT_MODULES = (
    "repro.cli",
    "repro.__main__",
    "repro.parallel.worker",
    "repro.city.worker",
)


def _module_files() -> Dict[str, Path]:
    modules = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _absolute(importer: Optional[str], node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` names."""
    if not node.level:
        return node.module or ""
    base = importer.split(".")
    if not _is_package(importer):
        base = base[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


@lru_cache(maxsize=None)
def _defining_module(package: str, name: str) -> str:
    """Follow ``package``'s re-export of ``name`` to the module that
    defines it (the package itself when it defines the name)."""
    for node in ast.walk(_tree(MODULES[package])):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if (alias.asname or alias.name) == name:
                source = _absolute(package, node)
                if source in MODULES:
                    return _target(source, alias.name)
    return package


def _target(module: str, name: str) -> str:
    """The ``repro`` module that ``from module import name`` reaches."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        return _defining_module(module, name)
    return module


def _edges(path: Path, importer: Optional[str]) -> Iterator[str]:
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(importer, node)
            if module not in MODULES:
                continue
            for alias in node.names:
                yield _target(module, alias.name)


def reached() -> Set[str]:
    frontier = list(ROOT_MODULES)
    for path in sorted((REPO / "benchmarks").rglob("*.py")):
        frontier.extend(_edges(path, None))
    seen: Set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in seen:
            continue
        seen.add(module)
        if not _is_package(module):
            frontier.extend(_edges(MODULES[module], module))
    return seen


def test_every_module_is_reached_from_a_runner():
    seen = reached()
    unreached = sorted(
        name for name in MODULES if not _is_package(name) and name not in seen
    )
    assert unreached == [], (
        "modules only tests or examples import (give them a runner or "
        f"delete them): {unreached}"
    )



def _annotation_names(tree: ast.Module) -> Iterator[str]:
    """Names in quoted annotations (``-> "SyntheticDataset"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            arguments += [a for a in (node.args.vararg, node.args.kwarg) if a]
            annotations.extend(a.annotation for a in arguments)
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for name in ast.walk(ast.parse(node.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        yield name.id


def _exported(tree: ast.Module) -> Iterator[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant):
                    yield element.value


def unused_imports(path: Path) -> Iterator[str]:
    """``line: name`` for each name ``path`` imports and never uses."""
    tree = _tree(path)
    imported: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_names(tree))
    used.update(_exported(tree))
    for name, line in sorted(imported.items(), key=lambda item: item[1]):
        if name not in used:
            yield f"{line}: {name}"


def test_no_module_imports_a_name_it_does_not_use():
    unused = {
        name: found
        for name, path in MODULES.items()
        if not _is_package(name)
        for found in [list(unused_imports(path))]
        if found
    }
    assert unused == {}, f"imported but unused (delete the import): {unused}"
