"""Every function, class and method in src/flowseq is used by the program itself.

A definition counts as used when a src/ module references its name outside
the definition itself, or when perfbench/ or pyproject.toml names it. Tests
alone keep nothing alive: a check that needs a loss or a helper the program
never runs calls what the program does run, on inputs the test builds.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "flowseq"

# kept although only library users and tests call them
ALLOWED = {
    "finite_diff_check": "the lab's finite-difference gradient check, which README presents; tests check with it",
    "load_config": "the library's parse-then-check entry point; the CLI parses and checks in two separate steps",
}


def _units(tree: ast.Module) -> list[tuple[str | None, ast.AST]]:
    """(defined name or None, node) for each top-level statement, with each class statement its own unit."""
    units = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            units.append((node.name, ast.Module(body=[*node.decorator_list, *node.bases, *node.keywords],
                                                type_ignores=[])))
            units.extend((getattr(stmt, "name", None), stmt) for stmt in node.body)
        else:
            units.append((getattr(node, "name", None), node))
    return units


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(stmt.name for stmt in node.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _referenced(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unused() -> list[str]:
    modules = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    outside = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    outside += (ROOT / "pyproject.toml").read_text()
    # every name referenced by some unit other than the one that defines it
    used: set[str] = set()
    for tree in modules.values():
        for defined, unit in _units(tree):
            used |= _referenced(unit) - {defined}
    unused = []
    for name, tree in modules.items():
        for d in _definitions(tree):
            if d not in used and d not in ALLOWED and not re.search(rf"\b{re.escape(d)}\b", outside):
                unused.append(f"{name}: {d}")
    return unused


def test_every_src_definition_is_used_outside_the_tests():
    assert _unused() == []


def test_the_allowlist_names_only_definitions_the_program_does_not_use():
    saved = dict(ALLOWED)
    ALLOWED.clear()
    try:
        unused = {entry.split(": ")[1] for entry in _unused()}
    finally:
        ALLOWED.update(saved)
    assert unused == set(saved)


def test_the_package_root_binds_only_its_version():
    # every name has one import path, its defining module: the package root re-exports nothing
    bound = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound |= {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    assert bound == {"__version__"}


def test_every_import_from_the_package_root_names_a_module():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    named = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in {("flowseq", 0), (None, 1)}:
                named |= {alias.name for alias in node.names}
    for line in re.findall(r"^from flowseq import (.+)$", (ROOT / "README.md").read_text(), re.M):
        named |= {name.split(" as ")[0].strip() for name in line.split(",")}
    assert named and named <= modules, named - modules
