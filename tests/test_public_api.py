"""Every public top-level name in the package has a caller.

A public function, class or constant of ``src/combsync`` must be referenced
outside its own definition: elsewhere in the package, by the benchmark
harness (``perfbench/*.py``), by an acceptance criterion, or by the CLI
tests, which read CLI artifacts back through the package.  Unit tests of
the name itself do not count, so library code that only its own tests
call shows up here.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "combsync"
CALLERS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py",
           ROOT / "tests" / "test_cli.py"]


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and assigned constants whose names do not start with ``_``."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update({t.id: node for t in targets if isinstance(t, ast.Name)})
    return {name: node for name, node in found.items() if not name.startswith("_")}


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read, attributes accessed and names imported in ``tree``, outside the subtree ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_has_a_caller():
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = {path: referenced_names(tree) for path, tree in modules.items()}
    everywhere.update({path: referenced_names(ast.parse(path.read_text(encoding="utf-8"))) for path in CALLERS})
    checked, unreferenced = 0, []
    for path, tree in modules.items():
        elsewhere = set().union(*(names for other, names in everywhere.items() if other != path))
        for name, node in public_definitions(tree).items():
            checked += 1
            if name not in elsewhere and name not in referenced_names(tree, skip=node):
                unreferenced.append(f"{path.stem}.{name}")
    assert checked > 50, f"only {checked} public names found under {PACKAGE}"
    assert unreferenced == [], f"public names no command, criterion, benchmark or module uses: {unreferenced}"
