"""The public surface of relqi: every public top-level name earns its place.

A public (no leading underscore) top-level `def` or `class` in
src/relqi/*.py is either referenced by other src code, or exported from
relqi/__init__.py and named (in backticks) in the README.  Test-only
helpers live in tests/helpers.py.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relqi"
README = SRC.parent.parent / "README.md"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _references(modules):
    """(module, line, name) of every name or attribute read outside __init__.py."""
    refs = set()
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.add((module, node.lineno, node.attr))
    return refs


def _exports(modules):
    return {alias.asname or alias.name
            for node in modules["__init__"].body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_public_name_is_used_in_src_or_exported_and_documented():
    modules = _modules()
    refs = _references(modules)
    exports = _exports(modules)
    readme = README.read_text(encoding="utf-8")
    stray = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if any(name == node.name and not (where == module and line in own)
                   for where, line, name in refs):
                continue
            documented = re.search(rf"`[^`\n]*\b{node.name}\b[^`\n]*`", readme)
            if node.name in exports and documented:
                continue
            stray.append(f"{module}.{node.name}")
    assert stray == [], (
        "public names neither used in src nor exported and named in the README: "
        + ", ".join(stray)
    )
