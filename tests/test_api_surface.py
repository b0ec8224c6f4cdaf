"""The public surface of relqi: every public top-level name earns its place.

A public (no leading underscore) top-level `def` or `class` in
src/relqi/*.py is either referenced by other src code, or exported from
relqi/__init__.py and named (in backticks) in the README.  Test-only
helpers live in tests/helpers.py.  Every name a module other than
__init__.py imports at top level is read in that module.  numpy is
imported by relqi/_numpy.py alone, which binds it lazily and binds no
other public name; no module serves numpy objects through a module-level
`__getattr__`.
"""

import ast
import itertools
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


def test_every_top_level_import_is_read():
    # __init__.py imports to re-export, and `from __future__` binds no name that is read
    unused = []
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"relqi/{module}.py: {name}" for name in names if name not in read]
    assert unused == [], f"imported but never read: {', '.join(unused)}"


def _readme_exports():
    """The names in the "exported from `relqi`" column of the README's layout table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if "exported from `relqi`" in line)
    column = [cell.strip() for cell in lines[start].split("|")].index("exported from `relqi`")
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    return {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[column])}


def test_readme_export_column_lists_exactly_the_exports():
    # the names imported from relqi's modules, not the modules themselves
    exported = {alias.asname or alias.name
                for node in _modules()["__init__"].body
                if isinstance(node, ast.ImportFrom) and node.module is not None
                for alias in node.names}
    assert _readme_exports() == exported


def test_only_the_lazy_binding_imports_numpy():
    # `import numpy` reads the module's __spec__, which loads numpy at once; every module
    # takes it as `from ._numpy import np` instead
    offenders = []
    for module, tree in _modules().items():
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module]
        if module != "_numpy" and any(name.split(".")[0] == "numpy" for name in names):
            offenders.append(f"relqi/{module}.py")
    assert offenders == [], f"import numpy outside relqi/_numpy.py: {', '.join(offenders)}"


def _module_bindings(tree):
    """The names a module's top level binds by def, class or assignment (imports aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return names


def test_no_module_holds_numpy_objects_behind_a_pep_562_hook():
    # each function builds the numpy arrays it computes with: no module-level
    # __getattr__ serves constants, and relqi._numpy hands out numpy alone
    modules = _modules()
    hooked = [f"relqi/{module}.py" for module, tree in modules.items()
              if "__getattr__" in _module_bindings(tree)]
    assert hooked == [], f"module-level __getattr__ in {', '.join(hooked)}"
    public = {name for name in _module_bindings(modules["_numpy"]) if not name.startswith("_")}
    assert public == {"np"}
