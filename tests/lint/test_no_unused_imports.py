"""Every name a module imports is used.

An import nobody reads costs an import-time dependency and hides which
module a layer really relies on.  This test walks every module under
``src/repro`` except the package ``__init__`` files (whose imports are
the package's public surface) with ``ast`` and fails on any imported
name the module never loads.  A name counts as loaded when code reads
it, when a quoted annotation names it (the ``TYPE_CHECKING`` imports)
or when the module's ``__all__`` re-exports it.  ``from __future__``
imports are compiler directives, not names.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded_names(tree):
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded |= _loaded_names(ast.parse(node.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return loaded


def _unused_imports(path: pathlib.Path):
    """(line, name) of every imported name the module never loads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    loaded = _loaded_names(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in loaded)


def test_every_imported_name_is_used():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(SRC).as_posix()
        offenders.extend("%s:%d %s" % (rel, line, name)
                         for line, name in _unused_imports(path))
    assert not offenders, "unused imports: " + ", ".join(offenders)
