"""One keying convention for IR-derived maps.

IR objects (values, instructions, blocks, functions) hash by identity,
so every analysis keys its maps and sets by the object itself.  An
``id(obj)`` key is the same map while the object lives, but it does not
survive pickling (a stored analysis would answer for nothing) and a
freed id can be reused by a new object in the middle of a pass.  This
test walks ``src/repro`` with ``ast`` (so ``tid()`` and docstrings do
not count) and allows the builtin ``id`` in exactly two places, neither
of which is a map key.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: (module path under ``src/repro``, enclosing function) -> why ``id``.
ALLOWED = {
    # A printed name for an unnumbered register, not a key; triage's
    # ``normalize_detail`` neutralises it.
    ("ir/instructions.py", "short"),
    # A token inside a symbolic slope tuple, whose terms are ordered by
    # ``repr``: an IR object there would change the canonical order.
    ("analysis/similarity.py", "_slope_mul_shared"),
}


def _id_references(path: pathlib.Path):
    """(enclosing function, line) of every load of the name ``id``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Name) and node.id == "id"
                and isinstance(node.ctx, ast.Load)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_ir_maps_are_keyed_by_the_objects_not_their_ids():
    seen = set()
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for function, line in _id_references(path):
            if (rel, function) in ALLOWED:
                seen.add((rel, function))
            else:
                offenders.append("%s:%d (in %s)" % (rel, line, function))
    assert not offenders, (
        "key IR maps by the IR object, not id(): " + ", ".join(offenders))
    assert seen == ALLOWED, "stale allowance: %s" % sorted(ALLOWED - seen)
