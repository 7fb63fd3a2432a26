"""Every public name of the package has a caller in the package.

A public name is one without a leading underscore: a module-level function,
class or assignment, or a method or property of a public class.  It is used
when some module of ``src/teleportsim`` loads it as a name, reads it as an
attribute or imports it, outside its own definition and outside
``__init__``'s re-export.  The scan matches by name alone, so a method
counts as used when any attribute of that name is read.

A name that only tests call belongs in ``tests/``; a name kept for another
reason goes on :data:`ALLOWED`, with the file that needs it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teleportsim"

#: "module.name" -> (the file outside the package that binds it by its
#: quoted name, why it stays)
ALLOWED = {
    "channels.apply_to_qubit": (
        "perfbench/tracer.py",
        "the benchmark's tracer wraps this module binding; it leaves the "
        "package together with that binding",
    ),
}


def _definitions(module: str, tree: ast.Module):
    """("module.name", name, node) for each public definition of a module."""

    def public(name):
        return not name.startswith("_")

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and public(node.name):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef) and public(node.name):
            yield f"{module}.{node.name}", node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and public(name.id):
                        yield f"{module}.{name.id}", name.id, node


def _uses(tree: ast.Module):
    """(name, line) for each loaded name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno


def unused_public_names() -> list[str]:
    """The public names of the package that nothing in it uses, sorted."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name, line in _uses(tree):
                uses.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(module, tree):
            if not any(
                where != module or not node.lineno <= line <= node.end_lineno
                for where, line in uses.get(name, [])
            ):
                unused.append(qualified)
    return sorted(unused)


def test_every_public_name_has_a_caller():
    # an allowed name that gained a caller, or left the package, is stale too
    unused = unused_public_names()
    assert unused == sorted(ALLOWED), f"public names with no caller in src/: {unused}"


def test_each_allowed_name_is_still_bound_where_its_reason_says():
    for qualified, (path, reason) in ALLOWED.items():
        assert reason
        name = qualified.rpartition(".")[2]
        assert f'"{name}"' in (ROOT / path).read_text(), f"{path} no longer binds {qualified}"
