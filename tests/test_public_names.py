"""Every public name of the package has a caller in the package.

A public name is one without a leading underscore: a module-level function,
class or assignment, or a method or property of a public class.  It is used
when some module of ``src/teleportsim`` reads it, outside its own
definition and outside ``__init__``'s re-export: a module-level name when
it is loaded as a name, read as an attribute or imported, a class member
only when it is read as an attribute, so a local variable of the same name
does not count.  The scan matches by name alone, so a method counts as used
when any attribute of that name is read.

A name that only tests call belongs in ``tests/``; a name kept for another
reason goes on :data:`ALLOWED`, with the file that needs it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teleportsim"

#: "module.name" -> (the file outside the package that binds it by its
#: quoted name or reads it as an attribute, why it stays)
ALLOWED = {
    "channels.apply_to_qubit": (
        "perfbench/tracer.py",
        "the benchmark's tracer wraps this module binding; it leaves the "
        "package together with that binding",
    ),
    "exact.PolyP.im": (
        "perfbench/workloads.py",
        "the benchmark's exact workload reads each coefficient's imaginary "
        "part; the package itself reads only the real part",
    ),
}


def _definitions(module: str, tree: ast.Module):
    """("module.name", name, node, member) for each public definition of a
    module; ``member`` is whether it belongs to a class."""

    def public(name):
        return not name.startswith("_")

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and public(node.name):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef) and public(node.name):
            yield f"{module}.{node.name}", node.name, node, False
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and public(name.id):
                        yield f"{module}.{name.id}", name.id, node, False


def _uses(tree: ast.Module):
    """(name, line, is_attribute) for each loaded name, attribute and
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno, False


def unused_public_names() -> list[str]:
    """The public names of the package that nothing in it uses, sorted."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        if module != "__init__":
            for name, line, attribute in _uses(tree):
                uses.setdefault(name, []).append((module, line, attribute))
    unused = []
    for module, tree in trees.items():
        for qualified, name, node, member in _definitions(module, tree):
            if not any(
                (attribute or not member)
                and (where != module or not node.lineno <= line <= node.end_lineno)
                for where, line, attribute in uses.get(name, [])
            ):
                unused.append(qualified)
    return sorted(unused)


def _bindings(path: Path) -> set[str]:
    """The string constants of a file, and the attributes it reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # an allowed name that gained a caller, or left the package, is stale too
    unused = unused_public_names()
    assert unused == sorted(ALLOWED), f"public names with no caller in src/: {unused}"


def test_each_allowed_name_is_still_bound_where_its_reason_says():
    for qualified, (path, reason) in ALLOWED.items():
        assert reason
        name = qualified.rpartition(".")[2]
        assert name in _bindings(ROOT / path), f"{path} no longer binds or reads {qualified}"
