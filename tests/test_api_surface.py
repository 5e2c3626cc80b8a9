"""No public function, class or method of the package that only tests call.

Every public top-level function and class of ``src/garchmc`` (``__init__.py``
aside, which only re-exports), and every public method of its classes, must
be referred to by name somewhere in the package's own code. A name counts as
referred to when any ``ast.Name`` or ``ast.Attribute`` in those modules
carries it. The match is by name alone, so a dead definition whose name the
package uses for something else goes unflagged.
"""
import ast
from pathlib import Path

import garchmc

PACKAGE = Path(garchmc.__file__).parent


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _public_definitions(tree):
    """(qualified name, name) of each public top-level def and class and of
    each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _referenced_names(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_is_used_by_the_package():
    modules = _modules()
    used = _referenced_names(modules.values())
    unused = [f"{module}: {qualname}"
              for module, tree in modules.items()
              for qualname, name in _public_definitions(tree) if name not in used]
    assert not unused, "public definitions only tests use:\n" + "\n".join(unused)
