"""No public function, class, method or attribute of the package that only
tests use.

Every public top-level function and class of ``src/garchmc`` (``__init__.py``
aside, which only re-exports) must be referred to by name somewhere in the
package's own code: some ``ast.Name`` or ``ast.Attribute`` in those modules
carries its name. Every public method or property of their classes must be
reached as an attribute: some ``ast.Attribute`` carries its name, so a bare
name of the same spelling, such as a parameter, does not count. Every public
attribute a class assigns as ``self.<name>``, and every dataclass field, must
be read: some ``ast.Attribute`` loads its name. The match is by name alone,
so a dead definition whose name the package uses for something else goes
unflagged. Every name the README's Python examples import from ``garchmc``
must be in ``garchmc.__all__``, the README's artifact table must name exactly
the files a run can write, and its CLI section must name only flags the
parser has and every flag of ``RunConfig``.
"""
import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

import garchmc
from garchmc import cli

PACKAGE = Path(garchmc.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _public_definitions(tree):
    """(qualified name, name, is method) of each public top-level def and
    class and of each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def _referenced_names(trees):
    """The names every ast.Name carries, and those every ast.Attribute does."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_definition_is_used_by_the_package():
    modules = _modules()
    names, attrs = _referenced_names(modules.values())
    unused = [f"{module}: {qualname}"
              for module, tree in modules.items()
              for qualname, name, is_method in _public_definitions(tree)
              if name not in attrs and (is_method or name not in names)]
    assert not unused, "public definitions only tests use:\n" + "\n".join(unused)


def _public_attributes(tree):
    """(qualified name, name) of each public attribute of a top-level class:
    each ``self.<name>`` a method assigns and each annotated name in the
    class body (a dataclass field)."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = {node.target.id for node in cls.body
                 if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
        for name in sorted(names):
            if not name.startswith("_"):
                yield f"{cls.name}.{name}", name


def test_every_public_attribute_is_read_by_the_package():
    # An attribute counts as read only where some ast.Attribute loads its
    # name: the assignment that sets it does not count.
    modules = _modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}: {qualname}"
              for module, tree in modules.items()
              for qualname, name in _public_attributes(tree)
              if name not in read]
    assert not unread, "public attributes only tests read:\n" + "\n".join(unread)


def test_readme_imports_only_exported_names():
    # Every name the README's Python examples import from garchmc is exported.
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    imported = [alias.name for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "garchmc"
                for alias in node.names]
    assert imported, "README has no `from garchmc import` line"
    assert set(imported) <= set(garchmc.__all__), set(imported) - set(garchmc.__all__)


def test_readme_artifact_table_lists_every_artifact():
    # The file names in the first cell of each row of the README's
    # `| file | contents |` table are exactly the files a run can write.
    table = re.search(r"^\| file \| contents \|\n((?:\|.*\n)+)",
                      README.read_text(encoding="utf-8"), flags=re.M)
    assert table, "README has no | file | contents | table"
    rows = table.group(1).splitlines()[1:]  # past the | --- | --- | rule
    listed = {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert listed == set(cli._ARTIFACTS)


def test_readme_cli_section_names_the_parser_flags():
    # Every --flag the README's CLI section names is a flag of `garchmc run`
    # or `garchmc compare`, and every RunConfig field's flag is named there.
    section = re.search(r"^## CLI\n(.*?)(?=^## )", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert section, "README has no ## CLI section"
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section.group(1)))
    commands = next(a for a in cli._build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {flag for name in ("run", "compare")
              for action in commands[name]._actions for flag in action.option_strings}
    assert named <= parsed, named - parsed
    config_flags = {"--" + f.name.replace("_", "-") for f in fields(cli.RunConfig)}
    assert config_flags <= named, config_flags - named
