"""Every top-level function and class under src/ has a use outside the test
suite; one that only tests call belongs in ``tests/util.py``.

A use is a read of the name, an attribute of that name, or a string equal
to it (``perfbench/probes.py`` patches functions by name), anywhere in
``src/``, ``scripts/`` or ``perfbench/``.  The definition itself does not
count, nor does a package ``__init__`` importing the name to re-export it,
nor an ``__all__`` entry.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qheine"
USERS = ("src", "scripts", "perfbench")
MODULES = sorted(path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def defined_names(tree):
    return [node.name for node in tree.body if isinstance(node, DEFINITIONS)]


def exported_strings(tree) -> set:
    """The ids of the string nodes listed in ``__all__``."""
    return {
        id(node)
        for top in tree.body
        if isinstance(top, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets)
        for node in ast.walk(top.value)
    }


def read_names(tree):
    """The names the module reads, each outside the top-level definition of
    the same name."""
    exported = exported_strings(tree)
    for top in tree.body:
        own = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and id(node) not in exported:
                name = str(node.value)
            else:
                continue
            if name != own:
                yield name


USED = {
    name
    for directory in USERS
    for path in (ROOT / directory).rglob("*.py")
    for name in read_names(parse(path))
}


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_used(module):
    names = defined_names(parse(PACKAGE / module))
    unused = [name for name in names if name not in USED]
    assert not unused, f"{module} defines {unused}, which nothing outside tests uses"
