"""Every module under src/ uses each name it imports.

A package's ``__init__`` is left out: what it imports, it re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qheine"
MODULES = sorted(
    path.relative_to(PACKAGE).as_posix()
    for path in PACKAGE.rglob("*.py")
    if path.name != "__init__.py"
)

# (module, name) imported without a use, with the reason.
UNUSED_ON_PURPOSE = {
    # perfbench/probes.py patches it to count the sides the CLI evaluates.
    ("cli.py", "evaluate_in_context"),
}


def imported_names(tree):
    """The names bound by the module's import statements, ``__future__``
    imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree) -> set:
    """The names the module reads, and the names it exports in
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        name
        for name in set(imported_names(tree))
        if name not in used and (module, name) not in UNUSED_ON_PURPOSE
    )
    assert not unused, f"{module} imports {unused} without using them"


def test_the_exceptions_are_still_unused():
    """An exception that the module has started to use, or no longer
    imports, is stale."""
    for module, name in UNUSED_ON_PURPOSE:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert name in set(imported_names(tree)) - used_names(tree)
