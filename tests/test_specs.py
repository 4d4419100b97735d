"""Summands and products of the catalog are data.

No module under ``src/qheine/catalog/`` calls ``.infinite(`` outside
``core.ProductSpec``, and every catalog summation builder, like every block
that ``blocks.sample_block`` draws (but the ``broken`` counterexample),
carries a ``TermSpec`` summand and a ``ProductSpec`` product.  A builder is
a top-level function of a catalog module annotated to return a
``Summation``; those of ``blocks.py`` draw the shipped blocks.

Builders make no mpmath values: every catalog function annotated to return
a ``Summation``, a ``TermSpec`` or a ``ProductSpec``, and ``core.geom``, forms
its constants with plain operators on the numbers it is given, so that it
builds over Fractions as over mpf values.  ``blocks.broken_block`` is the one
exception: its summand is code.
"""

import ast
import random
from pathlib import Path

import pytest
from mpmath import mpf

from qheine.catalog.blocks import BLOCK_NAMES, sample_block
from qheine.catalog.core import ProductSpec, TermSpec
from util import summation_builds

CATALOG = Path(__file__).resolve().parent.parent / "src" / "qheine" / "catalog"
MODULES = sorted(path.name for path in CATALOG.glob("*.py"))
BASE = mpf("0.35")


def parse(module):
    return ast.parse((CATALOG / module).read_text(encoding="utf-8"))


def infinite_calls(tree):
    """(enclosing top-level class or None, line) of each ``.infinite(``
    call."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "infinite"
            ):
                yield owner, node.lineno


def builders(tree):
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and isinstance(node.returns, ast.Name)
        and node.returns.id == "Summation"
    ]


SPEC_TYPES = {"Summation", "TermSpec", "ProductSpec"}
MPMATH_MAKERS = {
    "mpf",
    "mpc",
    "mpmathify",
    "value_key",
    "from_raw",
    "_pow_int",
    "raw_mul",
    "raw_div",
    "raw_product",
    "power_at",
}


def spec_builders(tree):
    """The module's functions, nested ones too, annotated to return a spec
    type, and ``geom``; ``broken_block`` aside."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name != "broken_block"
        and (
            node.name == "geom"
            or (isinstance(node.returns, ast.Name) and node.returns.id in SPEC_TYPES)
        )
    ]


def called_names(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def assert_specs(summation):
    assert isinstance(summation.term, TermSpec)
    assert isinstance(summation.product, ProductSpec)
    if summation.inner_dimension:
        assert isinstance(summation.inner, TermSpec)


@pytest.mark.parametrize("module", MODULES)
def test_products_are_evaluated_only_by_product_spec(module):
    stray = [
        line
        for owner, line in infinite_calls(parse(module))
        if (module, owner) != ("core.py", "ProductSpec")
    ]
    assert not stray, f"{module} calls .infinite( on lines {stray}"


def test_every_builder_is_checked():
    found = {
        name.removesuffix("_summation")
        for module in MODULES
        if module != "blocks.py"
        for name in builders(parse(module))
    }
    assert found == set(summation_builds(BASE, 128))


@pytest.mark.parametrize("name", sorted(summation_builds(BASE, 128)))
def test_builder_summation_is_specs(name):
    assert_specs(summation_builds(BASE, 128)[name]())


@pytest.mark.parametrize("name", [n for n in BLOCK_NAMES if n != "broken"])
def test_sampled_block_is_specs(name):
    dims = (1, 2) if name == "kajihara" else (2,)
    assert_specs(sample_block(name, random.Random(3), dims, BASE, 128))


@pytest.mark.parametrize("module", MODULES)
def test_builders_make_no_mpmath_values(module):
    stray = [
        (node.name, name)
        for node in spec_builders(parse(module))
        for name in called_names(node)
        if name in MPMATH_MAKERS
    ]
    assert not stray, f"{module}: builders make mpmath values {stray}"
