"""One domain rule: a family converges where the summations it binds
converge.

``multisum.domain_fault`` is the one statement of a domain: every bound
block's |argument| is below its summation's ``arg_bound``, every cross base
lies inside the unit disc, and a block whose builder divides by zero at the
point is outside.  The catalog families derive their domains from the
blocks their sides bind; none states one by hand, and the AST checks below
keep it so.  They also keep each parameter's draw in its schema entry: no
module writes a sampler of its own.
"""

import ast
import dataclasses
import math
import random
from pathlib import Path

import pytest
from mpmath import mp, mpf

from qheine import catalog
from qheine.catalog.core import sample_bases
from qheine.errors import DomainViolation
from qheine.multisum import make_context
from util import sample_points

CATALOG = Path(__file__).resolve().parent.parent / "src" / "qheine" / "catalog"
MODULES = sorted(path.name for path in CATALOG.glob("*.py"))
CASES = [
    (family.id, dims)
    for family in catalog.register_all()
    for dims in family.default_dims
]


def instantiate(identity_id, dims=None):
    return catalog.lookup(identity_id).instantiate(dims)


def fault(identity, params, bases):
    with mp.workprec(bases.prec):
        return identity.fault(make_context(params, bases))


def point(identity, seed=1):
    return sample_points(identity, seed=seed, count=1)[0]


def bound_blocks(identity, params, bases):
    """The blocks and the base block the identity's lhs binds."""
    with mp.workprec(bases.prec):
        return identity.lhs.bind(make_context(params, bases))


def with_bind(identity, bind):
    return dataclasses.replace(
        identity,
        lhs=dataclasses.replace(identity.lhs, bind=bind),
        rhs=dataclasses.replace(identity.rhs, bind=bind),
    )


@pytest.mark.parametrize("identity_id, dims", CASES)
def test_every_draw_is_admissible(identity_id, dims):
    # The draws of ``sample_domain``, replayed: each fits the family's
    # schema, and none is rejected, so the derived rule moves no sampled
    # point.
    identity = instantiate(identity_id, dims)
    for seed in (1, 2, 3, 26101):
        rng = random.Random(seed)
        for _ in range(3):
            bases = sample_bases(rng)
            with mp.workprec(bases.prec):
                params = identity.sample(rng, bases)
            identity.validate_params(params)
            assert fault(identity, params, bases) is None, (seed, params)


@pytest.mark.parametrize("identity_id, dims", CASES)
def test_argument_beyond_its_bound_is_outside(identity_id, dims):
    # Each block with a finite bound, its argument moved to 1.5 times the
    # bound: the point is outside, and ``verify`` refuses it.
    identity = instantiate(identity_id, dims)
    if identity.lhs.bind is None:
        assert identity.rhs.bind is None
        return
    params, bases = point(identity)
    blocks, base = bound_blocks(identity, params, bases)
    everyone = (*blocks, base)
    for r, block in enumerate(everyone):
        if not math.isfinite(block.summation.arg_bound):
            continue
        with mp.workprec(bases.prec):
            scale = 1.5 * block.summation.arg_bound / abs(block.argument)
            moved = dataclasses.replace(block, argument=block.argument * scale)

        def bind(ctx, _r=r, _moved=moved):
            blocks, base = identity.lhs.bind(ctx)
            shifted = [*blocks, base]
            shifted[_r] = _moved
            return tuple(shifted[:-1]), shifted[-1]

        outside = with_bind(identity, bind)
        assert "outside the domain" in fault(outside, params, bases)
        with pytest.raises(DomainViolation):
            catalog.verify(outside, make_context(params, bases))


def test_bounds_of_the_sampled_blocks():
    # Which bounds are finite: the q-binomial-type sums converge in a disc,
    # the Euler exponential and stretched Euler sums are entire.
    identity = instantiate("ram_eq26_b", {"n": 2, "m": 2})
    blocks, base = bound_blocks(identity, *point(identity))
    assert all(b.summation.arg_bound == math.inf for b in (*blocks, base))
    identity = instantiate("thm_heine7", {"n": 2, "m": 1})
    params, bases = point(identity)
    (block,), base = bound_blocks(identity, params, bases)
    assert block.summation.arg_bound == float(min(params["x"]))
    assert base.summation.arg_bound == float(min(params["y"]))


@pytest.mark.parametrize(
    "identity_id, dims", [("ram_eq26_b", {"n": 2, "m": 2}), ("ram_1_4_12", None)]
)
def test_entire_sums_admit_any_argument(identity_id, dims):
    identity = instantiate(identity_id, dims)
    _, bases = point(identity)
    assert fault(identity, {"a": mpf(40), "b": mpf(-25)}, bases) is None


@pytest.mark.parametrize(
    "identity_id, dims, change",
    [
        ("q_euler", None, {"c": mpf(0)}),
        ("bibasic_euler", None, {"f": mpf(0)}),
        ("kajihara", {"n": 2, "m": 1}, {"a": (mpf("0.5"), mpf(0))}),
        ("kajihara", {"n": 1, "m": 1}, {"c": mpf(0)}),
        ("ram_1_4_1_anm", {"n": 2, "m": 1}, {"a": mpf(0)}),
        ("ram_1_4_1_anm", {"n": 1, "m": 2}, {"d": mpf(0)}),
    ],
)
def test_block_without_value_is_outside(identity_id, dims, change):
    # The builder divides by the parameter, so the block cannot be bound.
    identity = instantiate(identity_id, dims)
    params, bases = point(identity)
    params = {**params, **change}
    assert fault(identity, params, bases).startswith("a block has no value")
    with pytest.raises(DomainViolation):
        catalog.verify(identity, make_context(params, bases))


@pytest.mark.parametrize(
    "identity_id, dims, name",
    [
        ("qlauricella_bibasic", {"p": 2}, "hexp"),
        ("master_instance_big", {"n1": 1, "n2": 1, "m": 1}, "h1"),
    ],
)
def test_cross_base_outside_the_disc_is_outside(identity_id, dims, name):
    # A negative block exponent puts the cross base q^{t h} outside the
    # unit disc, which no hand-written domain of these families checked.
    identity = instantiate(identity_id, dims)
    params, bases = point(identity)
    value = params[name]
    negative = tuple(-v for v in value) if isinstance(value, tuple) else -value
    params = {**params, name: negative}
    assert "no joint domain" in fault(identity, params, bases)
    with pytest.raises(DomainViolation):
        catalog.verify(identity, make_context(params, bases))


def test_stated_domain_of_heine_2phi1():
    # The displayed sides bind the two q-binomial summations of Heine's
    # derivation, the one in a at z (cross base q) over the one in c/b at
    # b: the derived rule is |z| < 1 and |b| < 1, and at b = 0 the base
    # block has no value.
    identity = instantiate("heine_2phi1")
    assert identity.lhs.bind is identity.rhs.bind is not None
    params, bases = point(identity)
    grid = [mpf(v) for v in ("1.5", "1", "0.999", "0.5")]
    grid = [*grid, *(-v for v in grid), mpf("0.03")]
    for b in grid:
        for z in grid:
            reason = fault(identity, {**params, "b": b, "z": z}, bases)
            assert (reason is None) == (abs(z) < 1 and abs(b) < 1), (b, z)
    assert fault(identity, {**params, "b": mpf(0)}, bases).startswith(
        "a block has no value"
    )
    with pytest.raises(DomainViolation):
        catalog.verify(identity, make_context({**params, "b": mpf("1.5")}, bases))


def test_sides_without_blocks_are_always_admissible():
    identity = instantiate("ram_1_4_10_anm", {"n": 2, "m": 2})
    assert identity.lhs.bind is None and identity.rhs.bind is None
    assert fault(identity, {}, point(identity)[1]) is None


# -- the decision stays in one module ------------------------------------------


def parse(module):
    return ast.parse((CATALOG / module).read_text(encoding="utf-8"))


def calls(tree):
    """(function name, ``id=`` value or None, keyword names) of every call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            keywords = {kw.arg: kw.value for kw in node.keywords}
            family_id = keywords["id"].value if "id" in keywords else None
            yield name, family_id, set(keywords)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_states_a_domain(module):
    # No module states a domain, in an ``IdentityFamily(...)``, a
    # ``replace(...)`` of one or any other call; ``heine_2phi1`` derives its
    # own as every other family does.
    stated = [
        (name, family_id)
        for name, family_id, keywords in calls(parse(module))
        if "domain" in keywords
    ]
    assert stated == []


@pytest.mark.parametrize("module", MODULES)
def test_no_hand_written_domain_functions(module):
    allowed = {"core.py": {"sample_domain"}}
    defined = {
        node.name
        for node in parse(module).body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_domain")
    }
    assert defined == allowed.get(module, set())


@pytest.mark.parametrize("module", MODULES)
def test_no_hand_written_samplers(module):
    # Each schema entry draws its parameter: no module defines a sampler of
    # its own, and no family is given one.
    tree = parse(module)
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (
            node.name.endswith("_sample")
            or node.name in ("_no_params", "_coeff_params")
        )
    ]
    given = [
        (name, family_id)
        for name, family_id, keywords in calls(tree)
        if name in ("IdentityFamily", "replace") and "sample" in keywords
    ]
    assert defined == [] and given == []


def test_the_checks_see_every_family():
    # Every registered family is declared by one of the calls checked above.
    declared = {
        family_id
        for module in MODULES
        for name, family_id, _ in calls(parse(module))
        if name in ("IdentityFamily", "replace") and family_id is not None
    }
    assert declared == {family.id for family in catalog.register_all()}
