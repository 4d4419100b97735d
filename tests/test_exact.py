"""Exact checks at terminating points.

Every n->m formula of the catalog comes from Heine's method: expand the base
block's product P_0(w s) as its sum and swap the two sums.  That step holds
term by term, so at a terminating point (parameters q^{-N}, rational q and
arguments, integer h and t) each summation and each Heine pair checked here
is a finite identity between rational numbers.  That is the classical check
of terminating basic series (Gasper-Rahman, *Basic Hypergeometric Series*,
ch. 1-2).

The interpreter below reads the catalog's own data over
``fractions.Fraction``: the fields of ``TermSpec`` and ``ProductSpec``, and
Heine's coupling from ``HeineBlock`` values.  The Heine pairs are bound by
each family's own ``bind``, at a stand-in for ``BaseSystem``.  A constant
that is not an int, a Fraction or an mpf integer (such as ``qcore.ONE``)
raises TypeError, so a builder that rounds fails loudly.

Out of scope, because they cannot terminate: the Euler exponential and
stretched Euler summations (no parameter to set to q^{-N}), and the
Ramanujan entries built on them or on sums such as sum q^k/(q;q)_k^2, which
have no parameters (``OUT_OF_SCOPE``).
"""

import itertools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mpf

from qheine import catalog
from qheine.catalog.an_qbinomial import (
    extra_c_summation,
    gk_summation,
    milne_lilly_summation,
)
from qheine.catalog.classical import q_euler_summation, qbin_summation
from qheine.catalog.core import ProductSpec, TermSpec
from qheine.catalog.kajihara import kajihara_summation
from qheine.multisum import SeriesSide, enumerate_shell, make_context
from qheine.qcore import BaseSystem, raw_mul
from util import summation_builds

F = Fraction

OUT_OF_SCOPE = {
    "builders": ("euler_exp", "stretched_euler"),
    "families": (
        "ram_eq26_a2",
        "ram_1_4_12",
        "ram_eq26_a3",
        "ram_eq26_b",
        "ram_1_4_17_anm",
        "ram_1_4_17",
        "ram_1_4_10_anm",
        "ram_1_4_10_m1",
        "ram_1_4_10",
        "ram_1_4_10_c",
        "ram_1_4_10_n_single",
        "ram_1_4_9a",
        "ram_1_4_9",
        "ram_1_4_9b",
    ),
}


# -- the interpreter -----------------------------------------------------------


def exact(value) -> Fraction:
    """``value`` as a Fraction: an int, a Fraction, or an mpf integer."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, mpf) and value == int(value):
        return Fraction(int(value))
    raise TypeError(f"{value!r} is not an exact constant")


def poch(a, b, n: int) -> Fraction:
    """(a; b)_n."""
    return math.prod((1 - a * b**i for i in range(n)), start=Fraction(1))


def term(spec: TermSpec, z, k) -> Fraction:
    """The summand ``spec`` at index k, factor by factor as ``TermSpec``
    lists them; z is its argument, if it has one."""
    base = exact(spec.base)
    value = Fraction(1)
    if spec.vandermonde is not None:
        x, step = [exact(v) for v in spec.vandermonde[0]], exact(spec.vandermonde[1])
        for r, s in itertools.combinations(range(len(x)), 2):
            ratio = x[r] / x[s]
            value *= (1 - step ** (k[r] - k[s]) * ratio) / (1 - ratio)
    if spec.pairs is not None:
        a, x = ([exact(v) for v in vec] for vec in spec.pairs)
        for kr, x_r in zip(k, x):
            for a_s, x_s in zip(a, x):
                ratio = x_r / x_s
                value *= poch(a_s * ratio, base, kr) / poch(base * ratio, base, kr)
    for index, factors in zip((sum(k), *k), (spec.total, *spec.rows)):
        for a, b, stretch, op in factors:
            factor = poch(exact(a), exact(b), stretch * index)
            value = value * factor if op is raw_mul else value / factor
    if spec.exponent is not None:
        value *= base ** spec.exponent(k)
    for x_r, kr in zip(spec.monomials or (), k):
        value /= exact(x_r) ** kr
    if spec.argument:
        value *= z ** sum(k)
    return -value if spec.sign and sum(k) % 2 else value


def shells(spec: TermSpec, dimension: int, z=None) -> list:
    """The shell sums of sum_k spec(z, k), through the last shell before
    the first one whose every term is 0."""
    out = []
    for weight in range(60):
        terms = [term(spec, z, k) for k in enumerate_shell(dimension, weight)]
        if not any(terms):
            return out
        out.append(sum(terms))
    raise AssertionError("the series does not terminate")


def series(spec: TermSpec, dimension: int, z=None, scale=1) -> Fraction:
    """sum_k spec(z, k) scale^{|k|} of a terminating summand."""
    return sum(s * scale**w for w, s in enumerate(shells(spec, dimension, z)))


def _steps(c, c2, b):
    """The n >= 0 with c2 = c b^n, or None."""
    return next((n for n in range(64) if c * b**n == c2), None)


def product(spec: ProductSpec, z=1) -> Fraction:
    """prod_i (c_i z; b_i)_oo^{+-1}, its factors paired into finite
    products: a numerator (c z; b)_oo over a denominator (c b^N z; b)_oo is
    (c z; b)_N, and the other way round its inverse."""
    factors = [(exact(c), exact(b), op is raw_mul) for c, b, _, op in spec.factors]
    value = Fraction(1)
    while factors:
        c, b, up = factors.pop(0)
        for i, (c2, b2, up2) in enumerate(factors):
            if b2 != b or up2 == up:
                continue
            if (n := _steps(c, c2, b)) is not None:
                start, sign = c, up
            elif (n := _steps(c2, c, b)) is not None:
                start, sign = c2, up2
            else:
                continue
            del factors[i]
            finite = poch(start * z, b, n)
            value = value * finite if sign else value / finite
            break
        else:
            raise AssertionError(f"({c} z; {b})_oo pairs with no factor")
    return value


def inner_series(summation, z) -> Fraction:
    """sum_j R(sigma z; j) of a summation's terminating inner summand R at
    unit argument and stretch sigma, read as sum_j R(1; j) (sigma z)^{|j|};
    1 for a summation without an inner sum."""
    if not summation.inner_dimension:
        return Fraction(1)
    scale = exact(summation.stretch) * z
    return series(summation.inner, summation.inner_dimension, None, scale)


def summation_values(summation, z) -> tuple:
    """(sum, product times inner sum) of a ``Summation`` at argument z."""
    total = series(summation.term, summation.dimension, z)
    return total, product(summation.product, z) * inner_series(summation, z)


def coupling(spec: ProductSpec, z, s) -> Fraction:
    """P(z s) / P(z) of the product ``spec``, for s = b^N on each of its
    bases b: prod_i (c_i z; b)_N^{-+1}, Heine's coupling as the paper's
    finite products."""
    value = Fraction(1)
    for c, b, _, op in spec.factors:
        c, b = exact(c), exact(b)
        n = _steps(1, s, b)
        if n is None:
            raise AssertionError(f"the cross power {s} is no power of the base {b}")
        finite = poch(c * z, b, n)
        value = value / finite if op is raw_mul else value * finite
    return value


def heine_values(blocks, base) -> tuple:
    """(lhs, rhs) of ``multisum.heine_sides`` over ``HeineBlock`` values,
    with s = prod_r s_r^{|k_r|} and the inner sums of ``inner_series``, as
    the ``heine_sides`` docstring displays them:

        lhs = sum_k prod_r S_r(z_r; k_r) P_0(w s) / P_0(w)
              * sum_kt R_0(sigma_0 w s; kt)
        rhs = prod_r P_r(z_r) / P_0(w)
              * sum_j S_0(w; j) prod_r P_r(z_r s_r^{|j|}) / P_r(z_r)
              * sum_jt_r R_r(sigma_r z_r s_r^{|j|}; jt_r)

    The pair is an identity for any cross bases s_r; it is the paper's
    because each coupling is a finite product (``coupling``), which holds
    only where every cross base is a power of the bases it shifts."""
    S0, w = base.summation, exact(base.argument)
    z = [exact(block.argument) for block in blocks]
    cross = [exact(block.cross) for block in blocks]
    block_shells = [
        shells(b.summation.term, b.summation.dimension, z_r)
        for b, z_r in zip(blocks, z)
    ]
    lhs = 0
    for weights in itertools.product(*(range(len(s)) for s in block_shells)):
        s = math.prod(c**k for c, k in zip(cross, weights))
        lhs += (
            math.prod(sums[k] for sums, k in zip(block_shells, weights))
            * coupling(S0.product, w, s)
            * inner_series(S0, w * s)
        )
    rhs = sum(
        part
        * math.prod(
            coupling(b.summation.product, z_r, s_r**j)
            * inner_series(b.summation, z_r * s_r**j)
            for b, z_r, s_r in zip(blocks, z, cross)
        )
        for j, part in enumerate(shells(S0.term, S0.dimension, w))
    )
    at_z = [product(b.summation.product, z_r) for b, z_r in zip(blocks, z)]
    return lhs, math.prod(at_z) / product(S0.product, w) * rhs


class Bases:
    """A stand-in for ``qcore.BaseSystem`` at rational q and integer h, t."""

    def __init__(self, q, h=1, t=1):
        self.q, self.h, self.t, self.prec = q, h, t, 128
        self.qh, self.qt, self.qht = q**h, q**t, q ** (h * t)

    def power(self, alpha):
        return self.q**alpha


def bound_by(family, dims, helper: str) -> list:
    """The calls ``family.build(dims)`` makes to ``helper`` (``heine_sides``,
    ``summation_sides`` or ``spec_side``), as (args, kwargs): the build's
    own ``bind`` is among the arguments."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        module = sys.modules[family.build.__module__]
        sides = SeriesSide(0), SeriesSide(0)
        patch.setattr(module, helper, lambda *a, **kw: calls.append((a, kw)) or sides)
        family.build(dims)
    return calls


def heine_pair(family_id, dims, params, bases) -> tuple:
    """(lhs, rhs) of a catalog Heine pair, its blocks bound by the family
    (``poch.terms`` is the run memo of ``core.run_memo``)."""
    family = catalog.lookup(family_id)
    [((_, _, bind), _)] = bound_by(family, dims, "heine_sides")
    poch = SimpleNamespace(terms={})
    return heine_values(*bind(SimpleNamespace(params=params, bases=bases, poch=poch)))


# -- summations ---------------------------------------------------------------

Q = F(1, 3)


def exact_builds(q) -> dict:
    """Each catalog summation builder that terminates, by the name
    ``util.summation_builds`` gives it, as a function of no arguments that
    lists (summation, z) at terminating rational points in base q."""
    x1, y1 = (F(5, 4),), (F(7, 3),)
    x2, x3 = (F(1), F(5, 4)), (F(1), F(5, 4), F(7, 3))
    z, b, c = F(3, 11), F(2, 5), F(2, 7)
    return {
        "qbin": lambda: [(qbin_summation(q**-4, q), z)],
        "milne_lilly": lambda: [
            (milne_lilly_summation((q**-3,), x1, q, 128), z),
            (milne_lilly_summation((q**-2, q**-1), x2, q, 128), z),
            (milne_lilly_summation((q**-2, q**-1, q**-3), x3, q, 128), z),
        ],
        "gk": lambda: [
            (gk_summation(q**-3, x2, q, 128), z),
            (gk_summation(q**-2, x3, q, 128), z),
        ],
        "extra_c": lambda: [
            (extra_c_summation((q**-2, q**-1), c, x2, q, 128), z),
            (extra_c_summation((q**-2, q**-1), 0, x2, q, 128), z),
            (extra_c_summation((q**-1, q**-2, q**-1), c, x3, q, 128), z),
        ],
        # a = q^{-N} and c = b q^{-M}, M <= N: the inner sum and the product
        # terminate too.
        "q_euler": lambda: [(q_euler_summation(q**-3, b, b * q**-2, q, 128), z)],
        # a_r = q^{-N_r} and b_s = c q^{M_s} with sum M <= sum N.
        "kajihara": lambda: [
            (kajihara_summation((q**-2, q**-1), (c * q,), c, x2, y1, q, 128), z),
            (kajihara_summation((q**-3,), (c * q, c * q**2), c, x1, x2, q, 128), z),
        ],
    }


def test_every_builder_is_checked_or_out_of_scope():
    names = set(exact_builds(Q)) | set(OUT_OF_SCOPE["builders"])
    assert names == set(summation_builds(mpf("0.35"), 128))
    families = {family.id for family in catalog.register_all()}
    assert set(OUT_OF_SCOPE["families"]) <= families


@pytest.mark.parametrize("name", sorted(exact_builds(Q)))
def test_summation_is_exact_at_terminating_points(name):
    for summation, z in exact_builds(Q)[name]():
        total, closed = summation_values(summation, z)
        assert total == closed != 0


def test_rounded_constants_are_refused():
    with pytest.raises(TypeError):
        exact(mpf("0.5"))
    summation = gk_summation(mpf(8), (mpf(1), mpf("1.25")), mpf("0.5"), 128)
    with pytest.raises(TypeError):
        summation_values(summation, F(1, 5))


# -- Heine pairs ----------------------------------------------------------------

# h = 2 and t = 3, so q^h, q^t and q^{ht} are three different bases.
HEINE_BASES = Bases(F(1, 2), 2, 3)


def _heine_params(family_id, dims, B) -> dict:
    """A terminating point of the family: each upper parameter that a block
    summand reads at k_r is a negative power of the block's base."""
    n, m, p = dims.get("n", 1), dims.get("m", 1), dims.get("p", 1)
    mu, nu = dims.get("mu", 1), dims.get("nu", 1)
    n1, n2 = dims.get("n1", 1), dims.get("n2", 1)
    q, qh, qt = B.q, B.qh, B.qt
    a, b = (qh**-2, qh**-1)[:n], (qt**-1, qt**-2)[:m]
    x, y = (F(1), F(5, 4))[:n], (F(1), F(7, 3))[:m]
    z, w, u = F(3, 11), F(2, 7), (F(1, 5), F(2, 9), F(3, 7))[:p]
    hexp = (1, 2, 3)[:p]
    # The gk block's upper -b q/a is q^{-2tm}, the Milne-Lilly a_r = c q/d
    # are q^{-hn}.
    q_tm, q_hn = B.power(B.t * m), B.power(B.h * n)
    ram = dict(a=z, b=-z / (q * q_tm**2), c=w / (q * q_hn), d=w)
    # The q-Euler and Kajihara blocks, their inner sums and their products
    # terminate at a = base^{-N}, c = b base^{-M} (q-Euler) and at a_r =
    # base^{-N_r}, b_s = c base^{M_s} (Kajihara), with M <= N.
    c, f = F(2, 7), F(2, 9)
    kajihara = dict(
        a=(qh**-3, qh**-1)[:n],
        b=(c * qh, c * qh**2)[:mu],
        c=c,
        d=(qt**-2, qt**-1)[:m],
        e=(f * qt, f * qt)[:nu],
        f=f,
        x=x,
        X=(F(1), F(7, 3))[:mu],
        y=(F(1), F(5, 4))[:m],
        Y=(F(1), F(5, 4))[:nu],
        z=z,
        w=w,
    )
    return {
        "bibasic_heine": dict(a=qh**-2, b=qt**-2, z=z, w=w),
        "bibasic_euler": dict(
            a=qh**-3, b=F(2, 5), c=F(2, 5) * qh**-1,
            d=qt**-2, e=F(3, 7), f=F(3, 7) * qt**-2,
            z=z, w=w,
        ),
        "kajihara_double": kajihara,
        "thm_heine7": dict(a=a, b=b, x=x, y=y, z=z, w=w),
        "thm_heine8": dict(a=a, b=qt**-2, x=x, y=y, z=z, w=w),
        "thm_heine1": dict(a=a, b=b, c=F(2, 9), d=F(3, 13), x=x, y=y, z=z, w=w),
        "thm_heine2": dict(a=a, b=b, x=x, y=y, z=z, w=w),
        "qlauricella_bibasic": dict(
            a=tuple(q ** (-2 * h) for h in hexp), b=qt**-2, z=u, w=w, hexp=hexp
        ),
        # h1 = 1 and h2 = 2.
        "master_instance_big": dict(
            a1=(q**-2, q**-1)[:n1],
            a2=q**-4,
            b=b,
            c=F(2, 9),
            x1=(F(1), F(5, 4))[:n1],
            x2=(F(1), F(5, 4))[:n2],
            y=y,
            z1=z,
            z2=F(1, 5),
            w=w,
            h1=1,
            h2=2,
        ),
        "master_instance_lauricella": dict(
            a=a, b=b, cp=(qh**-1, qh**-2)[:p], u=u, x=x, y=y, z=z, w=w
        ),
        "ram_core": ram,
        "ram_1_4_1_anm": ram,
    }[family_id]


HEINE_CASES = [
    (family_id, dict(dims))
    for family_id in (
        "bibasic_heine",
        "bibasic_euler",
        "kajihara_double",
        "thm_heine7",
        "thm_heine8",
        "thm_heine1",
        "thm_heine2",
        "qlauricella_bibasic",
        "master_instance_big",
        "master_instance_lauricella",
        "ram_core",
        "ram_1_4_1_anm",
    )
    for dims in catalog.lookup(family_id).default_dims
]


@pytest.mark.parametrize(
    "family_id, dims",
    HEINE_CASES,
    ids=[f + "".join(f"-{k}{v}" for k, v in d.items()) for f, d in HEINE_CASES],
)
def test_heine_pair_is_exact_at_terminating_points(family_id, dims):
    params = _heine_params(family_id, dims, HEINE_BASES)
    lhs, rhs = heine_pair(family_id, dims, params, HEINE_BASES)
    assert lhs == rhs != 0


def test_heine_2phi1_is_exact_at_terminating_points():
    """a = q^{-3} and c = b q^{-2}: both 2phi1 series terminate, and so does
    the prefactor (b, az; q)_oo / (c, z; q)_oo."""
    q, b, z = Q, F(2, 5), F(3, 11)
    ctx = SimpleNamespace(params=dict(a=q**-3, b=b, c=b * q**-2, z=z), bases=Bases(q))
    lhs_call, rhs_call = bound_by(catalog.lookup("heine_2phi1"), {}, "spec_side")
    (_, lhs_bind), _ = lhs_call
    (_, rhs_bind, rhs_product), _ = rhs_call
    (lhs_spec, lhs_z), (rhs_spec, rhs_z) = lhs_bind(ctx), rhs_bind(ctx)
    lhs = series(lhs_spec, 1, lhs_z)
    rhs = product(rhs_product(ctx)) * series(rhs_spec, 1, rhs_z)
    assert lhs == rhs != 0


# -- the float evaluator against the exact value ------------------------------

DYADIC = {
    "q_binomial": ({}, dict(a=F(8), z=F(3, 16))),
    "an_qbin_milne_lilly": (
        {"n": 2},
        dict(a=(F(4), F(2)), x=(F(1), F(5, 4)), z=F(3, 16)),
    ),
    "an_qbin_gk": ({"n": 2}, dict(a=F(8), x=(F(1), F(5, 4)), z=F(3, 16))),
    "an_qbin_extra_c": (
        {"n": 2},
        dict(a=(F(4), F(2)), c=F(5, 16), x=(F(1), F(5, 4)), z=F(3, 16)),
    ),
}
FLOAT_BASES = BaseSystem(mpf(1) / 2, 1, 1, 128)


def _as_mpf(value):
    if isinstance(value, tuple):
        return tuple(map(_as_mpf, value))
    return mpf(value.numerator) / value.denominator


def _relative(value, want: Fraction) -> Fraction:
    """|value - want| / |want| for an mpf value, exactly."""
    man, exp = value.man_exp
    got = Fraction(-man if value < 0 else man) * Fraction(2) ** exp
    return abs(got - want) / abs(want)


def _verify(family_id, dims, exact_params):
    params = {name: _as_mpf(v) for name, v in exact_params.items()}
    identity = catalog.lookup(family_id).instantiate(dims)
    return catalog.verify(identity, make_context(params, FLOAT_BASES))


@pytest.mark.parametrize("family_id", sorted(DYADIC))
def test_float_sides_at_dyadic_terminating_points(family_id):
    """q = 1/2, h = t = 1 and dyadic parameters with a = q^{-N}: the terms
    past N are exactly 0, so the sum side carries rounding alone, and the
    product side the truncation of its infinite products as well."""
    dims, exact_params = DYADIC[family_id]
    [((_, bind), kw)] = bound_by(catalog.lookup(family_id), dims, "summation_sides")
    ctx = SimpleNamespace(params=exact_params, bases=Bases(F(1, 2)))
    total, closed = summation_values(*bind(ctx))
    assert total == closed
    result = _verify(family_id, dims, exact_params)
    sums, products = result.lhs_value, result.rhs_value
    if kw.get("product_left"):
        sums, products = products, sums
    assert _relative(sums, total) < Fraction(1, 2**110)
    assert _relative(products, total) < Fraction(1, 10**28)


def test_float_heine_sides_at_a_dyadic_terminating_point():
    exact_params = dict(a=F(4), b=F(8), z=F(3, 16), w=F(5, 32))
    lhs, rhs = heine_pair("bibasic_heine", {}, exact_params, Bases(F(1, 2)))
    assert lhs == rhs
    result = _verify("bibasic_heine", {}, exact_params)
    assert _relative(result.lhs_value, lhs) < Fraction(1, 10**28)
    assert _relative(result.rhs_value, lhs) < Fraction(1, 10**28)
