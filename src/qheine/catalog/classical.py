"""Classical (one-dimensional) transformations: the q-binomial theorem,
Heine's transformation, its bibasic extension, the q-analogue of Euler's
transformation, and the bibasic Euler double-sum transformation.

Summands are ``TermSpec`` data and products ``ProductSpec`` data;
``qbin_product`` builds the product side (a z; base)_oo / (z; base)_oo that
the q-binomial, q-Euler, extra-parameter and Kajihara summations share."""

from __future__ import annotations

from mpmath import mp

from ..multisum import HeineBlock, Summation, heine_sides
from ..qcore import ONE
from .core import (
    ARGUMENT,
    COEFFICIENT,
    IdentityFamily,
    ParamSpec,
    ProductSpec,
    TermSpec,
    argument,
    denom,
    numer,
    run_memo,
    spec_side,
    summation_sides,
)

__all__ = [
    "FAMILIES",
    "qbin_product",
    "qbin_summation",
    "q_euler_summation",
]


# -- q-binomial theorem: sum_k (a)_k/(q)_k z^k = (az)_oo/(z)_oo -------------


def qbin_product(a, base) -> ProductSpec:
    """(a z; base)_oo / (z; base)_oo."""
    return ProductSpec([numer(a, base), denom(ONE, base)])


def qbin_summation(a, base) -> Summation:
    """The summation, parameters bound."""
    return Summation(
        1,
        TermSpec(base, rows=[(numer(a, base), denom(base, base))]),
        qbin_product(a, base),
        label="q_bin",
    )


def _qbin_build(dims):
    def bind(ctx):
        p = ctx.params
        return qbin_summation(p["a"], ctx.bases.q), p["z"]

    return summation_sides((1, 0), bind)


Q_BINOMIAL = IdentityFamily(
    id="q_binomial",
    reference="classical q-binomial theorem: sum (a)_k/(q)_k z^k as a product",
    dim_names=(),
    schema=(ParamSpec("a", COEFFICIENT), ParamSpec("z", ARGUMENT)),
    build=_qbin_build,
)


# -- Heine's 2phi1 transformation -------------------------------------------


def _heine_build(dims):
    """The two sides as displayed.  They bind the two q-binomial summations
    of Heine's derivation, the one in a at z with cross base q over the one
    in c/b at b, for their domain alone (``multisum.domain_fault``)."""

    def bind(ctx):
        q, p = ctx.bases.q, ctx.params
        block = HeineBlock(qbin_summation(p["a"], q), p["z"], q)
        return (block,), HeineBlock(qbin_summation(p["c"] / p["b"], q), p["b"])

    def blocks(ctx):
        return run_memo(ctx, bind)

    def lhs(ctx):
        q, p = ctx.bases.q, ctx.params
        rows = [(numer(p["a"], q), numer(p["b"], q), denom(p["c"], q), denom(q, q))]
        return TermSpec(q, rows=rows), p["z"]

    def rhs(ctx):
        q, p = ctx.bases.q, ctx.params
        a, b, c, z = p["a"], p["b"], p["c"], p["z"]
        rows = [(numer(c / b, q), numer(z, q), denom(a * z, q), denom(q, q))]
        return TermSpec(q, rows=rows), b

    def rhs_product(ctx):
        q, p = ctx.bases.q, ctx.params
        a, b, c, z = p["a"], p["b"], p["c"], p["z"]
        return ProductSpec([numer(b, q), numer(a * z, q), denom(c, q), denom(z, q)])

    return (
        spec_side(1, lhs, blocks=blocks),
        spec_side(1, rhs, rhs_product, blocks=blocks),
    )


HEINE_2PHI1 = IdentityFamily(
    id="heine_2phi1",
    reference="Heine's transformation of a 2phi1 series",
    dim_names=(),
    schema=(
        ParamSpec("a", COEFFICIENT),
        ParamSpec("b", ARGUMENT),
        ParamSpec("c", COEFFICIENT),
        ParamSpec("z", ARGUMENT),
    ),
    build=_heine_build,
)


# -- bibasic Heine transformation (bases q^h and q^t) ------------------------


def _bibasic_heine_build(dims):
    """Heine's method on the q-binomial summation in base q^h at z, with
    cross base q^{ht}, over the one in base q^t at w."""

    def bind(ctx):
        B, p = ctx.bases, ctx.params
        block = HeineBlock(qbin_summation(p["a"], B.qh), p["z"], B.qht)
        return (block,), HeineBlock(qbin_summation(p["b"], B.qt), p["w"])

    return heine_sides(((1, 0),), (1, 0), bind)


BIBASIC_HEINE = IdentityFamily(
    id="bibasic_heine",
    reference="bibasic Heine transformation mixing bases q^h and q^t",
    dim_names=(),
    schema=(
        ParamSpec("a", COEFFICIENT),
        ParamSpec("b", COEFFICIENT),
        ParamSpec("w", ARGUMENT),
        ParamSpec("z", ARGUMENT),
    ),
    build=_bibasic_heine_build,
)


# -- q-analogue of Euler's transformation ------------------------------------


def q_euler_summation(a, b, c, base, prec: int) -> Summation:
    """The transformation, parameters bound: the inner summand at unit
    argument and the stretch a b / c of its argument.  The stretch and the
    inner summand's c / a and c / b are formed once, at ``prec`` bits."""
    with mp.workprec(prec):
        stretch = a * b / c
        ca, cb = c / a, c / b

    def summand(u, v, **fields):
        """(u)_k (v)_k / ((base)_k (c)_k)."""
        rows = [(numer(u, base), numer(v, base), denom(base, base), denom(c, base))]
        return TermSpec(base, rows=rows, **fields)

    return Summation(
        1,
        summand(a, b),
        qbin_product(stretch, base),
        1,
        summand(ca, cb, argument=False),
        stretch,
        arg_bound=float(1 / max(1, abs(stretch))),
        label="q_euler",
    )


def _qeuler_build(dims):
    def bind(ctx):
        p = ctx.params
        B = ctx.bases
        return q_euler_summation(p["a"], p["b"], p["c"], B.q, B.prec), p["z"]

    return summation_sides((1, 1), bind)


def _euler_argument(a: str, b: str, c: str):
    """The draw of an argument times min(1, |c / (a b)|) for the parameters
    named a, b and c drawn before it: inside the domain of the q-Euler
    summation in them."""

    def draw(rng, size, params, dims, bases):
        return argument(rng) * min(1, abs(params[c] / (params[a] * params[b])))

    return draw


Q_EULER = IdentityFamily(
    id="q_euler",
    reference="q-analogue of Euler's transformation (second iterate of Heine)",
    dim_names=(),
    schema=(
        ParamSpec("a", COEFFICIENT),
        ParamSpec("b", COEFFICIENT),
        ParamSpec("c", COEFFICIENT),
        ParamSpec("z", _euler_argument("a", "b", "c")),
    ),
    build=_qeuler_build,
)


# -- bibasic Euler transformation (double sum on both sides) -----------------


def _bibasic_euler_build(dims):
    """Heine's method on the q-Euler transformation in base q^h at z, with
    cross base q^{ht}, over the one in base q^t at w."""

    def bind(ctx):
        B, p = ctx.bases, ctx.params
        first = q_euler_summation(p["a"], p["b"], p["c"], B.qh, B.prec)
        base = q_euler_summation(p["d"], p["e"], p["f"], B.qt, B.prec)
        return (HeineBlock(first, p["z"], B.qht),), HeineBlock(base, p["w"])

    return heine_sides(((1, 1),), (1, 1), bind)


BIBASIC_EULER = IdentityFamily(
    id="bibasic_euler",
    reference="bibasic double-sum transformation built on the q-Euler "
    "transformation in bases q^h and q^t",
    dim_names=(),
    schema=(
        *(ParamSpec(name, COEFFICIENT) for name in "abcdef"),
        ParamSpec("z", _euler_argument("a", "b", "c")),
        ParamSpec("w", _euler_argument("d", "e", "f")),
    ),
    build=_bibasic_euler_build,
)


FAMILIES = (Q_BINOMIAL, HEINE_2PHI1, BIBASIC_HEINE, Q_EULER, BIBASIC_EULER)
