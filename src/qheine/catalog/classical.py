"""Classical (one-dimensional) transformations: the q-binomial theorem,
Heine's transformation, its bibasic extension, the q-analogue of Euler's
transformation, and the bibasic Euler double-sum transformation."""

from __future__ import annotations

from ..multisum import SeriesSide
from .core import IdentityFamily, ParamSpec, argument, coefficient

__all__ = [
    "FAMILIES",
    "qbin_term",
    "qbin_product",
    "qbin_summation",
    "q_euler_term",
    "q_euler_inner_term",
    "q_euler_product",
]


# -- q-binomial theorem: sum_k (a)_k/(q)_k z^k = (az)_oo/(z)_oo -------------


def qbin_term(P, a, base, z, k):
    kk = k[0]
    return P.finite(a, base, kk) / P.finite(base, base, kk) * P.intpow(z, kk)


def qbin_product(P, a, base, z):
    return P.infinite(a * z, base) / P.infinite(z, base)


def qbin_summation(a, base):
    """The summand (P, z, k) and product side (P, z), parameters bound."""
    return (
        lambda P, z, k: qbin_term(P, a, base, z, k),
        lambda P, z: qbin_product(P, a, base, z),
    )


def _qbin_build(dims):
    def lhs_term(ctx, k):
        p = ctx.params
        return qbin_term(ctx.poch, p["a"], ctx.bases.q, p["z"], k)

    def rhs_prefactor(ctx):
        p = ctx.params
        return qbin_product(ctx.poch, p["a"], ctx.bases.q, p["z"])

    return SeriesSide(1, lhs_term), SeriesSide(0, prefactor=rhs_prefactor)


def _qbin_domain(dims, p, bases):
    return abs(p["z"]) < 1


def _qbin_sample(rng, dims, bases):
    return {"a": coefficient(rng), "z": argument(rng)}


Q_BINOMIAL = IdentityFamily(
    id="q_binomial",
    reference="classical q-binomial theorem: sum (a)_k/(q)_k z^k as a product",
    dim_names=(),
    schema=(ParamSpec("a"), ParamSpec("z")),
    build=_qbin_build,
    domain=_qbin_domain,
    sample=_qbin_sample,
)


# -- Heine's 2phi1 transformation -------------------------------------------


def _heine_build(dims):
    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        kk = k[0]
        q = B.q
        return (
            P.finite(p["a"], q, kk)
            * P.finite(p["b"], q, kk)
            / (P.finite(p["c"], q, kk) * P.finite(q, q, kk))
            * P.intpow(p["z"], kk)
        )

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        q = B.q
        return (
            P.infinite(p["b"], q)
            * P.infinite(p["a"] * p["z"], q)
            / (P.infinite(p["c"], q) * P.infinite(p["z"], q))
        )

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        jj = j[0]
        q = B.q
        return (
            P.finite(p["c"] / p["b"], q, jj)
            * P.finite(p["z"], q, jj)
            / (P.finite(p["a"] * p["z"], q, jj) * P.finite(q, q, jj))
            * P.intpow(p["b"], jj)
        )

    return SeriesSide(1, lhs_term), SeriesSide(1, rhs_term, rhs_prefactor)


def _heine_domain(dims, p, bases):
    return abs(p["z"]) < 1 and abs(p["b"]) < 1


def _heine_sample(rng, dims, bases):
    return {
        "a": coefficient(rng),
        "b": argument(rng),
        "c": coefficient(rng),
        "z": argument(rng),
    }


HEINE_2PHI1 = IdentityFamily(
    id="heine_2phi1",
    reference="Heine's transformation of a 2phi1 series",
    dim_names=(),
    schema=(ParamSpec("a"), ParamSpec("b"), ParamSpec("c"), ParamSpec("z")),
    build=_heine_build,
    domain=_heine_domain,
    sample=_heine_sample,
)


# -- bibasic Heine transformation (bases q^h and q^t) ------------------------


def _bibasic_heine_build(dims):
    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        kk = k[0]
        scale = P.intpow(B.qht, kk)
        return (
            P.finite(p["a"], B.qh, kk)
            / P.finite(B.qh, B.qh, kk)
            * P.ratio(p["w"], B.qt, scale)
            / P.ratio(p["b"] * p["w"], B.qt, scale)
            * P.intpow(p["z"], kk)
        )

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        return (
            P.infinite(p["w"], B.qt)
            * P.infinite(p["a"] * p["z"], B.qh)
            / (P.infinite(p["b"] * p["w"], B.qt) * P.infinite(p["z"], B.qh))
        )

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        jj = j[0]
        scale = P.intpow(B.qht, jj)
        return (
            P.finite(p["b"], B.qt, jj)
            / P.finite(B.qt, B.qt, jj)
            * P.ratio(p["z"], B.qh, scale)
            / P.ratio(p["a"] * p["z"], B.qh, scale)
            * P.intpow(p["w"], jj)
        )

    return SeriesSide(1, lhs_term), SeriesSide(1, rhs_term, rhs_prefactor)


def _bibasic_heine_domain(dims, p, bases):
    return abs(p["z"]) < 1 and abs(p["w"]) < 1


def _bibasic_heine_sample(rng, dims, bases):
    return {
        "a": coefficient(rng),
        "b": coefficient(rng),
        "w": argument(rng),
        "z": argument(rng),
    }


BIBASIC_HEINE = IdentityFamily(
    id="bibasic_heine",
    reference="bibasic Heine transformation mixing bases q^h and q^t",
    dim_names=(),
    schema=(ParamSpec("a"), ParamSpec("b"), ParamSpec("w"), ParamSpec("z")),
    build=_bibasic_heine_build,
    domain=_bibasic_heine_domain,
    sample=_bibasic_heine_sample,
)


# -- q-analogue of Euler's transformation ------------------------------------


def q_euler_term(P, a, b, c, base, z, k):
    kk = k[0]
    return (
        P.finite(a, base, kk)
        * P.finite(b, base, kk)
        / (P.finite(base, base, kk) * P.finite(c, base, kk))
        * P.intpow(z, kk)
    )


def q_euler_inner_term(P, a, b, c, base, arg, j):
    """Right-hand summand; ``arg`` is the formed argument a b z / c."""
    jj = j[0]
    return (
        P.finite(c / a, base, jj)
        * P.finite(c / b, base, jj)
        / (P.finite(base, base, jj) * P.finite(c, base, jj))
        * P.intpow(arg, jj)
    )


def q_euler_product(P, base, arg, z):
    """(arg; base)_oo / (z; base)_oo, with the argument arg already formed."""
    return P.infinite(arg, base) / P.infinite(z, base)


def _qeuler_build(dims):
    def arg(p):
        return p["a"] * p["b"] * p["z"] / p["c"]

    def lhs_term(ctx, k):
        p = ctx.params
        return q_euler_term(ctx.poch, p["a"], p["b"], p["c"], ctx.bases.q, p["z"], k)

    def rhs_prefactor(ctx):
        p = ctx.params
        return q_euler_product(ctx.poch, ctx.bases.q, arg(p), p["z"])

    def rhs_term(ctx, j):
        p = ctx.params
        return q_euler_inner_term(
            ctx.poch, p["a"], p["b"], p["c"], ctx.bases.q, arg(p), j
        )

    return SeriesSide(1, lhs_term), SeriesSide(1, rhs_term, rhs_prefactor)


def _qeuler_domain(dims, p, bases):
    if p["c"] == 0:
        return False
    return abs(p["z"]) < 1 and abs(p["a"] * p["b"] * p["z"] / p["c"]) < 1


def _qeuler_sample(rng, dims, bases):
    a = coefficient(rng)
    b = coefficient(rng)
    c = coefficient(rng)
    bound = min(1, abs(c / (a * b)))
    z = argument(rng) * bound
    return {"a": a, "b": b, "c": c, "z": z}


Q_EULER = IdentityFamily(
    id="q_euler",
    reference="q-analogue of Euler's transformation (second iterate of Heine)",
    dim_names=(),
    schema=(ParamSpec("a"), ParamSpec("b"), ParamSpec("c"), ParamSpec("z")),
    build=_qeuler_build,
    domain=_qeuler_domain,
    sample=_qeuler_sample,
)


# -- bibasic Euler transformation (double sum on both sides) -----------------


def _bibasic_euler_build(dims):
    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        kk, kt = k
        inner_arg = p["d"] * p["e"] * p["w"] / p["f"]
        scale = P.intpow(B.qht, kk)
        return (
            P.finite(p["a"], B.qh, kk)
            * P.finite(p["b"], B.qh, kk)
            / (P.finite(B.qh, B.qh, kk) * P.finite(p["c"], B.qh, kk))
            * P.ratio(p["w"], B.qt, scale)
            / P.ratio(inner_arg, B.qt, scale)
            * P.intpow(p["z"], kk)
            * P.finite(p["f"] / p["d"], B.qt, kt)
            * P.finite(p["f"] / p["e"], B.qt, kt)
            / (P.finite(B.qt, B.qt, kt) * P.finite(p["f"], B.qt, kt))
            * (inner_arg * scale) ** kt
        )

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        return (
            P.infinite(p["w"], B.qt)
            / P.infinite(p["d"] * p["e"] * p["w"] / p["f"], B.qt)
            * P.infinite(p["a"] * p["b"] * p["z"] / p["c"], B.qh)
            / P.infinite(p["z"], B.qh)
        )

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        jj, jt = j
        inner_arg = p["a"] * p["b"] * p["z"] / p["c"]
        scale = P.intpow(B.qht, jj)
        return (
            P.finite(p["d"], B.qt, jj)
            * P.finite(p["e"], B.qt, jj)
            / (P.finite(B.qt, B.qt, jj) * P.finite(p["f"], B.qt, jj))
            * P.ratio(p["z"], B.qh, scale)
            / P.ratio(inner_arg, B.qh, scale)
            * P.intpow(p["w"], jj)
            * P.finite(p["c"] / p["a"], B.qh, jt)
            * P.finite(p["c"] / p["b"], B.qh, jt)
            / (P.finite(B.qh, B.qh, jt) * P.finite(p["c"], B.qh, jt))
            * (inner_arg * scale) ** jt
        )

    return SeriesSide(2, lhs_term), SeriesSide(2, rhs_term, rhs_prefactor)


def _bibasic_euler_domain(dims, p, bases):
    if p["c"] == 0 or p["f"] == 0:
        return False
    # The inner sums start at the unshifted arguments, so those must already
    # lie inside the unit disc.
    return (
        abs(p["z"]) < 1
        and abs(p["w"]) < 1
        and abs(p["a"] * p["b"] * p["z"] / p["c"]) < 1
        and abs(p["d"] * p["e"] * p["w"] / p["f"]) < 1
    )


def _bibasic_euler_sample(rng, dims, bases):
    a, b, c = coefficient(rng), coefficient(rng), coefficient(rng)
    d, e, f = coefficient(rng), coefficient(rng), coefficient(rng)
    z = argument(rng) * min(1, abs(c / (a * b)))
    w = argument(rng) * min(1, abs(f / (d * e)))
    return {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f, "z": z, "w": w}


BIBASIC_EULER = IdentityFamily(
    id="bibasic_euler",
    reference="bibasic double-sum transformation built on the q-Euler "
    "transformation in bases q^h and q^t",
    dim_names=(),
    schema=(
        ParamSpec("a"),
        ParamSpec("b"),
        ParamSpec("c"),
        ParamSpec("d"),
        ParamSpec("e"),
        ParamSpec("f"),
        ParamSpec("z"),
        ParamSpec("w"),
    ),
    build=_bibasic_euler_build,
    domain=_bibasic_euler_domain,
    sample=_bibasic_euler_sample,
)


FAMILIES = (Q_BINOMIAL, HEINE_2PHI1, BIBASIC_HEINE, Q_EULER, BIBASIC_EULER)
