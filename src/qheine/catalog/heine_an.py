"""Dimension-changing bibasic Heine transformations: an n-fold sum in base
q^h transformed into an m-fold sum in base q^t, in four variants that differ
by which A_n q-binomial summation backs each side."""

from __future__ import annotations

from mpmath import mpf

from ..multisum import SeriesSide
from ..qcore import e2
from .core import (
    IdentityFamily,
    ParamSpec,
    argument,
    coefficient,
    distinct_vector,
    product_over,
    signed,
    sq_ratio,
    staircase,
    vande,
)

__all__ = ["FAMILIES"]


def _heine7_build(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        x = p["x"]
        scale = P.intpow(B.qht, sum(k))
        value = vande(P, x, k, B.qh) * sq_ratio(ctx.poch, p["a"], x, B.qh, k)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.ratio(wy, B.qt, scale)
            value /= P.ratio(p["b"][r] * wy, B.qt, scale)
        value *= (
            P.intpow(p["z"], sum(k))
            * P.intpow(B.qh, staircase(k))
            * P.intpow(B.qh, e2(k))
        )
        for r in range(n):
            value *= P.intpow(x[r], -k[r])
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        value = mpf(1)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.infinite(wy, B.qt) / P.infinite(p["b"][r] * wy, B.qt)
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.infinite(p["a"][r] * zx, B.qh) / P.infinite(zx, B.qh)
        return value

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        y = p["y"]
        scale = P.intpow(B.qht, sum(j))
        value = vande(P, y, j, B.qt) * sq_ratio(ctx.poch, p["b"], y, B.qt, j)
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.ratio(zx, B.qh, scale)
            value /= P.ratio(p["a"][r] * zx, B.qh, scale)
        value *= (
            P.intpow(p["w"], sum(j))
            * P.intpow(B.qt, staircase(j))
            * P.intpow(B.qt, e2(j))
        )
        for r in range(m):
            value *= P.intpow(y[r], -j[r])
        return value

    return SeriesSide(n, lhs_term), SeriesSide(m, rhs_term, rhs_prefactor)


def _heine7_domain(dims, p, bases):
    return all(abs(p["z"] / xr) < 1 for xr in p["x"]) and all(
        abs(p["w"] / yr) < 1 for yr in p["y"]
    )


def _heine7_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    x = distinct_vector(rng, n)
    y = distinct_vector(rng, m)
    return {
        "a": tuple(coefficient(rng) for _ in range(n)),
        "b": tuple(coefficient(rng) for _ in range(m)),
        "x": x,
        "y": y,
        "z": argument(rng) * min(abs(v) for v in x),
        "w": argument(rng) * min(abs(v) for v in y),
    }


THM_HEINE7 = IdentityFamily(
    id="thm_heine7",
    reference="n-fold to m-fold bibasic Heine transformation, paired "
    "parameter vectors on both sides",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("b", "m"),
        ParamSpec("x", "n"),
        ParamSpec("y", "m"),
        ParamSpec("z"),
        ParamSpec("w"),
    ),
    build=_heine7_build,
    domain=_heine7_domain,
    sample=_heine7_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


def _heine8_build(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        x = p["x"]
        scale = P.intpow(B.qht, sum(k))
        value = vande(P, x, k, B.qh) * sq_ratio(ctx.poch, p["a"], x, B.qh, k)
        for r in range(m):
            shifted_w = p["w"] * P.intpow(B.qt, r)
            value *= P.ratio(shifted_w, B.qt, scale)
            value /= P.ratio(p["b"] * shifted_w, B.qt, scale)
        value *= (
            P.intpow(p["z"], sum(k))
            * P.intpow(B.qh, staircase(k))
            * P.intpow(B.qh, e2(k))
        )
        for r in range(n):
            value *= P.intpow(x[r], -k[r])
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        value = mpf(1)
        for r in range(m):
            shifted_w = p["w"] * B.qt**r
            value *= P.infinite(shifted_w, B.qt)
            value /= P.infinite(p["b"] * shifted_w, B.qt)
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.infinite(p["a"][r] * zx, B.qh) / P.infinite(zx, B.qh)
        return value

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        scale = P.intpow(B.qht, sum(j))
        value = vande(P, p["y"], j, B.qt)
        for r in range(m):
            value *= P.finite(p["b"], B.qt, j[r]) / P.finite(B.qt, B.qt, j[r])
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.ratio(zx, B.qh, scale)
            value /= P.ratio(p["a"][r] * zx, B.qh, scale)
        return value * P.intpow(p["w"], sum(j)) * P.intpow(B.qt, staircase(j))

    return SeriesSide(n, lhs_term), SeriesSide(m, rhs_term, rhs_prefactor)


def _heine8_domain(dims, p, bases):
    return abs(p["w"]) < 1 and all(abs(p["z"] / xr) < 1 for xr in p["x"])


def _heine8_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    x = distinct_vector(rng, n)
    return {
        "a": tuple(coefficient(rng) for _ in range(n)),
        "b": coefficient(rng),
        "x": x,
        "y": distinct_vector(rng, m),
        "z": argument(rng) * min(abs(v) for v in x),
        "w": argument(rng),
    }


THM_HEINE8 = IdentityFamily(
    id="thm_heine8",
    reference="n-fold to m-fold bibasic Heine transformation with a single "
    "lower parameter and q-shifted argument products",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("b"),
        ParamSpec("x", "n"),
        ParamSpec("y", "m"),
        ParamSpec("z"),
        ParamSpec("w"),
    ),
    build=_heine8_build,
    domain=_heine8_domain,
    sample=_heine8_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


def _heine1_build(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        x = p["x"]
        kk = sum(k)
        big_a = product_over(p["a"])
        scale = P.intpow(B.qht, kk)
        value = vande(P, x, k, B.qh) * sq_ratio(ctx.poch, p["a"], x, B.qh, k)
        value *= P.intpow(p["z"], kk) * P.intpow(B.qh, staircase(k))
        for r in range(n):
            cx = p["c"] * x[r]
            value *= P.finite(cx / big_a, B.qh, k[r]) * P.finite(cx, B.qh, kk)
            value /= P.finite(cx, B.qh, k[r]) * P.finite(cx / p["a"][r], B.qh, kk)
        big_b = product_over(p["b"])
        value *= P.ratio(p["w"], B.qt, scale)
        value /= P.ratio(big_b * p["w"], B.qt, scale)
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        big_a = product_over(p["a"])
        big_b = product_over(p["b"])
        return (
            P.infinite(p["w"], B.qt)
            / P.infinite(big_b * p["w"], B.qt)
            * P.infinite(big_a * p["z"], B.qh)
            / P.infinite(p["z"], B.qh)
        )

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        y = p["y"]
        jj = sum(j)
        big_a = product_over(p["a"])
        big_b = product_over(p["b"])
        scale = P.intpow(B.qht, jj)
        value = vande(P, y, j, B.qt) * sq_ratio(ctx.poch, p["b"], y, B.qt, j)
        value *= P.intpow(p["w"], jj) * P.intpow(B.qt, staircase(j))
        for r in range(m):
            dy = p["d"] * y[r]
            value *= P.finite(dy / big_b, B.qt, j[r]) * P.finite(dy, B.qt, jj)
            value /= P.finite(dy, B.qt, j[r]) * P.finite(dy / p["b"][r], B.qt, jj)
        value *= P.ratio(p["z"], B.qh, scale)
        value /= P.ratio(big_a * p["z"], B.qh, scale)
        return value

    return SeriesSide(n, lhs_term), SeriesSide(m, rhs_term, rhs_prefactor)


def _heine1_domain(dims, p, bases):
    return abs(p["z"]) < 1 and abs(p["w"]) < 1


def _heine1_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    return {
        "a": tuple(signed(rng, 0.35, 0.9) for _ in range(n)),
        "b": tuple(signed(rng, 0.35, 0.9) for _ in range(m)),
        "c": signed(rng, 0.0, 0.45),
        "d": signed(rng, 0.0, 0.45),
        "x": distinct_vector(rng, n),
        "y": distinct_vector(rng, m),
        "z": argument(rng),
        "w": argument(rng),
    }


THM_HEINE1 = IdentityFamily(
    id="thm_heine1",
    reference="n-fold to m-fold bibasic Heine transformation with extra "
    "parameters that vanish in one dimension",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("b", "m"),
        ParamSpec("c"),
        ParamSpec("d"),
        ParamSpec("x", "n"),
        ParamSpec("y", "m"),
        ParamSpec("z"),
        ParamSpec("w"),
    ),
    build=_heine1_build,
    domain=_heine1_domain,
    sample=_heine1_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


def _heine2_build(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        scale = P.intpow(B.qht, sum(k))
        value = vande(P, p["x"], k, B.qh) * sq_ratio(ctx.poch, p["a"], p["x"], B.qh, k)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.ratio(wy, B.qt, scale)
            value /= P.ratio(p["b"][r] * wy, B.qt, scale)
        return value * P.intpow(p["z"], sum(k)) * P.intpow(B.qh, staircase(k))

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        big_a = product_over(p["a"])
        value = mpf(1)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.infinite(wy, B.qt) / P.infinite(p["b"][r] * wy, B.qt)
        return value * P.infinite(big_a * p["z"], B.qh) / P.infinite(p["z"], B.qh)

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        y = p["y"]
        big_a = product_over(p["a"])
        scale = P.intpow(B.qht, sum(j))
        value = vande(P, y, j, B.qt) * sq_ratio(ctx.poch, p["b"], y, B.qt, j)
        value *= P.ratio(p["z"], B.qh, scale) / P.ratio(big_a * p["z"], B.qh, scale)
        value *= (
            P.intpow(p["w"], sum(j))
            * P.intpow(B.qt, staircase(j))
            * P.intpow(B.qt, e2(j))
        )
        for r in range(m):
            value *= P.intpow(y[r], -j[r])
        return value

    return SeriesSide(n, lhs_term), SeriesSide(m, rhs_term, rhs_prefactor)


def _heine2_domain(dims, p, bases):
    return abs(p["z"]) < 1 and all(abs(p["w"] / yr) < 1 for yr in p["y"])


def _heine2_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    y = distinct_vector(rng, m)
    return {
        "a": tuple(coefficient(rng) for _ in range(n)),
        "b": tuple(coefficient(rng) for _ in range(m)),
        "x": distinct_vector(rng, n),
        "y": y,
        "z": argument(rng),
        "w": argument(rng) * min(abs(v) for v in y),
    }


THM_HEINE2 = IdentityFamily(
    id="thm_heine2",
    reference="n-fold to m-fold bibasic Heine transformation combining the "
    "plain-product and paired-vector summations",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("b", "m"),
        ParamSpec("x", "n"),
        ParamSpec("y", "m"),
        ParamSpec("z"),
        ParamSpec("w"),
    ),
    build=_heine2_build,
    domain=_heine2_domain,
    sample=_heine2_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


FAMILIES = (THM_HEINE7, THM_HEINE8, THM_HEINE1, THM_HEINE2)
