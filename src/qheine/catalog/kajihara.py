"""The dimension-changing A_n to A_m transformation with doubled parameter
grid, and the four-sum bibasic identity obtained by applying the same
expansion step to two copies of it."""

from __future__ import annotations

from mpmath import mpf

from ..multisum import SeriesSide
from .classical import q_euler_product
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

__all__ = ["FAMILIES", "kajihara_term", "kajihara_inner_term"]


def kajihara_term(P, avec, bvec, c, xvec, yvec, base, z, k):
    value = vande(xvec, k, base) * sq_ratio(P, avec, xvec, base, k)
    for r in range(len(xvec)):
        if k[r] == 0:
            continue
        for s in range(len(yvec)):
            value *= P.finite(bvec[s] * xvec[r] * yvec[s], base, k[r])
            value /= P.finite(c * xvec[r] * yvec[s], base, k[r])
    return value * z ** sum(k) * base ** staircase(k)


def kajihara_inner_term(P, avec, bvec, c, xvec, yvec, base, arg, j):
    """Right-hand summand; ``arg`` is the formed argument A B z / c^m."""
    m = len(yvec)
    value = vande(yvec, j, base)
    for r in range(m):
        if j[r] == 0:
            continue
        for s in range(m):
            value *= P.finite(c * yvec[r] / (bvec[s] * yvec[s]), base, j[r])
            value /= P.finite(base * yvec[r] / yvec[s], base, j[r])
        for s in range(len(xvec)):
            value *= P.finite(c * xvec[s] * yvec[r] / avec[s], base, j[r])
            value /= P.finite(c * xvec[s] * yvec[r], base, j[r])
    return value * arg ** sum(j) * base ** staircase(j)


def _kajihara_build(dims):
    n, m = dims["n"], dims["m"]

    def big_arg(p):
        return product_over(p["a"]) * product_over(p["b"]) * p["z"] / p["c"] ** m

    def grid(p):
        return p["a"], p["b"], p["c"], p["x"], p["y"]

    def lhs_term(ctx, k):
        p = ctx.params
        return kajihara_term(ctx.poch, *grid(p), ctx.bases.q, p["z"], k)

    def rhs_prefactor(ctx):
        p = ctx.params
        return q_euler_product(ctx.poch, ctx.bases.q, big_arg(p), p["z"])

    def rhs_term(ctx, j):
        p = ctx.params
        return kajihara_inner_term(ctx.poch, *grid(p), ctx.bases.q, big_arg(p), j)

    return SeriesSide(n, lhs_term), SeriesSide(m, rhs_term, rhs_prefactor)


def _kajihara_domain(dims, p, bases):
    if p["c"] == 0 or any(a == 0 for a in p["a"]):
        return False
    m = dims["m"]
    big = product_over(p["a"]) * product_over(p["b"]) * p["z"] / p["c"] ** m
    return abs(p["z"]) < 1 and abs(big) < 1


def _kajihara_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    a = tuple(signed(rng, 0.3, 0.9) for _ in range(n))
    b = tuple(signed(rng, 0.3, 0.9) for _ in range(m))
    c = signed(rng, 0.25, 0.55)
    scale = product_over(a) * product_over(b) / c**m
    z = argument(rng)
    if abs(scale * z) > mpf("0.2"):
        z = z * mpf("0.2") / abs(scale * z)
    return {
        "a": a,
        "b": b,
        "c": c,
        "x": distinct_vector(rng, n, 0.75, 1.2),
        "y": distinct_vector(rng, m, 0.75, 1.2),
        "z": z,
    }


KAJIHARA = IdentityFamily(
    id="kajihara",
    reference="n-fold to m-fold transformation with a doubled parameter grid "
    "coupling both variable vectors",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("b", "m"),
        ParamSpec("c"),
        ParamSpec("x", "n"),
        ParamSpec("y", "m"),
        ParamSpec("z"),
    ),
    build=_kajihara_build,
    domain=_kajihara_domain,
    sample=_kajihara_sample,
    default_dims=(
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 2, "m": 1},
        {"n": 2, "m": 2},
    ),
)


def _kajihara_double_build(dims):
    n, m = dims["n"], dims["m"]
    nu, mu = dims["nu"], dims["mu"]

    def m_arg(p):
        return product_over(p["a"]) * product_over(p["b"]) / p["c"] ** mu

    def d_arg(p):
        return product_over(p["d"]) * product_over(p["e"]) / p["f"] ** nu

    def lhs_term(ctx, idx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        k, kt = idx[:n], idx[n:]
        x, big_x, y, big_y = p["x"], p["X"], p["y"], p["Y"]
        kk = sum(k)
        scale = B.qht ** kk

        value = vande(x, k, B.qh) * sq_ratio(ctx.poch, p["a"], x, B.qh, k)
        for r in range(n):
            if k[r] == 0:
                continue
            for s in range(mu):
                value *= P.finite(p["b"][s] * x[r] * big_x[s], B.qh, k[r])
                value /= P.finite(p["c"] * x[r] * big_x[s], B.qh, k[r])
        value *= P.ratio(p["w"], B.qt, scale)
        value /= P.ratio(d_arg(p) * p["w"], B.qt, scale)
        value *= p["z"] ** kk * B.qh ** staircase(k)

        value *= vande(big_y, kt, B.qt)
        for r in range(nu):
            if kt[r] == 0:
                continue
            for s in range(nu):
                value *= P.finite(
                    p["f"] * big_y[r] / (p["e"][s] * big_y[s]), B.qt, kt[r]
                )
                value /= P.finite(B.qt * big_y[r] / big_y[s], B.qt, kt[r])
            for s in range(m):
                value *= P.finite(p["f"] * y[s] * big_y[r] / p["d"][s], B.qt, kt[r])
                value /= P.finite(p["f"] * y[s] * big_y[r], B.qt, kt[r])
        value *= (d_arg(p) * p["w"] * scale) ** sum(kt) * B.qt ** staircase(kt)
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        return (
            P.infinite(p["w"], B.qt)
            * P.infinite(m_arg(p) * p["z"], B.qh)
            / (
                P.infinite(d_arg(p) * p["w"], B.qt)
                * P.infinite(p["z"], B.qh)
            )
        )

    def rhs_term(ctx, idx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        j, jt = idx[:m], idx[m:]
        x, big_x, y, big_y = p["x"], p["X"], p["y"], p["Y"]
        jj = sum(j)
        scale = B.qht ** jj

        value = vande(y, j, B.qt) * sq_ratio(ctx.poch, p["d"], y, B.qt, j)
        for r in range(m):
            if j[r] == 0:
                continue
            for s in range(nu):
                value *= P.finite(p["e"][s] * y[r] * big_y[s], B.qt, j[r])
                value /= P.finite(p["f"] * y[r] * big_y[s], B.qt, j[r])
        value *= P.ratio(p["z"], B.qh, scale)
        value /= P.ratio(m_arg(p) * p["z"], B.qh, scale)
        value *= p["w"] ** jj * B.qt ** staircase(j)

        value *= vande(big_x, jt, B.qh)
        for r in range(mu):
            if jt[r] == 0:
                continue
            for s in range(mu):
                value *= P.finite(
                    p["c"] * big_x[r] / (p["b"][s] * big_x[s]), B.qh, jt[r]
                )
                value /= P.finite(B.qh * big_x[r] / big_x[s], B.qh, jt[r])
            for s in range(n):
                value *= P.finite(p["c"] * x[s] * big_x[r] / p["a"][s], B.qh, jt[r])
                value /= P.finite(p["c"] * x[s] * big_x[r], B.qh, jt[r])
        value *= (m_arg(p) * p["z"] * scale) ** sum(jt) * B.qh ** staircase(jt)
        return value

    return SeriesSide(n + nu, lhs_term), SeriesSide(m + mu, rhs_term, rhs_prefactor)


def _kajihara_double_domain(dims, p, bases):
    if p["c"] == 0 or p["f"] == 0:
        return False
    if any(v == 0 for v in p["a"] + p["d"] + p["b"] + p["e"]):
        return False
    m_scale = product_over(p["a"]) * product_over(p["b"]) / p["c"] ** dims["mu"]
    d_scale = product_over(p["d"]) * product_over(p["e"]) / p["f"] ** dims["nu"]
    return (
        abs(p["z"]) < 1
        and abs(p["w"]) < 1
        and abs(m_scale * p["z"]) < 1
        and abs(d_scale * p["w"]) < 1
    )


def _kajihara_double_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    nu, mu = dims["nu"], dims["mu"]
    a = tuple(signed(rng, 0.3, 0.9) for _ in range(n))
    b = tuple(signed(rng, 0.3, 0.9) for _ in range(mu))
    d = tuple(signed(rng, 0.3, 0.9) for _ in range(m))
    e = tuple(signed(rng, 0.3, 0.9) for _ in range(nu))
    c = signed(rng, 0.25, 0.55)
    f = signed(rng, 0.25, 0.55)
    m_scale = product_over(a) * product_over(b) / c**mu
    d_scale = product_over(d) * product_over(e) / f**nu
    z = argument(rng)
    if abs(m_scale * z) > mpf("0.2"):
        z = z * mpf("0.2") / abs(m_scale * z)
    w = argument(rng)
    if abs(d_scale * w) > mpf("0.2"):
        w = w * mpf("0.2") / abs(d_scale * w)
    return {
        "a": a,
        "b": b,
        "c": c,
        "d": d,
        "e": e,
        "f": f,
        "x": distinct_vector(rng, n, 0.75, 1.2),
        "X": distinct_vector(rng, mu, 0.75, 1.2),
        "y": distinct_vector(rng, m, 0.75, 1.2),
        "Y": distinct_vector(rng, nu, 0.75, 1.2),
        "z": z,
        "w": w,
    }


KAJIHARA_DOUBLE = IdentityFamily(
    id="kajihara_double",
    reference="four-sum bibasic transformation pairing two copies of the "
    "doubled-grid transformation across bases q^h and q^t",
    dim_names=("n", "m", "nu", "mu"),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("b", "mu"),
        ParamSpec("c"),
        ParamSpec("d", "m"),
        ParamSpec("e", "nu"),
        ParamSpec("f"),
        ParamSpec("x", "n"),
        ParamSpec("X", "mu"),
        ParamSpec("y", "m"),
        ParamSpec("Y", "nu"),
        ParamSpec("z"),
        ParamSpec("w"),
    ),
    build=_kajihara_double_build,
    domain=_kajihara_double_domain,
    sample=_kajihara_double_sample,
    default_dims=(
        {"n": 1, "m": 1, "nu": 1, "mu": 1},
        {"n": 2, "m": 1, "nu": 1, "mu": 2},
    ),
)


FAMILIES = (KAJIHARA, KAJIHARA_DOUBLE)
