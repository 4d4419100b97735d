"""The dimension-changing A_n to A_m transformation with doubled parameter
grid, and the four-sum bibasic identity obtained by applying the same
expansion step to two copies of it."""

from __future__ import annotations

from operator import attrgetter

from mpmath import mpf

from ..multisum import SeriesSide, block_term
from .classical import q_euler_product
from .core import (
    IdentityFamily,
    ParamSpec,
    argument,
    coefficient,
    distinct_vector,
    finite_rows,
    product_over,
    signed,
    sq_ratio,
    staircase,
    times_rows,
    vande,
)

__all__ = ["FAMILIES", "kajihara_term", "kajihara_inner_term"]

_ONE = mpf(1)


def grid_rows(P, bvec, c, xvec, yvec, base) -> list:
    """Row r: (b_s x_r y_s; base) over (c x_r y_s; base) for every s."""

    def pairs():
        return [
            [(b_s * x_r * y_s, c * x_r * y_s) for b_s, y_s in zip(bvec, yvec)]
            for x_r in xvec
        ]

    return finite_rows(P, "kajihara.grid", (bvec, c, xvec, yvec), base, pairs)


def inner_rows(P, avec, bvec, c, xvec, yvec, base) -> list:
    """Row r: (c y_r/(b_s y_s); base) over (base y_r/y_s; base) for every s,
    then (c x_s y_r/a_s; base) over (c x_s y_r; base) for every s."""

    def pairs():
        rows = []
        for r in range(len(yvec)):
            row = [
                (c * yvec[r] / (bvec[s] * yvec[s]), base * yvec[r] / yvec[s])
                for s in range(len(yvec))
            ]
            row += [
                (c * xvec[s] * yvec[r] / avec[s], c * xvec[s] * yvec[r])
                for s in range(len(xvec))
            ]
            rows.append(row)
        return rows

    return finite_rows(P, "kajihara.inner", (avec, bvec, c, xvec, yvec), base, pairs)


def kajihara_term(P, avec, bvec, c, xvec, yvec, base, z, k):
    value = vande(P, xvec, k, base) * sq_ratio(P, avec, xvec, base, k)
    value = times_rows(value, grid_rows(P, bvec, c, xvec, yvec, base), k)
    return value * P.intpow(z, sum(k)) * P.intpow(base, staircase(k))


def kajihara_inner_term(P, avec, bvec, c, xvec, yvec, base, arg, j):
    """Right-hand summand; ``arg`` is the formed argument A B z / c^m."""
    value = vande(P, yvec, j, base)
    value = times_rows(value, inner_rows(P, avec, bvec, c, xvec, yvec, base), j)
    return value * P.intpow(arg, sum(j)) * P.intpow(base, staircase(j))


def _kajihara_build(dims):
    n, m = dims["n"], dims["m"]

    def big_arg(P, p):
        def build():
            return product_over(p["a"]) * product_over(p["b"]) * p["z"] / p["c"] ** m

        return P.table("kajihara.arg", (p["a"], p["b"], p["c"], p["z"]), build)

    def grid(p):
        return p["a"], p["b"], p["c"], p["x"], p["y"]

    def lhs_term(ctx, k):
        p = ctx.params
        return kajihara_term(ctx.poch, *grid(p), ctx.bases.q, p["z"], k)

    def rhs_prefactor(ctx):
        p = ctx.params
        return q_euler_product(ctx.poch, ctx.bases.q, big_arg(ctx.poch, p), p["z"])

    def rhs_term(ctx, j):
        p = ctx.params
        P = ctx.poch
        return kajihara_inner_term(P, *grid(p), ctx.bases.q, big_arg(P, p), j)

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

    def m_arg(P, p):
        def build():
            return product_over(p["a"]) * product_over(p["b"]) / p["c"] ** mu

        return P.table("kajihara_double.m", (p["a"], p["b"], p["c"]), build)

    def d_arg(P, p):
        def build():
            return product_over(p["d"]) * product_over(p["e"]) / p["f"] ** nu

        return P.table("kajihara_double.d", (p["d"], p["e"], p["f"]), build)

    # Each grid: parameter names, its base and its argument.
    first = (("a", "b", "c", "x", "X"), attrgetter("qh"), "z")
    second = (("d", "e", "f", "y", "Y"), attrgetter("qt"), "w")

    def side(sizes, outer, inner, stretch):
        """Summand of one side: the ``outer`` grid's left summand, times the
        ``inner`` grid's product ratio and right summand at the stretched
        argument.  The right summand is homogeneous in its argument, so it is
        taken at argument 1 and the argument's power joins the product ratio,
        which depends on the block weights only."""
        outer_names, outer_base, outer_arg = outer
        inner_names, inner_base, inner_arg = inner

        def outer_part(ctx, k):
            p = ctx.params
            grid = (p[name] for name in outer_names)
            base = outer_base(ctx.bases)
            return kajihara_term(ctx.poch, *grid, base, p[outer_arg], k)

        def inner_part(ctx, kt):
            p = ctx.params
            grid = (p[name] for name in inner_names)
            base = inner_base(ctx.bases)
            return kajihara_inner_term(ctx.poch, *grid, base, _ONE, kt)

        def coupling(ctx, weights):
            P, B, p = ctx.poch, ctx.bases, ctx.params
            scale = P.intpow(B.qht, weights[0])
            base = inner_base(B)
            arg = p[inner_arg]
            stretched = stretch(P, p) * arg
            value = P.ratio(arg, base, scale) / P.ratio(stretched, base, scale)
            return value * (stretched * scale) ** weights[1]

        return block_term(sizes, (outer_part, inner_part), coupling)

    lhs_term = side((n, nu), first, second, d_arg)
    rhs_term = side((m, mu), second, first, m_arg)

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        return (
            P.infinite(p["w"], B.qt)
            * P.infinite(m_arg(P, p) * p["z"], B.qh)
            / (
                P.infinite(d_arg(P, p) * p["w"], B.qt)
                * P.infinite(p["z"], B.qh)
            )
        )

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
