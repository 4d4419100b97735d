"""Multibasic p-fold to single-sum transformation and two explicit instances
of its fully general block-composed extension."""

from __future__ import annotations

from mpmath import mpf

from ..multisum import HeineBlock, SeriesSide, block_term, heine_sides
from ..qcore import e2, raw_product
from .classical import qbin_summation
from .core import (
    IdentityFamily,
    ParamSpec,
    argument,
    coefficient,
    distinct_vector,
    exponent,
    signed,
    sq_ratio,
    staircase,
    vande,
)

__all__ = ["FAMILIES"]


# -- p-fold sum with p+1 bases collapsing to a single sum --------------------


def _qlauricella_build(dims):
    def bind(ctx):
        B, p = ctx.bases, ctx.params
        blocks = [
            HeineBlock(*qbin_summation(a_r, B.power(h_r)), z_r, B.power(B.t * h_r))
            for a_r, z_r, h_r in zip(p["a"], p["z"], p["hexp"])
        ]
        return blocks, HeineBlock(*qbin_summation(p["b"], B.qt), p["w"])

    return heine_sides(((1, 0),) * dims["p"], (1, 0), bind)


def _qlauricella_domain(dims, p, bases):
    return abs(p["w"]) < 1 and all(abs(zr) < 1 for zr in p["z"])


def _qlauricella_sample(rng, dims, bases):
    p_dim = dims["p"]
    return {
        "a": tuple(coefficient(rng) for _ in range(p_dim)),
        "b": coefficient(rng),
        "z": tuple(argument(rng) for _ in range(p_dim)),
        "w": argument(rng),
        "hexp": tuple(exponent(rng) for _ in range(p_dim)),
    }


QLAURICELLA_BIBASIC = IdentityFamily(
    id="qlauricella_bibasic",
    reference="p-fold multibasic sum with dot-product index collapsing to a "
    "single sum in base q^t",
    dim_names=("p",),
    schema=(
        ParamSpec("a", "p"),
        ParamSpec("b"),
        ParamSpec("z", "p"),
        ParamSpec("w"),
        ParamSpec("hexp", "p", role="exponent"),
    ),
    build=_qlauricella_build,
    domain=_qlauricella_domain,
    sample=_qlauricella_sample,
    default_dims=({"p": 1}, {"p": 2}, {"p": 3}),
)


# -- two-block instance: paired-vector block + single-parameter block over an
#    extra-parameter base block ------------------------------------------------


def _master_big_build(dims):
    n1, n2, m = dims["n1"], dims["n2"], dims["m"]

    def constants(P, B, p):
        """b_1 ... b_m, q^{t h1} and q^{t h2}, built once per run."""

        def build():
            return (
                raw_product(p["b"]),
                B.power(B.t * p["h1"]),
                B.power(B.t * p["h2"]),
            )

        return P.table("master_big", (B.q, B.t, p["h1"], p["h2"], p["b"]), build)

    def rhs_arguments(P, B, p):
        """The right side's finite-product and product arguments, built once
        per run: (c y_r, c y_r/(b_1 ... b_m), c y_r/b_r) for each r, then
        (z1/x1_r, a1_r z1/x1_r) and (z2 q^{h2 r}, a2 z2 q^{h2 r})."""

        def build():
            big_b = constants(P, B, p)[0]
            base2 = B.power(p["h2"])
            cy = [p["c"] * yr for yr in p["y"]]
            zx = [p["z1"] / xr for xr in p["x1"]]
            shifted = [p["z2"] * P.intpow(base2, r) for r in range(n2)]
            return (
                [(v, v / big_b, v / br) for v, br in zip(cy, p["b"])],
                [(v, ar * v) for v, ar in zip(zx, p["a1"])],
                [(v, p["a2"] * v) for v in shifted],
            )

        names = ("h2", "b", "c", "y", "z1", "x1", "a1", "z2", "a2")
        values = (B.q,) + tuple(p[name] for name in names)
        return P.table("master_big.rhs", values, build)

    def first_part(ctx, k1):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        base1 = B.power(p["h1"])
        x1 = p["x1"]
        value = vande(P, x1, k1, base1) * sq_ratio(ctx.poch, p["a1"], x1, base1, k1)
        value *= P.intpow(p["z1"], sum(k1))
        value *= P.intpow(base1, staircase(k1)) * P.intpow(base1, e2(k1))
        for r in range(n1):
            value *= P.intpow(x1[r], -k1[r])
        return value

    def second_part(ctx, k2):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        base2 = B.power(p["h2"])
        value = vande(P, p["x2"], k2, base2)
        for r in range(n2):
            value *= P.finite(p["a2"], base2, k2[r])
            value /= P.finite(base2, base2, k2[r])
        return value * P.intpow(p["z2"], sum(k2)) * P.intpow(base2, staircase(k2))

    def base_ratio(ctx, weights):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        big_b, stretch1, stretch2 = constants(P, B, p)
        scale = P.intpow(stretch1, weights[0]) * P.intpow(stretch2, weights[1])
        return P.ratio(p["w"], B.qt, scale) / P.ratio(big_b * p["w"], B.qt, scale)

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        base1 = B.power(p["h1"])
        base2 = B.power(p["h2"])
        big_b = constants(P, B, p)[0]
        _, first_args, second_args = rhs_arguments(P, B, p)
        value = mpf(1)
        for zx, azx in first_args:
            value *= P.infinite(azx, base1) / P.infinite(zx, base1)
        for shifted, a_shifted in second_args:
            value *= P.infinite(a_shifted, base2)
            value /= P.infinite(shifted, base2)
        value *= P.infinite(p["w"], B.qt) / P.infinite(big_b * p["w"], B.qt)
        return value

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        base1 = B.power(p["h1"])
        base2 = B.power(p["h2"])
        y = p["y"]
        jj = sum(j)
        _, stretch1, stretch2 = constants(P, B, p)
        cy_rows, first_args, second_args = rhs_arguments(P, B, p)
        value = vande(P, y, j, B.qt) * sq_ratio(ctx.poch, p["b"], y, B.qt, j)
        for jr, (cy, cy_big_b, cy_b) in zip(j, cy_rows):
            value *= P.finite(cy_big_b, B.qt, jr) * P.finite(cy, B.qt, jj)
            value /= P.finite(cy, B.qt, jr) * P.finite(cy_b, B.qt, jj)
        value *= P.intpow(p["w"], jj) * P.intpow(B.qt, staircase(j))
        scale1 = P.intpow(stretch1, jj)
        scale2 = P.intpow(stretch2, jj)
        for zx, azx in first_args:
            value *= P.ratio(zx, base1, scale1)
            value /= P.ratio(azx, base1, scale1)
        for shifted, a_shifted in second_args:
            value *= P.ratio(shifted, base2, scale2)
            value /= P.ratio(a_shifted, base2, scale2)
        return value

    lhs_term = block_term((n1, n2), (first_part, second_part), base_ratio)
    return SeriesSide(n1 + n2, lhs_term), SeriesSide(m, rhs_term, rhs_prefactor)


def _master_big_domain(dims, p, bases):
    return (
        all(abs(p["z1"] / xr) < 1 for xr in p["x1"])
        and abs(p["z2"]) < 1
        and abs(p["w"]) < 1
    )


def _master_big_sample(rng, dims, bases):
    n1, n2, m = dims["n1"], dims["n2"], dims["m"]
    x1 = distinct_vector(rng, n1)
    return {
        "a1": tuple(coefficient(rng) for _ in range(n1)),
        "a2": coefficient(rng),
        "b": tuple(signed(rng, 0.35, 0.9) for _ in range(m)),
        "c": signed(rng, 0.0, 0.45),
        "x1": x1,
        "x2": distinct_vector(rng, n2),
        "y": distinct_vector(rng, m),
        "z1": argument(rng) * min(abs(v) for v in x1),
        "z2": argument(rng),
        "w": argument(rng),
        "h1": exponent(rng),
        "h2": exponent(rng),
    }


MASTER_INSTANCE_BIG = IdentityFamily(
    id="master_instance_big",
    reference="two-block composed transformation: paired-vector and "
    "single-parameter sums over an extra-parameter base sum",
    dim_names=("n1", "n2", "m"),
    schema=(
        ParamSpec("a1", "n1"),
        ParamSpec("a2"),
        ParamSpec("b", "m"),
        ParamSpec("c"),
        ParamSpec("x1", "n1"),
        ParamSpec("x2", "n2"),
        ParamSpec("y", "m"),
        ParamSpec("z1"),
        ParamSpec("z2"),
        ParamSpec("w"),
        ParamSpec("h1", role="exponent"),
        ParamSpec("h2", role="exponent"),
    ),
    build=_master_big_build,
    domain=_master_big_domain,
    sample=_master_big_sample,
    default_dims=(
        {"n1": 1, "n2": 1, "m": 1},
        {"n1": 2, "n2": 1, "m": 2},
        {"n1": 1, "n2": 2, "m": 1},
    ),
)


# -- (p+1)-block instance: p one-dimensional blocks plus a plain-product A_n
#    block over a plain-product base block --------------------------------------


def _master_lauricella_build(dims):
    p_dim, n, m = dims["p"], dims["n"], dims["m"]

    def one_dimensional_part(r):
        def part(ctx, l):
            P, B, p = ctx.poch, ctx.bases, ctx.params
            lr = l[0]
            value = P.finite(p["cp"][r], B.qh, lr) / P.finite(B.qh, B.qh, lr)
            return value * P.intpow(p["u"][r], lr)

        return part

    def an_part(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        value = vande(P, p["x"], k, B.qh) * sq_ratio(ctx.poch, p["a"], p["x"], B.qh, k)
        return value * P.intpow(p["z"], sum(k)) * P.intpow(B.qh, staircase(k))

    def arguments(P, p):
        """(b_1 ... b_m w, a_1 ... a_n z, [cp_r u_r]), the product
        arguments made from the parameters, built once per run."""

        def build():
            return (
                raw_product(p["b"]) * p["w"],
                raw_product(p["a"]) * p["z"],
                [cp_r * u_r for cp_r, u_r in zip(p["cp"], p["u"])],
            )

        names = ("a", "b", "cp", "u", "w", "z")
        return P.table("master_lauricella", tuple(p[name] for name in names), build)

    def base_ratio(ctx, weights):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        bw = arguments(P, p)[0]
        scale = P.intpow(B.qht, sum(weights))
        return P.ratio(p["w"], B.qt, scale) / P.ratio(bw, B.qt, scale)

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        bw, az, cpu = arguments(P, p)
        value = (
            P.infinite(p["w"], B.qt)
            * P.infinite(az, B.qh)
            / (P.infinite(bw, B.qt) * P.infinite(p["z"], B.qh))
        )
        for r in range(p_dim):
            value *= P.infinite(cpu[r], B.qh)
            value /= P.infinite(p["u"][r], B.qh)
        return value

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        _, az, cpu = arguments(P, p)
        jj = sum(j)
        scale = P.intpow(B.qht, jj)
        value = vande(P, p["y"], j, B.qt) * sq_ratio(ctx.poch, p["b"], p["y"], B.qt, j)
        value *= P.ratio(p["z"], B.qh, scale) / P.ratio(az, B.qh, scale)
        for r in range(p_dim):
            value *= P.ratio(p["u"][r], B.qh, scale)
            value /= P.ratio(cpu[r], B.qh, scale)
        return value * P.intpow(p["w"], jj) * P.intpow(B.qt, staircase(j))

    parts = tuple(one_dimensional_part(r) for r in range(p_dim)) + (an_part,)
    lhs_term = block_term((1,) * p_dim + (n,), parts, base_ratio)
    return SeriesSide(p_dim + n, lhs_term), SeriesSide(m, rhs_term, rhs_prefactor)


def _master_lauricella_domain(dims, p, bases):
    return (
        abs(p["z"]) < 1
        and abs(p["w"]) < 1
        and all(abs(ur) < 1 for ur in p["u"])
    )


def _master_lauricella_sample(rng, dims, bases):
    p_dim, n, m = dims["p"], dims["n"], dims["m"]
    return {
        "a": tuple(coefficient(rng) for _ in range(n)),
        "b": tuple(coefficient(rng) for _ in range(m)),
        "cp": tuple(coefficient(rng) for _ in range(p_dim)),
        "u": tuple(argument(rng) for _ in range(p_dim)),
        "x": distinct_vector(rng, n),
        "y": distinct_vector(rng, m),
        "z": argument(rng),
        "w": argument(rng),
    }


MASTER_INSTANCE_LAURICELLA = IdentityFamily(
    id="master_instance_lauricella",
    reference="(p+1)-block composed transformation: p one-dimensional sums "
    "and a plain-product A_n sum over a plain-product base sum",
    dim_names=("p", "n", "m"),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("b", "m"),
        ParamSpec("cp", "p"),
        ParamSpec("u", "p"),
        ParamSpec("x", "n"),
        ParamSpec("y", "m"),
        ParamSpec("z"),
        ParamSpec("w"),
    ),
    build=_master_lauricella_build,
    domain=_master_lauricella_domain,
    sample=_master_lauricella_sample,
    default_dims=(
        {"p": 1, "n": 1, "m": 1},
        {"p": 2, "n": 1, "m": 2},
        {"p": 1, "n": 2, "m": 1},
    ),
)


FAMILIES = (QLAURICELLA_BIBASIC, MASTER_INSTANCE_BIG, MASTER_INSTANCE_LAURICELLA)
