"""Multibasic p-fold to single-sum transformation and two explicit instances
of its fully general block-composed extension."""

from __future__ import annotations

from ..multisum import HeineBlock, heine_sides
from .an_qbinomial import (
    EXTRA_A,
    EXTRA_C,
    extra_c_summation,
    gk_summation,
    milne_lilly_summation,
)
from .classical import qbin_summation
from .core import (
    ARGUMENT,
    COEFFICIENT,
    DISTINCT,
    EXPONENT,
    IdentityFamily,
    ParamSpec,
    inside,
)

__all__ = ["FAMILIES"]


# -- p-fold sum with p+1 bases collapsing to a single sum --------------------


def _qlauricella_build(dims):
    def bind(ctx):
        B, p = ctx.bases, ctx.params
        blocks = [
            HeineBlock(qbin_summation(a_r, B.power(h_r)), z_r, B.power(B.t * h_r))
            for a_r, z_r, h_r in zip(p["a"], p["z"], p["hexp"])
        ]
        return blocks, HeineBlock(qbin_summation(p["b"], B.qt), p["w"])

    return heine_sides(((1, 0),) * dims["p"], (1, 0), bind)


QLAURICELLA_BIBASIC = IdentityFamily(
    id="qlauricella_bibasic",
    reference="p-fold multibasic sum with dot-product index collapsing to a "
    "single sum in base q^t",
    dim_names=("p",),
    schema=(
        ParamSpec("a", COEFFICIENT, "p"),
        ParamSpec("b", COEFFICIENT),
        ParamSpec("z", ARGUMENT, "p"),
        ParamSpec("w", ARGUMENT),
        ParamSpec("hexp", EXPONENT, "p", role="exponent"),
    ),
    build=_qlauricella_build,
    default_dims=({"p": 1}, {"p": 2}, {"p": 3}),
)


# -- two-block instance: paired-vector block + single-parameter block over an
#    extra-parameter base block ------------------------------------------------


def _master_big_build(dims):
    """Heine's method on the Milne-Lilly summation in base q^{h1} at z1 and
    the gk summation in base q^{h2} at z2, with cross bases q^{t h1} and
    q^{t h2}, over the extra-parameter summation in base q^t at w."""

    def bind(ctx):
        B, p = ctx.bases, ctx.params
        h1, h2 = p["h1"], p["h2"]
        first = milne_lilly_summation(p["a1"], p["x1"], B.power(h1), B.prec)
        second = gk_summation(p["a2"], p["x2"], B.power(h2), B.prec)
        blocks = (
            HeineBlock(first, p["z1"], B.power(B.t * h1)),
            HeineBlock(second, p["z2"], B.power(B.t * h2)),
        )
        base = extra_c_summation(p["b"], p["c"], p["y"], B.qt, B.prec)
        return blocks, HeineBlock(base, p["w"])

    shapes = ((dims["n1"], 0), (dims["n2"], 0))
    return heine_sides(shapes, (dims["m"], 0), bind)


MASTER_INSTANCE_BIG = IdentityFamily(
    id="master_instance_big",
    reference="two-block composed transformation: paired-vector and "
    "single-parameter sums over an extra-parameter base sum",
    dim_names=("n1", "n2", "m"),
    schema=(
        ParamSpec("x1", DISTINCT, "n1"),
        ParamSpec("a1", COEFFICIENT, "n1"),
        ParamSpec("a2", COEFFICIENT),
        ParamSpec("b", EXTRA_A, "m"),
        ParamSpec("c", EXTRA_C),
        ParamSpec("x2", DISTINCT, "n2"),
        ParamSpec("y", DISTINCT, "m"),
        ParamSpec("z1", inside("x1")),
        ParamSpec("z2", ARGUMENT),
        ParamSpec("w", ARGUMENT),
        ParamSpec("h1", EXPONENT, role="exponent"),
        ParamSpec("h2", EXPONENT, role="exponent"),
    ),
    build=_master_big_build,
    default_dims=(
        {"n1": 1, "n2": 1, "m": 1},
        {"n1": 2, "n2": 1, "m": 2},
        {"n1": 1, "n2": 2, "m": 1},
    ),
)


# -- (p+1)-block instance: p one-dimensional blocks plus a plain-product A_n
#    block over a plain-product base block --------------------------------------


def _master_lauricella_build(dims):
    """Heine's method on p q-binomial summations at u_r and the
    extra-parameter summation at c = 0 and z, all in base q^h with cross
    base q^{ht}, over the extra-parameter summation at c = 0 in base q^t at
    w.  The blocks share their cross base, so the lhs coupling depends on
    the total weight alone."""

    def bind(ctx):
        B, p = ctx.bases, ctx.params
        blocks = [
            HeineBlock(qbin_summation(c_r, B.qh), u_r, B.qht)
            for c_r, u_r in zip(p["cp"], p["u"])
        ]
        an_block = extra_c_summation(p["a"], 0, p["x"], B.qh, B.prec)
        blocks.append(HeineBlock(an_block, p["z"], B.qht))
        base = extra_c_summation(p["b"], 0, p["y"], B.qt, B.prec)
        return blocks, HeineBlock(base, p["w"])

    shapes = ((1, 0),) * dims["p"] + ((dims["n"], 0),)
    return heine_sides(shapes, (dims["m"], 0), bind)


MASTER_INSTANCE_LAURICELLA = IdentityFamily(
    id="master_instance_lauricella",
    reference="(p+1)-block composed transformation: p one-dimensional sums "
    "and a plain-product A_n sum over a plain-product base sum",
    dim_names=("p", "n", "m"),
    schema=(
        ParamSpec("a", COEFFICIENT, "n"),
        ParamSpec("b", COEFFICIENT, "m"),
        ParamSpec("cp", COEFFICIENT, "p"),
        ParamSpec("u", ARGUMENT, "p"),
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("y", DISTINCT, "m"),
        ParamSpec("z", ARGUMENT),
        ParamSpec("w", ARGUMENT),
    ),
    build=_master_lauricella_build,
    default_dims=(
        {"p": 1, "n": 1, "m": 1},
        {"p": 2, "n": 1, "m": 2},
        {"p": 1, "n": 2, "m": 1},
    ),
)


FAMILIES = (QLAURICELLA_BIBASIC, MASTER_INSTANCE_BIG, MASTER_INSTANCE_LAURICELLA)
