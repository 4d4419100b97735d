"""Dimension-changing bibasic Heine transformations: an n-fold sum in base
q^h transformed into an m-fold sum in base q^t, in four variants that differ
by which A_n q-binomial summation backs each side."""

from __future__ import annotations

from ..multisum import HeineBlock, heine_sides
from .an_qbinomial import (
    EXTRA_A,
    EXTRA_C,
    extra_c_summation,
    gk_summation,
    milne_lilly_summation,
)
from .core import ARGUMENT, COEFFICIENT, DISTINCT, IdentityFamily, ParamSpec, inside

__all__ = ["FAMILIES"]


def _build(block, base):
    """``build(dims)`` of the n-fold to m-fold Heine pair: ``block(p, q^h,
    prec)`` and ``base(p, q^t, prec)`` bind the n-fold summation, at
    argument z, and the m-fold one, at argument w."""

    def build(dims):
        def bind(ctx):
            B, p = ctx.bases, ctx.params
            first = HeineBlock(block(p, B.qh, B.prec), p["z"], B.qht)
            return (first,), HeineBlock(base(p, B.qt, B.prec), p["w"])

        return heine_sides(((dims["n"], 0),), (dims["m"], 0), bind)

    return build


_heine7_build = _build(
    lambda p, qh, prec: milne_lilly_summation(p["a"], p["x"], qh, prec),
    lambda p, qt, prec: milne_lilly_summation(p["b"], p["y"], qt, prec),
)


THM_HEINE7 = IdentityFamily(
    id="thm_heine7",
    reference="n-fold to m-fold bibasic Heine transformation, paired "
    "parameter vectors on both sides",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("y", DISTINCT, "m"),
        ParamSpec("a", COEFFICIENT, "n"),
        ParamSpec("b", COEFFICIENT, "m"),
        ParamSpec("z", inside("x")),
        ParamSpec("w", inside("y")),
    ),
    build=_heine7_build,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


_heine8_build = _build(
    lambda p, qh, prec: milne_lilly_summation(p["a"], p["x"], qh, prec),
    lambda p, qt, prec: gk_summation(p["b"], p["y"], qt, prec),
)


THM_HEINE8 = IdentityFamily(
    id="thm_heine8",
    reference="n-fold to m-fold bibasic Heine transformation with a single "
    "lower parameter and q-shifted argument products",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("a", COEFFICIENT, "n"),
        ParamSpec("b", COEFFICIENT),
        ParamSpec("y", DISTINCT, "m"),
        ParamSpec("z", inside("x")),
        ParamSpec("w", ARGUMENT),
    ),
    build=_heine8_build,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


_heine1_build = _build(
    lambda p, qh, prec: extra_c_summation(p["a"], p["c"], p["x"], qh, prec),
    lambda p, qt, prec: extra_c_summation(p["b"], p["d"], p["y"], qt, prec),
)


THM_HEINE1 = IdentityFamily(
    id="thm_heine1",
    reference="n-fold to m-fold bibasic Heine transformation with extra "
    "parameters that vanish in one dimension",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", EXTRA_A, "n"),
        ParamSpec("b", EXTRA_A, "m"),
        ParamSpec("c", EXTRA_C),
        ParamSpec("d", EXTRA_C),
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("y", DISTINCT, "m"),
        ParamSpec("z", ARGUMENT),
        ParamSpec("w", ARGUMENT),
    ),
    build=_heine1_build,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


# At c = 0 the extra-parameter summation has the plain product side.
_heine2_build = _build(
    lambda p, qh, prec: extra_c_summation(p["a"], 0, p["x"], qh, prec),
    lambda p, qt, prec: milne_lilly_summation(p["b"], p["y"], qt, prec),
)


THM_HEINE2 = IdentityFamily(
    id="thm_heine2",
    reference="n-fold to m-fold bibasic Heine transformation combining the "
    "plain-product and paired-vector summations",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("y", DISTINCT, "m"),
        ParamSpec("a", COEFFICIENT, "n"),
        ParamSpec("b", COEFFICIENT, "m"),
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("z", ARGUMENT),
        ParamSpec("w", inside("y")),
    ),
    build=_heine2_build,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


FAMILIES = (THM_HEINE7, THM_HEINE8, THM_HEINE1, THM_HEINE2)
