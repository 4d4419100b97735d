"""Dimension-changing bibasic Heine transformations: an n-fold sum in base
q^h transformed into an m-fold sum in base q^t, in four variants that differ
by which A_n q-binomial summation backs each side."""

from __future__ import annotations

from ..multisum import HeineBlock, heine_sides
from .an_qbinomial import extra_c_summation, gk_summation, milne_lilly_summation
from .core import (
    IdentityFamily,
    ParamSpec,
    argument,
    coefficient,
    distinct_vector,
    signed,
)

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
    sample=_heine7_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


_heine8_build = _build(
    lambda p, qh, prec: milne_lilly_summation(p["a"], p["x"], qh, prec),
    lambda p, qt, prec: gk_summation(p["b"], p["y"], qt, prec),
)


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
    sample=_heine8_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


_heine1_build = _build(
    lambda p, qh, prec: extra_c_summation(p["a"], p["c"], p["x"], qh, prec),
    lambda p, qt, prec: extra_c_summation(p["b"], p["d"], p["y"], qt, prec),
)


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
    sample=_heine1_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


# At c = 0 the extra-parameter summation has the plain product side.
_heine2_build = _build(
    lambda p, qh, prec: extra_c_summation(p["a"], 0, p["x"], qh, prec),
    lambda p, qt, prec: milne_lilly_summation(p["b"], p["y"], qt, prec),
)


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
    sample=_heine2_sample,
    default_dims=({"n": 1, "m": 1}, {"n": 1, "m": 2}, {"n": 2, "m": 1}, {"n": 2, "m": 2}),
)


FAMILIES = (THM_HEINE7, THM_HEINE8, THM_HEINE1, THM_HEINE2)
