"""The dimension-changing A_n to A_m transformation with doubled parameter
grid, and the four-sum bibasic identity obtained by applying the same
expansion step to two copies of it."""

from __future__ import annotations

import math

from mpmath import mp, mpf

from ..multisum import HeineBlock, Summation, heine_sides
from ..qcore import ONE
from .classical import qbin_product
from .core import (
    IdentityFamily,
    ParamSpec,
    TermSpec,
    argument,
    denom,
    distinct,
    each,
    numer,
    signed,
    staircase,
    summation_sides,
)

__all__ = ["FAMILIES", "kajihara_summation", "GRID", "GRID_C", "NEAR_ONE"]

# The draws of the grid parameters a_r and b_s, of c, and of the variable
# vectors x and y of the Kajihara summation.
GRID = each(signed, 0.3, 0.9)
GRID_C = each(signed, 0.25, 0.55)
NEAR_ONE = distinct(0.75, 1.2)


def kajihara_summation(avec, bvec, c, xvec, yvec, base, prec: int) -> Summation:
    """The transformation, parameters bound: the inner summand at unit
    argument and the stretch A B / c^m of its argument (A and B by
    ``math.prod``), formed at ``prec`` bits, or exactly for Fractions, as
    are the arguments of the rows.  Row r of the summand:
    (b_s x_r y_s)/(c x_r y_s) for every s; of the inner summand: (c y_r/(b_s
    y_s))/(base y_r/y_s), then (c x_s y_r/a_s)/(c x_s y_r), for every s."""
    m = len(yvec)

    def quotients(pairs):
        """(num; base) over (den; base) for each (num, den) of ``pairs``."""
        return [f for num, den in pairs for f in (numer(num, base), denom(den, base))]

    by, ax = list(zip(bvec, yvec)), list(zip(avec, xvec))
    with mp.workprec(prec):
        stretch = math.prod(avec) * math.prod(bvec) / c**m
        grid = [
            quotients((b_s * x_r * y_s, c * x_r * y_s) for b_s, y_s in by)
            for x_r in xvec
        ]
        inner = [
            quotients((c * y_r / (b_s * y_s), base * y_r / y_s) for b_s, y_s in by)
            + quotients((c * x_s * y_r / a_s, c * x_s * y_r) for a_s, x_s in ax)
            for y_r in yvec
        ]
    inner_term = TermSpec(
        base, vandermonde=(yvec, base), rows=inner, exponent=staircase, argument=False
    )
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            pairs=(avec, xvec),
            rows=grid,
            exponent=staircase,
        ),
        qbin_product(stretch, base),
        m,
        inner_term,
        stretch,
        arg_bound=float(1 / max(1, abs(stretch))),
        label="kajihara",
    )


def _kajihara_build(dims):
    def bind(ctx):
        p = ctx.params
        grid = (p[name] for name in ("a", "b", "c", "x", "y"))
        return kajihara_summation(*grid, ctx.bases.q, ctx.bases.prec), p["z"]

    return summation_sides((dims["n"], dims["m"]), bind)


def _clipped(a: str, b: str, c: str):
    """The draw of an argument z, clipped to |scale z| <= 0.2 with scale =
    A B / c^m the stretch of the Kajihara summation in the parameters named
    a, b and c drawn before it (m the length of b)."""

    def draw(rng, size, params, dims, bases):
        grid_b = params[b]
        scale = math.prod(params[a]) * math.prod(grid_b) / params[c] ** len(grid_b)
        z = argument(rng)
        if abs(scale * z) > mpf("0.2"):
            z = z * mpf("0.2") / abs(scale * z)
        return z

    return draw


KAJIHARA = IdentityFamily(
    id="kajihara",
    reference="n-fold to m-fold transformation with a doubled parameter grid "
    "coupling both variable vectors",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", GRID, "n"),
        ParamSpec("b", GRID, "m"),
        ParamSpec("c", GRID_C),
        ParamSpec("z", _clipped("a", "b", "c")),
        ParamSpec("x", NEAR_ONE, "n"),
        ParamSpec("y", NEAR_ONE, "m"),
    ),
    build=_kajihara_build,
    default_dims=(
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 2, "m": 1},
        {"n": 2, "m": 2},
    ),
)


def _kajihara_double_build(dims):
    def bind(ctx):
        B, p = ctx.bases, ctx.params

        def block(names, base, argument, cross=ONE):
            grid = (p[name] for name in names)
            summation = kajihara_summation(*grid, base, B.prec)
            return HeineBlock(summation, argument, cross)

        first = block(("a", "b", "c", "x", "X"), B.qh, p["z"], B.qht)
        return (first,), block(("d", "e", "f", "y", "Y"), B.qt, p["w"])

    return heine_sides(((dims["n"], dims["mu"]),), (dims["m"], dims["nu"]), bind)


KAJIHARA_DOUBLE = IdentityFamily(
    id="kajihara_double",
    reference="four-sum bibasic transformation pairing two copies of the "
    "doubled-grid transformation across bases q^h and q^t",
    dim_names=("n", "m", "nu", "mu"),
    schema=(
        ParamSpec("a", GRID, "n"),
        ParamSpec("b", GRID, "mu"),
        ParamSpec("d", GRID, "m"),
        ParamSpec("e", GRID, "nu"),
        ParamSpec("c", GRID_C),
        ParamSpec("f", GRID_C),
        ParamSpec("z", _clipped("a", "b", "c")),
        ParamSpec("w", _clipped("d", "e", "f")),
        ParamSpec("x", NEAR_ONE, "n"),
        ParamSpec("X", NEAR_ONE, "mu"),
        ParamSpec("y", NEAR_ONE, "m"),
        ParamSpec("Y", NEAR_ONE, "nu"),
    ),
    build=_kajihara_double_build,
    default_dims=(
        {"n": 1, "m": 1, "nu": 1, "mu": 1},
        {"n": 2, "m": 1, "nu": 1, "mu": 2},
    ),
)


FAMILIES = (KAJIHARA, KAJIHARA_DOUBLE)
