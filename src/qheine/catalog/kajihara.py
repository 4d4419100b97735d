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
    distinct_vector,
    numer,
    signed,
    staircase,
    summation_sides,
)

__all__ = ["FAMILIES", "kajihara_summation"]


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


def _kajihara_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    a = tuple(signed(rng, 0.3, 0.9) for _ in range(n))
    b = tuple(signed(rng, 0.3, 0.9) for _ in range(m))
    c = signed(rng, 0.25, 0.55)
    scale = math.prod(a) * math.prod(b) / c**m
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
    sample=_kajihara_sample,
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


def _kajihara_double_sample(rng, dims, bases):
    n, m = dims["n"], dims["m"]
    nu, mu = dims["nu"], dims["mu"]
    a = tuple(signed(rng, 0.3, 0.9) for _ in range(n))
    b = tuple(signed(rng, 0.3, 0.9) for _ in range(mu))
    d = tuple(signed(rng, 0.3, 0.9) for _ in range(m))
    e = tuple(signed(rng, 0.3, 0.9) for _ in range(nu))
    c = signed(rng, 0.25, 0.55)
    f = signed(rng, 0.25, 0.55)
    m_scale = math.prod(a) * math.prod(b) / c**mu
    d_scale = math.prod(d) * math.prod(e) / f**nu
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
    sample=_kajihara_double_sample,
    default_dims=(
        {"n": 1, "m": 1, "nu": 1, "mu": 1},
        {"n": 2, "m": 1, "nu": 1, "mu": 2},
    ),
)


FAMILIES = (KAJIHARA, KAJIHARA_DOUBLE)
