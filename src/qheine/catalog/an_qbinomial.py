"""Multiple q-binomial summation theorems over A_n: the paired-parameter
sum, its specialisation with a single upper parameter, and the variant
carrying an extra free parameter c."""

from __future__ import annotations

import math

from mpmath import mp
from mpmath.libmp import fnone, fone

from ..multisum import Summation
from ..qcore import e2, from_raw, raw_div, raw_mul, raw_product, value_key
from .classical import infinite_ratio, qbin_product
from .core import (
    IdentityFamily,
    ParamSpec,
    TermSpec,
    argument,
    coefficient,
    denom,
    distinct_vector,
    geom,
    numer,
    power_at,
    signed,
    staircase,
    summation_sides,
    tri,
)

__all__ = [
    "FAMILIES",
    "milne_lilly_product",
    "milne_lilly_summation",
    "gk_product",
    "gk_summation",
    "euler_exp_product",
    "euler_exp_summation",
    "stretched_spec",
    "stretched_euler_product",
    "stretched_euler_summation",
    "extra_c_summation",
]


# -- paired-parameter A_n q-binomial sum (Milne/Lilly form) ------------------
# prod_r (a_r z/x_r)_oo/(z/x_r)_oo
#   = sum_k V(x,k) prod_{r,s} (a_s x_r/x_s)_{k_r}/(q x_r/x_s)_{k_r}
#       * z^{|k|} q^{sum (r-1)k_r} q^{e2(k)} prod_r x_r^{-k_r}


def milne_lilly_product(P, avec, xvec, base, z):
    """prod_r (a_r z / x_r; base)_oo / (z / x_r; base)_oo, multiplied on raw
    values at the working precision in that order."""
    prec, rnd = mp._prec_rounding
    z = value_key(z)
    value = fone
    for a_r, x_r in zip(avec, xvec):
        x_r = value_key(x_r)
        num = raw_div(raw_mul(value_key(a_r), z, prec, rnd), x_r, prec, rnd)
        ratio = infinite_ratio(P, num, raw_div(z, x_r, prec, rnd), base)
        value = raw_mul(value, ratio, prec, rnd)
    return from_raw(value)


def milne_lilly_summation(avec, xvec, base) -> Summation:
    """The summation, parameters bound; it converges for |z| < min |x_r|."""
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            pairs=(avec, xvec),
            exponent=lambda k: staircase(k) + e2(k),
            monomials=xvec,
        ),
        lambda P, z: milne_lilly_product(P, avec, xvec, base, z),
        arg_bound=float(min(abs(x) for x in xvec)),
        label="milne_lilly",
    )


def _ml_build(dims):
    def bind(ctx):
        p = ctx.params
        return milne_lilly_summation(p["a"], p["x"], ctx.bases.q), p["z"]

    return summation_sides((dims["n"], 0), bind, product_left=True)


def _ml_domain(dims, p, bases):
    return all(abs(p["z"] / xr) < 1 for xr in p["x"])


def _ml_sample(rng, dims, bases):
    n = dims["n"]
    x = distinct_vector(rng, n)
    return {
        "a": tuple(coefficient(rng) for _ in range(n)),
        "x": x,
        "z": argument(rng) * min(abs(xr) for xr in x),
    }


AN_QBIN_MILNE_LILLY = IdentityFamily(
    id="an_qbin_milne_lilly",
    reference="A_n q-binomial theorem with paired parameter and variable "
    "vectors (product of n classical ratios)",
    dim_names=("n",),
    schema=(ParamSpec("a", "n"), ParamSpec("x", "n"), ParamSpec("z")),
    build=_ml_build,
    domain=_ml_domain,
    sample=_ml_sample,
    default_dims=({"n": 1}, {"n": 2}),
)


# -- single-parameter A_n q-binomial sum (Gustafson/Krattenthaler form) ------
# prod_r (a z q^{r-1})_oo/(z q^{r-1})_oo
#   = sum_k V(x,k) prod_r (a)_{k_r}/(q)_{k_r} z^{|k|} q^{sum (r-1)k_r}
# The sum does not depend on the auxiliary distinct variables x.


def gk_product(P, a, powers, base, z):
    """prod_r (a z base^r; base)_oo / (z base^r; base)_oo with ``powers`` the
    raw base^r, r < n, multiplied on raw values at the working precision in
    that order."""
    prec, rnd = mp._prec_rounding
    z = value_key(z)
    az = raw_mul(value_key(a), z, prec, rnd)
    value = fone
    for power in powers:
        num = raw_mul(az, power, prec, rnd)
        ratio = infinite_ratio(P, num, raw_mul(z, power, prec, rnd), base)
        value = raw_mul(value, ratio, prec, rnd)
    return from_raw(value)


def gk_summation(a, xvec, base, prec: int) -> Summation:
    """The summation, parameters bound; the powers base^r of its product
    are formed once, at ``prec`` bits."""
    powers = [value_key(power_at(base, r, prec)) for r in range(len(xvec))]
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            rows=[(numer(a, base), denom(base, base))] * len(xvec),
            exponent=staircase,
        ),
        lambda P, z: gk_product(P, a, powers, base, z),
        label="gk",
    )


def _gk_build(dims):
    def bind(ctx):
        p = ctx.params
        B = ctx.bases
        return gk_summation(p["a"], p["x"], B.q, B.prec), p["z"]

    return summation_sides((dims["n"], 0), bind, product_left=True)


def _gk_domain(dims, p, bases):
    return abs(p["z"]) < 1


def _gk_sample(rng, dims, bases):
    return {
        "a": coefficient(rng),
        "x": distinct_vector(rng, dims["n"]),
        "z": argument(rng),
    }


AN_QBIN_GK = IdentityFamily(
    id="an_qbin_gk",
    reference="A_n q-binomial theorem with one upper parameter and a "
    "q-shifted product side",
    dim_names=("n",),
    schema=(ParamSpec("a"), ParamSpec("x", "n"), ParamSpec("z")),
    build=_gk_build,
    domain=_gk_domain,
    sample=_gk_sample,
    default_dims=({"n": 1}, {"n": 2}),
)


# -- A_n Euler exponential sum, the a -> oo limit of the gk sum --------------
# prod_{r<n} (-z q^r)_oo
#   = sum_k V(x,k) prod_r q^{C(k_r,2)}/(q)_{k_r} z^{|k|} q^{sum (r-1)k_r}
# Like the gk sum, it does not depend on x.  No catalog family: it backs the
# partial-theta entries of catalog.ramanujan.


def euler_exp_product(P, powers, base, z):
    """prod_r (-z base^r; base)_oo with ``powers`` the raw base^r, r < n,
    on raw values at the working precision; -z is the first factor."""
    prec, rnd = mp._prec_rounding
    minus_z = raw_mul(value_key(z), fnone, prec, rnd)  # -z, rounded as -z is
    value = value_key(P.infinite(from_raw(minus_z), base))
    for power in powers[1:]:
        arg = from_raw(raw_mul(minus_z, power, prec, rnd))
        value = raw_mul(value, value_key(P.infinite(arg, base)), prec, rnd)
    return from_raw(value)


def euler_exp_summation(xvec, base, prec: int) -> Summation:
    """The summation, parameters bound; the powers base^r of its product
    are formed once, at ``prec`` bits."""
    powers = [value_key(power_at(base, r, prec)) for r in range(len(xvec))]
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            rows=[(denom(base, base),)] * len(xvec),
            exponent=lambda k: staircase(k) + sum(math.comb(kr, 2) for kr in k),
        ),
        lambda P, z: euler_exp_product(P, powers, base, z),
        label="euler_exp",
    )


# -- A_n stretched Euler sum at geometric variables x_r = Q^{r-1} -------------
# ((-1)^n z Q^n; Q^n)_oo
#   = sum_k V(x,k; Q^n) prod_r Q^{C(n k_r+1,2)}/(Q^r; Q)_{n k_r}
#       * z^{|k|} Q^{2n sum (r-1)k_r - n(n-1)|k|}
# The Vandermonde factor and the finite products are stretched by n.  No
# catalog family: it backs the quadratic entries of catalog.ramanujan.


def stretched_spec(n: int, base, prec: int, exponent=None, **fields) -> TermSpec:
    """V(x, k; Q^n) / prod_r (Q^r; Q)_{n k_r} Q^{exponent(k)} at x_r =
    Q^{r-1}, r = 1..n, for Q = ``base``, with the further ``TermSpec``
    ``fields``; the exponent is the stretched Euler summand's unless one is
    given.  x, Q^n and the Q^r are formed once, at ``prec`` bits."""
    if exponent is None:

        def exponent(k):
            value = 2 * n * staircase(k) - n * (n - 1) * sum(k)
            return value + sum(tri(n * kr) for kr in k)

    return TermSpec(
        base,
        vandermonde=(geom(base, n, prec), power_at(base, n, prec)),
        rows=[(denom(power_at(base, r, prec), base, n),) for r in range(1, n + 1)],
        exponent=exponent,
        **fields,
    )


def stretched_euler_product(P, sign, stretched, z):
    """((-1)^n z Q^n; Q^n)_oo with ``sign`` the raw (-1)^n and ``stretched``
    = Q^n, multiplied on raw values at the working precision."""
    prec, rnd = mp._prec_rounding
    arg = raw_mul(value_key(z), sign, prec, rnd)
    arg = raw_mul(arg, value_key(stretched), prec, rnd)
    return P.infinite(from_raw(arg), stretched)


def stretched_euler_summation(n, base, prec: int) -> Summation:
    """The summation in base Q = ``base`` with x_r = Q^{r-1}, r = 1..n,
    multiplied at ``prec`` bits, as are (-1)^n and Q^n of its product."""
    sign = fnone if n % 2 else fone
    stretched = power_at(base, n, prec)
    return Summation(
        n,
        stretched_spec(n, base, prec),
        lambda P, z: stretched_euler_product(P, sign, stretched, z),
        label="stretched_euler",
    )


# -- A_n q-binomial sum with an extra parameter c ----------------------------
# (a_1...a_n z)_oo/(z)_oo = sum_k V(x,k) prod_{r,s}(a_s x_r/x_s)_{k_r}/(q...)
#   * prod_r [(c x_r/A)_{k_r} (c x_r)_{|k|}] / [(c x_r)_{k_r} (c x_r/a_r)_{|k|}]
#   * z^{|k|} q^{sum (r-1)k_r}
# At c = 0 the extra product collapses to 1.


def extra_c_summation(avec, c, xvec, base, prec: int) -> Summation:
    """The summation, parameters bound; A = a_1 ... a_n and the arguments
    c x_r / A, c x_r and c x_r / a_r are formed once, at ``prec`` bits.  At
    c = 0 every extra factor is exactly 1, and the summand has none."""
    big_a = raw_product(avec, prec=prec)
    rows, total = [], []
    if c:
        with mp.workprec(prec):
            for a_r, x_r in zip(avec, xvec):
                cx = c * x_r
                rows.append((numer(cx / big_a, base), denom(cx, base)))
                total += [numer(cx, base), denom(cx / a_r, base)]
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            pairs=(avec, xvec),
            rows=rows,
            total=total,
            exponent=staircase,
        ),
        lambda P, z: qbin_product(P, big_a, base, z),
        label="extra_c",
    )


def _extra_c_build(dims):
    def bind(ctx):
        p = ctx.params
        B = ctx.bases
        return extra_c_summation(p["a"], p["c"], p["x"], B.q, B.prec), p["z"]

    return summation_sides((dims["n"], 0), bind, product_left=True)


def _extra_c_domain(dims, p, bases):
    return abs(p["z"]) < 1


def _extra_c_sample(rng, dims, bases):
    n = dims["n"]
    return {
        "a": tuple(signed(rng, 0.35, 0.9) for _ in range(n)),
        "c": signed(rng, 0.0, 0.45),
        "x": distinct_vector(rng, n),
        "z": argument(rng),
    }


AN_QBIN_EXTRA_C = IdentityFamily(
    id="an_qbin_extra_c",
    reference="A_n q-binomial theorem carrying an extra free parameter that "
    "disappears in one dimension",
    dim_names=("n",),
    schema=(
        ParamSpec("a", "n"),
        ParamSpec("c"),
        ParamSpec("x", "n"),
        ParamSpec("z"),
    ),
    build=_extra_c_build,
    domain=_extra_c_domain,
    sample=_extra_c_sample,
    default_dims=({"n": 1}, {"n": 2}),
)


FAMILIES = (AN_QBIN_MILNE_LILLY, AN_QBIN_GK, AN_QBIN_EXTRA_C)
