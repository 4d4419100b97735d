"""Multiple q-binomial summation theorems over A_n: the paired-parameter
sum, its specialisation with a single upper parameter, and the variant
carrying an extra free parameter c; and the Euler exponential and stretched
Euler sums that back the Ramanujan entries.

Each summation is a ``TermSpec`` summand over a ``ProductSpec`` product
side, whose constants (a_r / x_r, a base^r, -base^r, (-1)^n Q^n) its
builder forms once, with plain operators on the numbers it is given: mpf
or mpc values at the precision it is given, or Fractions exactly."""

from __future__ import annotations

import math

from mpmath import mp

from ..multisum import Summation
from ..qcore import e2
from .classical import qbin_product
from .core import (
    ARGUMENT,
    COEFFICIENT,
    DISTINCT,
    IdentityFamily,
    ParamSpec,
    ProductSpec,
    TermSpec,
    denom,
    each,
    geom,
    inside,
    numer,
    signed,
    staircase,
    summation_sides,
    tri,
)

__all__ = [
    "FAMILIES",
    "milne_lilly_summation",
    "gk_summation",
    "euler_exp_summation",
    "stretched_spec",
    "stretched_euler_summation",
    "extra_c_summation",
    "EXTRA_A",
    "EXTRA_C",
]


# -- paired-parameter A_n q-binomial sum (Milne/Lilly form) ------------------
# prod_r (a_r z/x_r)_oo/(z/x_r)_oo
#   = sum_k V(x,k) prod_{r,s} (a_s x_r/x_s)_{k_r}/(q x_r/x_s)_{k_r}
#       * z^{|k|} q^{sum (r-1)k_r} q^{e2(k)} prod_r x_r^{-k_r}


def milne_lilly_summation(avec, xvec, base, prec: int) -> Summation:
    """The summation, parameters bound; it converges for |z| < min |x_r|.
    The a_r / x_r and 1 / x_r of its product are formed once, at ``prec``
    bits."""
    with mp.workprec(prec):
        product = ProductSpec(
            [
                factor
                for a_r, x_r in zip(avec, xvec)
                for factor in (numer(a_r / x_r, base), denom(1 / x_r, base))
            ]
        )
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            pairs=(avec, xvec),
            exponent=lambda k: staircase(k) + e2(k),
            monomials=xvec,
        ),
        product,
        arg_bound=float(min(abs(x) for x in xvec)),
        label="milne_lilly",
    )


def _ml_build(dims):
    def bind(ctx):
        p = ctx.params
        B = ctx.bases
        return milne_lilly_summation(p["a"], p["x"], B.q, B.prec), p["z"]

    return summation_sides((dims["n"], 0), bind, product_left=True)


AN_QBIN_MILNE_LILLY = IdentityFamily(
    id="an_qbin_milne_lilly",
    reference="A_n q-binomial theorem with paired parameter and variable "
    "vectors (product of n classical ratios)",
    dim_names=("n",),
    schema=(
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("a", COEFFICIENT, "n"),
        ParamSpec("z", inside("x")),
    ),
    build=_ml_build,
    default_dims=({"n": 1}, {"n": 2}),
)


# -- single-parameter A_n q-binomial sum (Gustafson/Krattenthaler form) ------
# prod_r (a z q^{r-1})_oo/(z q^{r-1})_oo
#   = sum_k V(x,k) prod_r (a)_{k_r}/(q)_{k_r} z^{|k|} q^{sum (r-1)k_r}
# The sum does not depend on the auxiliary distinct variables x.


def gk_summation(a, xvec, base, prec: int) -> Summation:
    """The summation, parameters bound; the a base^r and base^r, r < n, of
    its product are formed once, at ``prec`` bits."""
    with mp.workprec(prec):
        powers = [base**r for r in range(len(xvec))]
        product = ProductSpec(
            [f for x in powers for f in (numer(a * x, base), denom(x, base))]
        )
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            rows=[(numer(a, base), denom(base, base))] * len(xvec),
            exponent=staircase,
        ),
        product,
        label="gk",
    )


def _gk_build(dims):
    def bind(ctx):
        p = ctx.params
        B = ctx.bases
        return gk_summation(p["a"], p["x"], B.q, B.prec), p["z"]

    return summation_sides((dims["n"], 0), bind, product_left=True)


AN_QBIN_GK = IdentityFamily(
    id="an_qbin_gk",
    reference="A_n q-binomial theorem with one upper parameter and a "
    "q-shifted product side",
    dim_names=("n",),
    schema=(
        ParamSpec("a", COEFFICIENT),
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("z", ARGUMENT),
    ),
    build=_gk_build,
    default_dims=({"n": 1}, {"n": 2}),
)


# -- A_n Euler exponential sum, the a -> oo limit of the gk sum --------------
# prod_{r<n} (-z q^r)_oo
#   = sum_k V(x,k) prod_r q^{C(k_r,2)}/(q)_{k_r} z^{|k|} q^{sum (r-1)k_r}
# Like the gk sum, it does not depend on x, and it is entire in z.  No
# catalog family: it backs the partial-theta entries of catalog.ramanujan.


def euler_exp_summation(xvec, base, prec: int) -> Summation:
    """The summation, parameters bound; it converges for every z.  The
    -base^r, r < n, of its product are formed once, at ``prec`` bits."""
    with mp.workprec(prec):
        product = ProductSpec(
            [numer(-(base**r), base) for r in range(len(xvec))]
        )
    return Summation(
        len(xvec),
        TermSpec(
            base,
            vandermonde=(xvec, base),
            rows=[(denom(base, base),)] * len(xvec),
            exponent=lambda k: staircase(k) + sum(math.comb(kr, 2) for kr in k),
        ),
        product,
        arg_bound=math.inf,
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
    given.  x (``geom``), Q^n and the Q^r (``**``) are formed once, at
    ``prec`` bits."""
    if exponent is None:

        def exponent(k):
            value = 2 * n * staircase(k) - n * (n - 1) * sum(k)
            return value + sum(tri(n * kr) for kr in k)

    with mp.workprec(prec):
        return TermSpec(
            base,
            vandermonde=(geom(base, n, prec), base**n),
            rows=[(denom(base**r, base, n),) for r in range(1, n + 1)],
            exponent=exponent,
            **fields,
        )


def stretched_euler_summation(n, base, prec: int) -> Summation:
    """The summation in base Q = ``base`` with x_r = Q^{r-1}, r = 1..n,
    multiplied at ``prec`` bits, as is (-1)^n Q^n of its product."""
    with mp.workprec(prec):
        stretched = base**n
        product = ProductSpec([numer(-stretched if n % 2 else stretched, stretched)])
    return Summation(
        n,
        stretched_spec(n, base, prec),
        product,
        arg_bound=math.inf,
        label="stretched_euler",
    )


# -- A_n q-binomial sum with an extra parameter c ----------------------------
# (a_1...a_n z)_oo/(z)_oo = sum_k V(x,k) prod_{r,s}(a_s x_r/x_s)_{k_r}/(q...)
#   * prod_r [(c x_r/A)_{k_r} (c x_r)_{|k|}] / [(c x_r)_{k_r} (c x_r/a_r)_{|k|}]
#   * z^{|k|} q^{sum (r-1)k_r}
# At c = 0 the extra product collapses to 1.


def extra_c_summation(avec, c, xvec, base, prec: int) -> Summation:
    """The summation, parameters bound; A = a_1 ... a_n (``math.prod``) and
    the arguments c x_r / A, c x_r and c x_r / a_r are formed once, at
    ``prec`` bits, or exactly for Fractions.  At c = 0 every extra factor is
    exactly 1, and the summand has none."""
    rows, total = [], []
    with mp.workprec(prec):
        big_a = math.prod(avec)
        if c:
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
        qbin_product(big_a, base),
        label="extra_c",
    )


def _extra_c_build(dims):
    def bind(ctx):
        p = ctx.params
        B = ctx.bases
        return extra_c_summation(p["a"], p["c"], p["x"], B.q, B.prec), p["z"]

    return summation_sides((dims["n"], 0), bind, product_left=True)


# The draws of the parameters a_r and c of the extra-parameter summation.
EXTRA_A = each(signed, 0.35, 0.9)
EXTRA_C = each(signed, 0.0, 0.45)


AN_QBIN_EXTRA_C = IdentityFamily(
    id="an_qbin_extra_c",
    reference="A_n q-binomial theorem carrying an extra free parameter that "
    "disappears in one dimension",
    dim_names=("n",),
    schema=(
        ParamSpec("a", EXTRA_A, "n"),
        ParamSpec("c", EXTRA_C),
        ParamSpec("x", DISTINCT, "n"),
        ParamSpec("z", ARGUMENT),
    ),
    build=_extra_c_build,
    default_dims=({"n": 1}, {"n": 2}),
)


FAMILIES = (AN_QBIN_MILNE_LILLY, AN_QBIN_GK, AN_QBIN_EXTRA_C)
