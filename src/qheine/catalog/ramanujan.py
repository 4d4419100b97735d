"""Ramanujan-style 2phi1 specialisations and their multivariable extensions.

These entries use variable vectors specialised to geometric progressions in
the base, which collapses the generic Vandermonde factor to pure q-powers and
introduces the quadratic exponents typical of this family.

Eight entries are Heine pairs at specialised parameters and are built by
``multisum.heine_sides`` (Heine's method): ram_core and ram_1_4_1_anm from
the gk and Milne-Lilly summations, ram_eq26_a2, ram_1_4_12, ram_eq26_a3 and
ram_1_4_17 from the Euler exponential summation, and ram_eq26_b and
ram_1_4_17_anm from the stretched Euler summation, whose Vandermonde factor
and finite products are stretched by the dimension.

Four are written as displayed, each summand a ``TermSpec`` and each rhs
prefactor a constant ``ProductSpec``: ram_1_4_10_anm, ram_1_4_10_c,
ram_1_4_9a and ram_1_4_9b couple their summands through finite products at
the total weight; a Heine form would trade those finite-table lookups for
an infinite product per term.  The stretched summands of the last three
are ``stretched_spec`` at z = +-1.  The lhs of ram_1_4_10_anm and
ram_1_4_10_c is one "linear" stretched summand (``_linear_spec``) with no
closed product, so no block can be bound to it.

The other seven are general families at fixed dimensions, declared as
``dataclasses.replace`` of them; the builders read a missing dimension as
1.  ram_core is ram_1_4_1_anm at n = m = 1, ram_1_4_12 is ram_eq26_a2 and
ram_1_4_17 is ram_eq26_a3 at m = 1, ram_1_4_10 and ram_1_4_10_m1 are
ram_1_4_10_anm at n = m = 1 and at m = 1, ram_1_4_10_n_single is
ram_1_4_10_c at m = 1, and ram_1_4_9 is ram_1_4_9b at m = 1.
"""

from __future__ import annotations

from dataclasses import replace

from mpmath import mp

from ..multisum import HeineBlock, TruncationPolicy, heine_sides
from ..qcore import e2, from_raw
from .an_qbinomial import (
    euler_exp_summation,
    gk_summation,
    milne_lilly_summation,
    stretched_euler_summation,
    stretched_spec,
)
from .core import (
    COEFFICIENT,
    IdentityFamily,
    ParamSpec,
    ProductSpec,
    TermSpec,
    argument,
    denom,
    geom,
    numer,
    run_memo,
    spec_side,
    staircase,
    tri,
)

__all__ = ["FAMILIES"]

# Entries whose summands decay only like q^{|k|} need far more shells than
# the argument-controlled families; at q = 0.6 roughly 110 shells reach 1e-24.
_SLOW_POLICY = TruncationPolicy(max_shell_weight=170)


# -- entries built by Heine's method -----------------------------------------


def _displayed(shapes, base_shape, bind, common):
    """The sides of ``multisum.heine_sides(shapes, base_shape, bind)`` as
    displayed: both multiplied by ``common(P, blocks, base)``, which is the
    lhs prefactor and multiplies the rhs one.  ``common`` is built from the
    bound blocks' own products, which the rhs prefactor computes anyway.
    Both read one ``bind`` per run (``run_memo``)."""

    def bound(ctx):
        return run_memo(ctx, bind)

    lhs, rhs = heine_sides(shapes, base_shape, bound)

    def factor(ctx):
        return common(ctx.poch, *bound(ctx))

    def rhs_prefactor(ctx):
        return factor(ctx) * rhs.prefactor(ctx)

    return replace(lhs, prefactor=factor), replace(rhs, prefactor=rhs_prefactor)


def _base_product(P, blocks, base):
    return from_raw(base.summation.product(P, base.argument))


def _base_over_block(P, blocks, base):
    (block,) = blocks
    return _base_product(P, blocks, base) / from_raw(
        block.summation.product(P, block.argument)
    )


# -- the central bibasic identity and its m-fold to n-fold extension ----------
# Heine's method on the m-fold gk summation in base q^{tm} (upper parameter
# -bq/a, x_r = q^{t(r-1)}) at a q^{tm}, with cross base q^{htmn}, over the
# n-fold Milne-Lilly summation in base q^{hn} (every a_r = cq/d, x_r =
# q^{h(r-1)}) at w = d q^{hn}.  With these x_r the Milne-Lilly product side
# collapses to (cq/d w q^{h(1-n)}; q^h)_oo / (w q^{h(1-n)}; q^h)_oo, and its
# bound min_r |x_r| = q^{h(n-1)} gives the domain |d q^h| < 1.  The display
# multiplies both sides by the base block's product over the block's.


def _ram_1_4_1_build(dims):
    n, m = dims.get("n", 1), dims.get("m", 1)

    def bind(ctx):
        B, p = ctx.bases, ctx.params
        q_tm, q_hn = B.power(B.t * m), B.power(B.h * n)
        ratio, shift = p["c"] * B.q / p["d"], B.power(B.h * (1 - n))
        product = ProductSpec([numer(ratio * shift, B.qh), denom(shift, B.qh)])
        block = HeineBlock(
            gk_summation(
                -p["b"] * B.q / p["a"], geom(B.qt, m, B.prec), q_tm, B.prec
            ),
            p["a"] * q_tm,
            B.power(B.h * B.t * m * n),
        )
        base = milne_lilly_summation(
            (ratio,) * n, geom(B.qh, n, B.prec), q_hn, B.prec
        )
        base = replace(base, product=product)
        return (block,), HeineBlock(base, p["d"] * q_hn)

    return _displayed(((m, 0),), (n, 0), bind, _base_over_block)


def _over(power):
    """The draw of an argument divided by ``power(bases, m)``, m the
    dimension m (1 where the entry has none): the block argument, the value
    times that power, is an argument."""

    def draw(rng, size, params, dims, bases):
        return argument(rng) / power(bases, dims.get("m", 1))

    return draw


RAM_1_4_1_ANM = IdentityFamily(
    id="ram_1_4_1_anm",
    reference="m-fold to n-fold extension of the central bibasic "
    "transformation, variables specialised to geometric progressions",
    dim_names=("n", "m"),
    schema=(
        ParamSpec("a", _over(lambda B, m: B.power(B.t * m))),
        ParamSpec("b", COEFFICIENT),
        ParamSpec("c", COEFFICIENT),
        ParamSpec("d", _over(lambda B, m: B.qh)),
    ),
    build=_ram_1_4_1_build,
    default_dims=(
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 2, "m": 1},
        {"n": 2, "m": 2},
    ),
)


RAM_CORE = replace(
    RAM_1_4_1_ANM,
    id="ram_core",
    reference="bibasic transformation central to the Ramanujan 2phi1 family",
    dim_names=(),
    default_dims=(dict(),),
)


# -- the sum_k q^k/(q)_k^2 family ---------------------------------------------


def _q_sides(lhs, rhs, rhs_product):
    """The sides of an entry without parameters: ``lhs`` and ``rhs`` are
    (dimension, spec(q, prec)), each spec built once per run, and the rhs
    is multiplied by the constant ``rhs_product(q, prec)``.  The builders
    form their powers of q with ``**`` under ``mp.workprec(prec)``."""

    def built(spec, B):
        with mp.workprec(B.prec):
            return spec(B.q, B.prec)

    def bind(spec):
        return lambda ctx: (built(spec, ctx.bases),)

    def product(ctx):
        return built(rhs_product, ctx.bases)

    (m, left), (n, right) = lhs, rhs
    return spec_side(m, bind(left)), spec_side(n, bind(right), product)


def _linear_spec(n, q, prec, total) -> TermSpec:
    """V(x, k; q^n) / prod_r (q^r; q)_{n k_r} q^{n|k| + (n-1) sum_r (r-1)k_r
    + n e2(k)} over the factors ``total`` at the total weight, with x_r =
    q^{r-1}: the summand the lhs of the ram_1_4_10 extensions share, at unit
    argument.  It has no closed product, so it is no summation."""

    def exponent(k):
        return n * sum(k) + (n - 1) * staircase(k) + n * e2(k)

    return stretched_spec(n, q, prec, exponent, total=total, argument=False)


def _ram_1_4_10_anm_build(dims):
    n, m = dims.get("n", 1), dims.get("m", 1)

    def lhs(q, prec):
        total = [denom(q ** (m * r), q**m, n) for r in range(1, m + 1)]
        return _linear_spec(n, q, prec, total)

    def rhs(q, prec):
        q_m = q**m
        return TermSpec(
            q,
            vandermonde=(geom(q, m, prec), q_m),
            rows=[(denom(q_m, q_m),)] * m,
            total=[numer(q, q, m * n)],
            exponent=lambda j: m * staircase(j) + m * sum(tri(jr) for jr in j),
            sign=True,
            argument=False,
        )

    def rhs_product(q, prec):
        rows = [denom(q ** (m * r), q**m) for r in range(1, m + 1)]
        return ProductSpec([denom(q, q)] + rows)

    return _q_sides((n, lhs), (m, rhs), rhs_product)


RAM_1_4_10_ANM = IdentityFamily(
    id="ram_1_4_10_anm",
    reference="n-fold to m-fold extension of the classical evaluation of "
    "sum q^k/(q;q)_k^2",
    dim_names=("n", "m"),
    schema=(),
    build=_ram_1_4_10_anm_build,
    default_dims=(
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 2, "m": 1},
        {"n": 2, "m": 2},
    ),
    policy=_SLOW_POLICY,
)


RAM_1_4_10_M1 = replace(
    RAM_1_4_10_ANM,
    id="ram_1_4_10_m1",
    reference="n-fold extension of sum q^k/(q;q)_k^2 against a single "
    "alternating theta-like sum",
    dim_names=("n",),
    default_dims=({"n": 1}, {"n": 2}),
)


RAM_1_4_10 = replace(
    RAM_1_4_10_ANM,
    id="ram_1_4_10",
    reference="classical evaluation of sum q^k/(q;q)_k^2",
    dim_names=(),
    default_dims=(dict(),),
)


def _ram_1_4_10_c_build(dims):
    n, m = dims.get("n", 1), dims.get("m", 1)

    def lhs(q, prec):
        return _linear_spec(m, q, prec, [denom(q**n, q**n, m)])

    def rhs(q, prec):
        total = [numer(q, q, m * n)]
        return stretched_spec(n, q, prec, total=total, sign=n % 2 == 1, argument=False)

    def rhs_product(q, prec):
        return ProductSpec([denom(q, q), denom(q**n, q**n)])

    return _q_sides((m, lhs), (n, rhs), rhs_product)


RAM_1_4_10_C = IdentityFamily(
    id="ram_1_4_10_c",
    reference="companion m-fold to n-fold extension of sum q^k/(q;q)_k^2 "
    "obtained from the combined-summation transformation",
    dim_names=("n", "m"),
    schema=(),
    build=_ram_1_4_10_c_build,
    default_dims=(
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 2, "m": 1},
        {"n": 2, "m": 2},
    ),
    policy=_SLOW_POLICY,
)


RAM_1_4_10_N_SINGLE = replace(
    RAM_1_4_10_C,
    id="ram_1_4_10_n_single",
    reference="single-sum form of the companion extension of "
    "sum q^k/(q;q)_k^2",
    dim_names=("n",),
    default_dims=({"n": 1}, {"n": 2}),
)


# -- quadratic-exponent partial-theta transformations -------------------------


# The parameters of the partial-theta entries: the arguments of the blocks.
_PARTIAL_THETA = (ParamSpec("a", COEFFICIENT), ParamSpec("b", COEFFICIENT))


def _euler_block(B, e, dim, z):
    """The dim-fold Euler summation in base q^{e dim} (x_r = q^{e(r-1)}) and
    its argument z q^{e dim}."""
    base = B.power(e * dim)
    summation = euler_exp_summation(geom(B.power(e), dim, B.prec), base, B.prec)
    return summation, z * base


def _stretched_block(B, e, dim, z):
    """The dim-fold stretched Euler summation in base q^e and its argument
    z^dim."""
    return stretched_euler_summation(dim, B.power(e), B.prec), z**dim


def _partial_theta_build(kind, exponents):
    """``build(dims)`` of a partial-theta entry, by Heine's method on the
    m-fold summation ``kind(B, e, m, b)`` (``_euler_block`` or
    ``_stretched_block``), with cross base q^g, over the n-fold one ``kind(B,
    f, n, a)``, where (e, f, g) = ``exponents(B, n, m)``.  The display
    multiplies both sides by the base block's product.  An entry without an
    n or m dimension is the case n = 1 or m = 1."""

    def build(dims):
        n, m = dims.get("n", 1), dims.get("m", 1)

        def bind(ctx):
            B, p = ctx.bases, ctx.params
            e, f, g = exponents(B, n, m)
            block = HeineBlock(*kind(B, e, m, p["b"]), B.power(g))
            return (block,), HeineBlock(*kind(B, f, n, p["a"]))

        return _displayed(((m, 0),), (n, 0), bind, _base_product)

    return build


# Blocks in base q^t (times m for the Euler kind) and q^h, cross base
# q^{hntm}.
def _bases_t_h(B, n, m):
    return B.t, B.h, B.h * n * B.t * m


# Blocks in base q (times m for the Euler kind) and q, cross base q^{nmt}.
def _bases_1_1(B, n, m):
    return 1, 1, n * m * B.t


RAM_EQ26_A2 = IdentityFamily(
    id="ram_eq26_a2",
    reference="m-fold partial-theta transformation with bases q^h and q^{tm}",
    dim_names=("m",),
    schema=_PARTIAL_THETA,
    build=_partial_theta_build(_euler_block, _bases_t_h),
    default_dims=({"m": 1}, {"m": 2}),
)


RAM_1_4_12 = replace(
    RAM_EQ26_A2,
    id="ram_1_4_12",
    reference="bibasic partial-theta transformation symmetric in (a, q^h) "
    "and (b, q^t)",
    dim_names=(),
    default_dims=(dict(),),
)


RAM_EQ26_A3 = IdentityFamily(
    id="ram_eq26_a3",
    reference="equal-base form of the m-fold partial-theta transformation "
    "with a free index stretch t",
    dim_names=("m",),
    schema=_PARTIAL_THETA,
    build=_partial_theta_build(_euler_block, _bases_1_1),
    default_dims=({"m": 1}, {"m": 2}),
)


RAM_EQ26_B = IdentityFamily(
    id="ram_eq26_b",
    reference="fully quadratic m-fold to n-fold partial-theta "
    "transformation in bases q^{hn} and q^{tm}",
    dim_names=("n", "m"),
    schema=_PARTIAL_THETA,
    build=_partial_theta_build(_stretched_block, _bases_t_h),
    default_dims=(
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 2, "m": 1},
        {"n": 2, "m": 2},
    ),
)


RAM_1_4_17_ANM = IdentityFamily(
    id="ram_1_4_17_anm",
    reference="m-fold to n-fold extension of the symmetric partial-theta "
    "transformation with index stretch t",
    dim_names=("n", "m"),
    schema=_PARTIAL_THETA,
    build=_partial_theta_build(_stretched_block, _bases_1_1),
    default_dims=(
        {"n": 1, "m": 1},
        {"n": 1, "m": 2},
        {"n": 2, "m": 1},
        {"n": 2, "m": 2},
    ),
)


RAM_1_4_17 = replace(
    RAM_EQ26_A3,
    id="ram_1_4_17",
    reference="symmetric partial-theta transformation with index stretch t",
    dim_names=(),
    default_dims=(dict(),),
)


def _ram_1_4_9a_build(dims):
    m = dims["m"]

    def lhs(q, prec):
        return stretched_spec(m, q, prec, total=[denom(q**m, q**m, m)], argument=False)

    def rhs(q, prec):
        total = [denom((-q) ** m, q**m, m)]
        return stretched_spec(m, q, prec, total=total, sign=m % 2 == 1, argument=False)

    def rhs_product(q, prec):
        return ProductSpec([numer((-q) ** m, q**m), denom(q**m, q**m)])

    return _q_sides((m, lhs), (m, rhs), rhs_product)


RAM_1_4_9A = IdentityFamily(
    id="ram_1_4_9a",
    reference="equal-dimension quadratic transformation of "
    "sum q^{C(j+1,2)}/(q;q)_j^2 type",
    dim_names=("m",),
    schema=(),
    build=_ram_1_4_9a_build,
    default_dims=({"m": 1}, {"m": 2}),
)


def _ram_1_4_9b_build(dims):
    m = dims.get("m", 1)

    def lhs(q, prec):
        return stretched_spec(m, q, prec, total=[denom(q, q, m)], argument=False)

    def rhs(q, prec):
        rows = [(denom(q, q), denom((-q) ** m, q**m))]
        return TermSpec(
            q, rows=rows, exponent=lambda k: tri(k[0]), sign=True, argument=False
        )

    def rhs_product(q, prec):
        return ProductSpec([numer((-q) ** m, q**m), denom(q, q)])

    return _q_sides((m, lhs), (1, rhs), rhs_product)


RAM_1_4_9B = IdentityFamily(
    id="ram_1_4_9b",
    reference="m-fold extension of the quadratic transformation of "
    "sum q^{C(j+1,2)}/(q;q)_j^2",
    dim_names=("m",),
    schema=(),
    build=_ram_1_4_9b_build,
    default_dims=({"m": 1}, {"m": 2}),
)


RAM_1_4_9 = replace(
    RAM_1_4_9B,
    id="ram_1_4_9",
    reference="classical transformation of sum q^{C(j+1,2)}/(q;q)_j^2",
    dim_names=(),
    default_dims=(dict(),),
)


FAMILIES = (
    RAM_CORE,
    RAM_1_4_1_ANM,
    RAM_1_4_10_ANM,
    RAM_1_4_10_M1,
    RAM_1_4_10,
    RAM_1_4_10_C,
    RAM_1_4_10_N_SINGLE,
    RAM_EQ26_A2,
    RAM_1_4_12,
    RAM_EQ26_A3,
    RAM_EQ26_B,
    RAM_1_4_17_ANM,
    RAM_1_4_17,
    RAM_1_4_9A,
    RAM_1_4_9,
    RAM_1_4_9B,
)
