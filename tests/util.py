"""Shared helpers for the test suite."""

import csv
import io
import math
from fractions import Fraction

from mpmath import mp, mpc, mpf, mpmathify
from mpmath.libmp import from_man_exp

from qheine.catalog.an_qbinomial import (
    euler_exp_summation,
    extra_c_summation,
    gk_summation,
    milne_lilly_summation,
    stretched_euler_summation,
)
from qheine.catalog.classical import q_euler_summation, qbin_summation
from qheine.catalog.core import sq_ratio, staircase, tri
from qheine.catalog.kajihara import kajihara_summation
from qheine.errors import (
    DegenerateVariables,
    DivisionByZero,
    LengthMismatch,
    NonConvergentBase,
)
from qheine.multisum import (
    _LOSS,
    EvalContext,
    evaluate_in_context,
    exact_pair,
    make_context,
    vandermonde_ratio,
)
from qheine.qcore import (
    FiniteTable,
    PochCache,
    default_tol,
    e2,
    from_raw,
    qpoch_infinite,
    raw_div,
    raw_mul,
    value_key,
)

REL_FLOOR = mpf("1e-300")

# Must equal qcore._MAX_FACTORS.
MAX_FACTORS = 200_000

# Must equal qcore._GUARD.
GUARD = 32

# Must equal qcore._EXACT_BITS and qcore._FOLD_GUARD.
EXACT_BITS = 1024
FOLD_GUARD = 64


def qpoch_finite(a, base, k):
    """Finite q-rising factorial (a; base)_k = prod_{r<k} (1 - a*base^r),
    read from a fresh ``qcore.FiniteTable`` at the working precision as an
    mpf or mpc."""
    if k < 0:
        raise ValueError("finite q-rising factorial needs k >= 0")
    return from_raw(FiniteTable(a, base, mp.prec).at(int(k)))


def qpoch_finite_loop(a, base, k):
    """Reference (a; base)_k: the product loop on mpmath objects, which
    ``qcore.FiniteTable`` and ``qpoch_finite`` must match bit for bit."""
    a = mpmathify(a)
    base = mpmathify(base)
    prod = mpf(1)
    factor = a
    for _ in range(int(k)):
        prod *= 1 - factor
        factor *= base
    return prod


def qpoch_infinite_loop(a, base, tol=None):
    """Reference (a; base)_oo: the product loop on mpmath objects, which
    ``qcore.qpoch_infinite`` must match bit for bit, errors included."""
    a = mpmathify(a)
    base = mpmathify(base)
    absbase = abs(base)
    if absbase >= 1:
        raise NonConvergentBase(f"|base| = {absbase} >= 1")
    if tol is None:
        tol = default_tol(mp.prec)
    threshold = mpmathify(tol) * (1 - absbase)
    prod = mpf(1)
    factor = a
    count = 0
    while abs(factor) >= threshold:
        prod *= 1 - factor
        factor *= base
        count += 1
        if count > MAX_FACTORS:
            raise NonConvergentBase(
                "infinite product did not reach tolerance; base too close to 1"
            )
    return prod


def qpoch_infinite_ref(a, base, tol=None):
    """Reference (a; base)_oo as ``qcore.qpoch_infinite`` defines it, which
    it must match bit for bit, errors included: ``real_product``'s value
    for a real a and base, the object loop ``qpoch_infinite_loop`` for a
    complex one."""
    a = mpmathify(a)
    base = mpmathify(base)
    if isinstance(a, mpc) or isinstance(base, mpc):
        return qpoch_infinite_loop(a, base, tol)
    return real_product(a, base, tol)[0]


def _exact(x) -> Fraction:
    """The value of a finite mpf as a fraction."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def real_product(a, base, tol=None):
    """(value, factors): (a; base)_oo for a real a and base at round to
    nearest, and the number of factors it multiplies.

    The object loop ``qpoch_infinite_loop`` runs until the factor f is a
    nonzero number of at most ``mp.prec`` bits with |f| < 1, the product is
    nonzero, the base is finite and nonzero, the threshold is a positive
    number and the precision is above 1 bit; if these never hold together,
    it runs to its end.  From there on |f| is held as F / 2^W, with
    W = max(prec, -m) + ``GUARD`` for the threshold's magnitude m (the
    exponent of its leading bit, plus 1): F = floor(|f| 2^W) and then
    floor(F |base|) per factor, the sign alternating with a negative
    base.  The factor multiplied is 1 - g/2^s for f > 0 and 1 + g/2^s for
    f < 0, with s = prec or prec - 1 and g = F / 2^(W - s) rounded half to
    even, and the loop stops at the first F < threshold 2^W."""
    a = mpmathify(a)
    base = mpmathify(base)
    absbase = abs(base)
    if absbase >= 1:
        raise NonConvergentBase(f"|base| = {absbase} >= 1")
    if tol is None:
        tol = default_tol(mp.prec)
    prec = mp.prec
    threshold = mpmathify(tol) * (1 - absbase)
    absolute = prec > 1 and mp.isfinite(threshold) and threshold > 0
    absolute = absolute and mp.isfinite(base) and base != 0
    prod = mpf(1)
    factor = a
    count = 0
    while abs(factor) >= threshold:
        if (
            absolute
            and prod != 0
            and mp.isfinite(factor)
            and 0 < abs(factor) < 1
            and abs(factor.man).bit_length() <= prec
        ):
            break
        prod *= 1 - factor
        factor *= base
        count += 1
        if count > MAX_FACTORS:
            raise NonConvergentBase(
                "infinite product did not reach tolerance; base too close to 1"
            )
    else:
        return prod, count
    man, exp = threshold.man_exp
    width = max(prec, -(exp + man.bit_length())) + GUARD
    scale = 2**width
    held = math.floor(abs(_exact(factor)) * scale)
    stop = _exact(threshold) * scale
    ratio = abs(_exact(base))
    negative = factor < 0
    while True:
        s = prec - 1 if negative else prec
        g = round(Fraction(held, 2 ** (width - s)))
        with mp.workprec(prec + 2):
            step = mp.ldexp(mpf(2**s + g if negative else 2**s - g), -s)
        prod *= step
        count += 1
        if count > MAX_FACTORS:
            raise NonConvergentBase(
                "infinite product did not reach tolerance; base too close to 1"
            )
        held = math.floor(held * ratio)
        negative ^= base < 0
        if held < stop:
            return prod, count


def fold_in_order(factors):
    """``value = value * x`` or ``value / x`` from 1 on mpmath objects, for
    (op, x) pairs with op ``qcore.raw_mul`` or ``qcore.raw_div``, in order:
    the fold ``qcore.raw_product`` takes for a zero, inf, nan or complex
    x."""
    value = mpf(1)
    for op, x in factors:
        value = value * x if op is raw_mul else value / x
    return value


def fold_values(factors) -> tuple:
    """The values ``qcore.raw_product`` may give for (op, x) pairs of mpmath
    objects at the working precision, the nearest first.

    Where every x is a nonzero finite mpf, the factors and divisors are
    multiplied as fractions and rounded once to nearest, ties to even.  The
    fold cuts its running numerator or denominator back to prec +
    ``FOLD_GUARD`` bits once it passes 2^``EXACT_BITS`` and 2^(prec +
    ``FOLD_GUARD``); where one of the exact running integers does so, and
    the exact value lies within
    m 2^-(prec+62) relative of a rounding boundary (m pairs), the value on
    the boundary's other side is accepted too.  Any other x: the values of
    ``fold_in_order``."""
    if not all(isinstance(x, mpf) and x and mp.isfinite(x) for _, x in factors):
        return (fold_in_order(factors),)
    prec = mp.prec
    exact = Fraction(1)
    running = {raw_mul: 1, raw_div: 1}
    limit = 2 ** max(EXACT_BITS, prec + FOLD_GUARD)
    cut = False
    for op, x in factors:
        exact = exact * _exact(x) if op is raw_mul else exact / _exact(x)
        running[op] *= abs(x.man)
        cut = cut or running[op] > limit
    size = abs(exact)
    shift = size.numerator.bit_length() - size.denominator.bit_length() - prec
    while size / Fraction(2) ** shift >= 2**prec:
        shift += 1
    while size / Fraction(2) ** shift < 2 ** (prec - 1):
        shift -= 1
    scaled = size / Fraction(2) ** shift
    mans = [round(scaled)]
    low = math.floor(scaled)
    bound = len(factors) * scaled / 2 ** (prec + 62)
    if cut and abs(scaled - low - Fraction(1, 2)) < bound:
        mans.append(low + 1 if mans[0] == low else low)
    sign = -1 if exact < 0 else 1
    return tuple(mp.make_mpf(from_man_exp(sign * m, shift)) for m in mans)


def fold_once(factors):
    """The nearest of ``fold_values``: the value ``qcore.raw_product`` gives
    for (op, x) pairs of mpmath objects, wherever its cuts keep it."""
    return fold_values(factors)[0]


def vandermonde_ratio_loop(x, k, step_power):
    """Reference prod_{r<s} (1 - S^{k_r-k_s} x_r/x_s) / (1 - x_r/x_s): the
    uncached loop over the pairs on mpmath objects at the working
    precision, with its factors multiplied by ``fold_once``, which
    ``multisum.vandermonde_ratio`` must match bit for bit.  A pair whose
    numerator or denominator is below ``multisum._LOSS`` goes through
    ``exact_pair``."""
    n = len(x)
    if n < 2:
        return mpf(1)
    step = mpmathify(step_power)
    pairs = []
    for r in range(n):
        for s in range(r + 1, n):
            ratio = x[r] / x[s]
            den = 1 - ratio
            if den == 0:
                raise DegenerateVariables(f"x[{r}] == x[{s}]")
            pairs.append((r, s, ratio, den))
    factors = []
    for r, s, ratio, den in pairs:
        shift = k[r] - k[s]
        num = 1 - step**shift * ratio
        if abs(den) < _LOSS or abs(num) < _LOSS:
            factors.append((raw_mul, exact_pair(x[r], x[s], step, shift, 0)))
        else:
            factors.append((raw_mul, num / den))
    return fold_once(factors)


def qpoch_ratio(a, base, scale, tol=None):
    """Reference (a; base)_kappa for a general index, given scale =
    base**kappa: (a; base)_oo / (a*scale; base)_oo, the defining extension of
    the q-rising factorial, which ``PochCache.ratio`` must match."""
    a = mpmathify(a)
    base = mpmathify(base)
    scale = mpmathify(scale)
    num = qpoch_infinite(a, base, tol)
    den = qpoch_infinite(a * scale, base, tol)
    if den == 0:
        raise DivisionByZero(
            "(a*scale; base)_oo vanished; the requested index is a pole"
        )
    return num / den


def dot(exponents, k):
    """Reference dot product h.k = h_1 k_1 + ... + h_p k_p."""
    if len(exponents) != len(k):
        raise LengthMismatch(
            f"dot product needs equal lengths, got {len(exponents)} and {len(k)}"
        )
    total = mpf(0)
    for h_r, k_r in zip(exponents, k):
        total += mpmathify(h_r) * k_r
    return total


def vandermonde_factor(x, k, step_power):
    """Reference type-A Vandermonde factor in product form:
    prod_{r<s} (x_r S^{k_r} - x_s S^{k_s}) / (x_r - x_s) with S =
    ``step_power``; ``multisum.vandermonde_ratio`` is this times
    S^{-sum_r (r-1) k_r}."""
    if len(x) != len(k):
        raise LengthMismatch("x and k must have the same length")
    step = mpmathify(step_power)
    n = len(x)
    value = mpf(1)
    for r in range(n):
        for s in range(r + 1, n):
            if x[r] == x[s]:
                raise DegenerateVariables(f"x[{r}] == x[{s}]")
            value *= exact_pair(x[r], x[s], step, k[r], k[s])
    return value


def evaluate(side, params, bases, policy=None):
    """Sum one series side with a fresh product cache for the run."""
    return evaluate_in_context(side, make_context(params, bases), policy)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), REL_FLOOR)


def side_values(identity, params, bases, policy=None):
    """Evaluate both sides of an identity under one shared product cache."""
    ctx = make_context(params, bases)
    policy = policy or identity.policy
    lhs, _ = evaluate_in_context(identity.lhs, ctx, policy)
    rhs, _ = evaluate_in_context(identity.rhs, ctx, policy)
    return lhs, rhs


def sample_points(identity, seed, count):
    """The (params, bases) of the contexts ``catalog.sample_domain`` draws."""
    from qheine import catalog

    contexts = catalog.sample_domain(identity, seed=seed, count=count)
    return [(ctx.params, ctx.bases) for ctx in contexts]


def verify_sweep(family, dims_list, seed, count, tolerance, policy=None):
    """Run verify over sampled points for each dimension assignment; returns
    the worst relative error seen (all cases must pass)."""
    from qheine import catalog

    worst = mpf(0)
    for dims in dims_list:
        identity = family.instantiate(dims)
        for ctx in catalog.sample_domain(identity, seed=seed, count=count):
            result = catalog.verify(identity, ctx, policy, tolerance=tolerance)
            assert result.passed, (
                f"{family.id} at dims {dims} failed: rel={result.rel_error}"
            )
            worst = max(worst, result.rel_error)
    return worst


def parse_csv(text: str) -> list[dict]:
    """The rows of a csv report, one dict per case."""
    return list(csv.DictReader(io.StringIO(text)))


def raw_terms(term):
    """A summand written on mpf objects, as a ``SeriesSide`` term: its
    value converted to raw with ``qcore.value_key``."""
    return lambda ctx, k: value_key(term(ctx, k))


class Objects:
    """A run's ``PochCache`` read as mpf and mpc objects, for the summands
    written by hand: ``finite``, ``intpow`` and ``infinite`` take objects
    and convert the cache's raw values with ``qcore.from_raw``.  The cache
    itself is ``cache``."""

    def __init__(self, cache):
        self.cache = cache
        self.prec = cache.prec

    def finite(self, a, base, k):
        return from_raw(self.cache.finite(a, base, k))

    def intpow(self, x, n):
        return from_raw(self.cache.intpow(value_key(x), n))

    def infinite(self, a, base):
        with mp.workprec(self.prec):
            a, base = mpmathify(a), mpmathify(base)
        return from_raw(self.cache.infinite(value_key(a), value_key(base)))

    def ratio(self, a, base, scale):
        return self.cache.ratio(a, base, scale)


def object_context(params, bases) -> EvalContext:
    """A context whose ``poch`` is a fresh cache read as objects
    (``Objects``), for the summands written by hand."""
    return EvalContext(params, bases, Objects(PochCache(bases.prec)))


def vandermonde(x, k, step_power, P):
    """``multisum.vandermonde_ratio`` on the cache of an ``Objects`` view, as
    an object."""
    return from_raw(vandermonde_ratio(x, k, step_power, P.cache))


def sq(P, avec, x, base, k):
    """``catalog.core.sq_ratio`` on the cache of an ``Objects`` view, as an
    object."""
    return from_raw(sq_ratio(P.cache, avec, x, base, k))


# -- summands written by hand -------------------------------------------------
#
# The catalog states each summand as a ``catalog.core.TermSpec``.  These are
# the same summands multiplied factor by factor on mpf objects, in the order
# of their displays, as references for the specs.  P is an ``Objects`` view.


def qbin_term(P, a, base, z, k):
    """(a; base)_k / (base; base)_k z^k."""
    kk = k[0]
    return P.finite(a, base, kk) / P.finite(base, base, kk) * P.intpow(z, kk)


def milne_lilly_term(P, avec, xvec, base, z, k):
    """V(x, k) prod_{r,s} (a_s x_r/x_s)_{k_r} / (base x_r/x_s)_{k_r} z^{|k|}
    base^{sum (r-1) k_r + e2(k)} prod_r x_r^{-k_r}."""
    value = vandermonde(xvec, k, base, P) * sq(P, avec, xvec, base, k)
    value *= P.intpow(z, sum(k)) * P.intpow(base, staircase(k)) * P.intpow(base, e2(k))
    for r in range(len(xvec)):
        value *= P.intpow(xvec[r], -k[r])
    return value


def gk_term(P, a, xvec, base, z, k):
    """V(x, k) prod_r (a)_{k_r} / (base)_{k_r} z^{|k|} base^{sum (r-1) k_r}."""
    value = vandermonde(xvec, k, base, P)
    for r in range(len(xvec)):
        value *= P.finite(a, base, k[r]) / P.finite(base, base, k[r])
    return value * P.intpow(z, sum(k)) * P.intpow(base, staircase(k))


def euler_exp_term(P, xvec, base, z, k):
    """V(x, k) prod_r base^{C(k_r, 2)} / (base)_{k_r} z^{|k|}
    base^{sum (r-1) k_r}."""
    value = vandermonde(xvec, k, base, P)
    for kr in k:
        value /= P.finite(base, base, kr)
    exponent = staircase(k) + sum(math.comb(kr, 2) for kr in k)
    return value * P.intpow(z, sum(k)) * P.intpow(base, exponent)


def stretched_head(P, xvec, base, k):
    """V(x, k; Q^n) / prod_r (Q^r; Q)_{n k_r} for Q = ``base``."""
    n = len(xvec)
    value = vandermonde(xvec, k, P.intpow(base, n), P)
    for r, kr in enumerate(k, 1):
        value /= P.finite(P.intpow(base, r), base, n * kr)
    return value


def stretched_euler_term(P, xvec, base, z, k):
    """The stretched Euler summand at x = (1, Q, ..., Q^{n-1}), Q = ``base``:
    the head times z^{|k|} Q^{2n sum (r-1) k_r - n(n-1)|k| + sum C(n k_r+1, 2)}."""
    n = len(xvec)
    exponent = 2 * n * staircase(k) - n * (n - 1) * sum(k)
    exponent += sum(tri(n * kr) for kr in k)
    value = stretched_head(P, xvec, base, k)
    return value * P.intpow(z, sum(k)) * P.intpow(base, exponent)


def linear_term(P, xvec, q, k, denominators):
    """The linear stretched summand of the ram_1_4_10 extensions: the head
    over ``denominators`` times q^{n|k| + (n-1) sum_r (r-1)k_r + n e2(k)}."""
    n = len(xvec)
    value = stretched_head(P, xvec, q, k)
    for den in denominators:
        value /= den
    return value * P.intpow(q, n * sum(k) + (n - 1) * staircase(k) + n * e2(k))


def extra_c_rows(P, avec, c, xvec, base) -> list:
    """Row r: the tables of (c x_r/A; base), (c x_r; base), (c x_r; base)
    and (c x_r/a_r; base) with A = a_1 ... a_n."""

    def build():
        big_a = math.prod(avec)
        rows = []
        for a_r, x_r in zip(avec, xvec):
            cx = c * x_r
            args = (cx / big_a, cx, cx, cx / a_r)
            rows.append(tuple(P.cache.finite_table(v, base) for v in args))
        return rows

    return P.cache.table("extra_c", (avec, c, xvec, base), build)


def extra_c_term(P, avec, c, xvec, base, z, k):
    """The Milne-Lilly head times prod_r (c x_r/A)_{k_r} (c x_r)_{|k|} /
    ((c x_r)_{k_r} (c x_r/a_r)_{|k|}) z^{|k|} base^{sum (r-1) k_r}."""
    kk = sum(k)
    value = vandermonde(xvec, k, base, P) * sq(P, avec, xvec, base, k)
    if c:
        rows = extra_c_rows(P, avec, c, xvec, base)
        for kr, (num_r, num_kk, den_r, den_kk) in zip(k, rows):
            value *= from_raw(num_r.at(kr)) * from_raw(num_kk.at(kk))
            value /= from_raw(den_r.at(kr)) * from_raw(den_kk.at(kk))
    return value * P.intpow(z, kk) * P.intpow(base, staircase(k))


def q_euler_term(P, a, b, c, base, z, k):
    """(a)_k (b)_k / ((base)_k (c)_k) z^k."""
    kk = k[0]
    return (
        P.finite(a, base, kk)
        * P.finite(b, base, kk)
        / (P.finite(base, base, kk) * P.finite(c, base, kk))
        * P.intpow(z, kk)
    )


def q_euler_inner_term(P, a, b, c, base, j):
    """The inner summand at unit argument: (c/a)_j (c/b)_j / ((base)_j (c)_j)."""
    jj = j[0]
    ca, cb = c / a, c / b
    return (
        P.finite(ca, base, jj)
        * P.finite(cb, base, jj)
        / (P.finite(base, base, jj) * P.finite(c, base, jj))
    )


def finite_rows(P, tag: str, values: tuple, base, pairs) -> list:
    """Rows of (numerator, denominator) finite-product tables in ``base``:
    ``pairs()`` lists, for each index r, the (numerator, denominator)
    arguments of the factors read at k_r, from ``values`` and ``base``
    only.  The tables are built once per run (``PochCache.table``)."""

    def build():
        return [
            [
                (P.cache.finite_table(a, base), P.cache.finite_table(b, base))
                for a, b in row
            ]
            for row in pairs()
        ]

    return P.cache.table(tag, values + (base,), build)


def times_rows(value, rows, k):
    """value * prod_r prod_{(num, den) in row r} num_{k_r} / den_{k_r},
    factor by factor in row order; rows with k_r = 0 are 1."""
    for kr, row in zip(k, rows):
        if kr:
            for num, den in row:
                value *= from_raw(num.at(kr))
                value /= from_raw(den.at(kr))
    return value


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
    """The Milne-Lilly head times the grid rows, z^{|k|} base^{sum (r-1) k_r}."""
    value = vandermonde(xvec, k, base, P) * sq(P, avec, xvec, base, k)
    value = times_rows(value, grid_rows(P, bvec, c, xvec, yvec, base), k)
    return value * P.intpow(z, sum(k)) * P.intpow(base, staircase(k))


def kajihara_inner_term(P, avec, bvec, c, xvec, yvec, base, j):
    """The inner summand at unit argument: V(y, j) times the inner rows,
    base^{sum (r-1) j_r}."""
    value = vandermonde(yvec, j, base, P)
    value = times_rows(value, inner_rows(P, avec, bvec, c, xvec, yvec, base), j)
    return value * P.intpow(base, staircase(j))


def summation_builds(base, prec) -> dict:
    """Every catalog summation builder, named without its ``_summation``
    suffix, as a function of no arguments that builds its summation in
    ``base`` at fixed parameters, forming its constants at ``prec`` bits.
    The parameters are read here, at the working precision."""
    a, b, c = mpf("0.37"), mpf("-0.61"), mpf("0.43")
    avec, xvec = (mpf("0.6"), mpf("-0.45")), (mpf("0.8"), mpf("1.1"))
    grid = (avec, (mpf("0.7"),), mpf("0.41"), xvec, (mpf("0.9"),))
    extra = mpf("0.3")
    return {
        "qbin": lambda: qbin_summation(a, base),
        "q_euler": lambda: q_euler_summation(a, b, c, base, prec),
        "kajihara": lambda: kajihara_summation(*grid, base, prec),
        "milne_lilly": lambda: milne_lilly_summation(avec, xvec, base, prec),
        "gk": lambda: gk_summation(a, xvec, base, prec),
        "euler_exp": lambda: euler_exp_summation(xvec, base, prec),
        "stretched_euler": lambda: stretched_euler_summation(3, base, prec),
        "extra_c": lambda: extra_c_summation(avec, extra, xvec, base, prec),
    }
