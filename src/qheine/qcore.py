"""Arbitrary-precision scalars, cached base powers, and q-rising factorials.

Everything here is plain mpmath arithmetic.  Functions honour the ambient
mpmath precision; the evaluation pipeline pins it from the ``BaseSystem`` it
was handed, so results are deterministic for a fixed precision.
"""

from __future__ import annotations

import functools
import math
from operator import is_
from typing import Sequence, Union

from mpmath import mp, mpc, mpf, mpmathify
from mpmath.libmp import (
    fone,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_div,
    mpc_div_mpf,
    mpc_mpf_div,
    mpc_mul,
    mpc_mul_mpf,
    mpc_pow_int,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_ge,
    mpf_mul,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
    to_float,
)

from .errors import DivisionByZero, NonConvergentBase

QComplex = Union[mpf, mpc]

DEFAULT_PRECISION = 128

# Hard cap on factors in one infinite product; only reachable for |base|
# pathologically close to 1.  A product estimated to need more than twice
# the cap is refused before its loop starts.
_MAX_FACTORS = 200_000
_NOT_CONVERGED = "infinite product did not reach tolerance; base too close to 1"

# Guard bits of the factor that ``_infinite`` carries at absolute
# precision, 2^-(prec + _GUARD) or finer.  Beyond half an ulp, a factor
# then errs by less than 2^-(prec + _GUARD) / (1 - |base|), which is below
# 2^-(prec + 1) for |base| <= 1 - 2^-(_GUARD - 1).
_GUARD = 32

_COMPLEX_ONE = (fone, fzero)
ONE = mpf(1)
_LN2 = math.log(2)


def default_tol(prec: int) -> mpf:
    """Product-truncation tolerance leaving ~8 decimal guard digits."""
    return mpf(10) ** -(prec * 301 // 1000 - 8)


def qpoch_infinite(a, base, tol=None) -> QComplex:
    """Infinite q-rising factorial (a; base)_oo for |base| < 1.

    The product is truncated at the first R with |a|*|base|^R below
    tol*(1-|base|); comparing log(1-x) <= -x termwise bounds the dropped
    tail factor within ~tol of 1 in relative terms.

    The arguments are converted with ``mpmathify`` once; everything after
    that runs on raw values at the working precision, rounded to nearest
    as mpmath always rounds.  |base|, the |base| >= 1 check, 1 - |base|
    and the threshold are rounded as mpmath's operators round them
    (``_threshold``, memoised per base).  One loop, ``_infinite``, takes
    every product.  Where a or base is complex, it multiplies raw
    ``_mpf_``/``_mpc_`` tuples with the operations and precision of
    mpmath's operators, so the result and every exception are bit for bit
    those of the loop ``prod *= 1 - factor; factor *= base`` on mpf and mpc
    objects.  A real product takes that loop's steps until the factor
    falls below 1, then carries the factor at absolute precision
    2^-(prec + ``_GUARD``) on integers: each later factor is within half an
    ulp plus 2^-(prec + 32) / (1 - |base|) of the exact 1 - a base^k, where
    the object loop's factors carried up to k relative ulps; exceptions are
    the loop's.  One mpf or mpc is made at the end.
    """
    a = value_key(mpmathify(a))
    base = value_key(mpmathify(base))
    prec = mp.prec
    tol = default_tol(prec) if tol is None else mpmathify(tol)
    gap, threshold = _threshold(base, tol._mpf_, prec)
    if _clearly_past_cap(a, gap, threshold):
        raise NonConvergentBase(_NOT_CONVERGED)
    return from_raw(_infinite(a, base, threshold, prec))


@functools.lru_cache(maxsize=256)
def _threshold(base, tol, prec: int) -> tuple:
    """(1 - |base|, tol * (1 - |base|)) for a raw base and a raw real tol,
    rounded as ``1 - abs(base)`` and ``tol * gap`` round them;
    ``NonConvergentBase`` where |base| >= 1 (a nan passes, as it passes the
    comparison of mpf objects).

    Memoised on its raw arguments: a run asks for the threshold of a few
    bases, once per computed product, so every product on one base reads
    one (gap, threshold).  An exception is not kept, so |base| >= 1 raises
    on every call."""
    size = (mpf_abs if len(base) == 4 else mpc_abs)(base, prec, round_nearest)
    if mpf_ge(size, fone):
        raise NonConvergentBase(f"|base| = {from_raw(size)} >= 1")
    gap = _one_minus(size, prec)
    return gap, raw_mul(tol, gap, prec)


def _clearly_past_cap(a, gap, threshold) -> bool:
    """Whether the product with first factor ``a`` needs more than twice
    ``_MAX_FACTORS`` factors, so that ``qpoch_infinite`` can raise without
    running its loop to the cap.  All three arguments are raw values, and
    ``gap`` is 1 - |base|.

    The loop stops at the first n with |a| |base|^n < threshold, after
    log(|a|/threshold) / -log(1 - gap) factors.  Both logarithms are taken
    in floating point; the factor 2 absorbs their rounding, so a product the
    loop finishes is never refused.  Only |base| > 1/2, a positive threshold
    and a finite nonzero a are estimated; the loop settles the rest.
    """
    if gap[2] + gap[3] >= 0 or threshold[0] or not threshold[1]:
        return False
    size = mpf_abs(a, 53) if len(a) == 4 else mpc_abs(a, 53)
    if not size[1]:
        return False
    depth = _log(size) - _log(threshold)
    return depth > 2 * _MAX_FACTORS * -math.log1p(-to_float(gap)) + 1e-6


def _log(x) -> float:
    """log(x) of a positive finite raw mpf, in floating point at any
    exponent."""
    _, man, exp, _ = x
    return math.log(man) + exp * _LN2


def _infinite(a, base, threshold, prec: int) -> tuple:
    """The raw product of ``qpoch_infinite``: one loop, in two stages.

    The first stage rounds 1 - f, prod * (1 - f) and f * base as mpmath's
    operators round them (``_one_minus`` and ``raw_mul`` on canonical raw
    tuples), and stops at the first factor f with |f| below the threshold.
    Every step of a complex product is taken here, with the |f| of
    ``mpc_abs``; so are all steps of a real product on a zero base, special
    values, a threshold that is not a positive number and a precision of 1
    bit.  Any other real product leaves this stage for the integer stage
    once f is a number of at most ``prec`` bits with |f| < 1 and the
    product is not zero.

    The rest of the loop runs on Python integers and carries the factor at
    absolute precision: |f| = F 2^-W for an integer F, with W = max(prec,
    -m) + ``_GUARD`` for the threshold's magnitude m (exponent + bit
    count), so that F resolves the threshold to ``_GUARD`` bits.  F starts
    as |f| 2^W rounded down, and each step sets F = (F bman) >> -bexp,
    that is F |base| rounded down, the sign of f following the base's; the
    loop stops at the first F < ceil(threshold 2^W).  F loses bits as the
    factors decay, so its multiply shrinks with them.  Each rounding down
    loses less than 2^-W, so F 2^-W stays within 2^-W / (1 - |base|) of
    |f| |base|^j, j steps after the f that entered.

    The step never forms 1 - f.  It takes g = F rounded half to even at
    W - s bits, |f| 2^s rounded to an integer, with s = prec for f > 0 and
    s = prec - 1 for f < 0, and multiplies the product by (2^s - g) 2^-s
    or (2^s + g) 2^-s, 1 - f rounded to a multiple of 2^-s: pman (2^s - g)
    is (pman << s) - g pman (+ for f < 0), where g has about prec +
    log2 |f| bits.  The product is rounded to ``prec`` bits half to even,
    as ``libmpf._normalize1`` rounds to nearest; a mantissa rounded up to
    2^prec stays as it is until the canonical tuple is made at the end.
    So each factor of this stage is within 2^-(s+1) + 2^-W / (1 - |base|)
    of 1 - f base^j, for the f that entered: with ``_GUARD`` = 32 the
    second term is below 2^-(prec+1) for every |base| <= 1 - 2^-31, so the
    factor is within one ulp, 2^-s, and a product on a base closer to 1
    needs more than ``_MAX_FACTORS`` factors unless it has a few.  (The
    object loop rounds f relative to its size at every step, so its k-th
    f carries up to k relative ulps.)  A factor rounded to 0 (g = 2^s)
    makes the product ``fzero``.

    The first stage's stopping test for a real f, |f| >= threshold,
    compares magnitudes first: a factor whose magnitude differs from the
    threshold's is on the side it points to.  Ties, factors with more than
    ``prec`` bits (whose abs would round) and thresholds that are not
    positive numbers take the exact comparison.  Either stage raises
    ``NonConvergentBase`` once more than ``_MAX_FACTORS`` factors would be
    multiplied.
    """
    tsign, tman, texp, tbc = threshold
    tmag = texp + tbc
    limit = prec if tman and not tsign else 0
    fixed = len(base) == 4 and base[1] and prec > 1
    prod, factor = fone, a
    for step in range(_MAX_FACTORS + 1):
        if len(factor) == 2:
            if not mpf_ge(mpc_abs(factor, prec, round_nearest), threshold):
                return prod
        elif factor[1] and factor[3] <= limit:
            fsign, fman, fexp, fbc = factor
            mag = fexp + fbc
            if mag < tmag or (
                mag == tmag and mpf_cmp((0, fman, fexp, fbc), threshold) < 0
            ):
                return prod
            if mag <= 0 and fixed and prod[1]:
                break
        elif not mpf_ge(mpf_abs(factor, prec, round_nearest), threshold):
            return prod
        prod = raw_mul(prod, _one_minus(factor, prec), prec)
        factor = raw_mul(factor, base, prec)
    else:
        raise NonConvergentBase(_NOT_CONVERGED)
    # The integer stage: F, its stopping bound and the two shifts of g.
    width = max(prec, -tmag) + _GUARD
    n = texp + width
    bound = tman << n if n >= 0 else -(-tman >> -n)
    n = fexp + width
    F = fman << n if n >= 0 else fman >> -n
    cut = width - prec
    # The bits below the rounding bit of g, for f > 0 and f < 0.
    tails = ((1 << (cut - 1)) - 1, (1 << cut) - 1)
    bsign, bman, bexp, _ = base
    psign, pman, pexp, _ = prod
    for _ in range(_MAX_FACTORS - step):
        # g = F rounded at cut + fsign bits, then prod * (1 - f) =
        # (pman << s) -+ g * pman (see above).
        t = F >> (cut + fsign - 1)
        if t & 1 and (t & 2 or F & tails[fsign]):
            g = (t >> 1) + 1
        else:
            g = t >> 1
        s = prec - fsign
        if fsign:
            man = (pman << s) + g * pman
        else:
            man = (pman << s) - g * pman
        exp = pexp - s
        n = man.bit_length() - prec
        if n > 0:
            t = man >> (n - 1)
            if t & 1 and (t & 2 or man != t << (n - 1)):
                man = (t >> 1) + 1
            else:
                man = t >> 1
            exp += n
        pman, pexp = man, exp
        F = F * bman >> -bexp
        fsign ^= bsign
        if F < bound:
            break
    else:
        raise NonConvergentBase(_NOT_CONVERGED)
    if not pman:
        return fzero
    # The canonical tuple: _round at the mantissa's own length only strips.
    return _round(psign, pman, pexp, pman.bit_length())


def _round(sign: int, man: int, exp: int, prec: int) -> tuple:
    """The raw mpf nearest (-1)^sign man 2^exp in ``prec`` bits, for an
    integer man > 0: rounded half to even, as ``libmpf._normalize`` rounds
    to nearest (a mantissa rounded up to 2^prec becomes 1), then stripped
    of its trailing zero bits, so the tuple is canonical.

    The one rounding step of the integer paths of ``raw_mul``, ``raw_div``,
    ``raw_add``, ``_one_minus`` and ``_pow_int``.  Those paths take regular
    reals (nonzero mantissas: no zero, inf or nan) and a positive
    precision; each forms the exact integer that libmp forms and rounds it
    once here, so its result is libmp's tuple bit for bit (Brent and
    Zimmermann, *Modern Computer Arithmetic*, ch. 3).  Other operands reach
    the libmp function that the path replaces, at ``round_nearest``.
    Round-to-nearest is the only mode: mpmath fixes it in
    ``mp._prec_rounding`` and no setting changes it.  ``_infinite`` calls
    this at the mantissa's own length to strip alone."""
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man != t << (n - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return sign, man, exp, man.bit_length()


def raw_mul(x, y, prec: int) -> tuple:
    """x * y on raw values, as mpmath's operators round it: for two regular
    reals, the product of the mantissas rounded by ``_round``; otherwise
    ``mpf_mul``, or ``mpc_mul_mpf`` for a real times a complex value and
    ``mpc_mul`` for two complex values."""
    if len(x) == 4:
        if len(y) == 4:
            if x[1] and y[1]:
                return _round(x[0] ^ y[0], x[1] * y[1], x[2] + y[2], prec)
            return mpf_mul(x, y, prec, round_nearest)
        return mpc_mul_mpf(y, x, prec, round_nearest)
    if len(y) == 4:
        return mpc_mul_mpf(x, y, prec, round_nearest)
    return mpc_mul(x, y, prec, round_nearest)


def raw_add(x, y, prec: int) -> tuple:
    """x + y on raw values, as mpmath's operators round it.

    Two regular reals are added on integers, as ``mpf_add`` adds them: the
    mantissa of the larger exponent is shifted onto the other's and the two
    are added or subtracted, an exact cancellation giving ``fzero``.  Where
    the exponents are more than 100 apart and the smaller operand lies more
    than prec + 4 bits below the larger, libmp does not add it: it perturbs
    the larger mantissa, shifted up by prec + 4 bits, by one unit towards
    the smaller operand's sign, and rounds that; so does this path.  Other
    real operands call ``mpf_add``, complex ones ``mpc_add_mpf`` and
    ``mpc_add``."""
    if len(x) == 4:
        if len(y) == 4:
            if x[1] and y[1]:
                if x[2] < y[2]:
                    x, y = y, x
                sign, man, exp, bc = x
                ysign, yman, yexp, ybc = y
                offset = exp - yexp
                if offset > 100 and bc + offset - ybc > prec + 4:
                    man <<= prec + 4
                    man += 1 if sign == ysign else -1
                    return _round(sign, man, exp - prec - 4, prec)
                if sign == ysign:
                    man = (man << offset) + yman
                else:
                    man = (man << offset) - yman
                    if man <= 0:
                        if not man:
                            return fzero
                        sign, man = ysign, -man
                return _round(sign, man, yexp, prec)
            return mpf_add(x, y, prec, round_nearest)
        return mpc_add_mpf(y, x, prec, round_nearest)
    if len(y) == 4:
        return mpc_add_mpf(x, y, prec, round_nearest)
    return mpc_add(x, y, prec, round_nearest)


def raw_div(x, y, prec: int) -> tuple:
    """x / y on raw values, as mpmath's operators round it.

    Two regular reals are divided on integers, as ``mpf_div`` divides them:
    a divisor with mantissa 1 (a power of two) only rounds x's mantissa;
    otherwise the quotient of x's mantissa shifted up by ``extra`` = max(5,
    prec - bc(x) + bc(y) + 5) bits, with a sticky bit appended where the
    division leaves a remainder, is rounded.  Other real operands call
    ``mpf_div``, which raises ``ZeroDivisionError`` for a zero divisor;
    complex ones call ``mpc_mpf_div``, ``mpc_div_mpf`` and ``mpc_div``."""
    if len(x) == 4:
        if len(y) == 4:
            if x[1] and y[1]:
                sign, man, exp, bc = x
                ysign, yman, yexp, ybc = y
                if yman == 1:
                    return _round(sign ^ ysign, man, exp - yexp, prec)
                extra = prec - bc + ybc + 5
                if extra < 5:
                    extra = 5
                quot, rem = divmod(man << extra, yman)
                if rem:
                    quot = (quot << 1) | 1
                    extra += 1
                return _round(sign ^ ysign, quot, exp - yexp - extra, prec)
            return mpf_div(x, y, prec, round_nearest)
        return mpc_mpf_div(x, y, prec, round_nearest)
    if len(y) == 4:
        return mpc_div_mpf(x, y, prec, round_nearest)
    return mpc_div(x, y, prec, round_nearest)


def _pow_int(x, n: int, prec: int) -> tuple:
    """x ** n for a raw value and an integer n, as mpmath's operators round
    it.

    A regular real is raised on integers, as ``mpf_pow_int`` raises it: a
    mantissa of 1 is exact, x ** 2 and powers with bc(x) n < 1000 round the
    exact ``man ** n``, and larger powers run libmp's binary powering,
    truncating every product to prec + 4 bitcount(n) + 4 bits before the one
    rounding at the end.  A negative n divides 1 by x ** -n, taken at prec +
    5 bits.  Other real values call ``mpf_pow_int``, complex ones
    ``mpc_pow_int``."""
    if len(x) == 4:
        sign, man, exp, _ = x
        if not man:
            return mpf_pow_int(x, n, prec, round_nearest)
        if n < 0:
            inverse = x if n == -1 else _pow_int(x, -n, prec + 5)
            return raw_div(fone, inverse, prec)
        if n == 0:
            return fone
        if n == 1:
            return _round(sign, man, exp, prec)
        sign &= n
        if man == 1:
            return sign, 1, exp * n, 1
        if n == 2 or man.bit_length() * n < 1000:
            return _round(sign, man**n, exp * n, prec)
        work = prec + 4 * n.bit_length() + 4
        pman, pexp = 1, 0
        while True:
            if n & 1:
                pman *= man
                pexp += exp
                excess = pman.bit_length() - work
                if excess > 0:
                    pman >>= excess
                    pexp += excess
                n -= 1
                if not n:
                    return _round(sign, pman, pexp, prec)
            man *= man
            exp += exp
            excess = man.bit_length() - work
            if excess > 0:
                man >>= excess
                exp += excess
            n >>= 1
    return mpc_pow_int(x, n, prec, round_nearest)


def _one_minus(x, prec: int) -> tuple:
    """1 - x on a raw value, as mpmath's operators round it: ``raw_add`` of
    1 and -x for a regular real, else ``mpf_sub``, or ``mpc_sub`` for a
    complex x."""
    if len(x) == 4:
        sign, man, exp, bc = x
        if man:
            return raw_add(fone, (sign ^ 1, man, exp, bc), prec)
        return mpf_sub(fone, x, prec, round_nearest)
    return mpc_sub(_COMPLEX_ONE, x, prec, round_nearest)


def from_raw(raw) -> QComplex:
    """The mpf or mpc with the raw value ``raw``."""
    return mp.make_mpc(raw) if len(raw) == 2 else mp.make_mpf(raw)


def raw_sum(values) -> tuple:
    """0 + v_1 + v_2 + ... for raw values v_i, added in order with the
    rounding of ``value += v`` at the working precision, as a raw value.

    0 + v_1 is v_1 itself for a real v_1 of at most ``prec`` bits, as raw
    values are canonical (zero and special values included), so the first
    value is added to nothing; a wider or complex one is rounded by
    ``raw_add``."""
    prec = mp.prec
    values = iter(values)
    raw = next(values, fzero)
    if len(raw) != 4 or raw[3] > prec:
        raw = raw_add(fzero, raw, prec)
    for v in values:
        raw = raw_add(raw, v, prec)
    return raw


def e2(k: Sequence[int]) -> int:
    """Elementary symmetric function of degree 2 of a multi-index:
    C(|k|, 2) - sum_r C(k_r, 2)."""
    total = sum(k)
    return math.comb(total, 2) - sum(math.comb(kr, 2) for kr in k)


def value_key(x):
    """Hashable exact value of an mpmath number: its raw ``_mpf_`` or
    ``_mpc_`` tuple.  Cache keys built from it never hash an mpf object;
    an mpf and an mpc of equal value get different keys."""
    try:
        return x._mpf_
    except AttributeError:
        pass
    try:
        return x._mpc_
    except AttributeError:
        return value_key(mpmathify(x))


class FiniteTable(list):
    """(a; base)_0, (a; base)_1, ... as a list of raw values that ``at``
    extends.

    The next factor and the base are kept as raw values too, and the table
    grows with the raw operations of ``qpoch_infinite``: each entry is bit
    for bit the loop ``prod *= 1 - factor; factor *= base`` on mpmath
    objects.  Read an entry as an mpf or mpc with ``from_raw``.
    """

    __slots__ = ("factor", "base", "prec")

    def __init__(self, a, base, prec: int):
        super().__init__((fone,))
        self.factor = value_key(mpmathify(a))
        self.base = value_key(base)
        self.prec = prec

    def at(self, k: int) -> tuple:
        """(a; base)_k as a raw value, extending the table through index k
        if needed."""
        if len(self) <= k:
            prec, factor, base = self.prec, self.factor, self.base
            prod = self[-1]
            while len(self) <= k:
                prod = raw_mul(prod, _one_minus(factor, prec), prec)
                self.append(prod)
                factor = raw_mul(factor, base, prec)
            self.factor = factor
        return self[k]


class BaseSystem:
    """The modular data (q, h, t) with the derived powers q^h, q^t, q^{ht}.

    The principal logarithm of q is taken exactly once; every other power of
    q is produced from it (and cached), so both sides of an identity see the
    same branch.  Construction validates the usual convergence conditions
    0 < |q^h| < 1, 0 < |q^t| < 1, 0 < |q^{ht}| < 1.
    """

    def __init__(self, q, h=1, t=1, prec: int = DEFAULT_PRECISION):
        if prec < 64:
            raise ValueError("BaseSystem precision must be >= 64 bits")
        self.prec = int(prec)
        with mp.workprec(self.prec):
            self.q = mpmathify(q)
            self.h = mpmathify(h)
            self.t = mpmathify(t)
            if self.q == 0:
                raise NonConvergentBase("q must be nonzero")
            self._log_q = mp.log(self.q)
            ht = self.h * self.t
        self._powers: dict = {}
        self.qh = self.power(self.h)
        self.qt = self.power(self.t)
        self.qht = self.power(ht)
        for name, value in (("q^h", self.qh), ("q^t", self.qt), ("q^ht", self.qht)):
            mag = abs(value)
            if not (0 < mag < 1):
                raise NonConvergentBase(f"|{name}| = {mag} outside (0, 1)")

    def power(self, alpha) -> QComplex:
        """q**alpha via the cached principal logarithm (memoised)."""
        alpha = mpmathify(alpha)
        key = value_key(alpha)
        cached = self._powers.get(key)
        if cached is None:
            with mp.workprec(self.prec):
                if isinstance(alpha, mpf) and alpha == int(alpha):
                    cached = self.q ** int(alpha)
                else:
                    cached = mp.exp(alpha * self._log_q)
            self._powers[key] = cached
        return cached

    def __repr__(self):
        return f"BaseSystem(q={self.q}, h={self.h}, t={self.t}, prec={self.prec})"


class ShellMemo(dict):
    """A memo whose values live for the run or for two shells.

    The dict itself holds the run's values.  A value computed inside a shell
    of ``multisum.evaluate_in_context`` is kept in ``young`` for that shell
    and in ``old`` for the next one, then dropped; a second request in that
    window moves it to the run.  A value computed outside the shell loop,
    such as a prefactor's, goes straight to the run.
    """

    __slots__ = ("young", "old")

    def __init__(self):
        super().__init__()
        self.young: dict = {}
        self.old: dict = {}

    def find(self, key):
        """The value under ``key``, or None; a young or old value found is
        moved to the run."""
        value = self.get(key)
        if value is None:
            value = self.young.pop(key, None)
            if value is None:
                value = self.old.pop(key, None)
                if value is None:
                    return None
            self[key] = value
        return value

    def keep(self, key, value, in_shell: bool) -> None:
        """Store a value just computed, in a shell or for the run."""
        (self.young if in_shell else self)[key] = value

    def age(self) -> None:
        """A shell boundary: the last shell's values become old, and the
        values computed in the shell before and not requested again go."""
        self.old = self.young
        self.young = {}


class PochCache:
    """Memoised q-rising factorials and term-layer values for one run.

    Values are bit-identical to computing them from scratch at the cache
    precision; the cache only removes repeated work across the many series
    terms that share the same products, powers and pair tables.  Inside a
    side every value is raw, an ``_mpf_`` or ``_mpc_`` tuple: ``infinite``
    and ``intpow`` take and return raw values, and the finite tables hold
    them; read one as an mpf or mpc with ``from_raw``.  Every key is built
    from raw values, so no lookup hashes an mpf object.  Infinite products
    are kept in a ``ShellMemo``: a value computed in a shell lives for
    that shell and the next unless it is requested again there.
    ``next_shell`` and ``leave_shells`` mark the shell loop.  Integer
    powers, finite tables and ``table`` values are kept for the run: a run
    raises a few constants to powers that recur across shells and sides,
    such as the Heine cross powers that a lhs shell and, shells later, the
    rhs ask for.  The Vandermonde pair tables keep each
    pair's raw factors by shift.
    ``terms`` holds the run's bound blocks under their ``bind`` function
    (``multisum.heine_sides``, ``catalog.core.run_memo``), the products at
    the Heine blocks' own arguments and the coupling ratios of transformation
    blocks by index.  No part or coupling value is kept here: the shell loop
    keeps each block's shell sums for one evaluation.

    An infinite product whose first factor is below the truncation
    threshold by magnitude is exactly 1: ``infinite`` returns libmp's
    shared ``fone`` for it without calling ``qpoch_infinite`` or storing
    it.  The threshold's magnitude is kept per real base for the run.
    """

    def __init__(self, prec: int, tol=None):
        self.prec = int(prec)
        self.tol = tol if tol is not None else default_tol(self.prec)
        with mp.workprec(self.prec):
            self._raw_tol = mpmathify(self.tol)._mpf_
        self.in_shell = False
        self._finite: dict = {}
        self._infinite = ShellMemo()
        self._intpow: dict = {}
        self._empty_below: dict = {}
        self._tables: dict = {}
        self._last: dict = {}
        self.terms: dict = {}

    def next_shell(self) -> None:
        """Mark the start of a shell of the series being summed."""
        self.in_shell = True
        self._infinite.age()

    def leave_shells(self) -> None:
        """Mark the end of the shell loop: later values are kept for the run."""
        self.in_shell = False

    def finite_table(self, a, base) -> FiniteTable:
        """The list of raw (a; base)_0, (a; base)_1, ... kept for this run,
        found by the raw values of ``a`` and ``base``.  The specs of
        ``catalog.core`` resolve their tables once per run, so a lookup
        does not recur per term."""
        key = (value_key(a), value_key(base))
        table = self._finite.get(key)
        if table is None:
            table = self._finite[key] = FiniteTable(a, base, self.prec)
        return table

    def finite(self, a, base, k: int) -> tuple:
        """(a; base)_k as a raw value."""
        return self.finite_table(a, base).at(k)

    def infinite(self, a, base) -> tuple:
        """(a; base)_oo at the cache precision for a raw ``a`` and ``base``,
        as a raw value; an empty product is libmp's shared ``fone``.

        The product is computed by the module's ``qpoch_infinite`` at the
        cache precision, entered with the mpf or mpc objects of the
        arguments; ``mp.workprec`` is entered only when the ambient
        precision differs from it, which it never does inside
        ``multisum.evaluate_in_context``."""
        try:
            below = self._empty_below[base]
        except KeyError:
            below = self._empty_below[base] = self._empty_magnitude(base)
        if below is not None and len(a) == 4:
            _, man, exp, bc = a
            if man and bc <= self.prec and exp + bc < below:
                return fone
        key = (a, base)
        value = self._infinite.find(key)
        if value is None:
            if mp.prec == self.prec:
                value = qpoch_infinite(from_raw(a), from_raw(base), self.tol)
            else:
                with mp.workprec(self.prec):
                    value = qpoch_infinite(from_raw(a), from_raw(base), self.tol)
            value = value_key(value)
            self._infinite.keep(key, value, self.in_shell)
        return value

    def _empty_magnitude(self, base) -> int | None:
        """The magnitude (exponent + bit count) of the threshold
        tol * (1 - |base|) that ``qpoch_infinite`` reads for a real raw
        base at the cache precision (the same memoised ``_threshold``): a
        real a of at most ``prec`` bits and smaller magnitude stops its
        loop before the first factor.  None where the shortcut does not
        apply: a complex base, |base| >= 1 (the product raises) and a
        threshold that is not a positive number."""
        if len(base) != 4:
            return None
        try:
            _, threshold = _threshold(base, self._raw_tol, self.prec)
        except NonConvergentBase:
            return None
        if threshold[0] or not threshold[1]:
            return None
        return threshold[2] + threshold[3]

    def ratio(self, a, base, scale) -> QComplex:
        """(a; base)_kappa with scale = base**kappa, as a product ratio: an
        mpf or mpc object.  Not memoised itself: its two products are."""
        a, base = value_key(a), value_key(base)
        num = self.infinite(a, base)
        den = self.infinite(raw_mul(a, value_key(scale), self.prec), base)
        if from_raw(den) == 0:
            raise DivisionByZero(
                "(a*scale; base)_oo vanished; the requested index is a pole"
            )
        return from_raw(raw_div(num, den, self.prec))

    def intpow(self, x, n: int) -> tuple:
        """x ** n for a raw x and an integer n, as a raw value at the cache
        precision, as mpmath's operator rounds it; kept for the run."""
        key = (x, n)
        value = self._intpow.get(key)
        if value is None:
            value = self._intpow[key] = _pow_int(x, n, self.prec)
        return value

    def table(self, tag, values: tuple, build):
        """``build()`` evaluated at the cache precision, once per ``tag`` (a
        hashable name) and set of ``values``, the scalars and vectors it is
        built from.

        For values that depend only on the parameters of a run, such as the
        pair tables of ``catalog.core.sq_ratio`` and
        ``multisum.vandermonde_ratio``.  A term function asks for the same
        table with the same objects on every term, so the last table of each
        tag is kept with its ``values`` and returned when they are the same
        objects again, without building a key; only other requests build
        the key from the raw values.  ``values`` must not be changed after
        the call.
        """
        last = self._last.get(tag)
        if (
            last is not None
            and len(last[0]) == len(values)
            and all(map(is_, last[0], values))
        ):
            return last[1]
        key = (tag,) + tuple(
            tuple(map(value_key, v)) if isinstance(v, (tuple, list)) else value_key(v)
            for v in values
        )
        value = self._tables.get(key)
        if value is None:
            with mp.workprec(self.prec):
                value = build()
            self._tables[key] = value
        self._last[tag] = (values, value)
        return value
