import math
import random
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp, mpc, mpf, mpmathify
from mpmath.libmp import fone

from qheine import (
    BaseSystem,
    DivisionByZero,
    LengthMismatch,
    NonConvergentBase,
    PochCache,
    default_tol,
    e2,
    qpoch_infinite,
)
from qheine import catalog, qcore
from qheine.multisum import evaluate_in_context
from qheine.qcore import FiniteTable, from_raw, value_key
import util
from util import (
    MAX_FACTORS,
    dot,
    qpoch_finite,
    qpoch_finite_loop,
    qpoch_infinite_loop,
    qpoch_infinite_ref,
    qpoch_ratio,
    rel,
)

# Exact rational oracle for the five-factor complex product, computed with
# fractions.Fraction: prod_{r<5} (1 - (0.3+0.1i) * 0.4^r).
FINITE5_RE = "0.564167690043392"
FINITE5_IM = "-0.122154726342656"

# Over-truncated product oracle (factors kept until |a * base^R| < 1e-45).
INF_03_05 = "0.5101178266339875718322722176806279452756"

# Ratio-of-products oracle at higher truncation for step = 0.5**1.7, k = 2.
SCALED_02 = "0.6756465231034588284425600628586681374321"


class TestQpochFinite:
    def test_empty_product(self):
        assert qpoch_finite(0.7, 0.5, 0) == 1

    def test_two_factors(self):
        assert rel(qpoch_finite(0.5, 0.5, 2), mpf("0.375")) < mpf("1e-35")

    def test_complex_five_factors(self):
        value = qpoch_finite(mpc("0.3", "0.1"), mpf("0.4"), 5)
        assert abs(value.real - mpf(FINITE5_RE)) < mpf("1e-35")
        assert abs(value.imag - mpf(FINITE5_IM)) < mpf("1e-35")

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            qpoch_finite(0.5, 0.5, -1)


class TestQpochInfinite:
    def test_zero_first_argument(self):
        assert qpoch_infinite(0, 0.5) == 1

    def test_zero_base_single_factor(self):
        assert rel(qpoch_infinite(mpf("0.6"), 0), mpf("0.4")) < mpf("1e-35")

    def test_against_overtruncated_oracle(self):
        value = qpoch_infinite(mpf("0.3"), mpf("0.5"), mpf("1e-30"))
        assert rel(value, mpf(INF_03_05)) < mpf("1e-29")

    def test_nonconvergent_base(self):
        with pytest.raises(NonConvergentBase):
            qpoch_infinite(0.5, 1.0)
        with pytest.raises(NonConvergentBase):
            qpoch_infinite(0.5, -1.2)


class TestQpochScaled:
    """(a; base)_{c k} through PochCache.ratio with scale = step**k, where
    step = base**c."""

    def test_integer_index_consistency(self):
        scaled = PochCache(128).ratio(mpf("0.2"), mpf("0.5"), mpf("0.5") ** 3)
        finite = qpoch_finite(mpf("0.2"), mpf("0.5"), 3)
        assert rel(scaled, finite) < mpf("1e-29")

    def test_zero_index(self):
        value = PochCache(128).ratio(mpf("0.2"), mpf("0.5"), mpf("0.7") ** 0)
        assert rel(value, mpf(1)) < mpf("1e-30")

    def test_noninteger_step_against_oracle(self):
        step = mpf("0.5") ** mpf("1.7")
        value = PochCache(128).ratio(mpf("0.2"), mpf("0.5"), step**2)
        assert rel(value, mpf(SCALED_02)) < mpf("1e-29")

    def test_pole_is_reported(self):
        # a * step^k = 4 = base^{-2}, so the denominator product vanishes.
        with pytest.raises(DivisionByZero):
            PochCache(128).ratio(mpf(2), mpf("0.5"), mpf("0.5") ** -1)


class TestSymmetricFunctions:
    def test_e2_examples(self):
        assert e2((5,)) == 0
        assert e2((1, 1)) == 1
        assert e2((2, 1)) == 2

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_e2_symmetric_nonnegative(self, k):
        assert e2(tuple(k)) == e2(tuple(reversed(k)))
        assert e2(tuple(sorted(k))) == e2(tuple(k))
        assert e2(tuple(k)) >= 0

    def test_dot_examples(self):
        assert dot((1, 1), (2, 3)) == 5
        assert dot((2, 0.5), (0, 0)) == 0
        assert rel(dot((1.5, 2.5, 1), (1, 2, 3)), mpf("9.5")) < mpf("1e-30")

    def test_dot_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dot((1, 2), (1, 2, 3))


_reals = st.floats(min_value=-0.9, max_value=0.9).map(mpf)
_bases = st.floats(min_value=-0.75, max_value=0.75).map(mpf)


class TestInvariants:
    @given(_reals, _reals, _bases, _bases, st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_functional_equation(self, ar, ai, br, bi, k):
        a = mpc(ar, ai)
        base = mpc(br, bi)
        lhs = qpoch_finite(a, base, k + 1)
        rhs = qpoch_finite(a, base, k) * (1 - a * base**k)
        assert abs(lhs - rhs) <= mpf("1e-25") * max(1, abs(lhs))

    @given(_reals, _bases, st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_splitting(self, a, base, k):
        whole = qpoch_infinite(a, base)
        split = qpoch_finite(a, base, k) * qpoch_infinite(a * base**k, base)
        assert rel(whole, split) < 10 * default_tol(mp.prec)

    @given(
        _reals,
        st.floats(min_value=0.05, max_value=0.7).map(mpf),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplication(self, a, q, n, k):
        lhs = qpoch_finite(a, q, n * k)
        rhs = mpf(1)
        for r in range(n):
            rhs *= qpoch_finite(a * q**r, q**n, k)
        assert rel(lhs, rhs) < mpf("1e-25")


class TestBaseSystem:
    def test_derived_powers_in_unit_disc(self):
        bases = BaseSystem(mpf("0.3"), mpf("1.5"), mpf("0.8"))
        for value in (bases.qh, bases.qt, bases.qht):
            assert 0 < abs(value) < 1

    def test_integer_exponents_use_plain_powers(self):
        bases = BaseSystem(mpf("0.3"))
        assert bases.power(2) == bases.q**2
        assert bases.power(0) == 1

    def test_power_is_memoised(self):
        bases = BaseSystem(mpf("0.3"), mpf("1.5"), mpf("0.8"))
        assert bases.power(mpf("1.5")) is bases.qh
        assert bases.power("0.8") is bases.qt

    def test_rejects_nonconvergent(self):
        with pytest.raises(NonConvergentBase):
            BaseSystem(mpf("1.5"))
        with pytest.raises(NonConvergentBase):
            BaseSystem(mpf(0))

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            BaseSystem(mpf("0.3"), prec=32)


def _infinite(cache, a, base):
    """``cache.infinite`` of a and base read at the cache precision, as an
    object: the cache takes and returns raw values."""
    with mp.workprec(cache.prec):
        a, base = mpmathify(a), mpmathify(base)
    return from_raw(cache.infinite(value_key(a), value_key(base)))


def _intpow(cache, x, n):
    """``cache.intpow`` of an object, as an object."""
    return from_raw(cache.intpow(value_key(x), n))


def _finite(cache, a, base, k):
    """``cache.finite`` as an object."""
    return from_raw(cache.finite(a, base, k))


class TestPochCache:
    def test_matches_plain_functions(self):
        cache = PochCache(128)
        a, base = mpf("0.3"), mpf("0.5")
        assert _finite(cache, a, base, 7) == qpoch_finite(a, base, 7)
        assert _finite(cache, a, base, 3) == qpoch_finite(a, base, 3)
        assert rel(_infinite(cache, a, base), qpoch_infinite(a, base)) < mpf("1e-35")
        scale = base**2
        assert rel(cache.ratio(a, base, scale), qpoch_ratio(a, base, scale)) < mpf(
            "1e-35"
        )

    def test_ratio_pole(self):
        cache = PochCache(128)
        with pytest.raises(DivisionByZero):
            cache.ratio(mpf(4), mpf("0.5"), mpf(1))


def same_bits(x, y):
    """Equal type and equal raw mpmath value, not just equal numbers."""

    def raw(v):
        return v._mpc_ if isinstance(v, mpc) else v._mpf_

    return type(x) is type(y) and raw(x) == raw(y)


class TestCacheKeys:
    @pytest.mark.parametrize("n", [-7, -1, 0, 1, 2, 13])
    @pytest.mark.parametrize(
        "x", [mpf("0.3"), mpf("-1.7"), mpc("0.4", "-0.25"), mpc("-2", "0.5")]
    )
    def test_intpow_is_plain_power(self, x, n):
        cache = PochCache(128)
        first = cache.intpow(value_key(x), n)
        assert same_bits(from_raw(first), x**n)
        assert cache.intpow(value_key(x), n) is first

    def test_intpow_at_cache_precision(self):
        cache = PochCache(256)
        x = mpf(1) / 3
        value = _intpow(cache, x, 5)
        with mp.workprec(256):
            assert same_bits(value, x**5)

    @pytest.mark.parametrize("prec, ambient", [(128, 53), (1024, 128), (1024, 2048)])
    @pytest.mark.parametrize("complex_x", [False, True])
    def test_intpow_raw_at_cache_precision(self, prec, ambient, complex_x):
        # The power is taken on the raw value at the cache precision, with
        # the rounding of x**n there, whatever the ambient precision.
        with mp.workprec(prec):
            x = mpf(-7) / 9 if not complex_x else mpc(mpf(5) / 7, -mpf(2) / 3)
        cache = PochCache(prec)
        for n in range(-7, 14):
            with mp.workprec(ambient):
                value = cache.intpow(value_key(x), n)
            with mp.workprec(prec):
                expected = x**n
            assert _raw_value(from_raw(value)) == _raw_value(expected)
            assert cache.intpow(value_key(x), n) is value

    @pytest.mark.parametrize("mpc_first", [False, True])
    def test_mpf_and_mpc_of_equal_value(self, mpc_first):
        cache = PochCache(128)
        real, cplx = mpf("0.5"), mpc("0.5", "0")
        base = mpf("0.3")
        order = (cplx, real) if mpc_first else (real, cplx)
        for a in order:
            assert same_bits(_finite(cache, a, base, 4), qpoch_finite(a, base, 4))
            assert same_bits(_intpow(cache, a, 3), a**3)
            assert _infinite(cache, a, base) == qpoch_infinite(a, base, cache.tol)
        assert isinstance(_finite(cache, cplx, base, 2), mpc)
        assert isinstance(_finite(cache, real, base, 2), mpf)

    def test_tables_are_keyed_by_argument_and_base(self):
        cache = PochCache(128)
        a = mpf("0.3")
        for base in (mpf("0.5"), mpf("0.25"), mpc("0.5", "0")):
            assert same_bits(_finite(cache, a, base, 6), qpoch_finite(a, base, 6))
            assert _infinite(cache, a, base) == qpoch_infinite(a, base, cache.tol)

    def test_tables_are_found_by_identity_then_by_value(self):
        cache = PochCache(128)
        built = []

        def table(tag, values):
            return cache.table(tag, values, lambda: built.append(values) or values)

        x, base = (mpf("0.3"), mpf("0.7")), mpf("0.5")
        first = table("t", (x, base))
        assert table("t", (x, base)) is first  # the same objects
        assert table("t", ((mpf("0.3"), mpf("0.7")), mpf("0.5"))) is first
        assert table("t", (x,)) is not first  # fewer values, another table
        assert table("t", (x, mpc("0.5", "0"))) is not first  # an mpc
        assert table("u", (x, base)) is not first  # another tag
        assert table("t", (x, base)) is first
        assert len(built) == 4

    def test_finite_tables_are_found_by_identity_then_by_value(self):
        cache = PochCache(128)
        a, base = mpf("0.3"), mpf("0.5")
        table = cache.finite_table(a, base)
        assert cache.finite_table(a, base) is table
        assert cache.finite_table(mpf("0.3"), mpf("0.5")) is table
        assert cache.finite_table(a, mpc("0.5", "0")) is not table
        # Each argument below is dropped after its call; an id reused by the
        # next one must not find the table of the last.
        for k in range(1, 40):
            x = cache.finite_table(mpf(k) / 41, base)
            assert x is not table
            assert same_bits(from_raw(x.at(2)), qpoch_finite(mpf(k) / 41, base, 2))
        assert cache.finite_table(a, base) is table

    def test_finite_table_grows_like_the_product(self):
        cache = PochCache(128)
        a, base = mpc("0.3", "0.1"), mpf("0.4")
        table = cache.finite_table(a, base)
        assert cache.finite(a, base, 5) == table[5]
        assert cache.finite_table(a, base) is table
        for k in range(len(table)):
            assert same_bits(from_raw(table[k]), qpoch_finite(a, base, k))


def _raw_value(v):
    return (type(v), v._mpc_ if isinstance(v, mpc) else v._mpf_)


_PRECISIONS = st.sampled_from([64, 128, 256, 1024])


@st.composite
def _kernel_arguments(draw, arg_max=1.6, base_max=0.8):
    """(prec, a, base): a and base real or complex, each sometimes held at
    more bits than the working precision."""
    prec = draw(_PRECISIONS)
    part = st.floats(min_value=-arg_max, max_value=arg_max)
    small = st.floats(min_value=-base_max, max_value=base_max)

    def number(strategy):
        x = mpf(draw(strategy))
        if draw(st.booleans()):
            with mp.workprec(prec + 64):
                x = x / 3
        return x

    a = number(part)
    if draw(st.booleans()):
        a = mpc(a, draw(part))
    base = number(small)
    if draw(st.booleans()):
        imag = draw(small)
        base = mpc(base, imag) if abs(mpc(base, imag)) <= base_max else mpc(0, imag)
    return prec, a, base


@st.composite
def _real_product_arguments(draw):
    """(prec, a, base, small_tol): a real a of prec bits and magnitude in
    [2^-7, 2^6), so that many products start at |a| >= 1, and a real base
    of prec bits and magnitude in [2^-7, 0.9], each of either sign;
    small_tol asks for tol = 2^-prec, which gives products factors at low
    precision too, in place of the default."""
    prec = draw(st.integers(2, 1100))

    def number(top, largest):
        man = draw(st.integers(2 ** (prec - 1), largest))
        exp = draw(st.integers(-6, top)) - prec
        with mp.workprec(prec):
            return mpf((-man if draw(st.booleans()) else man, exp))

    a = number(6, 2**prec - 1)
    base = number(0, (2**prec * 9) // 10)
    return prec, a, base, draw(st.booleans())


class TestRawKernel:
    """qpoch_infinite and FiniteTable run on raw tuples.  FiniteTable and a
    complex infinite product must give the bits of the product loop on
    mpmath objects in tests/util.py; a real infinite product, which carries
    its factor at absolute precision once |factor| < 1, those of the
    definition spelled there as ``qpoch_infinite_ref``."""

    @given(_kernel_arguments(), st.sampled_from([None, "1e-12", "1e-40"]))
    # At 1 bit, 1 - (-1/2) = 3/2 rounds to 2, but 2^0 plus 1/2 rounded half
    # to even is 1: the complement step needs prec > 1.
    @example((1, mpf("-0.5"), mpf("0.25")), "0.1")
    @settings(max_examples=120, deadline=None)
    def test_infinite_matches_object_loop(self, args, tol):
        prec, a, base = args
        tol = None if tol is None else mpf(tol)
        with mp.workprec(prec):
            assert _raw_value(qpoch_infinite(a, base, tol)) == _raw_value(
                qpoch_infinite_ref(a, base, tol)
            )

    @given(
        _kernel_arguments(arg_max=3.0, base_max=1.2),
        st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_finite_table_matches_object_loop(self, args, indices):
        prec, a, base = args
        table = FiniteTable(a, base, prec)
        for k in indices:
            value = table.at(k)
            with mp.workprec(prec):
                want = _raw_value(qpoch_finite_loop(a, base, k))
                assert _raw_value(qpoch_finite(a, base, k)) == want
            assert _raw_value(from_raw(value)) == want

    @given(_kernel_arguments(arg_max=3.0, base_max=1.2))
    @settings(max_examples=120, deadline=None)
    def test_raw_operations_match_operators(self, args):
        # The raw arithmetic of the term layer: the operator's result, real
        # and complex operands in either order, each sometimes held at more
        # bits than the precision.
        prec, x, y = args
        ops = [
            (qcore.raw_add, operator.add),
            (qcore.raw_mul, operator.mul),
            (qcore.raw_div, operator.truediv),
        ]
        for u, v in ((x, y), (y, x)):
            for raw_op, op in ops:
                if op is operator.truediv and v == 0:
                    continue
                raw = raw_op(qcore.value_key(u), qcore.value_key(v), prec)
                with mp.workprec(prec):
                    want = op(u, v)
                assert _raw_value(qcore.from_raw(raw)) == _raw_value(want)

    @given(st.lists(_kernel_arguments(arg_max=3.0, base_max=1.2), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_raw_folds_match_operator_chains(self, drawn):
        # raw_sum adds values with a complex one among them with the bits of
        # the operator loop, at the working precision, and real values
        # within its bound of their exact sum (TestRawSum).
        values = [x for _, x, base in drawn for x in (x, base)]
        for prec in (53, 128, 1024):
            with mp.workprec(prec):
                total = mpf(0)
                for v in values:
                    total += v
                got = qcore.from_raw(qcore.raw_sum([value_key(v) for v in values]))
                if any(isinstance(v, mpc) for v in values):
                    assert _raw_value(got) == _raw_value(total)
                else:
                    assert within_sum_bound(got, values)

    @pytest.mark.parametrize(
        "a, base",
        [
            (mpf(0), mpf("0.5")),
            (mpc(0, 0), mpf("0.5")),
            (mpf("0.6"), mpf(0)),
            (mpc("0.6", "0.2"), mpc(0, 0)),
            (mpf("0.7"), mpf("-0.45")),
            (mpf("-0.7"), mpf("-0.3")),
            (mpf("2.5"), mpf("0.5")),
            (mpf("-7.25"), mpf("-0.6")),
            (mpc("1.5", "-2"), mpf("0.4")),
            (mpf("0.3"), mpc("0.2", "0.5")),
            (mpc("0.5", "0"), mpf("0.3")),
            (mpf(2), mpf("0.5")),
            (mpf(-3), mpf("-0.3")),
            (mpf(5 * 2**10), mpf("0.5")),
            (mpf(1), mpf("0.3")),
            (mpf(4), mpf("0.5")),
        ],
    )
    @pytest.mark.parametrize("prec", [64, 128, 1024, 1025, 1100])
    def test_edge_cases(self, a, base, prec):
        with mp.workprec(prec):
            got = qpoch_infinite(a, base)
            assert _raw_value(got) == _raw_value(qpoch_infinite_ref(a, base))
            for k in (0, 1, 5):
                assert _raw_value(qpoch_finite(a, base, k)) == _raw_value(
                    qpoch_finite_loop(a, base, k)
                )

    @pytest.mark.parametrize("prec", [64, 128, 1024, 1100])
    def test_real_products_take_the_integer_loop(self, monkeypatch, prec):
        # An ordinary real product takes the loop's inline integer step at
        # every factor: it calls neither libmp operation of the loop nor
        # the raw operations of the loop's other steps.
        def refused(*args):
            raise AssertionError("a real product step left the integer loop")

        with mp.workprec(prec):
            cases = [
                (a, base)
                for a in (mpf("0.3"), mpf("-0.7"), mpf(1) / 3, mpf("0.97"))
                for base in (mpf("0.5"), mpf("-0.45"), mpf("0.7") ** mpf("1.37"))
            ]
            want = [_raw_value(qpoch_infinite_ref(a, base)) for a, base in cases]
            # The memoised thresholds call _one_minus and raw_mul; form
            # them before those are refused.
            for a, base in cases:
                qpoch_infinite(a, base)
            for name in ("mpf_mul", "mpf_sub", "raw_mul", "_one_minus"):
                monkeypatch.setattr(qcore, name, refused)
            got = [_raw_value(qpoch_infinite(a, base)) for a, base in cases]
        assert got == want

    @pytest.mark.parametrize("prec", [8, 12, 16, 24])
    @pytest.mark.parametrize(
        "a, base",
        [
            ("0.75", "0.5"),
            ("0.3", "0.7"),
            ("-0.6", "0.45"),
            ("0.9", "-0.8"),
            ("0.99", "0.9"),
            ("0.2", "0.95"),
            ("0.3", "0.75"),
            ("-0.7", "-0.75"),
            ("0.375", "0.75"),
            ("-0.75", "0.75"),
            ("0.75", "0.45"),
            ("-0.3", "-0.85"),
        ],
    )
    def test_rounding_at_low_precision(self, prec, a, base):
        # At 8-24 bits, 1 - f often needs one bit more than f, so ties are
        # common; g = |f| 2^s of the complement step rounds to 0 for a
        # small f.  The factors 3^(k+1) 2^(-2k-3) of (3/8; 3/4) and
        # -3^(k+1) 2^(-2k-2) of (-3/4; 3/4) are held exactly while they
        # have at most prec + 32 bits, and put g on a half at
        # k = prec/2 - 1, for a positive f (s = prec) and a negative one
        # (s = prec - 1).  The product mantissa rounds up to 2^prec before
        # a step for (3/4; 0.45) at 8 bits and (-0.3; -0.85) at 8 and 12.
        # tol = 2^-prec keeps the factors coming.
        with mp.workprec(prec):
            a, base, tol = mpf(a), mpf(base), mpf(2) ** -prec
            got = qpoch_infinite(a, base, tol)
            assert _raw_value(got) == _raw_value(qpoch_infinite_ref(a, base, tol))

    @pytest.mark.parametrize("prec", [9, 65, 1025])
    def test_factor_rounded_up_to_the_threshold(self, prec):
        # At an odd precision, a = (2^(prec+1) - 1) / 3 / 2^prec has prec
        # bits, and a * 3/4 = (2^(prec+1) - 1) / 2^(prec+2) is a tie that
        # the object loop rounds up to 1/2.  tol = 2 puts the threshold
        # tol * (1 - 3/4) at 1/2 too, so the object loop keeps that factor.
        # The kernel holds a * 3/4 exactly, below 1/2, and stops after one
        # factor.
        with mp.workprec(prec):
            a = mpf((2 ** (prec + 1) - 1) // 3) / 2**prec
            base, tol = mpf("0.75"), mpf(2)
            got = qpoch_infinite(a, base, tol)
            assert _raw_value(got) == _raw_value(qpoch_infinite_ref(a, base, tol))
            assert got == qpoch_finite(a, base, 1)
            assert qpoch_infinite_loop(a, base, tol) == qpoch_finite(a, base, 2)

    @pytest.mark.parametrize("tol", [None, mpf(2) ** -1070])
    @pytest.mark.parametrize(
        "a, base",
        [
            ("0.3", "0.7"),
            ("0.9", "-0.8"),
            ("-0.6", "0.6"),
            ("0.375", "0.75"),
            ("-0.75", "0.75"),
        ],
    )
    def test_rounding_at_1100_bits(self, tol, a, base):
        with mp.workprec(1100):
            a, base = mpf(a), mpf(base)
            got = qpoch_infinite(a, base, tol)
            assert _raw_value(got) == _raw_value(qpoch_infinite_ref(a, base, tol))

    @given(_real_product_arguments())
    @example((2, mpf(3), mpf("-0.5"), True))
    @example((64, mpf(-40), mpf("0.75"), False))
    @settings(max_examples=60, deadline=None)
    def test_real_products_within_the_rounding_bound(self, args):
        # Against the object loop at prec + 64 bits over the same factors,
        # a real product is off by at most prod_k (1 + eps w_k) (1 + eps)
        # - 1 relative, eps = 2^-prec: one rounding of the product per
        # factor after the first, and per factor f_k = a base^k
        #   w_k = max(1, 1/|1 - f_k|)
        #         + (((1 + eps)^k - 1)/eps |f_k| + 2^-32/(1 - |base|))
        #           (1 + eps) / |1 - f_k|,
        # for the rounding of 1 - f (relative while |f| >= 1, at 2^-s with
        # s >= prec - 1 after), the relative error that the steps with
        # |f| >= 1 leave in f, and the factor's absolute error after.
        # Where no factor is close to 1, that is about 2^-prec per factor
        # and per product rounding.
        prec, a, base, small_tol = args
        tol = mpf(2) ** -prec if small_tol else None
        with mp.workprec(prec):
            got = qpoch_infinite(a, base, tol)
            want, factors = util.real_product(a, base, tol)
        assert _raw_value(got) == _raw_value(want)
        with mp.workprec(prec + 64):
            eps = mpf(2) ** -prec
            slack = 2 ** -util.GUARD / (1 - abs(base))
            exact, bound, grown, f = mpf(1), mpf(1), mpf(1), a
            for k in range(factors):
                distance = abs(1 - f)
                if not distance:
                    return  # an exact zero factor: no relative bound
                inherited = (grown - 1) / eps * abs(f) + slack
                weight = max(1, 1 / distance) + inherited * (1 + eps) / distance
                bound *= (1 + eps * weight) * (1 + eps if k else 1)
                exact *= 1 - f
                f *= base
                grown *= 1 + eps
            bound -= 1
            assert abs(got - exact) <= bound * abs(exact) * (1 + mpf(2) ** -32)

    @pytest.mark.parametrize("prec", [8, 24, 64, 128, 1024, 1025, 1100])
    @pytest.mark.parametrize("base", ["0.5", "-0.3"])
    def test_factors_far_below_one(self, prec, base):
        # tol = 2^(-prec-24) runs the factors more than prec + 4 bits below
        # 1, where 1 - f rounds to 1 and g = |f| 2^s of the complement step
        # rounds to 0 (for |f| below 2^(-prec-1)); the factor's 32 guard
        # bits still resolve the threshold.
        with mp.workprec(prec):
            a, base, tol = mpf("0.5"), mpf(base), mpf(2) ** (-prec - 24)
            got = qpoch_infinite(a, base, tol)
            assert _raw_value(got) == _raw_value(qpoch_infinite_ref(a, base, tol))

    @pytest.mark.parametrize("a, base", [(1, "0.5"), (4, "0.5"), (-4, "-0.25")])
    def test_a_factor_of_one_makes_the_product_zero(self, a, base):
        with mp.workprec(128):
            got = qpoch_infinite(mpf(a), mpf(base))
            assert _raw_value(got) == _raw_value(mpf(0))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("nudge", [0, 1, -1])
    def test_factor_at_the_threshold(self, sign, nudge):
        # Factors 0.75, 0.375, 0.1875, ... in base 1/2; tol = 0.375 puts the
        # threshold tol * (1 - 1/2) at 0.1875, or just off it with nudge.
        a, base = mpf("0.75"), sign * mpf("0.5")
        tol = mpf("0.375") + nudge * mpf(2) ** -100
        with mp.workprec(128):
            got = qpoch_infinite(a, base, tol)
            assert _raw_value(got) == _raw_value(qpoch_infinite_ref(a, base, tol))
            factors = 3 if nudge <= 0 else 2
            assert got == qpoch_finite(a, base, factors)

    @pytest.mark.parametrize("a", [("0.3", "0.4"), ("-0.2", "0.7"), ("0.6", "-0.1")])
    @pytest.mark.parametrize("nudge", [0, 1, -1])
    def test_complex_factor_at_the_threshold(self, a, nudge):
        # The factor a/4 of base 1/2 has an inexact modulus; tol puts the
        # threshold tol * (1 - 1/2) on that modulus as mpc_abs rounds it,
        # or just off it with nudge, so the stop test must round as the
        # object loop's abs does.
        with mp.workprec(128):
            a, base = mpc(*a), mpf("0.5")
            tol = 2 * abs(a / 4) + nudge * mpf(2) ** -100
            got = qpoch_infinite(a, base, tol)
            assert _raw_value(got) == _raw_value(qpoch_infinite_loop(a, base, tol))
            assert got == qpoch_finite(a, base, 3 if nudge <= 0 else 2)

    def test_threshold_not_positive(self, monkeypatch):
        monkeypatch.setattr(qcore, "_MAX_FACTORS", 1000)
        with mp.workprec(64):
            for tol in (mpf(-1), mpf(-1) / 3):
                with pytest.raises(NonConvergentBase):
                    qpoch_infinite(mpf("0.5"), mpf("0.5"), tol)
            # A zero threshold stops at nothing: even a = 0 runs to the cap.
            with pytest.raises(NonConvergentBase):
                qpoch_infinite(0, mpf("0.5"), 0)
            # Nothing compares >= nan, so a nan threshold stops at once.
            for base in (mpf("0.5"), mpc("0.5", "0.5")):
                got = qpoch_infinite(mpf("0.5"), base, mpf("nan"))
                want = qpoch_infinite_loop(mpf("0.5"), base, mpf("nan"))
                assert _raw_value(got) == _raw_value(want) == _raw_value(mpf(1))

    def test_cap_matches_object_loop(self, monkeypatch):
        # (0.5; 0.5)_oo at tol 1e-3 multiplies 10 factors: a cap of 10
        # passes it and a cap of 9 does not, as in the object loop.
        assert MAX_FACTORS == qcore._MAX_FACTORS
        a, base, tol = mpf("0.5"), mpf("0.5"), mpf("1e-3")
        for cap, passes in ((10, True), (9, False)):
            monkeypatch.setattr(qcore, "_MAX_FACTORS", cap)
            monkeypatch.setattr(util, "MAX_FACTORS", cap)
            for product in (qpoch_infinite, qpoch_infinite_loop):
                for arg in (a, mpc(a, 0)):
                    if passes:
                        assert product(arg, base, tol) == qpoch_finite(arg, base, 10)
                    else:
                        with pytest.raises(NonConvergentBase):
                            product(arg, base, tol)

    @pytest.mark.parametrize("a", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("complex_base", [False, True])
    def test_special_values(self, monkeypatch, a, complex_base):
        monkeypatch.setattr(qcore, "_MAX_FACTORS", 20)
        monkeypatch.setattr(util, "MAX_FACTORS", 20)
        base = mpc("0.5", "0.25") if complex_base else mpf("0.5")
        outcomes = []
        for product in (qpoch_infinite, qpoch_infinite_loop):
            try:
                outcomes.append(_raw_value(product(mpf(a), base)))
            except NonConvergentBase:
                outcomes.append(NonConvergentBase)
        assert outcomes[0] == outcomes[1]

    def test_estimate_refuses_no_product_the_loop_finishes(self, monkeypatch):
        # (0.5; 0.9)_oo at tol 1e-3 multiplies 81 factors, the first base
        # above 1/2 where the factor count is estimated before the loop.
        # The object loop's factors, and the kernel's for the complex base,
        # are qpoch_finite's; the kernel's real ones are the definition's.
        a, tol = mpf("0.5"), mpf("1e-3")
        for base in (mpf("0.9"), mpc("0.72", "0.54")):
            products = (qpoch_infinite, qpoch_infinite_loop)
            wants = {product: qpoch_finite(a, base, 81) for product in products}
            if isinstance(base, mpf):
                value, factors = util.real_product(a, base, tol)
                assert factors == 81
                wants[qpoch_infinite] = value
            for cap, passes in ((81, True), (80, False), (40, False)):
                monkeypatch.setattr(qcore, "_MAX_FACTORS", cap)
                monkeypatch.setattr(util, "MAX_FACTORS", cap)
                for product in products:
                    if passes:
                        assert product(a, base, tol) == wants[product]
                    else:
                        with pytest.raises(NonConvergentBase):
                            product(a, base, tol)

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_far_past_the_cap_raises_at_once(self, prec):
        # |base| = 1 - 2^-50: about 1e17 factors to reach the tolerance.
        with mp.workprec(prec):
            base = mpc("0.8", "0.6") * (1 - mpf(2) ** -50)
            start = time.perf_counter()
            with pytest.raises(NonConvergentBase, match="did not reach tolerance"):
                qpoch_infinite(mpf("-1.38"), base)
            assert time.perf_counter() - start < 0.1

    def test_nonconvergent_at_the_factor_cap(self):
        base = 1 - mpf(2) ** -30
        with mp.workprec(64):
            with pytest.raises(NonConvergentBase, match="did not reach tolerance"):
                qpoch_infinite(mpf("0.5"), base)


@st.composite
def _fold_factors(draw):
    """(prec, factors): a precision of 53 to 1100 bits and 1 to 12 (op, x)
    pairs, op ``raw_mul`` or ``raw_div`` and x a nonzero real of either
    sign and any exponent, most of them prec bits wide."""
    prec = draw(st.integers(53, 1100))
    factors = []
    for _ in range(draw(st.integers(1, 12))):
        width = draw(st.sampled_from([prec, prec, prec, draw(st.integers(1, prec))]))
        man = draw(st.integers(2 ** (width - 1), 2**width - 1))
        exp = draw(st.integers(-300, 300)) - width
        x = mp.make_mpf(libmp.from_man_exp(-man if draw(st.booleans()) else man, exp))
        factors.append((draw(st.sampled_from([qcore.raw_mul, qcore.raw_div])), x))
    return prec, factors


def _raw_pairs(factors):
    return [(op, value_key(x)) for op, x in factors]


def within_sum_bound(got, values) -> bool:
    """Whether ``got`` is within the bound ``qcore.raw_sum`` states of the
    exact sum of the real ``values`` at the working precision: half an ulp
    of ``got`` plus n 2^-(prec+63) max |v|."""
    exact = sum(map(util._exact, values), Fraction(0))
    largest = max((abs(util._exact(v)) for v in values), default=Fraction(0))
    ulp = Fraction(2) ** (got.man_exp[1] + got.man.bit_length() - mp.prec) if got else 0
    bound = ulp / 2 + len(values) * largest / 2 ** (mp.prec + 63)
    return abs(util._exact(got) - exact) <= bound


class TestRawProduct:
    """``qcore.raw_product`` rounds a product of regular reals once, and
    takes any other product factor by factor in order."""

    @given(_fold_factors())
    @settings(max_examples=400, deadline=None)
    @example((128, [(qcore.raw_mul, mpf(1) / 3)] * 8 + [(qcore.raw_div, mpf(1) / 7)] * 4))
    @example((1024, [(qcore.raw_mul, mpf(1) / 3)] * 12))
    def test_rounds_the_exact_value_once(self, drawn):
        # Against fractions: the exact product rounded to nearest, or its
        # neighbour only where the fold cut a long integer and the exact
        # value lies within the cut's bound of a rounding boundary.
        prec, factors = drawn
        got = qcore.raw_product(_raw_pairs(factors), prec)
        with mp.workprec(prec):
            assert got in [value_key(v) for v in util.fold_values(factors)]

    @pytest.mark.parametrize("prec", [53, 128, 1024])
    @pytest.mark.parametrize(
        "other",
        [
            libmp.fzero,
            libmp.finf,
            libmp.fninf,
            libmp.fnan,
            (libmp.from_float(0.3), libmp.from_float(-0.2)),
        ],
    )
    @pytest.mark.parametrize("at", [0, 2, 5])
    def test_other_values_take_the_sequential_fold(self, prec, other, at):
        # Zero, inf, nan and complex factors: value = op(value, x) from 1, in
        # order, bit for bit, with the other factor or divisor anywhere.
        rng = random.Random(prec + at)
        with mp.workprec(prec):
            factors = [
                (rng.choice([qcore.raw_mul, qcore.raw_div]), mpf(rng.uniform(-3, 3)) / 7)
                for _ in range(5)
            ]
            for op in (qcore.raw_mul, qcore.raw_div):
                drawn = factors[:at] + [(op, from_raw(other))] + factors[at:]
                try:
                    want = value_key(util.fold_in_order(drawn))
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        qcore.raw_product(_raw_pairs(drawn), prec)
                    continue
                assert qcore.raw_product(_raw_pairs(drawn), prec) == want

    def test_empty_product_is_one(self):
        assert qcore.raw_product([], 128) == fone


class TestRawSum:
    """``qcore.raw_sum`` adds real values in fixed point and rounds once."""

    @given(
        st.integers(53, 1100),
        st.lists(
            st.tuples(
                st.integers(-(2**1100), 2**1100), st.integers(-1200, 200)
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_within_the_stated_bound(self, prec, drawn):
        values = [mp.make_mpf(libmp.from_man_exp(man, exp)) for man, exp in drawn]
        with mp.workprec(prec):
            got = from_raw(qcore.raw_sum([value_key(v) for v in values]))
            assert within_sum_bound(got, values)

    @pytest.mark.parametrize("prec", [53, 128, 1024])
    def test_exact_cancellation_is_zero(self, prec):
        rng = random.Random(prec)
        with mp.workprec(prec):
            values = [mpf(rng.uniform(-1, 1)) / 7 for _ in range(6)]
            raw = [value_key(v) for v in values]
            negated = [libmp.mpf_neg(v) for v in raw]
            assert qcore.raw_sum(raw + negated[::-1]) == libmp.fzero
            assert qcore.raw_sum([libmp.fzero] * 3) == libmp.fzero
            assert qcore.raw_sum([]) == libmp.fzero

    @pytest.mark.parametrize("prec", [53, 128, 1024])
    def test_single_value_comes_back(self, prec):
        with mp.workprec(prec):
            value = value_key(-mpf(1) / 3)
            assert qcore.raw_sum([value]) == value
            assert qcore.raw_sum([libmp.fzero, value, libmp.fzero]) == value


class TestThresholdMemo:
    """``qcore._threshold`` is memoised on its raw arguments: it equals the
    libmp formula, keeps no exception and holds a bounded number of
    thresholds."""

    @staticmethod
    def _formula(base, tol, prec):
        """(1 - |base|, tol * (1 - |base|)) by libmp, unmemoised."""
        rnd = mp._prec_rounding[1]
        if len(base) == 4:
            size = libmp.mpf_abs(base, prec, rnd)
        else:
            size = libmp.mpc_abs(base, prec, rnd)
        gap = libmp.mpf_sub(fone, size, prec, rnd)
        return gap, libmp.mpf_mul(tol, gap, prec, rnd)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize("base", ["0.45", "-0.3", "1/3", "0.3+0.4j", "-0.5-0.2j"])
    @pytest.mark.parametrize("tol", ["default", "nan", "negative"])
    def test_equals_the_libmp_formula(self, prec, base, tol):
        with mp.workprec(prec + 64):
            base = mpf(1) / 3 if base == "1/3" else mpmathify(complex(base))
            base = base.real if base.imag == 0 else base
        with mp.workprec(prec):
            tol = {
                "default": default_tol(prec),
                "nan": mpf("nan"),
                "negative": -mpf(1) / 3,
            }[tol]
            raw_base, raw_tol = value_key(base), tol._mpf_
            want = self._formula(raw_base, raw_tol, prec)
            for _ in range(2):  # the second call reads the memo
                got = qcore._threshold(raw_base, raw_tol, prec)
                assert got == want
                assert got == qcore._threshold.__wrapped__(raw_base, raw_tol, prec)
            gap = 1 - abs(base)
            assert want == (gap._mpf_, (tol * gap)._mpf_)

    @pytest.mark.parametrize("base", [mpf(1), mpf(-1), mpf("1.5"), mpc("0.8", "0.6")])
    def test_base_on_or_outside_the_unit_circle_raises_every_time(self, base):
        raw_tol = default_tol(128)._mpf_
        before = qcore._threshold.cache_info()
        for _ in range(3):
            with pytest.raises(NonConvergentBase):
                qcore._threshold(value_key(base), raw_tol, 128)
        after = qcore._threshold.cache_info()
        assert after.misses - before.misses == 3 and after.hits == before.hits

    def test_memo_is_bounded(self):
        maxsize = qcore._threshold.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 10_000


@pytest.fixture
def computed(monkeypatch):
    """The (a, base) of every infinite product the kernel computes."""
    calls = []
    raw = qcore.qpoch_infinite

    def counted(a, base, tol=None):
        calls.append((a, base))
        return raw(a, base, tol)

    monkeypatch.setattr(qcore, "qpoch_infinite", counted)
    return calls


class TestEmptyProducts:
    """``PochCache.infinite`` returns libmp's ``fone`` for a real product
    whose first factor is below the threshold by magnitude, without
    computing it; every other input takes ``qpoch_infinite``."""

    @staticmethod
    def _threshold(cache, base):
        """tol * (1 - |base|) as ``qpoch_infinite`` forms it, and its
        mantissa and exponent scaled to exactly ``prec`` bits."""
        with mp.workprec(cache.prec):
            threshold = cache.tol * (1 - abs(base))
        man, exp = threshold.man_exp
        shift = cache.prec - man.bit_length()
        return threshold, man << shift, exp - shift

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_edges_match_the_object_loop(self, computed, prec):
        cache = PochCache(prec)
        with mp.workprec(prec):
            base = mpf(1) / 3
        threshold, man, exp = self._threshold(cache, base)
        # (a, whether it takes the shortcut), each held exactly.
        with mp.workprec(prec + 64):
            top = mpf(2) ** (exp + prec - 1)  # smallest a of the threshold's magnitude
            below = mpf(((1 << prec) - 1, exp - 1))  # the largest a under it
            cases = [
                (threshold, False),
                (mpf((man + 1, exp)), False),  # one ulp above
                (mpf((man - 1, exp)), False),  # one ulp below, same magnitude
                (top, False),  # a magnitude tie below the threshold
                (below, True),
                (-below, True),
                (top / 1024, True),
                (top * (1 - mpf(2) ** -(prec + 40)), False),  # more than prec bits
                (mpf(0), False),
                (mpc(top / 4, top / 4), False),
            ]
        for a, shortcut in cases:
            computed.clear()
            key = (qcore.value_key(a), qcore.value_key(base))
            got = cache.infinite(*key)
            with mp.workprec(prec):
                want = qpoch_infinite_ref(a, base, cache.tol)
            assert _raw_value(from_raw(got)) == _raw_value(want), a
            if shortcut:
                assert got is fone and not computed
            else:
                assert len(computed) == 1
        # At the magnitude tie and one ulp below, the product is empty too.
        tie = _infinite(cache, top, base)
        assert tie == _infinite(cache, cases[2][0], base) == 1

    def test_complex_base_takes_the_kernel(self, computed):
        cache = PochCache(128)
        base = mpc("0.25", "0.25")
        a = mpf(2) ** -200
        assert _infinite(cache, a, base) == 1
        assert len(computed) == 1

    @pytest.mark.parametrize("tol", [mpf(0), mpf(-1)])
    def test_threshold_not_positive(self, monkeypatch, computed, tol):
        # No threshold to fall below: even a tiny a runs to the factor cap,
        # as in the object loop.
        monkeypatch.setattr(qcore, "_MAX_FACTORS", 1000)
        monkeypatch.setattr(util, "MAX_FACTORS", 1000)
        cache = PochCache(128, tol)
        a, base = mpf(2) ** -300, mpf("0.5")
        for product in (
            lambda a, base: _infinite(cache, a, base),
            lambda a, base: qpoch_infinite_loop(a, base, tol),
        ):
            with pytest.raises(NonConvergentBase):
                product(a, base)
        assert len(computed) == 1

    @pytest.mark.parametrize("tol", [None, mpf(-1)])
    @pytest.mark.parametrize("base", [mpf(1), mpf(-1), mpf("1.5"), mpc("0.8", "0.6")])
    def test_base_on_or_outside_the_unit_circle_raises(self, computed, base, tol):
        # With tol < 0, tol * (1 - |base|) is positive for |base| > 1.
        cache = PochCache(128, tol)
        for _ in range(2):
            with pytest.raises(NonConvergentBase):
                _infinite(cache, mpf(2) ** -400, base)
        assert len(computed) == 2


def _outcome(product, *args):
    """The raw value of ``product(*args)``, or the type and message of the
    exception it raised."""
    try:
        return _raw_value(product(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


class TestRawEntry:
    """``qpoch_infinite`` converts its arguments once and runs on raw values
    from there; its values and exceptions are those of its definition
    (``qpoch_infinite_ref``: the loop on mpf objects for complex products),
    bit for bit, whatever types it is given.  ``PochCache.infinite``
    computes at the cache precision under any ambient precision, on
    arguments read at the cache precision."""

    arguments = [mpf("0.3"), 3, -0.7, "0.3", mpc("0.3", "-0.2")]
    bases = [mpf("0.45"), 0, -0.45, "0.45", mpc("0.3", "0.3")]

    @pytest.mark.parametrize("tol", [None, mpf("1e-20"), 1e-20, 0, -1, float("nan")])
    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_types_and_tolerances_match_the_object_loop(self, monkeypatch, prec, tol):
        if tol in (0, -1):
            # No positive threshold: every product runs to the factor cap.
            monkeypatch.setattr(qcore, "_MAX_FACTORS", 300)
            monkeypatch.setattr(util, "MAX_FACTORS", 300)
        with mp.workprec(prec):
            for a in self.arguments:
                for base in self.bases:
                    want = _outcome(qpoch_infinite_ref, a, base, tol)
                    assert _outcome(qpoch_infinite, a, base, tol) == want, (a, base)

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    @pytest.mark.parametrize(
        "base", [mpf(1), 1, -1, 2, 1.5, "-1", mpc("0.8", "0.6"), mpf(1) + mpf(2) ** -60]
    )
    def test_base_on_or_outside_the_unit_circle(self, prec, base):
        with mp.workprec(prec):
            for tol in (None, -1):
                want = _outcome(qpoch_infinite_loop, mpf("0.3"), base, tol)
                assert want[0] is NonConvergentBase
                assert _outcome(qpoch_infinite, mpf("0.3"), base, tol) == want

    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_first_factor_at_the_rounded_threshold(self, prec):
        # tol held at more bits than prec: tol * (1 - |base|) rounded at any
        # other precision moves the threshold off a, or off a's neighbours.
        with mp.workprec(prec + 64):
            tol = mpf(1) / 3
        base = mpf("-0.4")
        with mp.workprec(prec):
            threshold = tol * (1 - abs(base))
            ulp = mpf(2) ** (threshold.exp)
            for a in (threshold - ulp, threshold, threshold + ulp):
                for arg in (a, -a):
                    want = _raw_value(qpoch_infinite_ref(arg, base, tol))
                    assert _raw_value(qpoch_infinite(arg, base, tol)) == want, arg

    @pytest.mark.parametrize("ambient", [53, 128])
    @pytest.mark.parametrize("prec", [64, 128, 1024])
    def test_cache_under_another_ambient_precision(self, prec, ambient):
        cache = PochCache(prec)
        # Ints, floats and strings too, read at the cache's precision
        # (``_infinite``), so a string and the mpf of another precision that
        # it reads as at the ambient one get their own products.
        cases = [(a, base) for a in self.arguments for base in self.bases]
        cases += [(mpf("0.3"), mpf(1)), (mpf("0.3"), mpc("0.8", "0.6"))]
        with mp.workprec(prec):
            wanted = [
                _outcome(qpoch_infinite_ref, a, base, cache.tol) for a, base in cases
            ]
        with mp.workprec(ambient):
            for (a, base), want in zip(cases, wanted):
                assert _outcome(_infinite, cache, a, base) == want, (a, base)
                assert mp.prec == ambient

    @pytest.mark.parametrize("first", ["string", "mpf", "float"])
    def test_cache_reads_a_string_at_its_own_precision(self, first):
        # Under ambient 53 bits, "0.45" and mpf("0.45") are different
        # numbers at a 128-bit cache; in either order each gets its own
        # product.
        cache = PochCache(128)
        a = mpf("0.3")
        with mp.workprec(53):
            base = {"string": "0.45", "mpf": mpf("0.45"), "float": 0.45}
        with mp.workprec(128):
            want = {
                name: _outcome(qpoch_infinite_ref, a, value, cache.tol)
                for name, value in base.items()
            }
        assert want["mpf"] == want["float"] != want["string"]
        order = [first] + [name for name in base if name != first]
        with mp.workprec(53):
            for name in order:
                assert _outcome(_infinite, cache, a, base[name]) == want[name], name


# -- integer paths of the raw operations ---------------------------------------

_NEAREST = libmp.round_nearest
_EDGE_PRECISIONS = [2, 53, 64, 128, 1024, 1100]
_BINARY = {
    "mul": (qcore.raw_mul, libmp.mpf_mul),
    "div": (qcore.raw_div, libmp.mpf_div),
    "add": (qcore.raw_add, libmp.mpf_add),
}


def _libmp_one_minus(x, prec, rnd):
    return libmp.mpf_sub(fone, x, prec, rnd)


def _raw(man: int, exp: int = 0) -> tuple:
    """The canonical raw mpf man 2^exp, unrounded."""
    return libmp.from_man_exp(man, exp)


def _tuple_or_error(function, *args):
    """The raw tuple ``function(*args)`` returns, or the type of the
    exception it raises."""
    try:
        value = function(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc)
    assert isinstance(value, tuple)
    return value


def _same_outcome(ours, theirs, *args):
    """``ours(*args)`` and the libmp ``theirs(*args, round_nearest)`` return
    the same tuple or raise the same exception type."""
    want = _tuple_or_error(theirs, *args, _NEAREST)
    assert _tuple_or_error(ours, *args) == want, args


def _agree_binary(x, y, prec):
    for ours, theirs in _BINARY.values():
        _same_outcome(ours, theirs, x, y, prec)
        _same_outcome(ours, theirs, y, x, prec)


def _agree_unary(x, prec, powers=(-3, -2, -1, 0, 1, 2, 3, 7, 8)):
    _same_outcome(qcore._one_minus, _libmp_one_minus, x, prec)
    for n in powers:
        _same_outcome(qcore._pow_int, libmp.mpf_pow_int, x, n, prec)


@st.composite
def _regular_operands(draw):
    """(prec, x, y): two regular raw reals of 1 to 3 prec + 8 bits, signed,
    with exponents near each other or far apart."""
    prec = draw(st.sampled_from(_EDGE_PRECISIONS) | st.integers(2, 1200))

    def operand():
        bits = draw(st.integers(1, 3 * prec + 8))
        man = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        exp = draw(st.integers(-8, 8) | st.integers(-3 * prec, 3 * prec))
        return _raw(-man if draw(st.booleans()) else man, exp)

    return prec, operand(), operand()


def _seeded_operand(rng, prec: int) -> tuple:
    """A regular raw real of a few bits, about prec bits, 2 prec bits or
    up to 3 prec + 8 bits, sometimes all ones (so that it rounds up)."""
    widest = rng.randint(1, 3 * prec + 8)
    bits = rng.choice([1, 2, 3, prec - 1, prec, prec + 1, 2 * prec, widest])
    man = rng.getrandbits(bits) | 1 << (bits - 1)
    if rng.random() < 0.1:
        man = (1 << bits) - 1
    exp = rng.randint(-8, 8) if rng.random() < 0.6 else rng.randint(-3 * prec, 3 * prec)
    return _raw(-man if rng.random() < 0.5 else man, exp)


class TestIntegerArithmetic:
    """``raw_mul``, ``raw_div``, ``raw_add``, ``_one_minus`` and ``_pow_int``
    take two regular reals on integers, rounded to nearest by
    ``_round``; each must return the tuple of the libmp function it
    replaces, which the other operands still reach."""

    @settings(max_examples=300, deadline=None)
    @given(_regular_operands())
    def test_random_operands_match_libmp(self, args):
        prec, x, y = args
        _agree_binary(x, y, prec)
        _agree_unary(x, prec)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_operands_match_libmp(self, seed):
        # y is sometimes x plus a few low bits, so that x - y cancels.
        rng = random.Random(seed)
        for _ in range(1500):
            prec = rng.choice(_EDGE_PRECISIONS + [rng.randint(2, 1200)])
            x, y = _seeded_operand(rng, prec), _seeded_operand(rng, prec)
            if rng.random() < 0.3:
                near = _raw(rng.choice([1, -1]) * rng.getrandbits(8), x[2] + rng.randint(-4, 4))
                y = libmp.mpf_sub(x, near) if near[1] else x
            _agree_binary(x, y, prec)
            _agree_unary(x, prec, powers=(rng.randint(-40, 40),))

    @pytest.mark.parametrize("prec", _EDGE_PRECISIONS)
    @pytest.mark.parametrize("sign", [0, 1])
    def test_ties_round_to_even(self, prec, sign):
        # M = 2k + 1 of prec + 1 bits lies halfway between 2k and 2k + 2:
        # it rounds to 2k for an even k and to 2k + 2 for an odd one.  Every
        # operation meets the tie: M * 1, M / 2^3, 2k + 1 and 1 - (-2k), M^1.
        s = (-1) ** sign
        for k in (2 ** (prec - 1), 2 ** (prec - 1) + 1):
            m = 2 * k + 1
            want = _raw(s * (2 * k + 2 * (k & 1)))
            tie = _raw(s * m)
            assert qcore.raw_mul(tie, fone, prec) == want
            assert qcore.raw_div(_raw(s * m, 3), _raw(1, 3), prec) == want
            assert qcore.raw_add(_raw(s * 2 * k), _raw(s), prec) == want
            assert qcore._pow_int(tie, 1, prec) == want
            if not sign:
                assert qcore._one_minus(_raw(-2 * k), prec) == want
            _agree_binary(tie, fone, prec)
            _agree_unary(tie, prec)

    @pytest.mark.parametrize("prec", _EDGE_PRECISIONS)
    @pytest.mark.parametrize("sign", [0, 1])
    def test_round_up_to_a_power_of_two(self, prec, sign):
        # prec + 1 ones round up to 2^(prec + 1): mantissa 1, bit count 1.
        ones = _raw((-1) ** sign * (2 ** (prec + 1) - 1), -5)
        want = (sign, 1, prec - 4, 1)
        assert qcore.raw_mul(ones, fone, prec) == want
        assert qcore.raw_div(ones, fone, prec) == want
        assert qcore.raw_add(ones, _raw((-1) ** sign, -7), prec) == want
        assert qcore._pow_int(ones, 1, prec) == want
        _agree_binary(ones, _raw(3, 7), prec)
        _agree_unary(ones, prec)

    @pytest.mark.parametrize("prec", _EDGE_PRECISIONS)
    def test_cancellation_gives_fzero(self, prec):
        for x in (_raw(3), _raw(-(2**prec - 1), -prec), _raw(2 ** (2 * prec) + 1, 17)):
            negative = libmp.mpf_neg(x)
            assert qcore.raw_add(x, negative, prec) == libmp.fzero
            assert qcore.raw_add(negative, x, prec) == libmp.fzero
        assert qcore._one_minus(fone, prec) == libmp.fzero

    @pytest.mark.parametrize("prec", _EDGE_PRECISIONS)
    @pytest.mark.parametrize("ysign", [1, -1])
    def test_exponent_gaps(self, prec, ysign):
        # Exponents 99, 100 and 101 apart, and the small operand more than
        # prec + 4 bits below the large one: beyond 100 and prec + 4 bits,
        # libmp perturbs the large mantissa towards the small one's sign.
        # A large mantissa of prec + 1 bits ending in 1 is a tie, which the
        # perturbation's sign decides.
        for xman in (1, 3, 2**70 + 1, 2**prec + 1, 2**prec + 3):
            for gap in (99, 100, 101, prec + 5, prec + 106, 3 * prec + 200):
                for yman in (1, 5, 2**prec + 1):
                    x, y = _raw(xman, gap), _raw(ysign * yman)
                    _agree_binary(x, y, prec)
                    _agree_binary(libmp.mpf_neg(x), y, prec)
                    tiny = _raw(ysign * yman, -gap)
                    _same_outcome(qcore._one_minus, _libmp_one_minus, tiny, prec)

    @pytest.mark.parametrize("prec", _EDGE_PRECISIONS)
    def test_divisor_a_power_of_two(self, prec):
        for x in (_raw(3), _raw(-(2 ** (prec + 3) - 1), 9), _raw(2 ** (2 * prec) + 1)):
            for e in (-70, 0, 1, 70):
                _same_outcome(qcore.raw_div, libmp.mpf_div, x, _raw(1, e), prec)
                _same_outcome(qcore.raw_div, libmp.mpf_div, x, _raw(-1, e), prec)

    @pytest.mark.parametrize("prec", _EDGE_PRECISIONS)
    def test_zero_divisor_raises(self, prec):
        for x in (_raw(3), libmp.fzero, _raw(-(2 ** (prec + 3) - 1), 9)):
            with pytest.raises(ZeroDivisionError):
                qcore.raw_div(x, libmp.fzero, prec)

    @pytest.mark.parametrize("prec", _EDGE_PRECISIONS)
    def test_integer_powers(self, prec):
        # n = 1000 and 5047 run libmp's truncating binary powering for every
        # mantissa but 1; n < 0 divides 1 by the power at prec + 5 bits.
        powers = tuple(range(-3, 4)) + (7, 8, 1000, 5047, -1000)
        for man in (1, -1, 3, -5, 2**prec - 1, 2**prec + 1, 3**40, 2 ** (2 * prec) - 1):
            for exp in (-3, 0, 2):
                _agree_unary(_raw(man, exp), prec, powers=powers)

    SPECIAL = [libmp.fzero, libmp.finf, libmp.fninf, libmp.fnan]

    @pytest.mark.parametrize("prec", [2, 128])
    def test_special_operands_reach_libmp(self, monkeypatch, prec):
        # Zeros, inf and nan: each call goes to the libmp function, which
        # gives the result.
        reached = []

        def recorded(name):
            function = getattr(qcore, name)

            def call(*args):
                reached.append(name)
                return function(*args)

            return call

        names = ("mpf_mul", "mpf_div", "mpf_add", "mpf_sub", "mpf_pow_int")
        for name in names:
            monkeypatch.setattr(qcore, name, recorded(name))
        regular = [_raw(3, -2), _raw(-(2**prec + 1), 5)]
        cases = [(x, y) for x in self.SPECIAL for y in self.SPECIAL + regular]
        cases += [(y, x) for x in self.SPECIAL for y in regular]
        for x, y in cases:
            for name, (ours, theirs) in _BINARY.items():
                del reached[:]
                _same_outcome(ours, theirs, x, y, prec)
                assert reached == ["mpf_" + name], (name, x, y)
        for x in self.SPECIAL:
            del reached[:]
            _same_outcome(qcore._one_minus, _libmp_one_minus, x, prec)
            assert reached == ["mpf_sub"]
            for n in (-2, 0, 1, 3, 1000):
                del reached[:]
                _same_outcome(qcore._pow_int, libmp.mpf_pow_int, x, n, prec)
                assert reached == ["mpf_pow_int"], (x, n)

    def test_sides_reach_libmp_for_no_ordinary_real_operation(self, monkeypatch):
        # Both sides of three families that run every layer on reals: block
        # summands, sq_ratio and the Vandermonde factor, Heine couplings with
        # shared cross bases, inner sums and integer powers, the shell sums
        # and the product kernel.  qcore's libmp names are counted; an
        # ordinary operation (regular operands at round-to-nearest) must
        # take the integer path.
        calls, ordinary = [], []

        def counted(name):
            function = getattr(qcore, name)

            def call(*args):
                calls.append(name)
                operands = [a for a in args if isinstance(a, tuple)]
                if args[-1] == _NEAREST and all(a[1] for a in operands):
                    ordinary.append((name, args))
                return function(*args)

            return call

        for name in ("mpf_mul", "mpf_div", "mpf_add", "mpf_sub", "mpf_pow_int"):
            monkeypatch.setattr(qcore, name, counted(name))
        # The counters are in place: a zero reaches libmp, not as ordinary.
        assert qcore.raw_mul(libmp.fzero, fone, 128) == libmp.fzero
        assert calls == ["mpf_mul"] and ordinary == []
        cases = [
            ("thm_heine7", {"n": 2, "m": 2}),
            ("qlauricella_bibasic", {"p": 3}),
            ("ram_1_4_10_c", {"n": 1, "m": 2}),
        ]
        for family_id, dims in cases:
            identity = catalog.lookup(family_id).instantiate(dims)
            [ctx] = catalog.sample_domain(identity, seed=3, count=1)
            for side in (identity.lhs, identity.rhs):
                value, diag = evaluate_in_context(side, ctx)
                assert value != 0 and diag.terms, family_id
        assert ordinary == []


class TestRoundingMode:
    """qcore rounds to nearest and takes no rounding argument, because
    mpmath holds round-to-nearest in ``mp._prec_rounding`` and nothing
    changes it.  An mpmath that adds rounding modes fails here first."""

    def test_context_rounds_to_nearest(self):
        assert mp._prec_rounding[1] == libmp.round_nearest

    def test_assigning_rounding_leaves_the_context(self):
        saved = list(mp._prec_rounding)
        try:
            mp.rounding = "d"
            assert mp._prec_rounding == saved
        finally:
            vars(mp).pop("rounding", None)
            mp._prec_rounding[:] = saved
