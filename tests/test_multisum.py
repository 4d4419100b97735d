import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qheine import (
    BaseSystem,
    DegenerateVariables,
    DomainViolation,
    PoleEncountered,
    SeriesSide,
    TruncationNotConverged,
    TruncationPolicy,
    enumerate_shell,
    evaluate,
    qpoch_infinite,
    vandermonde_factor,
    vandermonde_ratio,
)
from qheine.catalog.core import staircase
from util import rel


class TestShells:
    def test_examples(self):
        assert enumerate_shell(1, 5) == [(5,)]
        assert enumerate_shell(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert len(enumerate_shell(3, 4)) == 15

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_shells_partition_the_simplex(self, n, cap):
        seen = []
        for w in range(cap + 1):
            shell = enumerate_shell(n, w)
            assert len(shell) == math.comb(w + n - 1, n - 1)
            assert shell == sorted(shell)
            assert all(sum(k) == w and min(k) >= 0 for k in shell)
            seen.extend(shell)
        expected = [
            k for k in itertools.product(range(cap + 1), repeat=n) if sum(k) <= cap
        ]
        assert sorted(seen) == sorted(expected)


class TestVandermonde:
    def test_single_variable(self):
        assert vandermonde_factor((mpf(1),), (3,), mpf("0.5")) == 1
        assert vandermonde_ratio((mpf(1),), (3,), mpf("0.5")) == 1

    def test_zero_index(self):
        x = (mpf(1), mpf("0.5"))
        assert rel(vandermonde_factor(x, (0, 0), mpf("0.3")), mpf(1)) < mpf("1e-35")

    def test_single_step_example(self):
        x = (mpf(1), mpf("0.5"))
        assert rel(vandermonde_factor(x, (1, 0), mpf("0.3")), mpf("-0.4")) < mpf(
            "1e-35"
        )

    def test_degenerate_variables(self):
        with pytest.raises(DegenerateVariables):
            vandermonde_factor((mpf(1), mpf(1)), (1, 0), mpf("0.3"))
        with pytest.raises(DegenerateVariables):
            vandermonde_ratio((mpf(1), mpf(1)), (1, 0), mpf("0.3"))

    @given(
        st.lists(
            st.integers(min_value=0, max_value=6), min_size=2, max_size=3
        ),
        st.floats(min_value=0.1, max_value=0.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_swap_invariance(self, k, step):
        n = len(k)
        x = tuple(mpf(1) + mpf(i) / 3 for i in range(n))
        step = mpf(step)
        base_value = vandermonde_factor(x, tuple(k), step)
        swapped_x = (x[1], x[0]) + x[2:]
        swapped_k = (k[1], k[0]) + tuple(k[2:])
        assert rel(
            vandermonde_factor(swapped_x, swapped_k, step), base_value
        ) < mpf("1e-30")

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
        st.floats(min_value=0.1, max_value=0.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_factor_vs_ratio_convention(self, k, step):
        n = len(k)
        x = tuple(mpf(1) + mpf(i) / 4 for i in range(n))
        step = mpf(step)
        factor = vandermonde_factor(x, tuple(k), step)
        ratio = vandermonde_ratio(x, tuple(k), step)
        assert rel(factor, ratio * step ** staircase(tuple(k))) < mpf("1e-30")

    def test_cancelling_pair(self):
        # S^{-1} x_1/x_2 = 0.8/0.7999999999999999 leaves about 2e-16 of the
        # pair numerator: both forms must still be accurate to the last bits.
        x = (mpf(1), mpf("1.25"))
        step = mpf(0.7999999999999999)
        with mp.workprec(400):
            exact = vandermonde_factor(x, (2, 3), step)
        assert rel(vandermonde_factor(x, (2, 3), step), exact) < mpf("1e-36")
        ratio = vandermonde_ratio(x, (2, 3), step) * step**3
        assert rel(ratio, exact) < mpf("1e-36")


def _geometric_side(dimension):
    def term(ctx, k):
        value = mpf(1)
        for i, ki in enumerate(k):
            value *= ctx.params[f"z{i}"] ** ki
        return value

    return SeriesSide(dimension, term)


class TestEvaluate:
    def test_geometric_series(self):
        bases = BaseSystem(mpf("0.5"))
        policy = TruncationPolicy(max_shell_weight=140, tail_ratio_tol=1e-30)
        value, diag = evaluate(_geometric_side(1), {"z0": mpf("0.5")}, bases, policy)
        assert rel(value, mpf(2)) < mpf("1e-25")
        assert diag.converged

    def test_two_dimensional_product(self):
        bases = BaseSystem(mpf("0.5"))
        policy = TruncationPolicy(max_shell_weight=175, tail_ratio_tol=1e-30)
        value, _ = evaluate(
            _geometric_side(2), {"z0": mpf("0.5"), "z1": mpf("0.5")}, bases, policy
        )
        assert rel(value, mpf(4)) < mpf("1e-25")

    def test_q_binomial_sum_against_product_oracle(self):
        q, a, z = mpf("0.5"), mpf("0.2"), mpf("0.3")
        bases = BaseSystem(q)

        def term(ctx, k):
            P = ctx.poch
            return P.finite(a, q, k[0]) / P.finite(q, q, k[0]) * z ** k[0]

        value, _ = evaluate(
            SeriesSide(1, term), {}, bases, TruncationPolicy(max_shell_weight=90)
        )
        oracle = qpoch_infinite(a * z, q) / qpoch_infinite(z, q)
        assert rel(value, oracle) < mpf("1e-25")

    def test_domain_violation(self):
        bases = BaseSystem(mpf("0.5"))
        side = SeriesSide(1, lambda ctx, k: mpf(0), domain=lambda ctx: False)
        with pytest.raises(DomainViolation):
            evaluate(side, {}, bases)

    def test_pole_encountered(self):
        bases = BaseSystem(mpf("0.5"))

        def term(ctx, k):
            return mpf(1) / (k[0] - 1)

        with pytest.raises(PoleEncountered):
            evaluate(SeriesSide(1, term), {}, bases)

    def test_truncation_warning(self):
        bases = BaseSystem(mpf("0.5"))
        policy = TruncationPolicy(max_shell_weight=10)
        with pytest.warns(TruncationNotConverged):
            value, diag = evaluate(
                _geometric_side(1), {"z0": mpf("0.9")}, bases, policy
            )
        assert not diag.converged

    def test_monotone_stability(self):
        bases = BaseSystem(mpf("0.5"))
        params = {"z0": mpf("0.4"), "z1": mpf("0.35")}
        side = _geometric_side(2)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationNotConverged)
            short, diag_short = evaluate(
                side, params, bases, TruncationPolicy(max_shell_weight=25)
            )
            long, _ = evaluate(
                side, params, bases, TruncationPolicy(max_shell_weight=50)
            )
        assert abs(long - short) <= diag_short.tail_bound

    def test_product_side_dimension_zero(self):
        bases = BaseSystem(mpf("0.5"))
        side = SeriesSide(0, prefactor=lambda ctx: mpf("2.5"))
        value, diag = evaluate(side, {}, bases)
        assert value == mpf("2.5")
        assert diag.shells == 0
