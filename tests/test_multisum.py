import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from qheine import (
    BaseSystem,
    DegenerateVariables,
    DivisionByZero,
    PoleEncountered,
    SeriesSide,
    TruncationNotConverged,
    TruncationPolicy,
    enumerate_shell,
    evaluate_in_context,
    make_context,
    qpoch_infinite,
    vandermonde_ratio,
)
from qheine import catalog, cli, qcore
from qheine.catalog.blocks import sample_block
from qheine.catalog.classical import qbin_product, qbin_summation
from qheine.multisum import HeineBlock, heine_sides, plan_term
from qheine.qcore import PochCache, from_raw, raw_div, raw_mul, value_key
from qheine.catalog.core import staircase
from util import (
    Objects,
    evaluate,
    fold_once,
    raw_terms,
    rel,
    sample_points,
    vandermonde_factor,
    vandermonde_ratio_loop,
)


def _vratio(x, k, step, cache):
    """``vandermonde_ratio`` read as an object."""
    return from_raw(vandermonde_ratio(x, k, step, cache))


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
        assert _vratio((mpf(1),), (3,), mpf("0.5"), PochCache(128)) == 1

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
            _vratio((mpf(1), mpf(1)), (1, 0), mpf("0.3"), PochCache(128))

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
        ratio = _vratio(x, tuple(k), step, PochCache(mp.prec))
        assert rel(factor, ratio * step ** staircase(tuple(k))) < mpf("1e-30")

    def test_cancelling_pair(self):
        # S^{-1} x_1/x_2 = 0.8/0.7999999999999999 leaves about 2e-16 of the
        # pair numerator: both forms must still be accurate to the last bits.
        x = (mpf(1), mpf("1.25"))
        step = mpf(0.7999999999999999)
        with mp.workprec(400):
            exact = vandermonde_factor(x, (2, 3), step)
        assert rel(vandermonde_factor(x, (2, 3), step), exact) < mpf("1e-36")
        ratio = _vratio(x, (2, 3), step, PochCache(mp.prec)) * step**3
        assert rel(ratio, exact) < mpf("1e-36")



def _bits(value):
    return (type(value), value._mpc_ if isinstance(value, mpc) else value._mpf_)


@st.composite
def _vandermonde_points(draw):
    """(x, step, ks): 1 to 4 distinct variables, real or complex, a real or
    complex step, and indices drawn from a small range, so that shifts
    repeat within and across the ks."""
    n = draw(st.integers(min_value=1, max_value=4))
    complex_x = draw(st.booleans())
    real = st.integers(min_value=-30, max_value=40)
    imag = st.integers(min_value=-40, max_value=40)
    coords = draw(
        st.lists(
            st.tuples(real, imag), min_size=n, max_size=n, unique_by=lambda c: c[0]
        )
    )
    x = tuple(
        mpc(1 + mpf(a) / 37, mpf(b) / 41) if complex_x else 1 + mpf(a) / 37
        for a, b in coords
    )
    step = draw(st.sampled_from([mpf("0.3"), mpf(1) / 3, mpc("0.4", "-0.25")]))
    index = st.tuples(*[st.integers(min_value=0, max_value=5)] * n)
    ks = draw(st.lists(index, min_size=1, max_size=8))
    return x, step, ks


class TestCachedVandermonde:
    """``vandermonde_ratio`` keeps each pair's factor in the run's cache
    under its shift; every value must be the uncached loop's, bit for bit."""

    @given(_vandermonde_points())
    @settings(max_examples=60, deadline=None)
    def test_matches_uncached_loop(self, point):
        x, step, ks = point
        cache = PochCache(128)
        for _ in range(2):  # the second pass reads the cached factors
            for k in ks:
                value = _vratio(x, k, step, cache)
                assert _bits(value) == _bits(vandermonde_ratio_loop(x, k, step))

    @given(_vandermonde_points(), _vandermonde_points())
    @settings(max_examples=40, deadline=None)
    def test_sides_sharing_a_cache(self, lhs, rhs):
        # Two sides' variables and steps, asked for in turn from one cache,
        # and the lhs variables with the rhs step.
        cache = PochCache(128)
        x, step, ks = lhs
        y, other_step, js = rhs
        requests = [(x, step, k) for k in ks] + [(y, other_step, j) for j in js]
        requests += [(x, other_step, k) for k in ks]
        for _ in range(2):
            for v, s, k in requests:
                assert _bits(_vratio(v, k, s, cache)) == _bits(
                    vandermonde_ratio_loop(v, k, s)
                )

    @pytest.mark.parametrize(
        "x, step, k",
        [
            # S^{-1} x_1/x_2 = 0.8/0.7999999999999999: the numerator cancels.
            ((mpf(1), mpf("1.25")), mpf(0.7999999999999999), (2, 3)),
            # x_1/x_2 within 2^-20 of 1: the denominator cancels.
            ((mpf(1), 1 + mpf(2) ** -20, mpf("1.5")), mpf("0.5"), (1, 1, 0)),
        ],
    )
    def test_cancelling_pair_goes_through_exact_pair(self, x, step, k):
        cache = PochCache(128)
        for _ in range(2):
            value = _vratio(x, k, step, cache)
            assert _bits(value) == _bits(vandermonde_ratio_loop(x, k, step))
        with mp.workprec(400):
            exact = vandermonde_ratio_loop(x, k, step)
        assert rel(value, exact) < mpf("1e-36")

    def test_single_variable_needs_no_table(self):
        cache = PochCache(128)
        assert _vratio((mpf("0.7"),), (4,), mpf("0.5"), cache) == 1
        assert not cache._tables

    def test_factors_at_the_cache_precision(self):
        x, step = (mpf(1) / 3, mpf(5) / 7, mpf(9) / 11), mpf(2) / 9
        cache = PochCache(256)
        with mp.workprec(256):
            expected = vandermonde_ratio_loop(x, (3, 0, 2), step)
        value = _vratio(x, (3, 0, 2), step, cache)
        assert _bits(value) == _bits(expected)

    def test_caches_do_not_share_tables(self):
        # The same objects asked for in two runs at different precisions:
        # each run reads its own tables.
        x, step = (mpf(1) / 3, mpf(5) / 7), mpf(2) / 9
        runs = [(prec, PochCache(prec)) for prec in (128, 256, 128)]
        for _ in range(2):
            for prec, cache in runs:
                for k in ((3, 0), (0, 2), (4, 1)):
                    with mp.workprec(prec):
                        expected = vandermonde_ratio_loop(x, k, step)
                        value = _vratio(x, k, step, cache)
                    assert _bits(value) == _bits(expected)


class TestReimport:
    def test_old_classes_are_freed(self):
        # Importing the package again must leave nothing of the first import
        # alive: no typing cache may hold its classes.
        script = textwrap.dedent(
            """
            import gc, importlib, sys, weakref

            def load():
                for name in [n for n in sys.modules if n.split(".")[0] == "qheine"]:
                    del sys.modules[name]
                importlib.import_module("qheine.cli")

            load()
            old = [
                weakref.ref(sys.modules[module].__dict__[name])
                for module, name in [
                    ("qheine.multisum", "EvalContext"),
                    ("qheine.qcore", "PochCache"),
                    ("qheine.multisum", "Summation"),
                    ("qheine.heine_engine", "HCheckResult"),
                ]
            ]
            load()
            gc.collect()
            print([ref() is None for ref in old])
            """
        )
        src = str(Path(qcore.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert done.stdout.split() == ["[True,", "True,", "True,", "True]"]


def _geometric_side(dimension):
    def term(ctx, k):
        value = mpf(1)
        for i, ki in enumerate(k):
            value *= ctx.params[f"z{i}"] ** ki
        return value

    return SeriesSide(dimension, raw_terms(term))


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
            P = Objects(ctx.poch)
            return P.finite(a, q, k[0]) / P.finite(q, q, k[0]) * z ** k[0]

        value, _ = evaluate(
            SeriesSide(1, raw_terms(term)),
            {},
            bases,
            TruncationPolicy(max_shell_weight=90),
        )
        oracle = qpoch_infinite(a * z, q) / qpoch_infinite(z, q)
        assert rel(value, oracle) < mpf("1e-25")

    def test_pole_encountered(self):
        bases = BaseSystem(mpf("0.5"))

        def term(ctx, k):
            return mpf(1) / (k[0] - 1)

        with pytest.raises(PoleEncountered):
            evaluate(SeriesSide(1, raw_terms(term)), {}, bases)

    def test_pole_inside_a_shell_names_its_index(self):
        # (1, 1) is the middle index of shell 2: the terms before it were
        # computed and the error names (1, 1), not the shell's last index.
        bases = BaseSystem(mpf("0.5"))
        seen = []

        def term(ctx, k):
            seen.append(k)
            return mpf(1) / (k[0] - k[1]) if k[0] == k[1] == 1 else mpf(2) ** -sum(k)

        with pytest.raises(PoleEncountered, match=r"index \(1, 1\)"):
            evaluate(SeriesSide(2, raw_terms(term)), {}, bases)
        assert seen[-2:] == [(0, 2), (1, 1)]

    def test_shell_sums_reach_no_libmp_add(self, monkeypatch):
        # Each shell's sum starts from its first term, which adds nothing
        # to it: a real side of regular terms never calls mpf_add.
        def refused(*args):
            raise AssertionError("a shell sum reached mpf_add")

        monkeypatch.setattr(qcore, "mpf_add", refused)
        identity = catalog.lookup("q_binomial").instantiate()
        bases = BaseSystem(mpf("0.5"))
        params = {"a": mpf("0.3"), "z": mpf("0.25")}
        value, diag = evaluate(identity.lhs, params, bases, identity.policy)
        assert diag.converged and diag.terms == diag.shells > 1
        product, _ = evaluate(identity.rhs, params, bases, identity.policy)
        assert rel(value, product) < mpf("1e-25")

    @pytest.mark.parametrize("prec", [128, 1024])
    def test_poles_of_heine_2phi1(self, prec):
        # c = 4 = q^-2 at q = 1/2: (c; q)_k of the lhs terms is 0 from k = 3
        # on, and (c; q)_oo in the rhs prefactor's denominator is 0.  The lhs
        # divides by the exact zero in the integer raw_div's fallback; the
        # rhs prefactor's ZeroDivisionError is a pole too, not a traceback.
        identity = catalog.lookup("heine_2phi1").instantiate()
        bases = BaseSystem(mpf(1) / 2, 1, 1, prec)
        with mp.workprec(prec):
            params = {"a": mpf("0.3"), "b": mpf("0.25"), "c": mpf(4), "z": mpf("0.2")}
        with pytest.raises(PoleEncountered, match=r"index \(3,\)"):
            evaluate_in_context(identity.lhs, make_context(params, bases))
        with pytest.raises(PoleEncountered, match="prefactor"):
            evaluate_in_context(identity.rhs, make_context(params, bases))

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


def _counted(calls, name, function):
    """``function`` wrapped to count its calls per (name, index)."""

    def counted(ctx, index):
        calls[name, index] += 1
        return function(ctx, index)

    return counted


def _block_parts(complex_values):
    """Three block factors, of sizes 2, 1 and 3, and a coupling of any
    number of group weights, with real or complex values."""
    c = mpc("0.3", "0.2") if complex_values else mpf("0.3")

    def first(ctx, k):
        return c ** sum(k) * (1 + k[0]) / (2 + k[1])

    def second(ctx, k):
        return mpf("0.7") ** k[0] / (1 + k[0])

    def third(ctx, k):
        return Objects(ctx.poch).intpow(mpf("0.45"), 2 * k[0] + k[2]) * (3 - k[1])

    def coupling(ctx, weights):
        return (mpf(1) + weights[0]) / (mpf(2) + weights[-1] * sum(weights) + c)

    return (first, second, third), coupling


# The blocks of ``_block_parts`` grouped as neighbours sharing a cross base
# would be: each alone, or with a neighbour, or all three together.
GROUPINGS = {
    "distinct": ((0,), (1,), (2,)),
    "shared_first": ((0, 1), (2,)),
    "shared_last": ((0,), (1, 2)),
    "shared_all": ((0, 1, 2),),
}


def _plan_side(sizes, parts, coupling, grouping=None):
    """A side summed by block weights: the blocks ``sizes`` and ``parts``,
    grouped by ``grouping`` (index lists; default, each block alone)."""
    grouping = grouping or tuple((r,) for r in range(len(sizes)))
    plan = tuple(tuple((sizes[r], parts[r]) for r in group) for group in grouping)

    def plan_parts(ctx):
        return plan

    return SeriesSide(sum(sizes), plan_term(plan_parts, coupling), parts=plan_parts)


def _per_index(side):
    """``side`` summed index by index, as ``term(ctx, k)`` gives each
    summand: the sum the plan regroups."""
    return replace(side, parts=None)


def _fixed_shells(side, ctx, shells):
    """The side's value and diagnostics summed over exactly ``shells``
    shells."""
    policy = TruncationPolicy(max_shell_weight=shells - 1, tail_ratio_tol=0)
    with pytest.warns(TruncationNotConverged):
        return evaluate_in_context(side, ctx, policy)


class TestBlockTerm:
    """Sides summed by block weights (``SeriesSide.parts``, ``plan_term``):
    shell W is sum_{|S|=W} coupling(S) prod_g sigma_g(S_g), with each
    block's shell sums sigma computed once per evaluation and kept in it."""

    sizes = (2, 1, 3)

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_equals_direct_product(self, complex_values):
        # term(ctx, k) is the summand at k: the coupling at the group
        # weights times each block's part, in block order, rounded once.
        parts, coupling = _block_parts(complex_values)
        ctx = make_context({}, BaseSystem(mpf("0.5")))
        rng = random.Random(7)
        for grouping in GROUPINGS.values():
            side = _plan_side(
                self.sizes,
                list(map(raw_terms, parts)),
                raw_terms(coupling),
                grouping,
            )
            for _ in range(20):
                k = tuple(rng.randint(0, 4) for _ in range(6))
                blocks = (k[:2], k[2:3], k[3:])
                weights = tuple(sum(sum(blocks[r]) for r in g) for g in grouping)
                factors = [(raw_mul, coupling(ctx, weights))]
                factors += [(raw_mul, part(ctx, sub)) for part, sub in zip(parts, blocks)]
                assert from_raw(side.term(ctx, k)) == fold_once(factors)
                assert isinstance(from_raw(side.term(ctx, k)), mpc) == complex_values

    def test_each_part_once_per_sub_index(self):
        # Each part once per sub-index and each coupling once per tuple of
        # group weights, however many indices share them.
        for grouping in GROUPINGS.values():
            calls = Counter()
            parts, coupling = _block_parts(False)
            counted = [
                _counted(calls, r, raw_terms(part)) for r, part in enumerate(parts)
            ]
            coupling = _counted(calls, "c", raw_terms(coupling))
            side = _plan_side(self.sizes, counted, coupling, grouping)
            ctx = make_context({}, BaseSystem(mpf("0.5")))
            _, diag = _fixed_shells(side, ctx, 6)
            indices = [k for w in range(6) for k in enumerate_shell(6, w)]
            expected = set()
            for k in indices:
                blocks = (k[:2], k[2:3], k[3:])
                expected |= {(r, sub) for r, sub in enumerate(blocks)}
                weights = tuple(sum(sum(blocks[r]) for r in g) for g in grouping)
                expected.add(("c", weights))
            assert set(calls) == expected
            assert set(calls.values()) == {1}
            assert diag.terms == len(indices) > len(calls)
            # The shell sums live in the evaluation, not in the run's cache.
            assert ctx.poch.terms == {}

    def test_whole_index_values_are_not_kept(self):
        # One-dimensional blocks: the weight tuple is the whole index, and a
        # summand asked for twice is computed twice.  A side keeps nothing
        # of its parts or couplings in the run's cache.
        calls = Counter()
        parts = (lambda ctx, k: mpf(k[0] + 1), lambda ctx, k: mpf(2) ** k[0])
        parts = tuple(map(raw_terms, parts))
        coupling = raw_terms(lambda ctx, w: mpf(1) / (1 + w[0] + w[1]))
        coupling = _counted(calls, "c", coupling)
        side = _plan_side((1, 1), parts, coupling)
        ctx = make_context({}, BaseSystem(mpf("0.5")))
        for _ in range(2):
            assert from_raw(side.term(ctx, (2, 3))) == mpf(1) / 6 * 3 * 8
        assert calls["c", (2, 3)] == 2
        _fixed_shells(side, ctx, 4)
        assert calls["c", (2, 3)] == 2 and calls["c", (1, 2)] == 1
        assert ctx.poch.terms == {}

    def test_sides_sharing_a_cache_keep_separate_memos(self):
        def side(scale):
            parts = (lambda ctx, k: scale ** sum(k), lambda ctx, k: scale ** k[0])
            coupling = lambda ctx, w: scale + w[0] + w[1]  # noqa: E731
            return _plan_side((2, 1), list(map(raw_terms, parts)), raw_terms(coupling))

        lhs, rhs = side(mpf("0.5")), side(mpf("0.25"))
        bases = BaseSystem(mpf("0.5"))
        ctx = make_context({}, bases)
        policy = TruncationPolicy(max_shell_weight=120, tail_ratio_tol=1e-30)
        shared = (
            evaluate_in_context(lhs, ctx, policy)[0],
            evaluate_in_context(rhs, ctx, policy)[0],
        )
        alone = (
            evaluate_in_context(lhs, make_context({}, bases), policy)[0],
            evaluate_in_context(rhs, make_context({}, bases), policy)[0],
        )
        assert shared == alone
        assert shared[0] != shared[1]

    def test_pole_in_a_part_is_never_cached(self):
        @raw_terms
        def part(ctx, k):
            if k == (1,):
                raise DivisionByZero("pole at k = 1")
            return mpf("0.5") ** k[0]

        one = raw_terms(lambda ctx, w: mpf(1))
        side = _plan_side((1, 1), (part, part), one)
        ctx = make_context({}, BaseSystem(mpf("0.5")))
        for _ in range(2):
            with pytest.raises(PoleEncountered, match=r"index \(1,\) of block 0"):
                evaluate_in_context(side, ctx)
            with pytest.raises(DivisionByZero):
                side.term(ctx, (0, 1))
        assert ctx.poch.terms == {}

    def test_degenerate_variables_propagate(self):
        x = (mpf("1.5"), mpf("1.5"))

        def part(ctx, k):
            return vandermonde_ratio(x, k, ctx.bases.q, ctx.poch)

        one = raw_terms(lambda ctx, k: mpf(1))
        side = _plan_side((2, 1), (part, one), one)
        ctx = make_context({}, BaseSystem(mpf("0.5")))
        for _ in range(2):
            with pytest.raises(DegenerateVariables):
                evaluate_in_context(side, ctx)

    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    @pytest.mark.parametrize("complex_values", [False, True])
    def test_regrouped_equals_the_per_index_sum(self, complex_values, grouping):
        # The same indices, summed in another order: each shell agrees with
        # the per-index one to within the rounding of its sums.
        parts, coupling = _block_parts(complex_values)
        side = _plan_side(
            self.sizes,
            list(map(raw_terms, parts)),
            raw_terms(coupling),
            GROUPINGS[grouping],
        )
        bases = BaseSystem(mpf("0.5"))
        for shells in (1, 5, 9):
            value, diag = _fixed_shells(side, make_context({}, bases), shells)
            direct, direct_diag = _fixed_shells(
                _per_index(side), make_context({}, bases), shells
            )
            assert (diag.shells, diag.terms) == (direct_diag.shells, direct_diag.terms)
            assert rel(value, direct) < mpf(2) ** -118, (shells, value, direct)
            assert isinstance(value, mpc) == complex_values

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_one_dimensional_plans_are_bit_for_bit(self, complex_values):
        # Where every block is one-dimensional and alone in its group, the
        # weight tuples are the indices and each summand is the coupling
        # times the parts in block order: the per-index sum, bit for bit.
        c = mpc("0.2", "-0.1") if complex_values else mpf("0.2")
        parts = [
            raw_terms(lambda ctx, k, r=r: (c + r / mpf(20)) ** k[0] / (1 + r + k[0]))
            for r in range(3)
        ]
        coupling = raw_terms(lambda ctx, w: (mpf(1) + w[0]) / (3 + w[1] + c * w[2]))
        side = _plan_side((1, 1, 1), parts, coupling)
        bases = BaseSystem(mpf("0.5"))
        policy = TruncationPolicy(max_shell_weight=60, tail_ratio_tol=1e-24)
        value, diag = evaluate_in_context(side, make_context({}, bases), policy)
        direct, direct_diag = evaluate_in_context(
            _per_index(side), make_context({}, bases), policy
        )
        assert diag.converged and diag.shells > 20
        assert _bits(value) == _bits(direct)
        assert diag == direct_diag

    def test_pole_names_the_block_and_sub_index(self):
        # A part's pole names its block and its own index; a coupling's
        # names the tuple of group weights.
        @raw_terms
        def part(ctx, k):
            if k == (1, 0):
                raise DivisionByZero("pole at k = (1, 0)")
            return mpf("0.5") ** sum(k)

        one = raw_terms(lambda ctx, w: mpf(1))
        side = _plan_side((1, 2), (one, part), one)
        ctx = make_context({}, BaseSystem(mpf("0.5")))
        with pytest.raises(PoleEncountered, match=r"index \(1, 0\) of block 1"):
            evaluate_in_context(side, ctx)

        @raw_terms
        def coupling(ctx, w):
            return mpf(1) / (w[0] - 2 * w[1] - 1)

        two = raw_terms(lambda ctx, k: mpf("0.5") ** sum(k))
        side = _plan_side((2, 1), (two, one), coupling)
        with pytest.raises(PoleEncountered, match=r"weight index \(1, 0\)"):
            evaluate_in_context(side, ctx)


class TestSharedCrossBases:
    """heine_sides gives blocks that share a cross base one power of it, for
    the sum of their weights, and computes the lhs coupling once per tuple
    of those sums."""

    bases = BaseSystem(mpf("0.35"), mpf("1.3"), mpf("0.8"))
    uppers = (mpf("0.3"), mpf("-0.5"))
    arguments = (mpf("0.2"), mpf("0.15"))
    b, w = mpf("0.4"), mpf("0.1")

    def _sides(self, crosses, calls):
        """Two q-binomial blocks in base q^h over one in base q^t whose
        product records its arguments in ``calls``."""
        B = self.bases

        def product(P, w):
            calls.append(w)
            return qbin_product(self.b, B.qt)(P, w)

        base = replace(qbin_summation(self.b, B.qt), product=product)

        def bind(ctx):
            blocks = [
                HeineBlock(qbin_summation(a, B.qh), z, s)
                for a, z, s in zip(self.uppers, self.arguments, crosses)
            ]
            return blocks, HeineBlock(base, self.w)

        return heine_sides(((1, 0), (1, 0)), (1, 0), bind)

    def test_base_product_once_per_total_weight(self):
        B = self.bases
        calls = []
        lhs, rhs = self._sides((B.qht, B.qht), calls)
        ctx = make_context({}, B)
        value, diag = evaluate_in_context(lhs, ctx)
        # Once per shell: shell 0 stretches by exactly 1, so its product is
        # the one at the base argument that the coupling divides by.
        assert len(calls) == diag.shells < diag.terms
        other, _ = evaluate_in_context(rhs, ctx)
        assert rel(value, other) < mpf("1e-20")

    def test_distinct_cross_bases_keep_every_power(self):
        B = self.bases
        crosses = (B.qht, B.power(B.t * mpf("0.7")))
        calls = []
        lhs, _ = self._sides(crosses, calls)
        ctx = make_context({}, B)
        direct = Objects(PochCache(B.prec))
        with mp.workprec(B.prec):
            for w in range(6):
                for k in enumerate_shell(2, w):
                    # Each product rounded once: w s, the coupling, each
                    # block's summand and the term.
                    stretched = [(raw_mul, self.w)]
                    stretched += [
                        (raw_mul, direct.intpow(s, kr)) for s, kr in zip(crosses, k)
                    ]
                    product = qbin_product(self.b, B.qt)
                    factors = [
                        (raw_mul, from_raw(product(direct.cache, fold_once(stretched)))),
                        (raw_div, from_raw(product(direct.cache, self.w))),
                    ]
                    factors = [(raw_mul, fold_once(factors))]
                    for a, z, kr in zip(self.uppers, self.arguments, k):
                        summand = [
                            (raw_mul, direct.finite(a, B.qh, kr)),
                            (raw_div, direct.finite(B.qh, B.qh, kr)),
                            (raw_mul, direct.intpow(z, kr)),
                        ]
                        factors.append((raw_mul, fold_once(summand)))
                    expected = fold_once(factors)
                    assert _bits(from_raw(lhs.term(ctx, k))) == _bits(expected), k
        # One per weight tuple; (0, 0) is the base argument itself.
        assert len(calls) == sum(w + 1 for w in range(6))

    def test_each_cross_power_once_per_run(self, monkeypatch):
        # thm_heine7 at (2, 2) couples both sides through the cross base
        # q^{ht}: the lhs asks for its powers by group sum, the rhs by |j|,
        # shells apart.  PochCache.intpow keeps them for the run, so each
        # power is computed once.
        identity = catalog.lookup("thm_heine7").instantiate({"n": 2, "m": 2})
        [ctx] = catalog.sample_domain(identity, seed=1, count=1)
        cross = value_key(ctx.bases.qht)
        computed = Counter()

        def counted(x, n, prec, _pow_int=qcore._pow_int):
            if x == cross:
                computed[n] += 1
            return _pow_int(x, n, prec)

        monkeypatch.setattr(qcore, "_pow_int", counted)
        assert catalog.verify(identity, ctx).passed
        assert len(computed) > 10
        assert set(computed.values()) == {1}, computed


class TestCouplingMemo:
    """Where an inner weight exists, heine_sides computes each coupling's
    product once per (block, index) for the run, and every term is still
    the unmemoised coupling times its parts, bit for bit."""

    bases = BaseSystem(mpf("0.35"), mpf("1.3"), mpf("0.8"))
    # (block specs, base spec): name and dims, as ``qheine compose`` reads them.
    specs = {
        "q_euler/q_euler": ((("q_euler", ()),), ("q_euler", ())),
        "q_euler,q_bin/kajihara:2x1": (
            (("q_euler", ()), ("q_bin", ())),
            ("kajihara", (2, 1)),
        ),
        "q_bin,q_euler/q_euler": ((("q_bin", ()), ("q_euler", ())), ("q_euler", ())),
        "q_bin/q_bin": ((("q_bin", ()),), ("q_bin", ())),
    }
    transformations = ["q_euler/q_euler", "q_euler,q_bin/kajihara:2x1", "q_bin,q_euler/q_euler"]

    def _pair(self, spec, calls):
        """Blocks drawn as ``qheine compose`` draws them, each with its own
        cross base, whose products record (block index, argument) in
        ``calls``; and the two sides of their Heine pair."""
        B = self.bases
        slots, (base_name, base_dims) = self.specs[spec]
        rng = random.Random(5)

        def counted(summation, r):
            def product(P, z):
                calls.append((r, qcore.value_key(z)))
                return summation.product(P, z)

            return replace(summation, product=product)

        blocks = []
        with mp.workprec(B.prec):
            for r, (name, dims) in enumerate(slots):
                h = 1 + r * mpf("0.2718281828")  # incommensurate cross bases
                block = sample_block(name, rng, dims, B.power(h), B.prec)
                z = catalog.core.argument(rng) * min(1, block.arg_bound)
                blocks.append(HeineBlock(counted(block, r), z, B.power(B.t * h)))
            block = sample_block(base_name, rng, base_dims, B.qt, B.prec)
            w = catalog.core.argument(rng) * min(1, block.arg_bound)
            base = HeineBlock(counted(block, len(slots)), w)
        shapes = tuple(
            (b.summation.dimension, b.summation.inner_dimension) for b in blocks
        )
        base_shape = (base.summation.dimension, base.summation.inner_dimension)
        sides = heine_sides(shapes, base_shape, lambda ctx: (blocks, base))
        return blocks, base, sides

    @staticmethod
    def _split(k, sizes):
        out, start = [], 0
        for size in sizes:
            out.append(k[start : start + size])
            start += size
        return out

    @staticmethod
    def _term(coupling, parts):
        """The term: the coupling's factors rounded once, then times the
        parts, rounded once."""
        factors = [(raw_mul, fold_once(coupling))]
        return fold_once(factors + [(raw_mul, from_raw(part)) for part in parts])

    def _lhs_reference(self, P, blocks, base, k):
        """The lhs term at k with its coupling evaluated afresh:
        P_0(w s)/P_0(w) (sigma_0 w s)^{|kt|} times the block summands, with
        w s and sigma_0 w s each rounded once."""
        S0 = base.summation
        sizes = [b.summation.dimension for b in blocks] + [S0.inner_dimension]
        subs = self._split(k, sizes)
        powers = [
            (raw_mul, from_raw(P.intpow(value_key(block.cross), sum(sub))))
            for block, sub in zip(blocks, subs)
        ]
        stretched = fold_once([(raw_mul, base.argument)] + powers)
        coupling = [
            (raw_mul, from_raw(S0.product(P, stretched))),
            (raw_div, from_raw(S0.product(P, base.argument))),
        ]
        if S0.inner_dimension:
            arg = fold_once([(raw_mul, S0.stretch * base.argument)] + powers)
            coupling.append((raw_mul, arg ** sum(subs[-1])))
        parts = [b.summation.term(P, b.argument, sub) for b, sub in zip(blocks, subs)]
        if S0.inner_dimension:
            parts.append(S0.inner(P, subs[-1]))
        return self._term(coupling, parts)

    def _rhs_reference(self, P, blocks, base, k):
        """The rhs term at k with its coupling evaluated afresh: prod_r
        P_r(z_r s_r^{|j|})/P_r(z_r) (sigma_r z_r s_r^{|j|})^{|jt_r|} times
        the base summand and the inner summands, with z_r s_r^{|j|} and
        sigma_r z_r s_r^{|j|} each rounded once."""
        inner = [b for b in blocks if b.summation.inner_dimension]
        sizes = [base.summation.dimension] + [b.summation.inner_dimension for b in inner]
        subs = self._split(k, sizes)
        inner_subs = dict(zip(map(id, inner), subs[1:]))
        coupling = []
        for block in blocks:
            S, z = block.summation, block.argument
            shift = (raw_mul, from_raw(P.intpow(value_key(block.cross), sum(subs[0]))))
            coupling.append((raw_mul, from_raw(S.product(P, fold_once([(raw_mul, z), shift])))))
            coupling.append((raw_div, from_raw(S.product(P, z))))
            if id(block) in inner_subs:
                arg = fold_once([(raw_mul, S.stretch * z), shift])
                coupling.append((raw_mul, arg ** sum(inner_subs[id(block)])))
        parts = [base.summation.term(P, base.argument, subs[0])]
        parts += [b.summation.inner(P, inner_subs[id(b)]) for b in inner]
        return self._term(coupling, parts)

    @pytest.mark.parametrize("spec", transformations)
    def test_one_product_per_block_and_index(self, spec):
        calls = []
        blocks, base, (lhs, rhs) = self._pair(spec, calls)
        ctx = make_context({}, self.bases)
        evaluate_in_context(lhs, ctx)
        evaluate_in_context(rhs, ctx)
        arguments = [b.argument for b in blocks] + [base.argument]
        counts = Counter(calls)
        # Index 0 stretches by exactly 1, so the index-0 product is the
        # divisor P_r(z_r): each block's own argument is computed once.
        for r, argument in enumerate(arguments):
            assert counts.pop((r, qcore.value_key(argument))) == 1
        assert counts and set(counts.values()) == {1}
        assert {r for r, _ in counts} == set(range(len(arguments)))

    @pytest.mark.parametrize("spec", transformations)
    def test_terms_match_the_unmemoised_coupling(self, spec):
        blocks, base, (lhs, rhs) = self._pair(spec, [])
        B = self.bases
        ctx = make_context({}, B)
        direct = PochCache(B.prec)
        for side, reference in ((lhs, self._lhs_reference), (rhs, self._rhs_reference)):
            with mp.workprec(B.prec):
                for w in range(7):
                    for k in enumerate_shell(side.dimension, w):
                        expected = reference(direct, blocks, base, k)
                        got = from_raw(side.term(ctx, k))
                        assert _bits(got) == _bits(expected), k

    def test_own_product_of_zero(self):
        # (b w; q^t)_oo = 0 at b w = 1: P_0(w) = 0 ends the lhs at its first
        # term and the rhs in its prefactor, as it did before index 0 reused
        # P_0(w).
        B = self.bases

        def bind(ctx):
            block = HeineBlock(qbin_summation(mpf("0.3"), B.qh), mpf("0.2"), B.qht)
            return [block], HeineBlock(qbin_summation(mpf(4), B.qt), mpf(1) / 4)

        lhs, rhs = heine_sides(((1, 0),), (1, 0), bind)
        with pytest.raises(PoleEncountered, match=r"index \(0,\)"):
            evaluate_in_context(lhs, make_context({}, B))
        with pytest.raises(PoleEncountered, match="prefactor"):
            evaluate_in_context(rhs, make_context({}, B))

    def test_no_memo_without_an_inner_weight(self):
        # Each index of a pair of plain summations lies in one shell only,
        # so the run keeps nothing per index: only the bound blocks and the
        # products at the two blocks' own arguments.
        _, _, (lhs, rhs) = self._pair("q_bin/q_bin", [])
        ctx = make_context({}, self.bases)
        _, diag = evaluate_in_context(lhs, ctx)
        evaluate_in_context(rhs, ctx)
        assert diag.shells > 6
        assert len(ctx.poch.terms) == 3


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


def _verify_cases(family_id, dims_list=None):
    family = catalog.lookup(family_id)
    for dims in dims_list or family.default_dims:
        identity = family.instantiate(dims)
        [ctx] = catalog.sample_domain(identity, seed=1, count=1)
        assert catalog.verify(identity, ctx).passed


def _compose_case():
    argv = ["compose", "--blocks", "q_euler,q_bin", "--base", "kajihara:2x1"]
    assert cli.main(argv + ["--samples", "1", "--seed", "1"]) == 0


class TestRawValuesInsideASide:
    """Inside a side every value is raw: the mpf and mpc objects a side
    makes (``mp.make_mpf`` and ``mp.make_mpc``) are a few per shell, for
    the shell sum, the products computed and the new Vandermonde shifts,
    and none per term."""

    @staticmethod
    def _objects_made(monkeypatch, side, params, bases, shells):
        """(objects made, terms) summing ``shells`` shells of ``side``."""
        made = [0]
        for name in ("make_mpf", "make_mpc"):

            def counted(value, _make=getattr(mp, name)):
                made[0] += 1
                return _make(value)

            monkeypatch.setattr(mp, name, counted)
        policy = TruncationPolicy(max_shell_weight=shells - 1, tail_ratio_tol=0)
        try:
            with pytest.warns(TruncationNotConverged):
                _, diag = evaluate_in_context(side, make_context(params, bases), policy)
        finally:
            monkeypatch.undo()
        return made[0], diag.terms

    @pytest.mark.parametrize(
        "family_id, dims, side",
        [
            ("thm_heine7", {"n": 2, "m": 2}, "lhs"),
            ("thm_heine7", {"n": 2, "m": 2}, "rhs"),
            ("an_qbin_milne_lilly", {"n": 2}, "rhs"),
        ],
    )
    def test_objects_grow_with_shells_not_terms(
        self, monkeypatch, family_id, dims, side
    ):
        identity = catalog.lookup(family_id).instantiate(dims)
        params, bases = sample_points(identity, seed=1, count=1)[0]
        series = getattr(identity, side)
        runs = [
            self._objects_made(monkeypatch, series, params, bases, shells)
            for shells in (12, 16, 20)
        ]
        (made, terms) = zip(*runs)
        # Every 4 shells make as many objects, while a 2-fold side's
        # shells grow by one term each: fewer objects than terms.
        assert made[2] - made[1] == made[1] - made[0], runs
        assert terms[2] - terms[1] > terms[1] - terms[0], runs
        assert 2 * (made[2] - made[1]) < terms[2] - terms[1], runs


class TestProductsComputedOnce:
    """No case computes an infinite product twice: the (a, base) of every
    product the kernel computes under one run's ``PochCache`` is distinct."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: _verify_cases(
                "master_instance_lauricella", [{"m": 2, "n": 1, "p": 2}]
            ),
            lambda: _verify_cases("kajihara_double"),
            lambda: _verify_cases("ram_core"),
            lambda: _verify_cases("ram_1_4_1_anm", [{"n": 2, "m": 2}]),
            lambda: _verify_cases("ram_eq26_a2", [{"m": 2}]),
            _compose_case,
            lambda: _verify_cases("ram_1_4_10"),
            lambda: _verify_cases("ram_1_4_9a", [{"m": 2}]),
        ],
        ids=[
            "master_instance_lauricella",
            "kajihara_double",
            "ram_core",
            "ram_1_4_1_anm",
            "ram_eq26_a2",
            "compose",
            "ram_1_4_10",
            "ram_1_4_9a",
        ],
    )
    def test_no_product_computed_twice(self, computed, monkeypatch, run):
        # A new cache starts a new run: mark it among the products.
        raw_init = qcore.PochCache.__init__

        def init(cache, *args, **kwargs):
            computed.append(None)
            raw_init(cache, *args, **kwargs)

        monkeypatch.setattr(qcore.PochCache, "__init__", init)
        run()
        runs = [[]]
        for call in computed:
            if call is None:
                runs.append([])
            else:
                runs[-1].append(tuple(map(qcore.value_key, call)))
        assert all(len(set(keys)) == len(keys) for keys in runs)
        assert sum(map(len, runs)) > 0
