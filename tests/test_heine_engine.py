import math
import random
import zlib

import pytest
from mpmath import mp, mpf

from qheine import catalog, heine_engine as engine
from qheine.catalog.blocks import (
    SHIPPED_BLOCK_NAMES,
    block_dims,
    broken_block,
    sample_block,
)
from qheine.catalog.an_qbinomial import euler_exp_summation, stretched_euler_summation
from qheine.catalog.classical import q_euler_summation, qbin_summation
from qheine.catalog.kajihara import kajihara_summation
from qheine.errors import DomainViolation, InvalidConfig, PropertyHViolation
from qheine.multisum import (
    HeineBlock,
    SeriesSide,
    TruncationPolicy,
    enumerate_shell,
    make_context,
)
from qheine.qcore import BaseSystem, PochCache, from_raw, value_key
from util import evaluate, rel, sample_points, side_values


def _block_dims(name):
    return {"kajihara": (2, 2), "q_bin": (1,), "q_euler": (1,)}.get(name, (2,))


class TestBlockDims:
    def test_one_value_per_name_and_a_missing_one_is_1(self):
        assert block_dims("q_bin", ()) == block_dims("q_bin", (1,)) == {}
        assert block_dims("gk", (3,)) == {"n": 3}
        assert block_dims("kajihara", (2,)) == {"n": 2, "m": 1}
        assert block_dims("kajihara", (2, 3)) == {"n": 2, "m": 3}

    @pytest.mark.parametrize(
        "name, dims",
        [("q_bin", (2,)), ("q_euler", (1, 1)), ("gk", (2, 1)), ("kajihara", (2, 0))],
    )
    def test_sample_block_refuses_dimensions_the_block_lacks(self, name, dims):
        # A one-fold block drew the same block whatever it was given.
        with pytest.raises(InvalidConfig):
            sample_block(name, random.Random(7), dims, mpf("0.3"), mp.prec)


class TestPropertyH:
    @pytest.mark.parametrize("name", SHIPPED_BLOCK_NAMES + ("q_euler",))
    def test_shipped_blocks_are_homogeneous(self, name):
        rng = random.Random(7)
        block = sample_block(name, rng, _block_dims(name), mpf("0.3"), mp.prec)
        result = engine.check_property_H(block, trials=16, seed=9)
        assert result.passed
        assert result.max_deviation < mpf("1e-30")

    def test_counterexample_fails(self):
        rng = random.Random(7)
        block = sample_block("broken", rng, (1,), mpf("0.3"), mp.prec)
        result = engine.check_property_H(block, trials=16, seed=9)
        assert not result.passed
        assert result.max_deviation > mpf("0.01")

    def test_counterexample_is_the_q_binomial_summation_with_one_more_factor(self):
        # Its product is the q-binomial product, and its summand carries
        # (z; base)_k on top of the q-binomial summand.
        a, base, z = mpf("0.2"), mpf("0.3"), mpf("0.15")
        broken, qbin = broken_block(a, base), qbin_summation(a, base)
        P = PochCache(mp.prec)
        assert broken.product(P, z) == qbin.product(P, z)
        assert (broken.dimension, broken.label) == (1, "broken")
        for k in range(6):
            want = from_raw(qbin.term(P, z, (k,))) * from_raw(P.finite(z, base, k))
            assert rel(from_raw(broken.term(P, z, (k,))), want) < mpf(2) ** -120

    @pytest.mark.parametrize(
        "build",
        [
            lambda base: euler_exp_summation((mpf(1), mpf("1.4")), base, mp.prec),
            lambda base: stretched_euler_summation(2, base, mp.prec),
        ],
        ids=["euler_exp", "stretched_euler"],
    )
    def test_entire_sums_are_homogeneous(self, build):
        # An infinite bound draws as a bound of 1.
        block = build(mpf("0.3"))
        assert block.arg_bound == math.inf
        result = engine.check_property_H(block, trials=16, seed=9)
        assert result.passed
        assert result.max_deviation < mpf("1e-30")

    def test_spec_blocks_run_no_trials(self, monkeypatch):
        # A ``TermSpec`` summand with an argument is homogeneous by its
        # form, so composing the shipped blocks runs no numerical trial.
        def trials(*args, **kwargs):
            raise AssertionError("numerical trials for a spec block")

        monkeypatch.setattr(engine, "check_property_H", trials)
        bases = BaseSystem(mpf("0.3"), mpf("1.2"), mpf("0.9"))
        rng = random.Random(5)
        base = HeineBlock(
            q_euler_summation(mpf("0.4"), mpf("0.5"), mpf("0.6"), bases.qt, mp.prec),
            mpf("0.1"),
        )
        for name in SHIPPED_BLOCK_NAMES + ("q_euler",):
            block = sample_block(name, rng, _block_dims(name), bases.qh, mp.prec)
            engine.compose((HeineBlock(block, mpf("0.05"), bases.qht),), base)

    def test_trials_validated(self):
        block = qbin_summation(mpf("0.2"), mpf("0.3"))
        with pytest.raises(ValueError):
            engine.check_property_H(block, trials=0)


class TestBlockSelfConsistency:
    @pytest.mark.parametrize("name", SHIPPED_BLOCK_NAMES)
    def test_sum_equals_product(self, name):
        # The blocks' own summation theorems: sum_k S(z; k) = P(z).
        rng = random.Random(11)
        bases = BaseSystem(mpf("0.35"))
        for _ in range(10):
            base_value = mpf(rng.uniform(0.15, 0.55))
            dims = _block_dims(name)
            block = sample_block(name, rng, dims, base_value, mp.prec)
            if block.inner_dimension:
                continue  # transformation blocks are covered separately
            z = mpf(rng.uniform(0.03, 0.2)) * min(1, block.arg_bound)

            def term(ctx, k, _block=block, _z=z):
                return _block.term(ctx.poch, _z, k)

            value, _ = evaluate(
                SeriesSide(block.dimension, term), {}, bases,
                TruncationPolicy(max_shell_weight=48),
            )
            cache = PochCache(bases.prec)
            assert rel(value, from_raw(block.product(cache, z))) < mpf("1e-20")

    def test_q_function_cocycle(self):
        # Q(z; s1*s2) = Q(z; s1) * Q(z*s1; s2) for product ratios.
        rng = random.Random(13)
        cache = PochCache(128)
        for _ in range(6):
            block = sample_block("milne_lilly", rng, (2,), mpf("0.3"), mp.prec)
            z = mpf(rng.uniform(0.05, 0.4))
            s1 = mpf(rng.uniform(0.1, 0.8))
            s2 = mpf(rng.uniform(0.1, 0.8))

            def q_fn(arg, scale):
                shifted = from_raw(block.product(cache, arg * scale))
                return shifted / from_raw(block.product(cache, arg))

            combined = q_fn(z, s1 * s2)
            chained = q_fn(z, s1) * q_fn(z * s1, s2)
            assert rel(combined, chained) < mpf("1e-25")


def composed_from_bind(identity, ctx):
    """``compose`` of the blocks and base block the identity's lhs binds."""
    with mp.workprec(ctx.bases.prec):
        return engine.compose(*identity.lhs.bind(ctx))


class TestCompose:
    # Composing the blocks a catalog Heine family binds rebuilds its two
    # sides: ``compose`` and the family share ``heine_sides``, so the values
    # agree bit for bit.
    def test_single_classical_pair_reproduces_bibasic(self):
        bibasic = catalog.lookup("bibasic_heine").instantiate()
        for ctx in catalog.sample_domain(bibasic, seed=51, count=3):
            bases = ctx.bases
            composed = composed_from_bind(bibasic, ctx)
            # the composed identity is verifiable through the catalog machinery
            result = catalog.verify(
                composed, make_context({}, bases), tolerance=mpf("1e-20")
            )
            assert result.passed
            assert side_values(bibasic, ctx.params, bases) == side_values(
                composed, {}, bases
            )

    def test_two_block_assignment_reproduces_catalog_instance(self):
        identity = catalog.lookup("master_instance_big").instantiate(
            {"n1": 2, "n2": 1, "m": 2}
        )
        for ctx in catalog.sample_domain(identity, seed=52, count=2):
            composed = composed_from_bind(identity, ctx)
            assert side_values(identity, ctx.params, ctx.bases) == side_values(
                composed, {}, ctx.bases
            )

    def test_multi_block_assignment_reproduces_lauricella_instance(self):
        identity = catalog.lookup("master_instance_lauricella").instantiate(
            {"p": 2, "n": 1, "m": 2}
        )
        for ctx in catalog.sample_domain(identity, seed=53, count=2):
            composed = composed_from_bind(identity, ctx)
            assert side_values(identity, ctx.params, ctx.bases) == side_values(
                composed, {}, ctx.bases
            )

    @pytest.mark.parametrize(
        "block_specs,base_spec",
        [
            ((("q_bin", (1,)), ("extra_c", (2,))), ("milne_lilly", (2,))),
            ((("gk", (2,)),), ("extra_c", (2,))),
            ((("milne_lilly", (2,)), ("q_bin", (1,))), ("q_bin", (1,))),
            ((("q_euler", (1,)), ("q_bin", (1,))), ("q_euler", (1,))),
            ((("kajihara", (1, 2)), ("gk", (2,))), ("q_bin", (1,))),
        ],
    )
    def test_random_assignments_verify(self, block_specs, base_spec):
        # Arbitrary assignments drawn from the shipped library, transformation
        # and q-binomial blocks mixed, stay verifiable at 1e-18.
        rng = random.Random(zlib.crc32(repr(base_spec).encode()))
        for sample in range(2):
            bases = BaseSystem(
                mpf(rng.uniform(0.15, 0.5)),
                mpf(rng.uniform(0.6, 2.0)),
                mpf(rng.uniform(0.6, 2.0)),
            )
            blocks = []
            for name, dims in block_specs:
                exponent = mpf(rng.uniform(0.6, 2.0))
                base = bases.power(exponent)
                block = sample_block(name, rng, dims, base, bases.prec)
                argument = mpf(rng.uniform(0.03, 0.2)) * min(1, block.arg_bound)
                cross = bases.power(bases.t * exponent)
                blocks.append(HeineBlock(block, argument, cross))
            base_name, base_dims = base_spec
            base_block = sample_block(base_name, rng, base_dims, bases.qt, bases.prec)
            base_argument = mpf(rng.uniform(0.03, 0.2)) * min(1, base_block.arg_bound)
            composed = engine.compose(
                tuple(blocks), HeineBlock(base_block, base_argument)
            )
            ctx = make_context({}, bases)
            result = catalog.verify(composed, ctx, tolerance=mpf("1e-18"))
            assert result.passed, (block_specs, base_spec, result.rel_error)

    @pytest.mark.parametrize(
        "specs",
        [
            (("q_bin:1", "q_bin:1"), "q_bin:1"),
            (("milne_lilly:2", "gk:1"), "q_bin:1"),
            (("gk:3",), "q_bin:1"),
            (("q_euler:1",), "q_euler:1"),
            (("kajihara:1x2",), "q_bin:1"),
            (("q_euler:1", "q_bin:1"), "kajihara:2x1"),
        ],
    )
    def test_left_terms_match_unfactored_summand(self, specs):
        # Both sides evaluate each block factor once per sub-index and the
        # coupling once per weight tuple; every term and the prefactor must
        # agree with the unfactored expansion step to within 2^-110.
        rng = random.Random(17)
        bases = BaseSystem(mpf("0.35"), mpf("1.3"), mpf("0.8"))

        def draw(spec, base):
            name, dims = spec.split(":")
            dims = tuple(int(d) for d in dims.split("x"))
            return sample_block(name, rng, dims, base, bases.prec)

        block_specs, base_spec = specs
        blocks = []
        with mp.workprec(bases.prec):
            for spec in block_specs:
                exponent = mpf(rng.uniform(0.6, 2.0))
                block = draw(spec, bases.power(exponent))
                argument = mpf(rng.uniform(0.03, 0.2)) * min(1, block.arg_bound)
                cross = bases.power(bases.t * exponent)
                blocks.append(HeineBlock(block, argument, cross))
            base_block = draw(base_spec, bases.qt)
            base_argument = mpf("0.15") * min(1, base_block.arg_bound)
            composed = engine.compose(
                tuple(blocks), HeineBlock(base_block, base_argument)
            )
        base = base_block

        # The summands of one expansion step as compose_with_transformation
        # wrote them for a pair of blocks, here for p blocks over the base.
        # ``inner`` is the inner summand R(x; j) at the argument x.
        # The cache's raw values are read as objects (from_raw).
        def inner(block, P, x, j):
            if not block.inner_dimension:
                return mpf(1)
            return from_raw(block.inner(P, j)) * (block.stretch * x) ** sum(j)

        def product(block, P, x):
            return from_raw(block.product(P, x))

        def power(P, cross, n):
            return from_raw(P.intpow(value_key(cross), n))

        def lhs_reference(P, idx):
            value, scale, start = mpf(1), mpf(1), 0
            for bound in blocks:
                block = bound.summation
                k = idx[start : start + block.dimension]
                start += block.dimension
                value *= from_raw(block.term(P, bound.argument, k))
                scale *= power(P, bound.cross, sum(k))
            shifted = base_argument * scale
            value *= product(base, P, shifted) / product(base, P, base_argument)
            return value * inner(base, P, shifted, idx[start:])

        def rhs_reference(P, idx):
            j = idx[: base.dimension]
            start = base.dimension
            value = from_raw(base.term(P, base_argument, j))
            for bound in blocks:
                block, z = bound.summation, bound.argument
                jt = idx[start : start + block.inner_dimension]
                start += block.inner_dimension
                shifted = z * power(P, bound.cross, sum(j))
                value *= product(block, P, shifted) / product(block, P, z)
                value *= inner(block, P, shifted, jt)
            return value

        def prefactor_reference(P):
            value = mpf(1)
            for bound in blocks:
                value *= product(bound.summation, P, bound.argument)
            return value / product(base, P, base_argument)

        factored = make_context({}, bases)
        direct = PochCache(bases.prec)
        with mp.workprec(bases.prec):
            value = composed.rhs.prefactor(factored)
            assert rel(value, prefactor_reference(direct)) < mpf(2) ** -110
            for side, reference in (
                (composed.lhs, lhs_reference),
                (composed.rhs, rhs_reference),
            ):
                for w in range(6):
                    for k in enumerate_shell(side.dimension, w):
                        value = from_raw(side.term(factored, k))
                        assert rel(value, reference(direct, k)) < mpf(2) ** -110, k

    def test_property_violation_raised(self):
        bases = BaseSystem(mpf("0.3"), mpf("1.2"), mpf("0.9"))
        block = HeineBlock(broken_block(mpf("0.2"), bases.qh), mpf("0.1"), bases.qht)
        base = HeineBlock(qbin_summation(mpf("0.2"), bases.qt), mpf("0.1"))
        with pytest.raises(PropertyHViolation):
            engine.compose((block,), base)

    def test_argument_outside_domain(self):
        # ``compose`` builds the sides; ``verify`` refuses the point by the
        # one domain rule, as for a catalog family.
        bases = BaseSystem(mpf("0.3"), mpf("1.2"), mpf("0.9"))
        block = HeineBlock(qbin_summation(mpf("0.2"), bases.qh), mpf("1.5"), bases.qht)
        base = HeineBlock(qbin_summation(mpf("0.2"), bases.qt), mpf("0.1"))
        composed = engine.compose((block,), base)
        with pytest.raises(DomainViolation, match="outside the domain of block"):
            catalog.verify(composed, make_context({}, bases))

    def test_no_blocks_refused(self):
        base = HeineBlock(qbin_summation(mpf("0.2"), mpf("0.3")), mpf("0.1"))
        with pytest.raises(ValueError):
            engine.compose((), base)


class TestComposeWithTransformation:
    def test_classical_euler_pair_reproduces_bibasic_euler(self):
        target = catalog.lookup("bibasic_euler").instantiate()
        for ctx in catalog.sample_domain(target, seed=54, count=2):
            with mp.workprec(ctx.bases.prec):
                (first,), base = target.lhs.bind(ctx)
                composed = engine.compose_with_transformation(first, base)
            assert side_values(target, ctx.params, ctx.bases) == side_values(
                composed, {}, ctx.bases
            )

    def test_degenerate_euler_pair_reproduces_bibasic_heine(self):
        # with c = b and f = e the inner sums collapse to their first term
        bibasic = catalog.lookup("bibasic_heine").instantiate()
        for params, bases in sample_points(bibasic, seed=55, count=2):
            first = q_euler_summation(
                params["a"], mpf("0.4"), mpf("0.4"), bases.qh, bases.prec
            )
            base = q_euler_summation(
                params["b"], mpf("0.3"), mpf("0.3"), bases.qt, bases.prec
            )
            composed = engine.compose_with_transformation(
                HeineBlock(first, params["z"], bases.qht),
                HeineBlock(base, params["w"]),
            )
            lhs0, rhs0 = side_values(bibasic, params, bases)
            lhs1, rhs1 = side_values(composed, {}, bases)
            assert rel(lhs0, lhs1) < mpf("1e-20")
            assert rel(rhs0, rhs1) < mpf("1e-20")

    def test_one_dimensional_kajihara_pair_matches_bibasic_euler(self):
        target = catalog.lookup("bibasic_euler").instantiate()
        one = mpf(1)
        for params, bases in sample_points(target, seed=56, count=2):
            first = kajihara_summation(
                (params["a"],), (params["b"],), params["c"], (one,), (one,),
                bases.qh, bases.prec,
            )
            base = kajihara_summation(
                (params["d"],), (params["e"],), params["f"], (one,), (one,),
                bases.qt, bases.prec,
            )
            composed = engine.compose_with_transformation(
                HeineBlock(first, params["z"], bases.qht),
                HeineBlock(base, params["w"]),
            )
            lhs0, rhs0 = side_values(target, params, bases)
            lhs1, rhs1 = side_values(composed, {}, bases)
            assert rel(lhs0, lhs1) < mpf("1e-18")
            assert rel(rhs0, rhs1) < mpf("1e-18")

    def test_qbinomial_blocks_lift_to_transformations(self):
        # a single q-binomial block over a q-binomial base, composed as a
        # transformation pair, is the bibasic Heine pair
        bibasic = catalog.lookup("bibasic_heine").instantiate()
        [ctx] = catalog.sample_domain(bibasic, seed=57, count=1)
        with mp.workprec(ctx.bases.prec):
            (first,), base = bibasic.lhs.bind(ctx)
            composed = engine.compose_with_transformation(first, base)
        assert side_values(bibasic, ctx.params, ctx.bases) == side_values(
            composed, {}, ctx.bases
        )
