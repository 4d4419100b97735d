import dataclasses
import math
import random

import pytest
from mpmath import mp, mpc, mpf

from qheine import catalog, cli, report
from qheine.catalog import core, ramanujan
from qheine.catalog.core import ParamSpec
from qheine.errors import (
    DegenerateVariables,
    DomainExhausted,
    DomainViolation,
    InvalidConfig,
    TruncationNotConverged,
    UnknownIdentity,
)
from qheine.catalog.an_qbinomial import (
    euler_exp_summation,
    stretched_euler_summation,
)
from qheine.multisum import (
    SeriesSide,
    TruncationPolicy,
    enumerate_shell,
    evaluate_in_context,
    make_context,
    vandermonde_ratio,
)
from qheine.qcore import BaseSystem, PochCache, e2, from_raw
import util
from util import (
    grid_rows,
    inner_rows,
    qpoch_finite,
    raw_terms,
    rel,
    sample_points,
    side_values,
    vandermonde_ratio_loop,
)

EXPECTED_IDS = [
    "q_binomial",
    "heine_2phi1",
    "bibasic_heine",
    "an_qbin_milne_lilly",
    "an_qbin_gk",
    "an_qbin_extra_c",
    "thm_heine7",
    "thm_heine8",
    "thm_heine1",
    "thm_heine2",
    "ram_core",
    "ram_1_4_1_anm",
    "ram_1_4_10_anm",
    "ram_1_4_10_m1",
    "ram_1_4_10",
    "ram_1_4_10_c",
    "ram_1_4_10_n_single",
    "ram_eq26_a2",
    "ram_1_4_12",
    "ram_eq26_a3",
    "ram_eq26_b",
    "ram_1_4_17_anm",
    "ram_1_4_17",
    "ram_1_4_9a",
    "ram_1_4_9",
    "ram_1_4_9b",
    "q_euler",
    "bibasic_euler",
    "kajihara",
    "kajihara_double",
    "qlauricella_bibasic",
    "master_instance_big",
    "master_instance_lauricella",
]

# Side values for bibasic_heine at (q, h, t, a, b, w, z) =
# (0.3, 1.5, 0.8, 0.2, 0.25, 0.2, 0.15), summed to shell weight 60.
BIBASIC_ORACLE = "1.135971353864560146233069239947447733887"


class TestRegistry:
    def test_count_and_ids(self):
        families = catalog.register_all()
        assert len(families) == 33
        assert [f.id for f in families] == EXPECTED_IDS

    def test_lookup_unknown(self):
        with pytest.raises(UnknownIdentity):
            catalog.lookup("does_not_exist")

    def test_q_binomial_schema(self):
        family = catalog.lookup("q_binomial")
        assert [s.name for s in family.schema] == ["a", "z"]
        assert all(s.length is None for s in family.schema)

    def test_thm_heine7_schema(self):
        family = catalog.lookup("thm_heine7")
        by_name = {s.name: s for s in family.schema}
        assert set(by_name) == {"a", "b", "x", "y", "z", "w"}
        assert by_name["a"].length == "n"
        assert by_name["b"].length == "m"
        assert by_name["x"].length == "n"
        assert by_name["y"].length == "m"
        assert family.dim_names == ("n", "m")

    def test_catalog_document(self):
        doc = catalog.catalog_document()
        assert doc["schema_version"] == "1"
        assert len(doc["identities"]) == 33
        assert doc["identities"][0]["id"] == "q_binomial"


class TestParamValidation:
    def test_extra_and_missing_names_rejected(self):
        identity = catalog.lookup("q_binomial").instantiate()
        with pytest.raises(InvalidConfig):
            identity.validate_params({"a": mpf("0.1")})
        with pytest.raises(InvalidConfig):
            identity.validate_params({"a": mpf("0.1"), "z": mpf("0.1"), "c": mpf(1)})

    def test_vector_length_checked(self):
        identity = catalog.lookup("thm_heine7").instantiate({"n": 2, "m": 1})
        params = {
            "a": (mpf("0.1"),),  # should have length 2
            "b": (mpf("0.1"),),
            "x": (mpf(1), mpf("1.5")),
            "y": (mpf(1),),
            "z": mpf("0.1"),
            "w": mpf("0.1"),
        }
        with pytest.raises(InvalidConfig):
            identity.validate_params(params)

    def test_bad_dimension_assignment(self):
        family = catalog.lookup("thm_heine7")
        with pytest.raises(InvalidConfig):
            family.instantiate({"n": 0})
        with pytest.raises(InvalidConfig):
            family.instantiate({"bogus": 2})


class TestVerify:
    def test_q_binomial_collapses_at_a_equals_q(self):
        bases = BaseSystem(mpf("0.5"))
        identity = catalog.lookup("q_binomial").instantiate()
        params = {"a": bases.q, "z": mpf("0.3")}
        policy = TruncationPolicy(max_shell_weight=95, tail_ratio_tol=1e-30)
        ctx = make_context(params, bases)
        result = catalog.verify(identity, ctx, policy, tolerance=mpf("1e-25"))
        assert result.passed
        # Both sides collapse to the geometric value 1/(1-z).
        assert rel(result.rhs_value, 1 / (1 - mpf("0.3"))) < mpf("1e-30")

    @pytest.mark.parametrize(
        "identity_id",
        ["q_binomial", "heine_2phi1", "bibasic_heine", "q_euler", "kajihara"],
    )
    def test_zero_argument_reduces_to_constant_term(self, identity_id):
        family = catalog.lookup(identity_id)
        identity = family.instantiate(
            {name: 1 for name in family.dim_names}
        )
        params, bases = sample_points(identity, seed=40, count=1)[0]
        params = dict(params)
        for name in ("z", "w"):
            if name in params:
                params[name] = mpf(0)
        # Deep truncation: a remaining one-sided series (Heine's b-sum) must
        # itself be exhausted to reach the tight tolerance.
        policy = TruncationPolicy(max_shell_weight=140, tail_ratio_tol=1e-33)
        ctx = make_context(params, bases)
        result = catalog.verify(identity, ctx, policy, tolerance=mpf("1e-28"))
        assert result.passed

    def test_bibasic_heine_frozen_point(self):
        bases = BaseSystem(mpf("0.3"), mpf("1.5"), mpf("0.8"))
        identity = catalog.lookup("bibasic_heine").instantiate()
        params = {
            "a": mpf("0.2"),
            "b": mpf("0.25"),
            "w": mpf("0.2"),
            "z": mpf("0.15"),
        }
        # Oracle run: both sides at shell weight 60.
        oracle_policy = TruncationPolicy(max_shell_weight=60, tail_ratio_tol=1e-32)
        lhs60, rhs60 = side_values(identity, params, bases, oracle_policy)
        assert rel(lhs60, mpf(BIBASIC_ORACLE)) < mpf("1e-25")
        assert rel(lhs60, rhs60) < mpf("1e-25")
        # Production settings must agree with the oracle and pass at 1e-20.
        ctx = make_context(params, bases)
        result = catalog.verify(identity, ctx, tolerance=mpf("1e-20"))
        assert result.passed
        assert rel(result.lhs_value, lhs60) < mpf("1e-22")

    def test_unconverged_sides_are_not_passed(self, monkeypatch):
        # Both sides are the same geometric series in 0.9, cut after 4 shells.
        side = SeriesSide(1, raw_terms(lambda ctx, k: mpf("0.9") ** k[0]))
        family = catalog.IdentityFamily(
            id="same_series",
            reference="one series on both sides",
            dim_names=(),
            schema=(),
            build=lambda dims: (side, side),
            policy=TruncationPolicy(max_shell_weight=3),
        )
        identity = family.instantiate()
        ctx = make_context({}, BaseSystem(mpf("0.5")))
        with pytest.warns(TruncationNotConverged):
            result = catalog.verify(identity, ctx)
        assert result.rel_error == 0
        assert not result.lhs_diag.converged and not result.rhs_diag.converged
        assert not result.passed

        monkeypatch.setattr(catalog, "lookup", lambda identity_id: family)
        config = cli.RunConfig(identities=["same_series"], samples=1)
        with pytest.warns(TruncationNotConverged):
            records, code = cli.run_verify(config)
        assert code == cli.EXIT_VERIFICATION_FAILED
        assert records[-1]["failed"] == 1

    def test_verify_rejects_out_of_domain(self):
        identity = catalog.lookup("q_binomial").instantiate()
        bases = BaseSystem(mpf("0.5"))
        ctx = make_context({"a": mpf("0.2"), "z": mpf(2)}, bases)
        with pytest.raises(DomainViolation):
            catalog.verify(identity, ctx)


class TestSampling:
    def test_deterministic(self):
        identity = catalog.lookup("thm_heine8").instantiate({"n": 2, "m": 2})
        first = catalog.sample_domain(identity, seed=17, count=4)
        second = catalog.sample_domain(identity, seed=17, count=4)
        for one, two in zip(first, second):
            b1, b2 = one.bases, two.bases
            assert one.params == two.params
            assert (b1.q, b1.h, b1.t) == (b2.q, b2.h, b2.t)

    def test_points_satisfy_domain_and_count(self):
        identity = catalog.lookup("thm_heine8").instantiate({"n": 2, "m": 2})
        points = sample_points(identity, seed=23, count=25)
        assert len(points) == 25
        for params, bases in points:
            with mp.workprec(bases.prec):
                assert identity.fault(make_context(params, bases)) is None
            identity.validate_params(params)

    def test_rejection_sampling_gives_up(self, monkeypatch, capsys):
        # A schema that always draws z = 2, outside |z| < 1: the sampler
        # stops after _MAX_REJECTS draws in a row, and the run exits 1.
        family = dataclasses.replace(
            catalog.lookup("q_binomial"),
            schema=(
                ParamSpec("a", lambda *_: mpf("0.2")),
                ParamSpec("z", lambda *_: mpf(2)),
            ),
        )
        monkeypatch.setattr(core, "_MAX_REJECTS", 7)
        with pytest.raises(DomainExhausted, match="failed 7 times in a row"):
            catalog.sample_domain(family.instantiate(), seed=1, count=1)
        monkeypatch.setattr(catalog, "lookup", lambda identity_id: family)
        code = cli.main(["verify", "--identity", "q_binomial", "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: q_binomial: rejection sampling")
        assert captured.err.count("\n") == 1, captured.err

    def test_bases_in_safe_box(self):
        identity = catalog.lookup("q_binomial").instantiate()
        for _, bases in sample_points(identity, seed=3, count=10):
            assert mpf("0.1") <= bases.q <= mpf("0.6")
            assert mpf("0.5") <= bases.h <= mpf("2.5")
            assert mpf("0.5") <= bases.t <= mpf("2.5")


def test_every_identity_passes_at_1e20():
    # Light full-catalog sweep at the tighter tolerance: first default
    # assignment plus the last (highest-dimensional) one, three points each.
    for family in catalog.register_all():
        dims_list = [family.default_dims[0]]
        if len(family.default_dims) > 1:
            dims_list.append(family.default_dims[-1])
        for dims in dims_list:
            identity = family.instantiate(dims)
            for ctx in catalog.sample_domain(identity, seed=71, count=3):
                result = catalog.verify(identity, ctx, tolerance=mpf("1e-20"))
                assert result.passed, (family.id, dims, result.rel_error)


class TestStatedSpecialCases:
    def test_bibasic_reduces_to_heine_at_unit_exponents(self):
        heine = catalog.lookup("heine_2phi1").instantiate()
        bibasic = catalog.lookup("bibasic_heine").instantiate()
        for params, bases in sample_points(heine, seed=31, count=3):
            flat = BaseSystem(bases.q, 1, 1, bases.prec)
            lhs0, rhs0 = side_values(heine, params, flat)
            with mp.workprec(flat.prec):
                mapped = {
                    "a": params["a"],
                    "b": params["c"] / params["b"],
                    "w": params["b"],
                    "z": params["z"],
                }
            lhs1, rhs1 = side_values(bibasic, mapped, flat)
            assert rel(lhs0, lhs1) < mpf("1e-20")
            assert rel(rhs0, rhs1) < mpf("1e-20")

    @pytest.mark.parametrize("n", [2, 3])
    def test_extra_c_at_c_zero_matches_plain_product_side(self, n):
        family = catalog.lookup("an_qbin_extra_c")
        identity = family.instantiate({"n": n})
        for params, bases in sample_points(identity, seed=37, count=3):
            params = dict(params)
            params["c"] = mpf(0)
            ctx = make_context(params, bases)
            result = catalog.verify(identity, ctx, tolerance=mpf("1e-20"))
            assert result.passed

    def test_ram_17_extension_collapses_to_classical(self):
        classical = catalog.lookup("ram_1_4_17").instantiate()
        extension = catalog.lookup("ram_1_4_17_anm").instantiate({"n": 1, "m": 1})
        for params, bases in sample_points(classical, seed=41, count=3):
            lhs0, rhs0 = side_values(classical, params, bases)
            lhs1, rhs1 = side_values(extension, params, bases)
            assert rel(lhs0, lhs1) < mpf("1e-20")
            assert rel(rhs0, rhs1) < mpf("1e-20")

    def test_companion_extension_wiring(self):
        # At n = 1 the companion extension coincides with the single-theta
        # extension (dimension symbols swapped)...
        companion = catalog.lookup("ram_1_4_10_c").instantiate({"n": 1, "m": 2})
        single_theta = catalog.lookup("ram_1_4_10_m1").instantiate({"n": 2})
        for params, bases in sample_points(single_theta, seed=43, count=2):
            lhs0, rhs0 = side_values(single_theta, params, bases)
            lhs1, rhs1 = side_values(companion, params, bases)
            assert rel(lhs0, lhs1) < mpf("1e-20")
            assert rel(rhs0, rhs1) < mpf("1e-20")
        # ... and at m = 1 with its single-sum form.
        companion = catalog.lookup("ram_1_4_10_c").instantiate({"n": 2, "m": 1})
        single_sum = catalog.lookup("ram_1_4_10_n_single").instantiate({"n": 2})
        for params, bases in sample_points(single_sum, seed=44, count=2):
            lhs0, rhs0 = side_values(single_sum, params, bases)
            lhs1, rhs1 = side_values(companion, params, bases)
            assert rel(lhs0, lhs1) < mpf("1e-20")
            assert rel(rhs0, rhs1) < mpf("1e-20")


class TestTermTables:
    """The run-cached sq_ratio and Vandermonde helper against the direct
    formulas, bit for bit."""

    @staticmethod
    def _point(rng, n, complex_x):
        def coord(lo, hi):
            return mpf(rng.uniform(lo, hi))

        avec = tuple(coord(-0.8, 0.8) for _ in range(n))
        if complex_x:
            x = tuple(mpc(coord(0.6, 1.8), coord(-0.5, 0.5)) for _ in range(n))
        else:
            x = tuple(coord(0.6, 1.8) for _ in range(n))
        k = tuple(rng.randint(0, 4) for _ in range(n))
        return avec, x, k

    @staticmethod
    def _direct_sq_ratio(avec, x, base, k):
        value = mpf(1)
        for r in range(len(x)):
            if k[r] == 0:
                continue
            for s in range(len(x)):
                ratio = x[r] / x[s]
                value *= qpoch_finite(avec[s] * ratio, base, k[r])
                value /= qpoch_finite(base * ratio, base, k[r])
        return value

    @pytest.mark.parametrize("complex_x", [False, True])
    def test_matches_direct_formulas(self, complex_x):
        rng = random.Random(7 + complex_x)
        base = mpf("0.45")
        for _ in range(30):
            n = rng.randint(1, 3)
            avec, x, k = self._point(rng, n, complex_x)
            cache = PochCache(128)
            for _ in range(2):  # the second pass reads the cached tables
                cached = from_raw(core.sq_ratio(cache, avec, x, base, k))
                assert cached == self._direct_sq_ratio(avec, x, base, k)
                want = vandermonde_ratio_loop(x, k, base)
                assert from_raw(vandermonde_ratio(x, k, base, cache)) == want

    def test_coincident_variables_raise(self):
        cache = PochCache(128)
        x = (mpf("0.7"), mpf("1.1"), mpf("0.7"))
        for _ in range(2):
            with pytest.raises(DegenerateVariables):
                vandermonde_ratio(x, (1, 0, 2), mpf("0.4"), cache)


class TestEulerExponential:
    """The A_n Euler exponential summation, sum_k V(x, k) prod_r
    q^{C(k_r,2)}/(q;q)_{k_r} z^{|k|} q^{sum (r-1)k_r}, equals its product
    prod_{r<n} (-z q^r; q)_oo whatever the distinct x.  The stretched
    summation, sum_k V(x, k; q^n) prod_r q^{C(n k_r+1,2)}/(q^r;q)_{n k_r}
    z^{|k|} q^{2n sum (r-1)k_r - n(n-1)|k|}, equals ((-1)^n z q^n; q^n)_oo at
    x_r = q^{r-1}."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("z", [mpf("0.35"), mpf("-0.6"), mpc("0.2", "-0.45")])
    @pytest.mark.parametrize("geometric", [False, True, "stretched"])
    def test_sum_equals_product(self, n, z, geometric):
        bases = BaseSystem(mpf("0.45"))
        # Built at mpmath's default 53 bits: geom multiplies at the
        # precision it is given, the run's.
        with mp.workprec(53):
            if geometric == "stretched":
                summation = stretched_euler_summation(n, bases.q, bases.prec)
            elif geometric:
                x = core.geom(bases.q, n, bases.prec)
                summation = euler_exp_summation(x, bases.q, bases.prec)
            else:
                x = core.distinct_vector(random.Random(n), n)
                summation = euler_exp_summation(x, bases.q, bases.prec)
        side = SeriesSide(n, lambda ctx, k: summation.term(ctx.poch, z, k))
        # Products truncated at 1e-36, below the 1e-30 of the default.
        ctx = make_context({}, bases, tol=mpf("1e-36"))
        policy = TruncationPolicy(max_shell_weight=60, tail_ratio_tol=1e-36)
        value, diag = evaluate_in_context(side, ctx, policy)
        with mp.workprec(bases.prec):
            assert diag.converged
            assert rel(value, from_raw(summation.product(ctx.poch, z))) < mpf("1e-30")


class TestStretchPrecision:
    """Every summation builder that forms constants from its parameters (a
    stretch, the arguments of its product or summand) forms them at the
    precision it is given: built at 53 bits or at 128, its two sides sum to
    the same values at 128 bits, bit for bit."""

    @pytest.mark.parametrize(
        "name",
        [
            "q_euler",
            "kajihara",
            "milne_lilly",
            "gk",
            "euler_exp",
            "stretched_euler",
            "extra_c",
        ],
    )
    def test_built_at_53_bits_sums_as_at_128(self, name):
        bases = BaseSystem(mpf("0.35"))
        sums = []
        for build_prec in (53, 128):
            build = util.summation_builds(bases.q, bases.prec)[name]
            with mp.workprec(build_prec):
                summation = build()
            sides = core.summation_sides(
                (summation.dimension, summation.inner_dimension),
                lambda ctx: (summation, mpf("0.15")),
            )
            ctx = make_context({}, bases)
            sums.append([evaluate_in_context(side, ctx)[0] for side in sides])
        assert sums[0] == sums[1]


# -- unfactored summands of the block-factored sides --------------------------
#
# Each rebuilds every factor for every term, in the order the summand is
# displayed; the catalog evaluates the same factors once per block index.
# Every reference writes the side out by hand; the catalog builds both sides
# of each of these families with multisum.heine_sides.


def _unit(ctx):
    return mpf(1)


def _kajihara_double_prefactor(ctx):
    P, B, p = ctx.poch, ctx.bases, ctx.params
    m_arg = math.prod(p["a"]) * math.prod(p["b"])
    m_arg /= p["c"] ** len(p["b"])
    d_arg = math.prod(p["d"]) * math.prod(p["e"])
    d_arg /= p["f"] ** len(p["e"])
    return (
        P.infinite(p["w"], B.qt)
        * P.infinite(m_arg * p["z"], B.qh)
        / (P.infinite(d_arg * p["w"], B.qt) * P.infinite(p["z"], B.qh))
    )


def _kajihara_double_reference(dims, outer, inner, swap):
    """One side of kajihara_double; ``outer`` and ``inner`` are the grids
    (names, base attribute, argument name), ``swap`` the dimension pair."""

    def term(ctx, idx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        (a, b, c, x, big_x), outer_base, z = outer
        (d, e, f, y, big_y), inner_base, w = inner
        n = dims[swap[0]]
        k, kt = idx[:n], idx[n:]
        base, other = getattr(B, outer_base), getattr(B, inner_base)
        kk = sum(k)
        scale = P.intpow(B.qht, kk)
        stretched = math.prod(p[d]) * math.prod(p[e])
        stretched = stretched / p[f] ** dims[swap[1]] * p[w]
        value = util.vandermonde(p[x], k, base, P)
        value *= util.sq(P, p[a], p[x], base, k)
        value = util.times_rows(
            value, grid_rows(P, p[b], p[c], p[x], p[big_x], base), k
        )
        value *= P.ratio(p[w], other, scale) / P.ratio(stretched, other, scale)
        value *= P.intpow(p[z], kk) * P.intpow(base, core.staircase(k))
        value *= util.vandermonde(p[big_y], kt, other, P)
        rows = inner_rows(P, p[d], p[e], p[f], p[y], p[big_y], other)
        value = util.times_rows(value, rows, kt)
        return value * (stretched * scale) ** sum(kt) * P.intpow(
            other, core.staircase(kt)
        )

    return term


def _master_big_reference(dims):
    def term(ctx, idx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        k1, k2 = idx[: dims["n1"]], idx[dims["n1"] :]
        base1, base2 = B.power(p["h1"]), B.power(p["h2"])
        x1 = p["x1"]
        value = util.vandermonde(x1, k1, base1, P)
        value *= util.sq(P, p["a1"], x1, base1, k1)
        value *= util.vandermonde(p["x2"], k2, base2, P)
        for kr in k2:
            value *= P.finite(p["a2"], base2, kr) / P.finite(base2, base2, kr)
        scale = P.intpow(B.power(B.t * p["h1"]), sum(k1))
        scale *= P.intpow(B.power(B.t * p["h2"]), sum(k2))
        big_bw = math.prod(p["b"]) * p["w"]
        value *= P.ratio(p["w"], B.qt, scale) / P.ratio(big_bw, B.qt, scale)
        value *= P.intpow(p["z1"], sum(k1)) * P.intpow(p["z2"], sum(k2))
        value *= P.intpow(base1, core.staircase(k1) + e2(k1))
        value *= P.intpow(base2, core.staircase(k2))
        for xr, kr in zip(x1, k1):
            value *= P.intpow(xr, -kr)
        return value

    return term


def _master_lauricella_reference(dims):
    def term(ctx, idx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        l, k = idx[: dims["p"]], idx[dims["p"] :]
        x = p["x"]
        value = util.vandermonde(x, k, B.qh, P) * util.sq(P, p["a"], x, B.qh, k)
        for cr, ur, lr in zip(p["cp"], p["u"], l):
            value *= P.finite(cr, B.qh, lr) / P.finite(B.qh, B.qh, lr)
            value *= P.intpow(ur, lr)
        scale = P.intpow(B.qht, sum(k) + sum(l))
        big_bw = math.prod(p["b"]) * p["w"]
        value *= P.ratio(p["w"], B.qt, scale) / P.ratio(big_bw, B.qt, scale)
        return value * P.intpow(p["z"], sum(k)) * P.intpow(B.qh, core.staircase(k))

    return term


def _heine7_reference(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        x = p["x"]
        scale = P.intpow(B.qht, sum(k))
        value = util.vandermonde(x, k, B.qh, P)
        value *= util.sq(ctx.poch, p["a"], x, B.qh, k)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.ratio(wy, B.qt, scale)
            value /= P.ratio(p["b"][r] * wy, B.qt, scale)
        value *= (
            P.intpow(p["z"], sum(k))
            * P.intpow(B.qh, core.staircase(k))
            * P.intpow(B.qh, e2(k))
        )
        for r in range(n):
            value *= P.intpow(x[r], -k[r])
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        value = mpf(1)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.infinite(wy, B.qt) / P.infinite(p["b"][r] * wy, B.qt)
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.infinite(p["a"][r] * zx, B.qh) / P.infinite(zx, B.qh)
        return value

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        y = p["y"]
        scale = P.intpow(B.qht, sum(j))
        value = util.vandermonde(y, j, B.qt, P)
        value *= util.sq(ctx.poch, p["b"], y, B.qt, j)
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.ratio(zx, B.qh, scale)
            value /= P.ratio(p["a"][r] * zx, B.qh, scale)
        value *= (
            P.intpow(p["w"], sum(j))
            * P.intpow(B.qt, core.staircase(j))
            * P.intpow(B.qt, e2(j))
        )
        for r in range(m):
            value *= P.intpow(y[r], -j[r])
        return value

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _heine8_reference(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        x = p["x"]
        scale = P.intpow(B.qht, sum(k))
        value = util.vandermonde(x, k, B.qh, P)
        value *= util.sq(ctx.poch, p["a"], x, B.qh, k)
        for r in range(m):
            shifted_w = p["w"] * P.intpow(B.qt, r)
            value *= P.ratio(shifted_w, B.qt, scale)
            value /= P.ratio(p["b"] * shifted_w, B.qt, scale)
        value *= (
            P.intpow(p["z"], sum(k))
            * P.intpow(B.qh, core.staircase(k))
            * P.intpow(B.qh, e2(k))
        )
        for r in range(n):
            value *= P.intpow(x[r], -k[r])
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        value = mpf(1)
        for r in range(m):
            shifted_w = p["w"] * B.qt**r
            value *= P.infinite(shifted_w, B.qt)
            value /= P.infinite(p["b"] * shifted_w, B.qt)
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.infinite(p["a"][r] * zx, B.qh) / P.infinite(zx, B.qh)
        return value

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        scale = P.intpow(B.qht, sum(j))
        value = util.vandermonde(p["y"], j, B.qt, P)
        for r in range(m):
            value *= P.finite(p["b"], B.qt, j[r]) / P.finite(B.qt, B.qt, j[r])
        for r in range(n):
            zx = p["z"] / p["x"][r]
            value *= P.ratio(zx, B.qh, scale)
            value /= P.ratio(p["a"][r] * zx, B.qh, scale)
        return value * P.intpow(p["w"], sum(j)) * P.intpow(B.qt, core.staircase(j))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _heine1_reference(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        x = p["x"]
        kk = sum(k)
        big_a = math.prod(p["a"])
        scale = P.intpow(B.qht, kk)
        value = util.vandermonde(x, k, B.qh, P)
        value *= util.sq(ctx.poch, p["a"], x, B.qh, k)
        value *= P.intpow(p["z"], kk) * P.intpow(B.qh, core.staircase(k))
        for r in range(n):
            cx = p["c"] * x[r]
            value *= P.finite(cx / big_a, B.qh, k[r]) * P.finite(cx, B.qh, kk)
            value /= P.finite(cx, B.qh, k[r]) * P.finite(cx / p["a"][r], B.qh, kk)
        big_b = math.prod(p["b"])
        value *= P.ratio(p["w"], B.qt, scale)
        value /= P.ratio(big_b * p["w"], B.qt, scale)
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        big_a = math.prod(p["a"])
        big_b = math.prod(p["b"])
        return (
            P.infinite(p["w"], B.qt)
            / P.infinite(big_b * p["w"], B.qt)
            * P.infinite(big_a * p["z"], B.qh)
            / P.infinite(p["z"], B.qh)
        )

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        y = p["y"]
        jj = sum(j)
        big_a = math.prod(p["a"])
        big_b = math.prod(p["b"])
        scale = P.intpow(B.qht, jj)
        value = util.vandermonde(y, j, B.qt, P)
        value *= util.sq(ctx.poch, p["b"], y, B.qt, j)
        value *= P.intpow(p["w"], jj) * P.intpow(B.qt, core.staircase(j))
        for r in range(m):
            dy = p["d"] * y[r]
            value *= P.finite(dy / big_b, B.qt, j[r]) * P.finite(dy, B.qt, jj)
            value /= P.finite(dy, B.qt, j[r]) * P.finite(dy / p["b"][r], B.qt, jj)
        value *= P.ratio(p["z"], B.qh, scale)
        value /= P.ratio(big_a * p["z"], B.qh, scale)
        return value

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _heine2_reference(dims):
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        scale = P.intpow(B.qht, sum(k))
        x = p["x"]
        value = util.vandermonde(x, k, B.qh, P)
        value *= util.sq(ctx.poch, p["a"], x, B.qh, k)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.ratio(wy, B.qt, scale)
            value /= P.ratio(p["b"][r] * wy, B.qt, scale)
        return value * P.intpow(p["z"], sum(k)) * P.intpow(B.qh, core.staircase(k))

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        big_a = math.prod(p["a"])
        value = mpf(1)
        for r in range(m):
            wy = p["w"] / p["y"][r]
            value *= P.infinite(wy, B.qt) / P.infinite(p["b"][r] * wy, B.qt)
        return value * P.infinite(big_a * p["z"], B.qh) / P.infinite(p["z"], B.qh)

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        y = p["y"]
        big_a = math.prod(p["a"])
        scale = P.intpow(B.qht, sum(j))
        value = util.vandermonde(y, j, B.qt, P)
        value *= util.sq(ctx.poch, p["b"], y, B.qt, j)
        value *= P.ratio(p["z"], B.qh, scale) / P.ratio(big_a * p["z"], B.qh, scale)
        value *= (
            P.intpow(p["w"], sum(j))
            * P.intpow(B.qt, core.staircase(j))
            * P.intpow(B.qt, e2(j))
        )
        for r in range(m):
            value *= P.intpow(y[r], -j[r])
        return value

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _qlauricella_reference(dims):
    p_dim = dims["p"]

    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        value = mpf(1)
        scale = mpf(1)
        for r in range(p_dim):
            base_r = B.power(p["hexp"][r])
            value *= P.finite(p["a"][r], base_r, k[r])
            value /= P.finite(base_r, base_r, k[r])
            value *= P.intpow(p["z"][r], k[r])
            scale *= P.intpow(B.power(B.t * p["hexp"][r]), k[r])
        value *= P.ratio(p["w"], B.qt, scale)
        value /= P.ratio(p["b"] * p["w"], B.qt, scale)
        return value

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        value = P.infinite(p["w"], B.qt) / P.infinite(p["b"] * p["w"], B.qt)
        for r in range(p_dim):
            base_r = B.power(p["hexp"][r])
            value *= P.infinite(p["a"][r] * p["z"][r], base_r)
            value /= P.infinite(p["z"][r], base_r)
        return value

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        jj = j[0]
        value = P.finite(p["b"], B.qt, jj) / P.finite(B.qt, B.qt, jj)
        for r in range(p_dim):
            base_r = B.power(p["hexp"][r])
            scale = P.intpow(B.power(B.t * p["hexp"][r]), jj)
            value *= P.ratio(p["z"][r], base_r, scale)
            value /= P.ratio(p["a"][r] * p["z"][r], base_r, scale)
        return value * P.intpow(p["w"], jj)

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _ram_1_4_1_reference(dims):
    """ram_1_4_1_anm as displayed; at n = m = 1 it is ram_core."""
    n, m = dims.get("n", 1), dims.get("m", 1)

    def lhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        q_tm = B.power(B.t * m)
        value = mpf(1)
        for r in range(1, m + 1):
            value *= P.infinite(p["a"] * q_tm**r, q_tm)
            value /= P.infinite(-p["b"] * B.q * q_tm**r, q_tm)
        value *= P.infinite(p["c"] * B.q * B.qh, B.qh)
        return value / P.infinite(p["d"] * B.qh, B.qh)

    def lhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        q_tm = B.power(B.t * m)
        jj = sum(j)
        scale = P.intpow(B.power(B.h * B.t * m * n), jj)
        value = util.vandermonde(core.geom(B.qt, m, B.prec), j, q_tm, P)
        for r in range(m):
            value *= P.finite(-p["b"] * B.q / p["a"], q_tm, j[r])
            value /= P.finite(q_tm, q_tm, j[r])
        value *= P.ratio(p["d"] * B.qh, B.qh, scale)
        value /= P.ratio(p["c"] * B.q * B.qh, B.qh, scale)
        return value * P.intpow(p["a"] * q_tm, jj) * P.intpow(q_tm, core.staircase(j))

    def rhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        q_tm, q_hn = B.power(B.t * m), B.power(B.h * n)
        kk = sum(k)
        scale = P.intpow(B.power(B.h * B.t * m * n), kk)
        value = util.vandermonde(core.geom(B.qh, n, B.prec), k, q_hn, P)
        for r in range(1, n + 1):
            shift = B.power(B.h * (r - n))
            value *= P.finite(p["c"] * B.q * shift / p["d"], B.qh, n * k[r - 1])
            value /= P.finite(P.intpow(B.qh, r), B.qh, n * k[r - 1])
        for r in range(1, m + 1):
            value *= P.ratio(p["a"] * P.intpow(q_tm, r), q_tm, scale)
            value /= P.ratio(-p["b"] * B.q * P.intpow(q_tm, r), q_tm, scale)
        value *= P.intpow(p["d"] * q_hn, kk)
        return value * P.intpow(B.qh, (n - 1) * core.staircase(k) + n * e2(k))

    return {"lhs": (lhs_term, lhs_prefactor), "rhs": (rhs_term, _unit)}


def _partial_theta_reference(dims, exponents):
    """ram_eq26_a2 (exponents (t, h, htm)) and ram_eq26_a3 ((1, 1, mt)) as
    displayed; at m = 1 they are ram_1_4_12 and ram_1_4_17."""
    m = dims.get("m", 1)

    def lhs_prefactor(ctx):
        P, B = ctx.poch, ctx.bases
        base = B.power(exponents(B, m)[1])
        return P.infinite(-ctx.params["a"] * base, base)

    def lhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        e, f, g = exponents(B, m)
        q_em, base = B.power(e * m), B.power(f)
        jj = sum(j)
        value = util.vandermonde(core.geom(B.power(e), m, B.prec), j, q_em, P)
        for r in range(m):
            value /= P.finite(q_em, q_em, j[r])
        value *= P.intpow(p["b"], jj) / P.ratio(-p["a"] * base, base, B.power(g) ** jj)
        return value * P.intpow(q_em, core.staircase(j) + sum(core.tri(x) for x in j))

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        q_em = B.power(exponents(B, m)[0] * m)
        value = mpf(1)
        for r in range(1, m + 1):
            value *= P.infinite(-p["b"] * q_em**r, q_em)
        return value

    def rhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        e, f, g = exponents(B, m)
        q_em, base = B.power(e * m), B.power(f)
        kk = k[0]
        value = P.intpow(p["a"], kk) * P.intpow(base, core.tri(kk))
        value /= P.finite(base, base, kk)
        for r in range(1, m + 1):
            value /= P.ratio(-p["b"] * P.intpow(q_em, r), q_em, B.power(g) ** kk)
        return value

    return {"lhs": (lhs_term, lhs_prefactor), "rhs": (rhs_term, rhs_prefactor)}


def _eq26_a2_reference(dims):
    return _partial_theta_reference(dims, lambda B, m: (B.t, B.h, B.h * B.t * m))


def _eq26_a3_reference(dims):
    return _partial_theta_reference(dims, lambda B, m: (1, 1, m * B.t))


def _stretched_theta_reference(dims, exponents):
    """ram_eq26_b (exponents (t, h, hntm)) and ram_1_4_17_anm ((1, 1, ntm))
    as displayed: the m-fold quadratic sum in base q^e at b against the
    n-fold product in base q^f at a, and the other way round."""
    n, m = dims["n"], dims["m"]

    def side(dim, name, slot, o_dim, o_name, o_slot):
        def product_args(ctx):
            B = ctx.bases
            o_base = B.power(exponents(B, n, m)[o_slot])
            return (-ctx.params[o_name] * o_base) ** o_dim, o_base**o_dim

        def prefactor(ctx):
            return ctx.poch.infinite(*product_args(ctx))

        def term(ctx, k):
            P, B, p = ctx.poch, ctx.bases, ctx.params
            exps, kk = exponents(B, n, m), sum(k)
            base, scale = B.power(exps[slot]), B.power(exps[2]) ** kk
            value = util.vandermonde(core.geom(base, dim, B.prec), k, base**dim, P)
            for r in range(1, dim + 1):
                value /= P.finite(base**r, base, dim * k[r - 1])
            value *= p[name] ** (dim * kk) / P.ratio(*product_args(ctx), scale)
            exponent = 2 * dim * core.staircase(k) - dim * (dim - 1) * kk
            return value * base ** (exponent + sum(core.tri(dim * x) for x in k))

        return term, prefactor

    return {"lhs": side(m, "b", 0, n, "a", 1), "rhs": side(n, "a", 1, m, "b", 0)}


def _eq26_b_reference(dims):
    return _stretched_theta_reference(
        dims, lambda B, n, m: (B.t, B.h, B.h * n * B.t * m)
    )


def _1_4_17_anm_reference(dims):
    return _stretched_theta_reference(dims, lambda B, n, m: (1, 1, n * m * B.t))


def _bibasic_heine_reference(dims):
    def lhs_term(ctx, k):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        kk = k[0]
        scale = P.intpow(B.qht, kk)
        return (
            P.finite(p["a"], B.qh, kk)
            / P.finite(B.qh, B.qh, kk)
            * P.ratio(p["w"], B.qt, scale)
            / P.ratio(p["b"] * p["w"], B.qt, scale)
            * P.intpow(p["z"], kk)
        )

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        return (
            P.infinite(p["w"], B.qt)
            * P.infinite(p["a"] * p["z"], B.qh)
            / (P.infinite(p["b"] * p["w"], B.qt) * P.infinite(p["z"], B.qh))
        )

    def rhs_term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        jj = j[0]
        scale = P.intpow(B.qht, jj)
        return (
            P.finite(p["b"], B.qt, jj)
            / P.finite(B.qt, B.qt, jj)
            * P.ratio(p["z"], B.qh, scale)
            / P.ratio(p["a"] * p["z"], B.qh, scale)
            * P.intpow(p["w"], jj)
        )

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _bibasic_euler_reference(dims):
    def side(names, base, argument, inner_names, other, other_argument):
        """The side whose outer sum is the q-Euler transformation of
        ``names`` in ``base`` at ``argument``, and whose inner sum is the
        right sum of the one of ``inner_names`` in ``other``."""

        def term(ctx, idx):
            P, B, p = ctx.poch, ctx.bases, ctx.params
            a, b, c = (p[name] for name in names)
            d, e, f = (p[name] for name in inner_names)
            q, o = getattr(B, base), getattr(B, other)
            kk, kt = idx
            inner_arg = d * e * p[other_argument] / f
            scale = P.intpow(B.qht, kk)
            return (
                P.finite(a, q, kk)
                * P.finite(b, q, kk)
                / (P.finite(q, q, kk) * P.finite(c, q, kk))
                * P.ratio(p[other_argument], o, scale)
                / P.ratio(inner_arg, o, scale)
                * P.intpow(p[argument], kk)
                * P.finite(f / d, o, kt)
                * P.finite(f / e, o, kt)
                / (P.finite(o, o, kt) * P.finite(f, o, kt))
                * (inner_arg * scale) ** kt
            )

        return term

    def rhs_prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        return (
            P.infinite(p["w"], B.qt)
            / P.infinite(p["d"] * p["e"] * p["w"] / p["f"], B.qt)
            * P.infinite(p["a"] * p["b"] * p["z"] / p["c"], B.qh)
            / P.infinite(p["z"], B.qh)
        )

    first, second = ("a", "b", "c"), ("d", "e", "f")
    return {
        "lhs": (side(first, "qh", "z", second, "qt", "w"), _unit),
        "rhs": (side(second, "qt", "w", first, "qh", "z"), rhs_prefactor),
    }


def _master_big_rhs_reference(dims):
    n2 = dims["n2"]

    def first_args(p):
        return [(p["z1"] / xr, ar * p["z1"] / xr) for ar, xr in zip(p["a1"], p["x1"])]

    def second_args(P, p, base2):
        shifted = [p["z2"] * P.intpow(base2, r) for r in range(n2)]
        return [(v, p["a2"] * v) for v in shifted]

    def prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        base1, base2 = B.power(p["h1"]), B.power(p["h2"])
        value = mpf(1)
        for zx, azx in first_args(p):
            value *= P.infinite(azx, base1) / P.infinite(zx, base1)
        for shifted, a_shifted in second_args(P, p, base2):
            value *= P.infinite(a_shifted, base2) / P.infinite(shifted, base2)
        big_bw = math.prod(p["b"]) * p["w"]
        return value * P.infinite(p["w"], B.qt) / P.infinite(big_bw, B.qt)

    def term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        base1, base2 = B.power(p["h1"]), B.power(p["h2"])
        y, jj = p["y"], sum(j)
        big_b = math.prod(p["b"])
        value = util.vandermonde(y, j, B.qt, P) * util.sq(P, p["b"], y, B.qt, j)
        for jr, yr, br in zip(j, y, p["b"]):
            cy = p["c"] * yr
            value *= P.finite(cy / big_b, B.qt, jr) * P.finite(cy, B.qt, jj)
            value /= P.finite(cy, B.qt, jr) * P.finite(cy / br, B.qt, jj)
        value *= P.intpow(p["w"], jj) * P.intpow(B.qt, core.staircase(j))
        scale1 = P.intpow(B.power(B.t * p["h1"]), jj)
        scale2 = P.intpow(B.power(B.t * p["h2"]), jj)
        for zx, azx in first_args(p):
            value *= P.ratio(zx, base1, scale1) / P.ratio(azx, base1, scale1)
        for shifted, a_shifted in second_args(P, p, base2):
            value *= P.ratio(shifted, base2, scale2)
            value /= P.ratio(a_shifted, base2, scale2)
        return value

    return term, prefactor


def _master_lauricella_rhs_reference(dims):
    def prefactor(ctx):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        big_bw = math.prod(p["b"]) * p["w"]
        big_az = math.prod(p["a"]) * p["z"]
        value = (
            P.infinite(p["w"], B.qt)
            * P.infinite(big_az, B.qh)
            / (P.infinite(big_bw, B.qt) * P.infinite(p["z"], B.qh))
        )
        for cr, ur in zip(p["cp"], p["u"]):
            value *= P.infinite(cr * ur, B.qh) / P.infinite(ur, B.qh)
        return value

    def term(ctx, j):
        P, B, p = ctx.poch, ctx.bases, ctx.params
        y, jj = p["y"], sum(j)
        big_az = math.prod(p["a"]) * p["z"]
        scale = P.intpow(B.qht, jj)
        value = util.vandermonde(y, j, B.qt, P) * util.sq(P, p["b"], y, B.qt, j)
        value *= P.ratio(p["z"], B.qh, scale) / P.ratio(big_az, B.qh, scale)
        for cr, ur in zip(p["cp"], p["u"]):
            value *= P.ratio(ur, B.qh, scale) / P.ratio(cr * ur, B.qh, scale)
        return value * P.intpow(p["w"], jj) * P.intpow(B.qt, core.staircase(j))

    return term, prefactor


def _ram_1_4_10_prefactor(ctx):
    return 1 / ctx.poch.infinite(ctx.bases.q, ctx.bases.q) ** 2


def _ram_1_4_10_reference(dims):
    """ram_1_4_10 as displayed: sum q^k/(q;q)_k^2 against 1/(q;q)_oo^2 sum
    (-1)^j q^{C(j+1,2)}."""

    def lhs_term(ctx, k):
        P, B = ctx.poch, ctx.bases
        kk = k[0]
        return P.intpow(B.q, kk) / P.finite(B.q, B.q, kk) ** 2

    def rhs_term(ctx, j):
        P, B = ctx.poch, ctx.bases
        jj = j[0]
        return (-1) ** jj * P.intpow(B.q, core.tri(jj))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, _ram_1_4_10_prefactor)}


def _stretched_head(P, q, n, k):
    """V(x, k; q^n) / prod_r (q^r; q)_{n k_r} at x_r = q^{r-1}."""
    value = util.vandermonde(core.geom(q, n, P.prec), k, q**n, P)
    for r in range(1, n + 1):
        value /= P.finite(q**r, q, n * k[r - 1])
    return value


def _linear_reference(P, q, n, k):
    """The linear stretched summand: the head times q^{n|k| + (n-1) sum_r
    (r-1)k_r + n e2(k)}."""
    exponent = n * sum(k) + (n - 1) * core.staircase(k) + n * e2(k)
    return _stretched_head(P, q, n, k) * q**exponent


def _stretched_reference(P, q, n, sign, k):
    """The stretched Euler summand in base q at z = ``sign``: the head times
    sign^{|k|} q^{2n sum_r (r-1)k_r - n(n-1)|k| + sum_r C(n k_r + 1, 2)}."""
    kk = sum(k)
    exponent = 2 * n * core.staircase(k) - n * (n - 1) * kk
    exponent += sum(core.tri(n * x) for x in k)
    return _stretched_head(P, q, n, k) * sign**kk * q**exponent


def _ram_1_4_10_m1_reference(dims):
    """ram_1_4_10_m1 as displayed: the n-fold linear sum over (q;q)_{n|k|}
    against 1/(q;q)_oo^2 sum (q;q)_{nj}/(q;q)_j (-1)^j q^{C(j+1,2)}."""
    n = dims["n"]

    def lhs_term(ctx, k):
        P, q = ctx.poch, ctx.bases.q
        return _linear_reference(P, q, n, k) / P.finite(q, q, n * sum(k))

    def rhs_term(ctx, j):
        P, q = ctx.poch, ctx.bases.q
        jj = j[0]
        value = P.finite(q, q, n * jj) / P.finite(q, q, jj)
        return value * (-1) ** jj * P.intpow(q, core.tri(jj))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, _ram_1_4_10_prefactor)}


def _ram_1_4_10_n_single_reference(dims):
    """ram_1_4_10_n_single as displayed: sum q^j/((q;q)_j (q^n;q^n)_j)
    against the n-fold stretched sum at z = (-1)^n times (q;q)_{n|k|}, over
    (q;q)_oo (q^n;q^n)_oo."""
    n = dims["n"]

    def lhs_term(ctx, j):
        P, q = ctx.poch, ctx.bases.q
        qn, jj = P.intpow(q, n), j[0]
        return P.intpow(q, jj) / (P.finite(q, q, jj) * P.finite(qn, qn, jj))

    def rhs_prefactor(ctx):
        P, q = ctx.poch, ctx.bases.q
        return 1 / (P.infinite(q, q) * P.infinite(q**n, q**n))

    def rhs_term(ctx, k):
        P, q = ctx.poch, ctx.bases.q
        value = _stretched_reference(P, q, n, (-1) ** n, k)
        return value * P.finite(q, q, n * sum(k))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _ram_1_4_9_reference(dims):
    """ram_1_4_9 as displayed: sum q^{C(j+1,2)}/(q;q)_j^2 against
    (-q;q)_oo/(q;q)_oo sum (-1)^k q^{C(k+1,2)}/((q;q)_k (-q;q)_k)."""

    def lhs_term(ctx, j):
        P, q = ctx.poch, ctx.bases.q
        jj = j[0]
        return P.intpow(q, core.tri(jj)) / P.finite(q, q, jj) ** 2

    def rhs_prefactor(ctx):
        P, q = ctx.poch, ctx.bases.q
        return P.infinite(-q, q) / P.infinite(q, q)

    def rhs_term(ctx, k):
        P, q = ctx.poch, ctx.bases.q
        kk = k[0]
        value = (-1) ** kk * P.intpow(q, core.tri(kk))
        return value / (P.finite(q, q, kk) * P.finite(-q, q, kk))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _qbin_reference(dims):
    def term(ctx, k):
        p = ctx.params
        return util.qbin_term(ctx.poch, p["a"], ctx.bases.q, p["z"], k)

    return term, _unit


def _milne_lilly_reference(dims):
    def term(ctx, k):
        p = ctx.params
        return util.milne_lilly_term(ctx.poch, p["a"], p["x"], ctx.bases.q, p["z"], k)

    return term, _unit


def _gk_reference(dims):
    def term(ctx, k):
        p = ctx.params
        return util.gk_term(ctx.poch, p["a"], p["x"], ctx.bases.q, p["z"], k)

    return term, _unit


def _extra_c_reference(dims):
    def term(ctx, k):
        p = ctx.params
        args = (p["a"], p["c"], p["x"], ctx.bases.q, p["z"], k)
        return util.extra_c_term(ctx.poch, *args)

    return term, _unit


def _inner_side(stretch, inner):
    """The product side of a single transformation: (sigma z; q)_oo /
    (z; q)_oo times sum_j inner(ctx, j) (sigma z)^{|j|}, where
    ``stretch(p)`` is sigma."""

    def prefactor(ctx):
        P, q, p = ctx.poch, ctx.bases.q, ctx.params
        return P.infinite(stretch(p) * p["z"], q) / P.infinite(p["z"], q)

    def term(ctx, j):
        p = ctx.params
        return inner(ctx, j) * (stretch(p) * p["z"]) ** sum(j)

    return term, prefactor


def _q_euler_reference(dims):
    def lhs_term(ctx, k):
        P, q, p = ctx.poch, ctx.bases.q, ctx.params
        return util.q_euler_term(P, p["a"], p["b"], p["c"], q, p["z"], k)

    def inner(ctx, j):
        P, q, p = ctx.poch, ctx.bases.q, ctx.params
        return util.q_euler_inner_term(P, p["a"], p["b"], p["c"], q, j)

    rhs = _inner_side(lambda p: p["a"] * p["b"] / p["c"], inner)
    return {"lhs": (lhs_term, _unit), "rhs": rhs}


def _kajihara_reference(dims):
    def grid(ctx):
        return tuple(ctx.params[name] for name in ("a", "b", "c", "x", "y"))

    def lhs_term(ctx, k):
        args = grid(ctx) + (ctx.bases.q, ctx.params["z"], k)
        return util.kajihara_term(ctx.poch, *args)

    def inner(ctx, j):
        return util.kajihara_inner_term(ctx.poch, *grid(ctx), ctx.bases.q, j)

    def stretch(p):
        return math.prod(p["a"]) * math.prod(p["b"]) / p["c"] ** dims["m"]

    return {"lhs": (lhs_term, _unit), "rhs": _inner_side(stretch, inner)}


def _heine_2phi1_reference(dims):
    """heine_2phi1 as displayed: 2phi1(a, b; c; z) against (b, a z)_oo /
    (c, z)_oo 2phi1(c/b, z; a z; b)."""

    def lhs_term(ctx, k):
        P, q, p = ctx.poch, ctx.bases.q, ctx.params
        kk = k[0]
        return (
            P.finite(p["a"], q, kk)
            * P.finite(p["b"], q, kk)
            / (P.finite(p["c"], q, kk) * P.finite(q, q, kk))
            * p["z"] ** kk
        )

    def rhs_prefactor(ctx):
        P, q, p = ctx.poch, ctx.bases.q, ctx.params
        return (
            P.infinite(p["b"], q)
            * P.infinite(p["a"] * p["z"], q)
            / (P.infinite(p["c"], q) * P.infinite(p["z"], q))
        )

    def rhs_term(ctx, j):
        P, q, p = ctx.poch, ctx.bases.q, ctx.params
        jj = j[0]
        return (
            P.finite(p["c"] / p["b"], q, jj)
            * P.finite(p["z"], q, jj)
            / (P.finite(p["a"] * p["z"], q, jj) * P.finite(q, q, jj))
            * p["b"] ** jj
        )

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _ram_1_4_10_anm_reference(dims):
    """ram_1_4_10_anm as displayed: the n-fold linear sum over prod_r
    (q^{mr}; q^m)_{n|k|} against the m-fold alternating sum times
    (q;q)_{mn|j|} over (q;q)_oo prod_r (q^{mr}; q^m)_oo."""
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, k):
        P, q = ctx.poch, ctx.bases.q
        extra = [P.finite(q ** (m * r), q**m, n * sum(k)) for r in range(1, m + 1)]
        return util.linear_term(P, core.geom(q, n, P.prec), q, k, extra)

    def rhs_prefactor(ctx):
        P, q = ctx.poch, ctx.bases.q
        value = 1 / P.infinite(q, q)
        for r in range(1, m + 1):
            value /= P.infinite(q ** (m * r), q**m)
        return value

    def rhs_term(ctx, j):
        P, q = ctx.poch, ctx.bases.q
        jj = sum(j)
        value = util.vandermonde(core.geom(q, m, P.prec), j, q**m, P)
        value *= P.finite(q, q, m * n * jj)
        for jr in j:
            value /= P.finite(q**m, q**m, jr)
        exponent = m * core.staircase(j) + m * sum(core.tri(jr) for jr in j)
        return value * (-1) ** jj * q**exponent

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _ram_1_4_10_c_reference(dims):
    """ram_1_4_10_c as displayed: the m-fold linear sum over
    (q^n; q^n)_{m|j|} against the n-fold stretched sum at z = (-1)^n times
    (q;q)_{mn|k|}, over (q;q)_oo (q^n;q^n)_oo."""
    n, m = dims["n"], dims["m"]

    def lhs_term(ctx, j):
        P, q = ctx.poch, ctx.bases.q
        extra = [P.finite(q**n, q**n, m * sum(j))]
        return util.linear_term(P, core.geom(q, m, P.prec), q, j, extra)

    def rhs_prefactor(ctx):
        P, q = ctx.poch, ctx.bases.q
        return 1 / (P.infinite(q, q) * P.infinite(q**n, q**n))

    def rhs_term(ctx, k):
        P, q = ctx.poch, ctx.bases.q
        x = core.geom(q, n, P.prec)
        value = util.stretched_euler_term(P, x, q, mpf(-1) ** n, k)
        return value * P.finite(q, q, m * n * sum(k))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _ram_1_4_9a_reference(dims):
    """ram_1_4_9a as displayed: the m-fold stretched sum at z = 1 over
    (q^m; q^m)_{m|j|} against the one at z = (-1)^m over ((-q)^m;
    q^m)_{m|k|}, times ((-q)^m; q^m)_oo / (q^m; q^m)_oo."""
    m = dims["m"]

    def lhs_term(ctx, j):
        P, q = ctx.poch, ctx.bases.q
        value = util.stretched_euler_term(P, core.geom(q, m, P.prec), q, mpf(1), j)
        return value / P.finite(q**m, q**m, m * sum(j))

    def rhs_prefactor(ctx):
        P, q = ctx.poch, ctx.bases.q
        return P.infinite((-q) ** m, q**m) / P.infinite(q**m, q**m)

    def rhs_term(ctx, k):
        P, q = ctx.poch, ctx.bases.q
        x = core.geom(q, m, P.prec)
        value = util.stretched_euler_term(P, x, q, mpf(-1) ** m, k)
        return value / P.finite((-q) ** m, q**m, m * sum(k))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}


def _ram_1_4_9b_reference(dims):
    """ram_1_4_9b as displayed: the m-fold stretched sum at z = 1 over
    (q;q)_{m|j|} against ((-q)^m; q^m)_oo / (q;q)_oo sum (-1)^k
    q^{C(k+1,2)} / ((q;q)_k ((-q)^m; q^m)_k)."""
    m = dims["m"]

    def lhs_term(ctx, j):
        P, q = ctx.poch, ctx.bases.q
        value = util.stretched_euler_term(P, core.geom(q, m, P.prec), q, mpf(1), j)
        return value / P.finite(q, q, m * sum(j))

    def rhs_prefactor(ctx):
        P, q = ctx.poch, ctx.bases.q
        return P.infinite((-q) ** m, q**m) / P.infinite(q, q)

    def rhs_term(ctx, k):
        P, q = ctx.poch, ctx.bases.q
        kk = k[0]
        value = (-1) ** kk * q ** core.tri(kk)
        return value / (P.finite(q, q, kk) * P.finite((-q) ** m, q**m, kk))

    return {"lhs": (lhs_term, _unit), "rhs": (rhs_term, rhs_prefactor)}



_FIRST = (("a", "b", "c", "x", "X"), "qh", "z")
_SECOND = (("d", "e", "f", "y", "Y"), "qt", "w")
# (family, side) -> dims -> (unfactored summand, prefactor)
_REFERENCES = {
    ("kajihara_double", "lhs"): lambda dims: (
        _kajihara_double_reference(dims, _FIRST, _SECOND, ("n", "nu")),
        _unit,
    ),
    ("kajihara_double", "rhs"): lambda dims: (
        _kajihara_double_reference(dims, _SECOND, _FIRST, ("m", "mu")),
        _kajihara_double_prefactor,
    ),
    ("master_instance_big", "lhs"): lambda dims: (_master_big_reference(dims), _unit),
    ("master_instance_big", "rhs"): _master_big_rhs_reference,
    ("master_instance_lauricella", "lhs"): lambda dims: (
        _master_lauricella_reference(dims),
        _unit,
    ),
    ("master_instance_lauricella", "rhs"): _master_lauricella_rhs_reference,
    # The single summations: the summed side; a transformation's product
    # side too, with its inner sum.
    ("q_binomial", "lhs"): _qbin_reference,
    ("an_qbin_milne_lilly", "rhs"): _milne_lilly_reference,
    ("an_qbin_gk", "rhs"): _gk_reference,
    ("an_qbin_extra_c", "rhs"): _extra_c_reference,
}
for _family_id, _build in (
    ("q_euler", _q_euler_reference),
    ("kajihara", _kajihara_reference),
    ("heine_2phi1", _heine_2phi1_reference),
    ("ram_1_4_10_anm", _ram_1_4_10_anm_reference),
    ("ram_1_4_10_c", _ram_1_4_10_c_reference),
    ("ram_1_4_9a", _ram_1_4_9a_reference),
    ("ram_1_4_9b", _ram_1_4_9b_reference),
    ("bibasic_heine", _bibasic_heine_reference),
    ("bibasic_euler", _bibasic_euler_reference),
    ("thm_heine7", _heine7_reference),
    ("thm_heine8", _heine8_reference),
    ("thm_heine1", _heine1_reference),
    ("thm_heine2", _heine2_reference),
    ("qlauricella_bibasic", _qlauricella_reference),
    ("ram_core", _ram_1_4_1_reference),
    ("ram_1_4_1_anm", _ram_1_4_1_reference),
    ("ram_eq26_a2", _eq26_a2_reference),
    ("ram_1_4_12", _eq26_a2_reference),
    ("ram_eq26_a3", _eq26_a3_reference),
    ("ram_1_4_17", _eq26_a3_reference),
    ("ram_eq26_b", _eq26_b_reference),
    ("ram_1_4_17_anm", _1_4_17_anm_reference),
    ("ram_1_4_10", _ram_1_4_10_reference),
    ("ram_1_4_10_m1", _ram_1_4_10_m1_reference),
    ("ram_1_4_10_n_single", _ram_1_4_10_n_single_reference),
    ("ram_1_4_9", _ram_1_4_9_reference),
):
    for _side in ("lhs", "rhs"):
        _REFERENCES[_family_id, _side] = lambda dims, b=_build, s=_side: b(dims)[s]


class TestBlockFactoredSides:
    """The block-factored sides multiply the same factors in another order:
    every term and prefactor agrees with the unfactored one to within
    2^-110, a few hundred units in the last place at 128 bits."""

    @pytest.mark.parametrize("family_id, side", sorted(_REFERENCES))
    def test_terms_match_unfactored_summand(self, family_id, side):
        family = catalog.lookup(family_id)
        for dims in family.default_dims:
            identity = family.instantiate(dims)
            params, bases = sample_points(identity, seed=9, count=1)[0]
            reference, prefactor = _REFERENCES[family_id, side](identity.dims)
            series = getattr(identity, side)
            factored = make_context(params, bases)
            direct = util.object_context(params, bases)
            with mp.workprec(bases.prec):
                value = series.prefactor(factored)
                assert rel(value, prefactor(direct)) < mpf(2) ** -110, dims
                for w in range(5):
                    for k in enumerate_shell(series.dimension, w):
                        value = from_raw(series.term(factored, k))
                        assert rel(value, reference(direct, k)) < mpf(2) ** -110, (
                            dims,
                            k,
                        )


class TestDisplayedPairsBindOnce:
    """A Ramanujan entry built by Heine's method and multiplied by a common
    factor binds its summations once per case: ``heine_sides`` and the
    common factor read one run-memoised bind."""

    @pytest.mark.parametrize(
        "identity_id, names",
        [
            ("ram_core", ("gk_summation", "milne_lilly_summation")),
            ("ram_1_4_1_anm", ("gk_summation", "milne_lilly_summation")),
            ("ram_eq26_a2", ("euler_exp_summation",)),
            ("ram_eq26_b", ("stretched_euler_summation",)),
        ],
    )
    def test_one_summation_of_each_per_case(self, monkeypatch, identity_id, names):
        calls = []
        for name in names:
            raw = getattr(ramanujan, name)

            def counted(*args, _raw=raw, _name=name):
                calls.append(_name)
                return _raw(*args)

            monkeypatch.setattr(ramanujan, name, counted)
        identity = catalog.lookup(identity_id).instantiate()
        # The draw is bound on its context when it is checked, and
        # ``verify`` reads those blocks.
        [ctx] = catalog.sample_domain(identity, seed=1, count=1)
        assert catalog.verify(identity, ctx).passed
        per_block = 2 if len(names) == 1 else 1  # block and base block
        assert sorted(calls) == sorted(names * per_block)


class TestRunArgumentsFormedOnce:
    """Arguments that do not depend on the index (q_euler's c / a and c / b,
    heine_2phi1's c / b and a z) are formed once per run, and each spec
    resolves its finite tables once per run: the number of
    ``PochCache.finite_table`` calls in a case does not grow with the
    number of terms it sums."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "--blocks", "q_euler", "--base", "q_euler"],
            ["verify", "--identity", "heine_2phi1"],
            ["verify", "--identity", "q_euler"],
        ],
        ids=["compose-q_euler", "heine_2phi1", "q_euler"],
    )
    def test_finite_table_calls_do_not_grow_with_terms(
        self, monkeypatch, tmp_path, argv
    ):
        raw = PochCache.finite_table

        def run(extra):
            """finite_table calls and terms summed per case."""
            calls = {}

            def finite_table(cache, a, base):
                calls[cache] = calls.get(cache, 0) + 1
                return raw(cache, a, base)

            monkeypatch.setattr(PochCache, "finite_table", finite_table)
            out = tmp_path / "report.jsonl"
            argv_out = argv + ["--samples", "2", "--seed", "1", "--out", str(out)]
            assert cli.main(argv_out + extra) == 0
            cases = report.parse_json_lines(out.read_text())["cases"]
            terms = [case["lhs_terms"] + case["rhs_terms"] for case in cases]
            return list(calls.values()), terms

        few_calls, few_terms = run(["--tail-tol", "1e-12", "--tol", "1e-10"])
        calls, terms = run([])
        assert all(few < more for few, more in zip(few_terms, terms)), terms
        assert calls == few_calls and min(calls) > 0
