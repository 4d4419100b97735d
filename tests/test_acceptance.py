"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import random
import time
import warnings

import pytest
from mpmath import mp, mpf

from qheine import (
    TruncationNotConverged,
    catalog,
    cli,
    heine_engine as engine,
    qpoch_infinite,
    report,
)
from qheine.catalog.blocks import SHIPPED_BLOCK_NAMES, sample_block
from qheine.multisum import TruncationPolicy, evaluate_in_context, make_context
from qheine.qcore import BaseSystem
from util import qpoch_finite, rel, sample_points, side_values, verify_sweep

CLASSICAL_IDS = (
    "q_binomial",
    "heine_2phi1",
    "q_euler",
    "bibasic_heine",
    "ram_core",
    "ram_1_4_10",
    "ram_1_4_17",
    "ram_1_4_12",
    "ram_1_4_9",
)

AN_IDS = (
    "thm_heine7",
    "thm_heine8",
    "thm_heine1",
    "thm_heine2",
    "an_qbin_milne_lilly",
    "an_qbin_gk",
    "an_qbin_extra_c",
    "kajihara",
)

RAMANUJAN_IDS = tuple(i for i in (f.id for f in catalog.register_all()) if i.startswith("ram_"))


def _announce(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} {extra}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {extra}"


def _dims_box(family):
    """Every dimension assignment in {1,2}^d for the family's symbols."""
    names = family.dim_names
    if not names:
        return [{}]
    out = [{}]
    for name in names:
        out = [dict(d, **{name: v}) for d in out for v in (1, 2)]
    return out


def test_criterion_1_qcore_invariants():
    started = time.perf_counter()
    rng = random.Random(101)
    worst = mpf(0)
    for _ in range(200):
        a = mpf(rng.uniform(-0.9, 0.9))
        base = mpf(rng.uniform(-0.75, 0.75))
        k = rng.randint(0, 14)
        # functional equation
        lhs = qpoch_finite(a, base, k + 1)
        rhs = qpoch_finite(a, base, k) * (1 - a * base**k)
        worst = max(worst, abs(lhs - rhs) / max(1, abs(lhs)))
        # splitting through the infinite product
        whole = qpoch_infinite(a, base)
        split = qpoch_finite(a, base, k) * qpoch_infinite(a * base**k, base)
        worst = max(worst, rel(whole, split))
        # duplication of the index
        q = mpf(rng.uniform(0.05, 0.7))
        n = rng.randint(1, 3)
        kk = rng.randint(0, 8)
        dup = mpf(1)
        for r in range(n):
            dup *= qpoch_finite(a * q**r, q**n, kk)
        worst = max(worst, rel(qpoch_finite(a, q, n * kk), dup))
    elapsed = time.perf_counter() - started
    ok = worst <= mpf("1e-25") and elapsed < 5
    _announce(
        1,
        "qcore functional/splitting/duplication invariants",
        ok,
        f"(worst rel {mp.nstr(worst, 3)}, {elapsed:.2f}s)",
    )


def test_criterion_2_classical_identities():
    started = time.perf_counter()
    worst = mpf(0)
    for identity_id in CLASSICAL_IDS:
        family = catalog.lookup(identity_id)
        worst = max(
            worst,
            verify_sweep(family, [{}], seed=202, count=10, tolerance=mpf("1e-20")),
        )
    elapsed = time.perf_counter() - started
    ok = elapsed < 30
    _announce(
        2,
        "classical identities at 1e-20 on 10 points",
        ok,
        f"(worst rel {mp.nstr(worst, 3)}, {elapsed:.2f}s)",
    )


def test_criterion_3_an_theorems():
    started = time.perf_counter()
    worst = mpf(0)
    for identity_id in AN_IDS:
        family = catalog.lookup(identity_id)
        worst = max(
            worst,
            verify_sweep(
                family, _dims_box(family), seed=303, count=5, tolerance=mpf("1e-18")
            ),
        )
    elapsed = time.perf_counter() - started
    ok = elapsed < 600
    _announce(
        3,
        "A_n theorems at 1e-18 over the {1,2} dimension box",
        ok,
        f"(worst rel {mp.nstr(worst, 3)}, {elapsed:.1f}s)",
    )


def _compare_chain(source_identity, target_identity, remap, seed, count, bound):
    """Sample from ``source_identity`` and check that ``target_identity``
    evaluated at remapped parameters produces equal side values."""
    worst = mpf(0)
    for params, bases in sample_points(source_identity, seed=seed, count=count):
        with mp.workprec(bases.prec):
            mapped = remap(params, bases)
        lhs0, rhs0 = side_values(source_identity, params, bases)
        lhs1, rhs1 = side_values(target_identity, mapped, bases)
        worst = max(worst, rel(lhs0, lhs1), rel(rhs0, rhs1))
    assert worst < bound, f"{target_identity.id} -> {source_identity.id}: {worst}"
    return worst


def test_criterion_4_reduction_chains():
    bound = mpf("1e-20")
    worst = mpf(0)
    one = mpf(1)
    bibasic = catalog.lookup("bibasic_heine").instantiate()

    # the four dimension-changing transformations at n = m = 1
    def vector_map(params, bases):
        return {
            "a": (params["a"],),
            "b": (params["b"],),
            "x": (one,),
            "y": (one,),
            "z": params["z"],
            "w": params["w"],
        }

    for target_id, remap in (
        ("thm_heine7", vector_map),
        (
            "thm_heine8",
            lambda p, b: {
                "a": (p["a"],),
                "b": p["b"],
                "x": (one,),
                "y": (one,),
                "z": p["z"],
                "w": p["w"],
            },
        ),
        (
            "thm_heine1",
            lambda p, b: {
                "a": (p["a"],),
                "b": (p["b"],),
                "c": mpf("0.3"),
                "d": mpf("0.2"),
                "x": (one,),
                "y": (one,),
                "z": p["z"],
                "w": p["w"],
            },
        ),
        ("thm_heine2", vector_map),
    ):
        target = catalog.lookup(target_id).instantiate(
            {name: 1 for name in catalog.lookup(target_id).dim_names}
        )
        worst = max(
            worst, _compare_chain(bibasic, target, remap, seed=404, count=20, bound=bound)
        )

    # partial-theta extension back to its classical form
    classical = catalog.lookup("ram_1_4_17").instantiate()
    extension = catalog.lookup("ram_1_4_17_anm").instantiate({"n": 1, "m": 1})
    worst = max(
        worst,
        _compare_chain(classical, extension, lambda p, b: p, seed=405, count=10, bound=bound),
    )

    # equal-dimension quadratic transformation at m = 1
    classical = catalog.lookup("ram_1_4_9").instantiate()
    extension = catalog.lookup("ram_1_4_9a").instantiate({"m": 1})
    worst = max(
        worst,
        _compare_chain(classical, extension, lambda p, b: p, seed=406, count=10, bound=bound),
    )

    # four-sum transformation at all dimensions 1
    euler = catalog.lookup("bibasic_euler").instantiate()
    double = catalog.lookup("kajihara_double").instantiate(
        {"n": 1, "m": 1, "nu": 1, "mu": 1}
    )
    worst = max(
        worst,
        _compare_chain(
            euler,
            double,
            lambda p, b: {
                "a": (p["a"],),
                "b": (p["b"],),
                "c": p["c"],
                "d": (p["d"],),
                "e": (p["e"],),
                "f": p["f"],
                "x": (one,),
                "X": (one,),
                "y": (one,),
                "Y": (one,),
                "z": p["z"],
                "w": p["w"],
            },
            seed=407,
            count=10,
            bound=bound,
        ),
    )

    # p-fold multibasic sum at p = 1
    single = catalog.lookup("qlauricella_bibasic").instantiate({"p": 1})
    worst = max(
        worst,
        _compare_chain(
            bibasic,
            single,
            lambda p, b: {
                "a": (p["a"],),
                "b": p["b"],
                "z": (p["z"],),
                "w": p["w"],
                "hexp": (b.h,),
            },
            seed=408,
            count=10,
            bound=bound,
        ),
    )
    _announce(
        4,
        "reduction chains agree with classical forms at 1e-20",
        True,
        f"(worst rel {mp.nstr(worst, 3)})",
    )


def test_criterion_5_ramanujan_sweep():
    started = time.perf_counter()
    assert len(RAMANUJAN_IDS) == 16
    worst = mpf(0)
    for identity_id in RAMANUJAN_IDS:
        family = catalog.lookup(identity_id)
        dims_list = [
            d for d in _dims_box(family) if all(v <= 2 for v in d.values())
        ]
        worst = max(
            worst,
            verify_sweep(family, dims_list, seed=505, count=10, tolerance=mpf("1e-18")),
        )
    elapsed = time.perf_counter() - started
    ok = elapsed < 600
    _announce(
        5,
        "Ramanujan-family sweep at 1e-18 with dimensions <= 2",
        ok,
        f"(worst rel {mp.nstr(worst, 3)}, {elapsed:.1f}s)",
    )


def test_criterion_6_master_theorem_engine():
    rng = random.Random(606)
    # homogeneity certificates for the shipped library and the counterexample
    for name in SHIPPED_BLOCK_NAMES:
        dims = (2, 2) if name == "kajihara" else (2,)
        block = sample_block(name, rng, dims, mpf("0.3"), mp.prec)
        assert engine.check_property_H(block, trials=24, seed=61).passed, name
    broken = sample_block("broken", rng, (1,), mpf("0.3"), mp.prec)
    assert not engine.check_property_H(broken, trials=24, seed=61).passed

    bound = mpf("1e-18")
    worst = mpf(0)

    # composed identities reproduce their catalog counterparts from the
    # blocks the catalog families bind
    for family_id, dims, seed in (
        ("bibasic_heine", None, 607),
        ("master_instance_big", {"n1": 2, "n2": 1, "m": 2}, 608),
        ("master_instance_lauricella", {"p": 2, "n": 1, "m": 2}, 609),
        ("bibasic_euler", None, 610),
    ):
        identity = catalog.lookup(family_id).instantiate(dims)
        for ctx in catalog.sample_domain(identity, seed=seed, count=5):
            with mp.workprec(ctx.bases.prec):
                composed = engine.compose(*identity.lhs.bind(ctx))
            lhs0, rhs0 = side_values(identity, ctx.params, ctx.bases)
            lhs1, rhs1 = side_values(composed, {}, ctx.bases)
            worst = max(worst, rel(lhs0, lhs1), rel(rhs0, rhs1))

    ok = worst < bound
    _announce(
        6,
        "block homogeneity checks and engine/catalog agreement",
        ok,
        f"(worst rel {mp.nstr(worst, 3)})",
    )


def test_criterion_7_deterministic_reports():
    config = cli.RunConfig(
        mode="verify",
        identities=["all"],
        dims=[{"n": 1, "m": 1, "p": 1, "nu": 1, "mu": 1, "n1": 1, "n2": 1}],
        samples=2,
        seed=77,
    )
    records1, code1 = cli.run_verify(config)
    records2, code2 = cli.run_verify(config)
    text1 = report.strip_volatile(report.render(records1, "json-lines"))
    text2 = report.strip_volatile(report.render(records2, "json-lines"))
    ok = code1 == code2 == 0 and text1 == text2
    _announce(
        7,
        "repeated full verification runs produce identical reports",
        ok,
        f"(exit {code1}, {len(records1)} records)",
    )


def test_criterion_8_truncation_honesty():
    checked = 0
    cases = [(identity_id, {}) for identity_id in CLASSICAL_IDS]
    cases += [
        ("thm_heine7", {"n": 2, "m": 2}),
        ("an_qbin_milne_lilly", {"n": 2}),
        ("kajihara", {"n": 2, "m": 1}),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationNotConverged)
        for identity_id, dims in cases:
            family = catalog.lookup(identity_id)
            identity = family.instantiate(dims)
            policy = identity.policy
            doubled = TruncationPolicy(
                max_shell_weight=2 * policy.max_shell_weight,
                tail_ratio_tol=policy.tail_ratio_tol,
                min_shells=policy.min_shells,
            )
            for params, bases in sample_points(identity, seed=808, count=3):
                ctx = make_context(params, bases)
                result = catalog.verify(identity, ctx, policy)
                if not result.passed:
                    continue
                for side, diag in (
                    (identity.lhs, result.lhs_diag),
                    (identity.rhs, result.rhs_diag),
                ):
                    if side.dimension == 0:
                        continue
                    deep_value, _ = evaluate_in_context(side, ctx, doubled)
                    base_value, _ = evaluate_in_context(side, ctx, policy)
                    assert abs(deep_value - base_value) <= diag.tail_bound, (
                        identity_id,
                        dims,
                    )
                    checked += 1
    _announce(
        8,
        "doubling the shell cap stays within the reported tail bound",
        True,
        f"({checked} side evaluations checked)",
    )
