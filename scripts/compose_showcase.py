#!/usr/bin/env python3
"""Build the four named block compositions with ``heine_engine.compose``
and compare them against their catalog counterparts, which bind the same
summations through ``multisum.heine_sides``, at one sampled point each.

Example:
    python3 scripts/compose_showcase.py --seed 4
"""

import argparse

from mpmath import mp, mpf

from qheine import catalog, heine_engine as engine
from qheine.catalog.an_qbinomial import (
    extra_c_summation,
    gk_summation,
    milne_lilly_summation,
)
from qheine.catalog.classical import q_euler_summation, qbin_summation
from qheine.multisum import evaluate_in_context, make_context

mp.prec = 128


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), mpf("1e-300"))


def sides(identity, params, bases):
    ctx = make_context(params, bases)
    lhs, _ = evaluate_in_context(identity.lhs, ctx, identity.policy)
    rhs, _ = evaluate_in_context(identity.rhs, ctx, identity.policy)
    return lhs, rhs


def show(name, catalog_sides, composed_sides):
    lhs0, rhs0 = catalog_sides
    lhs1, rhs1 = composed_sides
    print(f"{name}:")
    print(f"  catalog lhs  = {mp.nstr(lhs0, 30)}")
    print(f"  composed lhs = {mp.nstr(lhs1, 30)}")
    print(f"  lhs/rhs agreement: {mp.nstr(rel(lhs0, lhs1), 3)} / {mp.nstr(rel(rhs0, rhs1), 3)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()
    seed = args.seed

    # one classical pair over a classical base
    target = catalog.lookup("bibasic_heine").instantiate()
    params, bases = catalog.sample_domain(target, seed=seed, count=1)[0]
    composed = engine.compose(
        engine.BlockAssignment(
            (
                engine.BlockSlot(
                    qbin_summation(params["a"], bases.qh),
                    bases.h,
                    params["z"],
                ),
            ),
            engine.BlockSlot(
                qbin_summation(params["b"], bases.qt),
                bases.t,
                params["w"],
            ),
            bases,
        )
    )
    show("bibasic_heine", sides(target, params, bases), sides(composed, {}, bases))

    # paired-vector + single-parameter blocks over the extra-parameter base
    target = catalog.lookup("master_instance_big").instantiate(
        {"n1": 2, "n2": 1, "m": 2}
    )
    params, bases = catalog.sample_domain(target, seed=seed, count=1)[0]
    with mp.workprec(bases.prec):
        slots = (
            engine.BlockSlot(
                milne_lilly_summation(
                    params["a1"], params["x1"], bases.power(params["h1"]), bases.prec
                ),
                params["h1"],
                params["z1"],
            ),
            engine.BlockSlot(
                gk_summation(
                    params["a2"], params["x2"], bases.power(params["h2"]), bases.prec
                ),
                params["h2"],
                params["z2"],
            ),
        )
        base_slot = engine.BlockSlot(
            extra_c_summation(
                params["b"], params["c"], params["y"], bases.qt, bases.prec
            ),
            bases.t,
            params["w"],
        )
    composed = engine.compose(engine.BlockAssignment(slots, base_slot, bases))
    show("master_instance_big", sides(target, params, bases), sides(composed, {}, bases))

    # p one-dimensional blocks and a plain-product block over a plain base
    target = catalog.lookup("master_instance_lauricella").instantiate(
        {"p": 2, "n": 1, "m": 2}
    )
    params, bases = catalog.sample_domain(target, seed=seed, count=1)[0]
    slots = tuple(
        engine.BlockSlot(
            qbin_summation(params["cp"][r], bases.qh),
            bases.h,
            params["u"][r],
        )
        for r in range(2)
    ) + (
        engine.BlockSlot(
            extra_c_summation(params["a"], 0, params["x"], bases.qh, bases.prec),
            bases.h,
            params["z"],
        ),
    )
    base_slot = engine.BlockSlot(
        extra_c_summation(params["b"], 0, params["y"], bases.qt, bases.prec),
        bases.t,
        params["w"],
    )
    composed = engine.compose(engine.BlockAssignment(slots, base_slot, bases))
    show(
        "master_instance_lauricella",
        sides(target, params, bases),
        sides(composed, {}, bases),
    )

    # a transformation pair
    target = catalog.lookup("bibasic_euler").instantiate()
    params, bases = catalog.sample_domain(target, seed=seed, count=1)[0]
    composed = engine.compose_with_transformation(
        engine.BlockSlot(
            q_euler_summation(
                params["a"], params["b"], params["c"], bases.qh, bases.prec
            ),
            bases.h,
            params["z"],
        ),
        engine.BlockSlot(
            q_euler_summation(
                params["d"], params["e"], params["f"], bases.qt, bases.prec
            ),
            bases.t,
            params["w"],
        ),
        bases,
    )
    show("bibasic_euler", sides(target, params, bases), sides(composed, {}, bases))


if __name__ == "__main__":
    main()
