#!/usr/bin/env python3
"""Compose the blocks that four catalog Heine families bind with
``heine_engine.compose`` and compare the composed sides with the catalog
sides at one sampled point each.  Exits 1 unless every composed side equals
its catalog side exactly.

Example:
    python3 scripts/compose_showcase.py --seed 4
"""

import argparse
import sys

from mpmath import mp, mpf

from qheine import catalog, heine_engine as engine
from qheine.multisum import evaluate_in_context, make_context

mp.prec = 128

# One classical pair over a classical base; paired-vector and
# single-parameter blocks over the extra-parameter base; p one-dimensional
# blocks and a plain-product block over a plain base; a transformation pair.
FAMILIES = (
    ("bibasic_heine", None),
    ("master_instance_big", {"n1": 2, "n2": 1, "m": 2}),
    ("master_instance_lauricella", {"p": 2, "n": 1, "m": 2}),
    ("bibasic_euler", None),
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), mpf("1e-300"))


def sides(identity, ctx):
    lhs, _ = evaluate_in_context(identity.lhs, ctx, identity.policy)
    rhs, _ = evaluate_in_context(identity.rhs, ctx, identity.policy)
    return lhs, rhs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args(argv)

    differ = []
    for name, dims in FAMILIES:
        identity = catalog.lookup(name).instantiate(dims)
        [ctx] = catalog.sample_domain(identity, seed=args.seed, count=1)
        with mp.workprec(ctx.bases.prec):
            composed = engine.compose(*identity.lhs.bind(ctx))
        lhs0, rhs0 = sides(identity, ctx)
        lhs1, rhs1 = sides(composed, make_context({}, ctx.bases))
        print(f"{name}:")
        print(f"  catalog lhs  = {mp.nstr(lhs0, 30)}")
        print(f"  composed lhs = {mp.nstr(lhs1, 30)}")
        print(
            f"  lhs/rhs agreement: {mp.nstr(rel(lhs0, lhs1), 3)}"
            f" / {mp.nstr(rel(rhs0, rhs1), 3)}"
        )
        if (lhs0, rhs0) != (lhs1, rhs1):
            differ.append(name)
    if differ:
        print(f"composed sides differ from the catalog: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
