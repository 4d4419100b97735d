#!/usr/bin/env python3
"""Time one side of one catalog case, alone.

Draws the family's first sample at seed 1 (``catalog.sample_domain(identity,
1, 1)``) at 128 bits, and evaluates the requested side on a fresh context of
that draw, so no product of the other side is in its cache.  Prints one
line: the wall time of the evaluation in seconds, the indices summed
(``Diagnostics.terms``) and the shells.

Example:
    PYTHONPATH=src python3 scripts/side_cost.py master_instance_lauricella \
        --dims n=3,m=2,p=2 --side lhs
"""

import argparse
import sys
import time

from qheine import catalog
from qheine.cli import parse_dims_spec
from qheine.multisum import evaluate_in_context, make_context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family")
    parser.add_argument("--dims", type=parse_dims_spec, default=None)
    parser.add_argument("--side", choices=("lhs", "rhs"), default="lhs")
    args = parser.parse_args(argv)
    identity = catalog.lookup(args.family).instantiate(args.dims)
    [drawn] = catalog.sample_domain(identity, seed=1, count=1, prec=128)
    ctx = make_context(drawn.params, drawn.bases)
    side = getattr(identity, args.side)
    start = time.perf_counter()
    _, diag = evaluate_in_context(side, ctx, identity.policy)
    seconds = time.perf_counter() - start
    print(
        f"{args.family} {args.side} seconds={seconds:.4f} "
        f"terms={diag.terms} shells={diag.shells}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
