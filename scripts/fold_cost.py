#!/usr/bin/env python3
"""Time the one-rounding folds of ``qcore`` against the folds they replace.

For 3, 5, 8 and 12 full-width random reals at 128, 256 and 1024 bits
(seeded, either sign, exponents within a few bits of each other), prints
two tables of microseconds per call, each the best of ``--repeat``
``timeit`` runs, the runs of the two folds alternating:

- ``raw_product`` against the sequential fold ``value = op(value, x)``
  from 1, with every third value a divisor;
- ``raw_sum`` (fixed point, one rounding) against ``value += v`` in order
  (``raw_add``).

Example:
    PYTHONPATH=src python3 scripts/fold_cost.py
"""

import argparse
import random
import sys
import timeit

from mpmath import mp
from mpmath.libmp import fone, fzero, from_man_exp

from qheine.qcore import raw_add, raw_div, raw_mul, raw_product, raw_sum

PRECISIONS = (128, 256, 1024)
COUNTS = (3, 5, 8, 12)


def sequential_product(factors, prec: int) -> tuple:
    value = fone
    for op, x in factors:
        value = op(value, x, prec)
    return value


def sequential_sum(values, prec: int) -> tuple:
    value = fzero
    for v in values:
        value = raw_add(value, v, prec)
    return value


def full_width(rng: random.Random, prec: int) -> tuple:
    man = rng.getrandbits(prec) | (1 << (prec - 1))
    return from_man_exp(-man if rng.random() < 0.5 else man, rng.randint(-4, 4) - prec)


def best(old, new, number: int, repeat: int) -> tuple:
    """Microseconds per call of ``old`` and of ``new``, each the best of
    ``repeat`` runs of ``number`` calls; the runs of the two alternate, so
    both see the same load."""
    times = [[], []]
    for _ in range(repeat):
        for call, kept in zip((old, new), times):
            kept.append(timeit.timeit(call, number=number))
    return tuple(min(kept) / number * 1e6 for kept in times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, default=2000, help="calls per run")
    parser.add_argument("--repeat", type=int, default=5, help="runs per figure")
    args = parser.parse_args(argv)
    rng = random.Random(1)
    products, sums = [], []
    for prec in PRECISIONS:
        for count in COUNTS:
            values = [full_width(rng, prec) for _ in range(count)]
            factors = [
                (raw_div if i % 3 == 2 else raw_mul, x) for i, x in enumerate(values)
            ]
            old, new = best(
                lambda: sequential_product(factors, prec),
                lambda: raw_product(factors, prec),
                args.number,
                args.repeat,
            )
            products.append((prec, count, old, new))
            with mp.workprec(prec):
                old, new = best(
                    lambda: sequential_sum(values, prec),
                    lambda: raw_sum(values),
                    args.number,
                    args.repeat,
                )
            sums.append((prec, count, old, new))
    for title, rows in (("raw_product", products), ("raw_sum", sums)):
        print(f"| bits | values | sequential µs | {title} µs | speed-up |")
        print("|---|---|---|---|---|")
        for prec, count, old, new in rows:
            print(f"| {prec} | {count} | {old:.2f} | {new:.2f} | {old / new:.2f}x |")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
