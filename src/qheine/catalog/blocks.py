"""The shipped block library of ``heine_engine.compose``: the catalog's
summations drawn with random admissible parameters, and one
counterexample."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

from mpmath import mp, mpmathify

from ..errors import UnknownIdentity
from ..multisum import Summation
from ..qcore import raw_mul
from .an_qbinomial import extra_c_summation, gk_summation, milne_lilly_summation
from .classical import q_euler_summation, qbin_summation
from .core import coefficient, distinct_vector, signed
from .kajihara import kajihara_summation

__all__ = ["broken_block", "sample_block", "SHIPPED_BLOCK_NAMES", "BLOCK_NAMES"]


def broken_block(a, base) -> Summation:
    """Deliberate homogeneity counterexample: the q-binomial summand times
    (z; base)_k, the argument inside a rising factorial (no ``TermSpec``)."""
    a, base = mpmathify(a), mpmathify(base)
    summation = qbin_summation(a, base)
    qbin = summation.term

    def term(P, z, k):
        return raw_mul(qbin(P, z, k), P.finite(z, base, k[0]), mp.prec)

    return replace(summation, term=term, label="broken")


SHIPPED_BLOCK_NAMES = ("q_bin", "milne_lilly", "gk", "extra_c", "kajihara")
BLOCK_NAMES = SHIPPED_BLOCK_NAMES + ("q_euler", "broken")


def sample_block(
    name: str, rng: random.Random, dims: Sequence[int], base, prec: int
) -> Summation:
    """Draw a block of the named family with random admissible parameters;
    the blocks that derive constants from them multiply at ``prec`` bits.

    ``dims`` carries one entry for most families and (n, m) for the
    transformation family.
    """
    dims = tuple(dims)
    n = dims[0] if dims else 1
    if name == "q_bin":
        return qbin_summation(coefficient(rng), base)
    if name == "milne_lilly":
        return milne_lilly_summation(
            tuple(coefficient(rng) for _ in range(n)),
            distinct_vector(rng, n),
            base,
            prec,
        )
    if name == "gk":
        return gk_summation(coefficient(rng), distinct_vector(rng, n), base, prec)
    if name == "extra_c":
        return extra_c_summation(
            tuple(signed(rng, 0.35, 0.9) for _ in range(n)),
            signed(rng, 0.0, 0.45),
            distinct_vector(rng, n),
            base,
            prec,
        )
    if name == "kajihara":
        m = dims[1] if len(dims) > 1 else 1
        return kajihara_summation(
            tuple(signed(rng, 0.3, 0.9) for _ in range(n)),
            tuple(signed(rng, 0.3, 0.9) for _ in range(m)),
            signed(rng, 0.25, 0.55),
            distinct_vector(rng, n, 0.75, 1.2),
            distinct_vector(rng, m, 0.75, 1.2),
            base,
            prec,
        )
    if name == "q_euler":
        return q_euler_summation(
            coefficient(rng), coefficient(rng), signed(rng, 0.3, 0.9), base, prec
        )
    if name == "broken":
        return broken_block(coefficient(rng), base)
    raise UnknownIdentity(f"no block family named {name!r}")
