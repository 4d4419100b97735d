"""Composition of summation blocks into dimension-changing
transformations.

A block is a ``multisum.Summation``: a summation sum_k S(z; k) = P(z), or a
transformation sum_k L(z; k) = P(z) * sum_j R(sigma z; j), with its
parameters bound.  Blocks whose summand is homogeneous in the argument
(S(zH; k) = H^{|k|} S(z; k): by its form for a ``TermSpec`` with an
argument, else checked numerically) can be composed: p blocks
with bases q^{h_r}, each bound to its argument z_r and cross base q^{t h_r}
as a ``multisum.HeineBlock``, over one base block with base q^t yield a
(n_1+...+n_p)-fold to m-fold transformation, and the inner sums of
transformation blocks join the other side.  The shipped blocks are the
catalog's summations, drawn by ``catalog.blocks.sample_block``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from mpmath import mp, mpf, mpmathify

from .catalog.core import Identity, TermSpec, signed
from .errors import PropertyHViolation
from .multisum import HeineBlock, SeriesSide, Summation, TruncationPolicy, heine_sides
from .qcore import DEFAULT_PRECISION, PochCache, from_raw

__all__ = [
    "HCheckResult",
    "check_property_H",
    "compose",
    "compose_with_transformation",
]


@dataclass
class HCheckResult:
    passed: bool
    max_deviation: mpf
    trials: int

    def __bool__(self):
        return self.passed


def check_property_H(
    block: Summation,
    trials: int = 24,
    seed: int = 0,
    tol=mpf("1e-24"),
    prec: int = DEFAULT_PRECISION,
) -> HCheckResult:
    """Numerically certify homogeneity of the summand in its argument:
    S(z*H; k) = H^{|k|} S(z; k) at random (z, H, k), z inside ``arg_bound``
    (read as 1 for an entire sum)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dimension, term = block.dimension, block.term
    bound = block.arg_bound if math.isfinite(block.arg_bound) else 1.0
    rng = random.Random(seed)
    cache = PochCache(prec)
    tol = mpmathify(tol)
    worst = mpf(0)
    tiny = mpf(10) ** -280
    with mp.workprec(prec):
        for _ in range(trials):
            z = signed(rng, 0.05, 0.45 * bound)
            factor = signed(rng, 0.3, 1.3)
            if abs(z * factor) >= 0.9 * bound:
                factor = factor / (2 * abs(factor))
            k = tuple(rng.randint(0, 4) for _ in range(dimension))
            reference = from_raw(term(cache, z, k))
            if abs(reference) < tiny:
                continue
            scaled = from_raw(term(cache, z * factor, k))
            deviation = abs(scaled - factor ** sum(k) * reference) / abs(reference)
            worst = max(worst, deviation)
    return HCheckResult(passed=bool(worst <= tol), max_deviation=worst, trials=trials)


def _require_property_H(block: Summation, prec: int) -> None:
    """Refuse a summand not homogeneous in its argument.  A ``TermSpec`` with
    an argument is so by its form (z enters as z^{|k|}); code is tested."""
    inner = block.inner
    by_form = isinstance(block.term, TermSpec) and block.term.argument
    if by_form and (inner is None or isinstance(inner, TermSpec)):
        return
    result = check_property_H(block, trials=8, seed=131, prec=prec)
    if not result.passed:
        raise PropertyHViolation(
            f"block {block.label!r} fails the homogeneity check "
            f"(max deviation {mp.nstr(result.max_deviation, 5)})"
        )


# The truncation of every composed identity.
COMPOSED_POLICY = TruncationPolicy(max_shell_weight=50)


def _composed_identity(label: str, lhs: SeriesSide, rhs: SeriesSide) -> Identity:
    return Identity(
        id=label,
        dims={},
        schema=(),
        lhs=lhs,
        rhs=rhs,
        policy=COMPOSED_POLICY,
    )


def compose(blocks: tuple[HeineBlock, ...], base: HeineBlock) -> Identity:
    """Build the composed transformation for p blocks over one base block,
    any of them q-binomial or transformation blocks, each a ``HeineBlock``
    as a catalog family's ``bind`` returns them.

    The left side is the flattened sum of the block summands (and the base
    block's inner sum) times the base block's product ratio at the
    dot-product index; the right side is the base block's sum (and the
    blocks' inner sums) times the product ratios of every block at the
    stretched index.  Both are built by ``multisum.heine_sides``, and both
    bind the given blocks, so ``catalog.verify`` refuses a point outside
    their joint domain by the catalog's rule, ``multisum.domain_fault``.
    The homogeneity check runs at the working precision.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("compose needs at least one block")
    for block in blocks + (base,):
        _require_property_H(block.summation, mp.prec)

    def bind(ctx):
        return blocks, base

    lhs, rhs = heine_sides(
        tuple((b.summation.dimension, b.summation.inner_dimension) for b in blocks),
        (base.summation.dimension, base.summation.inner_dimension),
        bind,
    )
    labels = "+".join(block.summation.label for block in blocks)
    return _composed_identity(f"composed:{labels}/{base.summation.label}", lhs, rhs)


def compose_with_transformation(block: HeineBlock, base: HeineBlock) -> Identity:
    """``compose`` of one block over a base block."""
    return compose((block,), base)
