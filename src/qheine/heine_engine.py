"""Composition of summation blocks into dimension-changing
transformations.

A block is a ``multisum.Summation``: a summation sum_k S(z; k) = P(z), or a
transformation sum_k L(z; k) = P(z) * sum_j R(sigma z; j), with its
parameters bound.  Blocks whose summand is homogeneous in the argument
(S(zH; k) = H^{|k|} S(z; k), checked numerically) can be composed: p blocks
with bases q^{h_r} and one base block with base q^t yield a
(n_1+...+n_p)-fold to m-fold transformation, and the inner sums of
transformation blocks join the other side.  The shipped blocks are the
catalog's summations, drawn by ``catalog.blocks.sample_block``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mpmath import mp, mpf, mpmathify

from .catalog.core import Identity, signed
from .errors import DomainEmpty, PropertyHViolation
from .multisum import HeineBlock, SeriesSide, Summation, TruncationPolicy, heine_sides
from .qcore import DEFAULT_PRECISION, PochCache, from_raw

__all__ = [
    "BlockSlot",
    "BlockAssignment",
    "HCheckResult",
    "check_property_H",
    "compose",
    "compose_with_transformation",
]


@dataclass(frozen=True)
class BlockSlot:
    """A block with its base exponent h_r and argument z_r."""

    block: Summation
    exponent: object
    argument: object


@dataclass(frozen=True)
class BlockAssignment:
    slots: tuple[BlockSlot, ...]
    base_slot: BlockSlot
    bases: object  # BaseSystem supplying q and the power cache


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
    S(z*H; k) = H^{|k|} S(z; k) at randomly sampled (z, H, k)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dimension, term = block.dimension, block.term
    rng = random.Random(seed)
    cache = PochCache(prec)
    tol = mpmathify(tol)
    worst = mpf(0)
    tiny = mpf(10) ** -280
    with mp.workprec(prec):
        for _ in range(trials):
            z = signed(rng, 0.05, 0.45 * block.arg_bound)
            factor = signed(rng, 0.3, 1.3)
            if abs(z * factor) >= 0.9 * block.arg_bound:
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
    result = check_property_H(block, trials=8, seed=131, prec=prec)
    if not result.passed:
        raise PropertyHViolation(
            f"block {block.label!r} fails the homogeneity check "
            f"(max deviation {mp.nstr(result.max_deviation, 5)})"
        )


def _composed_identity(label: str, lhs: SeriesSide, rhs: SeriesSide) -> Identity:
    return Identity(
        id=label,
        family_id="composed",
        reference="mechanically composed transformation",
        dims={},
        schema=(),
        lhs=lhs,
        rhs=rhs,
        domain=lambda params, bases: True,
        sample=lambda rng, bases: {},
        policy=TruncationPolicy(max_shell_weight=50),
    )


def compose(assignment: BlockAssignment) -> Identity:
    """Build the composed transformation for p blocks over one base block,
    any of them q-binomial or transformation blocks.

    The left side is the flattened sum of the block summands (and the base
    block's inner sum) times the base block's product ratio at the
    dot-product index; the right side is the base block's sum (and the
    blocks' inner sums) times the product ratios of every block at the
    stretched index.  Both are built by ``multisum.heine_sides``.
    """
    slots = tuple(assignment.slots)
    base_slot = assignment.base_slot
    bases = assignment.bases
    if not slots:
        raise DomainEmpty("assignment needs at least one block")

    with mp.workprec(bases.prec):
        cross = tuple(
            bases.power(mpmathify(base_slot.exponent) * mpmathify(slot.exponent))
            for slot in slots
        )
        arguments = tuple(mpmathify(slot.argument) for slot in slots)
        base_argument = mpmathify(base_slot.argument)
    for slot, value in zip(slots, cross):
        if not abs(value) < 1:
            raise DomainEmpty(
                f"|q^(t*h)| >= 1 for block {slot.block.label!r}; no joint domain"
            )
    for slot, argument in zip(slots, arguments):
        if not abs(argument) < slot.block.arg_bound:
            raise DomainEmpty(
                f"argument {mp.nstr(argument, 5)} outside the domain of "
                f"block {slot.block.label!r}"
            )
    if not abs(base_argument) < base_slot.block.arg_bound:
        raise DomainEmpty("base argument outside the base block domain")
    for slot in slots + (base_slot,):
        _require_property_H(slot.block, bases.prec)

    blocks = tuple(map(HeineBlock, (slot.block for slot in slots), arguments, cross))
    base = HeineBlock(base_slot.block, base_argument)
    lhs, rhs = heine_sides(
        tuple((slot.block.dimension, slot.block.inner_dimension) for slot in slots),
        (base_slot.block.dimension, base_slot.block.inner_dimension),
        lambda ctx: (blocks, base),
    )
    labels = "+".join(slot.block.label for slot in slots)
    return _composed_identity(f"composed:{labels}/{base_slot.block.label}", lhs, rhs)


def compose_with_transformation(
    slot: BlockSlot, base_slot: BlockSlot, bases
) -> Identity:
    """``compose`` of one block over a base block."""
    return compose(BlockAssignment((slot,), base_slot, bases))
