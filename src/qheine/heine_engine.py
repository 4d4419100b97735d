"""Composable summation blocks and the mechanical construction of
dimension-changing transformations from them.

A q-binomial block is a pair (S, P) with sum_k S(z; k) = P(z) on its domain.
Blocks whose summand is homogeneous in the argument (S(zH; k) = H^{|k|}
S(z; k), checked numerically) can be composed: p blocks with bases q^{h_r}
and one base block with base q^t yield a (n_1+...+n_p)-fold to m-fold
transformation.  Transformation blocks (L, P, R triples with
sum L = P * sum R) compose the same way and produce double-sum identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from mpmath import mp, mpf, mpmathify

from .catalog.an_qbinomial import (
    extra_c_product,
    extra_c_term,
    gk_product,
    gk_term,
    milne_lilly_product,
    milne_lilly_term,
)
from .catalog.classical import (
    q_euler_inner_term,
    q_euler_product,
    q_euler_term,
    qbin_product,
    qbin_term,
)
from .catalog.core import Identity, coefficient, distinct_vector, product_over, signed
from .catalog.kajihara import kajihara_inner_term, kajihara_term
from .errors import DomainEmpty, PropertyHViolation, UnknownIdentity
from .multisum import SeriesSide, TruncationPolicy, block_term
from .qcore import DEFAULT_PRECISION, PochCache, QComplex

__all__ = [
    "QBinomialBlock",
    "TransformationBlock",
    "BlockSlot",
    "BlockAssignment",
    "HCheckResult",
    "check_property_H",
    "compose",
    "compose_with_transformation",
    "classical_qbin_block",
    "milne_lilly_block",
    "gk_block",
    "extra_parameter_block",
    "kajihara_block",
    "q_euler_block",
    "broken_block",
    "as_transformation",
    "sample_block",
    "SHIPPED_BLOCK_NAMES",
    "BLOCK_NAMES",
]


@dataclass(frozen=True)
class QBinomialBlock:
    """A summation theorem sum_k S(z; k) = P(z), parameters bound."""

    label: str
    dimension: int
    term: Callable[[PochCache, QComplex, tuple], QComplex]
    product: Callable[[PochCache, QComplex], QComplex]
    arg_bound: float = 1.0


@dataclass(frozen=True)
class TransformationBlock:
    """A transformation sum_k L(z; k) = P(z) * sum_j R(z; j), parameters
    bound.  ``inner_term`` receives the (possibly shifted) argument value."""

    label: str
    outer_dimension: int
    inner_dimension: int
    outer_term: Callable[[PochCache, QComplex, tuple], QComplex]
    inner_term: Callable[[PochCache, QComplex, tuple], QComplex]
    product: Callable[[PochCache, QComplex], QComplex]
    arg_bound: float = 1.0


AnyBlock = Union[QBinomialBlock, TransformationBlock]


def as_transformation(block: AnyBlock) -> TransformationBlock:
    """View a q-binomial block as a transformation with a trivial inner sum."""
    if isinstance(block, TransformationBlock):
        return block
    return TransformationBlock(
        label=block.label,
        outer_dimension=block.dimension,
        inner_dimension=0,
        outer_term=block.term,
        inner_term=lambda P, z, j: mpf(1),
        product=block.product,
        arg_bound=block.arg_bound,
    )


@dataclass(frozen=True)
class BlockSlot:
    """A block with its base exponent h_r and argument z_r."""

    block: AnyBlock
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
    block: AnyBlock,
    trials: int = 24,
    seed: int = 0,
    tol=mpf("1e-24"),
    prec: int = DEFAULT_PRECISION,
) -> HCheckResult:
    """Numerically certify homogeneity of the summand in its argument:
    S(z*H; k) = H^{|k|} S(z; k) at randomly sampled (z, H, k)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    view = as_transformation(block)
    dimension, term = view.outer_dimension, view.outer_term
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
            reference = term(cache, z, k)
            if abs(reference) < tiny:
                continue
            scaled = term(cache, z * factor, k)
            deviation = abs(scaled - factor ** sum(k) * reference) / abs(reference)
            worst = max(worst, deviation)
    return HCheckResult(passed=bool(worst <= tol), max_deviation=worst, trials=trials)


def _require_property_H(block: AnyBlock, prec: int) -> None:
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


def compose(assignment: BlockAssignment, check: bool = True) -> Identity:
    """Build the composed transformation for p blocks over one base block.

    The left side is the flattened (n_1+...+n_p)-fold sum of the block
    summands times the base block's product ratio at the dot-product index
    (a ``multisum.block_term``: each block summand is evaluated once per
    sub-index and the ratio once per tuple of block weights);
    the right side is the base block's m-fold sum times the product ratios
    of every block at the stretched index.
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
    if check:
        for slot in slots + (base_slot,):
            _require_property_H(slot.block, bases.prec)

    base_block = base_slot.block
    if isinstance(base_block, TransformationBlock):
        raise DomainEmpty(
            "compose() takes q-binomial blocks; use "
            "compose_with_transformation for transformation blocks"
        )
    blocks = tuple(slot.block for slot in slots)
    if any(isinstance(b, TransformationBlock) for b in blocks):
        raise DomainEmpty(
            "compose() takes q-binomial blocks; use "
            "compose_with_transformation for transformation blocks"
        )

    def block_summand(block, z_r):
        return lambda ctx, part: block.term(ctx.poch, z_r, part)

    def base_ratio(ctx, weights):
        P = ctx.poch
        scale = mpf(1)
        for s_r, w_r in zip(cross, weights):
            scale *= P.intpow(s_r, w_r)
        value = base_block.product(P, base_argument * scale)
        return value / base_block.product(P, base_argument)

    def rhs_prefactor(ctx):
        P = ctx.poch
        value = mpf(1)
        for block, z_r in zip(blocks, arguments):
            value *= block.product(P, z_r)
        return value / base_block.product(P, base_argument)

    def rhs_term(ctx, j):
        P = ctx.poch
        value = base_block.term(P, base_argument, j)
        stretch = sum(j)
        for block, s_r, z_r in zip(blocks, cross, arguments):
            shift = P.intpow(s_r, stretch)
            value *= block.product(P, z_r * shift) / block.product(P, z_r)
        return value

    sizes = tuple(block.dimension for block in blocks)
    parts = tuple(block_summand(b, z_r) for b, z_r in zip(blocks, arguments))
    label = "composed:" + "+".join(b.label for b in blocks) + "/" + base_block.label
    return _composed_identity(
        label,
        SeriesSide(sum(sizes), block_term(sizes, parts, base_ratio)),
        SeriesSide(base_block.dimension, rhs_term, rhs_prefactor),
    )


def compose_with_transformation(
    slot: BlockSlot, base_slot: BlockSlot, bases, check: bool = True
) -> Identity:
    """Compose two transformation blocks (or q-binomial blocks viewed as
    such) into the double-sum identity produced by one expansion step."""
    first = as_transformation(slot.block)
    base = as_transformation(base_slot.block)
    with mp.workprec(bases.prec):
        cross = bases.power(mpmathify(slot.exponent) * mpmathify(base_slot.exponent))
        z = mpmathify(slot.argument)
        w = mpmathify(base_slot.argument)
    if not abs(cross) < 1:
        raise DomainEmpty("|q^(t*h)| >= 1; no joint domain")
    if not (abs(z) < first.arg_bound and abs(w) < base.arg_bound):
        raise DomainEmpty("arguments outside the block domains")
    if check:
        _require_property_H(first, bases.prec)
        _require_property_H(base, bases.prec)

    n_outer = first.outer_dimension

    def lhs_term(ctx, idx):
        P = ctx.poch
        k, kt = idx[:n_outer], idx[n_outer:]
        scale = P.intpow(cross, sum(k))
        shifted = w * scale
        return (
            first.outer_term(P, z, k)
            * base.product(P, shifted)
            / base.product(P, w)
            * base.inner_term(P, shifted, kt)
        )

    m_outer = base.outer_dimension

    def rhs_prefactor(ctx):
        P = ctx.poch
        return first.product(P, z) / base.product(P, w)

    def rhs_term(ctx, idx):
        P = ctx.poch
        j, jt = idx[:m_outer], idx[m_outer:]
        scale = P.intpow(cross, sum(j))
        shifted = z * scale
        return (
            base.outer_term(P, w, j)
            * first.product(P, shifted)
            / first.product(P, z)
            * first.inner_term(P, shifted, jt)
        )

    label = f"composed:{first.label}/{base.label}"
    return _composed_identity(
        label,
        SeriesSide(n_outer + base.inner_dimension, lhs_term),
        SeriesSide(m_outer + first.inner_dimension, rhs_term, rhs_prefactor),
    )


# ---------------------------------------------------------------------------
# shipped block library
#
# Each factory binds the parameters of a catalog summation; the summands and
# product sides are the ones its catalog family verifies.


def classical_qbin_block(a, base) -> QBinomialBlock:
    a = mpmathify(a)
    base = mpmathify(base)
    return QBinomialBlock(
        "q_bin",
        1,
        lambda P, z, k: qbin_term(P, a, base, z, k),
        lambda P, z: qbin_product(P, a, base, z),
    )


def milne_lilly_block(avec, xvec, base) -> QBinomialBlock:
    avec = tuple(mpmathify(v) for v in avec)
    xvec = tuple(mpmathify(v) for v in xvec)
    base = mpmathify(base)
    return QBinomialBlock(
        "milne_lilly",
        len(xvec),
        lambda P, z, k: milne_lilly_term(P, avec, xvec, base, z, k),
        lambda P, z: milne_lilly_product(P, avec, xvec, base, z),
        arg_bound=float(min(abs(x) for x in xvec)),
    )


def gk_block(a, xvec, base) -> QBinomialBlock:
    a = mpmathify(a)
    xvec = tuple(mpmathify(v) for v in xvec)
    base = mpmathify(base)
    n = len(xvec)
    return QBinomialBlock(
        "gk",
        n,
        lambda P, z, k: gk_term(P, a, xvec, base, z, k),
        lambda P, z: gk_product(P, a, n, base, z),
    )


def extra_parameter_block(avec, c, xvec, base) -> QBinomialBlock:
    avec = tuple(mpmathify(v) for v in avec)
    c = mpmathify(c)
    xvec = tuple(mpmathify(v) for v in xvec)
    base = mpmathify(base)
    return QBinomialBlock(
        "extra_c",
        len(xvec),
        lambda P, z, k: extra_c_term(P, avec, c, xvec, base, z, k),
        lambda P, z: extra_c_product(P, avec, base, z),
    )


def kajihara_block(avec, bvec, c, xvec, yvec, base) -> TransformationBlock:
    avec = tuple(mpmathify(v) for v in avec)
    bvec = tuple(mpmathify(v) for v in bvec)
    c = mpmathify(c)
    xvec = tuple(mpmathify(v) for v in xvec)
    yvec = tuple(mpmathify(v) for v in yvec)
    base = mpmathify(base)
    grid = (avec, bvec, c, xvec, yvec)
    stretch = product_over(avec) * product_over(bvec) / c ** len(yvec)
    return TransformationBlock(
        "kajihara",
        len(xvec),
        len(yvec),
        lambda P, z, k: kajihara_term(P, *grid, base, z, k),
        lambda P, z, j: kajihara_inner_term(P, *grid, base, stretch * z, j),
        lambda P, z: q_euler_product(P, base, stretch * z, z),
        arg_bound=float(min(1, 1 / abs(stretch))),
    )


def q_euler_block(a, b, c, base) -> TransformationBlock:
    a = mpmathify(a)
    b = mpmathify(b)
    c = mpmathify(c)
    base = mpmathify(base)
    stretch = a * b / c
    return TransformationBlock(
        "q_euler",
        1,
        1,
        lambda P, z, k: q_euler_term(P, a, b, c, base, z, k),
        lambda P, z, j: q_euler_inner_term(P, a, b, c, base, stretch * z, j),
        lambda P, z: q_euler_product(P, base, stretch * z, z),
        arg_bound=float(min(1, 1 / abs(stretch))),
    )


def broken_block(a, base) -> QBinomialBlock:
    """Deliberate homogeneity counterexample: the summand carries the
    argument inside a rising factorial."""
    a = mpmathify(a)
    base = mpmathify(base)

    def term(P, z, k):
        kk = k[0]
        return (
            P.finite(a, base, kk)
            / P.finite(base, base, kk)
            * P.finite(z, base, kk)
            * P.intpow(z, kk)
        )

    def product(P, z):
        return P.infinite(a * z, base) / P.infinite(z, base)

    return QBinomialBlock("broken", 1, term, product)


SHIPPED_BLOCK_NAMES = ("q_bin", "milne_lilly", "gk", "extra_c", "kajihara")
BLOCK_NAMES = SHIPPED_BLOCK_NAMES + ("q_euler", "broken")


def sample_block(name: str, rng: random.Random, dims: Sequence[int], base) -> AnyBlock:
    """Draw a block of the named family with random admissible parameters.

    ``dims`` carries one entry for most families and (n, m) for the
    transformation family.
    """
    dims = tuple(dims)
    n = dims[0] if dims else 1
    if name == "q_bin":
        return classical_qbin_block(coefficient(rng), base)
    if name == "milne_lilly":
        return milne_lilly_block(
            tuple(coefficient(rng) for _ in range(n)),
            distinct_vector(rng, n),
            base,
        )
    if name == "gk":
        return gk_block(coefficient(rng), distinct_vector(rng, n), base)
    if name == "extra_c":
        return extra_parameter_block(
            tuple(signed(rng, 0.35, 0.9) for _ in range(n)),
            signed(rng, 0.0, 0.45),
            distinct_vector(rng, n),
            base,
        )
    if name == "kajihara":
        m = dims[1] if len(dims) > 1 else 1
        return kajihara_block(
            tuple(signed(rng, 0.3, 0.9) for _ in range(n)),
            tuple(signed(rng, 0.3, 0.9) for _ in range(m)),
            signed(rng, 0.25, 0.55),
            distinct_vector(rng, n, 0.75, 1.2),
            distinct_vector(rng, m, 0.75, 1.2),
            base,
        )
    if name == "q_euler":
        return q_euler_block(
            coefficient(rng), coefficient(rng), signed(rng, 0.3, 0.9), base
        )
    if name == "broken":
        return broken_block(coefficient(rng), base)
    raise UnknownIdentity(f"no block family named {name!r}")
