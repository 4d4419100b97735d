"""Generic evaluator for n-fold series with shell-based truncation.

A series side is a term function over multi-indices plus a prefactor.  The
sum is taken shell by shell (constant total weight |k|), in lexicographic
order inside each shell, so results are reproducible bit for bit; a side
with a block plan is summed by block weights.  Terms, and every value they
are built from, are raw ``_mpf_``/``_mpc_`` tuples; an mpf or mpc is made
per shell sum and for the side's value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import Callable, Mapping, Sequence

from mpmath import mp, mpf, mpmathify
from mpmath.libmp import fone

from .errors import (
    DegenerateVariables,
    DivisionByZero,
    LengthMismatch,
    PoleEncountered,
    TruncationNotConverged,
)
from .qcore import (
    ONE,
    BaseSystem,
    PochCache,
    QComplex,
    _pow_int,
    from_raw,
    raw_div,
    raw_mul,
    raw_product,
    raw_sum,
    value_key,
)

MultiIndex = tuple[int, ...]

_TINY = mpf(10) ** -300

# A Vandermonde pair 1 - u with |1 - u| < 2**-_LOSS_BITS has lost that many
# bits to cancellation and is recomputed by ``exact_pair``.
_LOSS_BITS = 16
_LOSS = mpf(2) ** -_LOSS_BITS


def enumerate_shell(dimension: int, shell_weight: int) -> list[MultiIndex]:
    """All compositions of ``shell_weight`` into ``dimension`` non-negative
    parts, in lexicographic order; there are C(w+n-1, n-1) of them."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if shell_weight < 0:
        raise ValueError("shell weight must be >= 0")
    if dimension == 1:
        return [(shell_weight,)]
    out: list[MultiIndex] = []
    for first in range(shell_weight + 1):
        for rest in enumerate_shell(dimension - 1, shell_weight - first):
            out.append((first,) + rest)
    return out


def exact_pair(x_r, x_s, step, d_r: int, d_s: int) -> QComplex:
    """(x_r S^{d_r} - x_s S^{d_s}) / (x_r - x_s), rounded to the working
    precision, with x_r, x_s and S = ``step`` taken as exact.

    The numerator is formed at a precision raised by the bits it loses to
    cancellation, so the value is accurate even where x_r S^{d_r} is close to
    x_s S^{d_s}.  A numerator that stays zero at four times the working
    precision is taken as an exact zero.
    """
    prec = mp.prec
    extra = 2 * _LOSS_BITS
    while True:
        with mp.workprec(prec + extra):
            left = x_r * step**d_r
            right = x_s * step**d_s
            num = left - right
            value = num / (x_r - x_s)
        lost = max(mp.mag(left), mp.mag(right)) - mp.mag(num) if num else extra
        if lost + _LOSS_BITS <= extra or extra > 4 * prec:
            return +value
        extra = max(2 * extra, lost + 2 * _LOSS_BITS)


def vandermonde_pairs(x: Sequence) -> list[tuple]:
    """(r, s, x_r/x_s, 1 - x_r/x_s, {}) for every pair r < s; the fourth
    entry is None where 1 - x_r/x_s lost more than _LOSS_BITS bits to
    cancellation, and the dict holds the pair's factors by shift."""
    pairs = []
    n = len(x)
    for r in range(n):
        for s in range(r + 1, n):
            ratio = x[r] / x[s]
            den = 1 - ratio
            if den == 0:
                raise DegenerateVariables(f"x[{r}] == x[{s}]")
            pairs.append((r, s, ratio, None if abs(den) < _LOSS else den, {}))
    return pairs


def vandermonde_ratio(
    x: Sequence, k: Sequence[int], step_power, poch: PochCache
) -> tuple:
    """Type-A Vandermonde factor in ratio form:
    prod_{r<s} (1 - S^{k_r-k_s} x_r/x_s) / (1 - x_r/x_s).

    Equals the product form prod_{r<s} (x_r S^{k_r} - x_s S^{k_s}) / (x_r -
    x_s) times S^{-sum_r (r-1) k_r}; series displays in the catalog use this
    form together with an explicit power factor.  The
    run's ``poch`` cache keeps the pair table of x and S, and in it each
    pair's raw factor under its shift k_r - k_s: a factor is computed once
    per run, at the cache precision.  A pair whose numerator or denominator
    loses more than _LOSS_BITS bits to cancellation is evaluated by
    ``exact_pair`` instead.  The factors, in pair order, are one
    ``raw_product`` at the cache precision, rounded once.  The value is
    raw; with fewer than two variables it is libmp's ``fone``.
    """
    if len(x) != len(k):
        raise LengthMismatch("x and k must have the same length")
    if len(x) < 2:
        return fone
    pairs = poch.table(
        "vandermonde", (x, step_power), lambda: vandermonde_pairs(x)
    )
    factors = []
    for pair in pairs:
        r, s, _, _, by_shift = pair
        shift = k[r] - k[s]
        factor = by_shift.get(shift)
        if factor is None:
            factor = by_shift[shift] = _pair_factor(x, step_power, pair, shift, poch)
        factors.append((raw_mul, factor))
    return raw_product(factors, poch.prec)


def _pair_factor(x, step_power, pair, shift: int, poch: PochCache) -> tuple:
    """(1 - S^shift x_r/x_s) / (1 - x_r/x_s) for one pair of
    ``vandermonde_pairs``, at the cache precision, as a raw value."""
    r, s, ratio, den, _ = pair
    step = mpmathify(step_power)
    with mp.workprec(poch.prec):
        num = 1 - from_raw(poch.intpow(value_key(step), shift)) * ratio
        if den is None or abs(num) < _LOSS:
            return value_key(exact_pair(x[r], x[s], step, shift, 0))
        return value_key(num / den)


@dataclass
class EvalContext:
    """Bundle of parameter values, base system, and per-run product cache."""

    params: Mapping
    bases: BaseSystem
    poch: PochCache


def make_context(params: Mapping, bases: BaseSystem, tol=None) -> EvalContext:
    return EvalContext(params=params, bases=bases, poch=PochCache(bases.prec, tol))


def plan_term(parts, coupling) -> Callable:
    """The ``term`` of a side whose ``parts(ctx)`` gives the run's blocks as
    groups of (size, part) pairs in index order.  ``term(ctx, k)`` is the
    summand coupling(ctx, S) * prod_r part_r(ctx, k_r), S the groups'
    weights; ``term(ctx, S, factors)``, as ``evaluate_in_context`` calls it
    once per weight tuple S, is the coupling times the groups' shell sums
    ``factors``.  The coupling and then the factors in order are one
    ``raw_product`` at the working precision, rounded once."""

    def term(ctx: EvalContext, index: MultiIndex, factors=None) -> tuple:
        if factors is None:
            weights, factors, start = [], [], 0
            for group in parts(ctx):
                weights.append(sum(index[start : start + sum(s for s, _ in group)]))
                for size, part in group:
                    factors.append(part(ctx, index[start : start + size]))
                    start += size
            index = tuple(weights)
        factors = [coupling(ctx, index), *factors]
        return raw_product([(raw_mul, f) for f in factors], mp.prec)

    return term


@dataclass(frozen=True)
class Summation:
    """A summation sum_k term(P, z, k) = product(P, z) over ``dimension``
    indices, with its parameters bound.  ``term``, ``inner`` and ``product``
    take the run's ``PochCache`` P and an mpf or mpc argument z, and
    return raw values; read one with ``qcore.from_raw``.

    A transformation has an inner sum over ``inner_dimension`` indices as
    well: sum_k term(P, z, k) = product(P, z) * sum_j inner(P, j) (stretch
    z)^{|j|}, where ``inner`` is the inner summand at unit argument.  Every
    summand is homogeneous in its argument: term(P, z H, k) = H^{|k|}
    term(P, z, k).  The sum converges for |z| < ``arg_bound`` (``math.inf``
    if it is entire), the one statement of its domain (``domain_fault``),
    and ``label`` names it in a composed identity.
    """

    dimension: int
    term: Callable
    product: Callable
    inner_dimension: int = 0
    inner: Callable | None = None
    stretch: QComplex = ONE
    arg_bound: float = 1.0
    label: str = ""


@dataclass(frozen=True)
class HeineBlock:
    """A summation bound to one run at z = ``argument``.  ``cross`` is the
    block's base raised to the power t, s = q^{t h} for a block in base q^h
    (the base block has none)."""

    summation: Summation
    argument: QComplex
    cross: QComplex = ONE


def domain_fault(bind, ctx) -> str | None:
    """Why the point of ``ctx`` lies outside the domain of the blocks and
    base block ``bind(ctx)`` returns, or None: the one domain rule.  A Heine
    pair holds where every summation it binds converges (Gasper-Rahman,
    Basic Hypergeometric Series, 1.4): each |argument| < ``arg_bound`` and
    each |cross base| < 1.  A block whose builder divides by zero is out."""
    try:
        blocks, base = bind(ctx)
    except ZeroDivisionError as exc:
        return f"a block has no value at this point ({exc})"
    for block in blocks:
        if not abs(block.cross) < 1:
            label = block.summation.label
            return f"|q^(t*h)| >= 1 for block {label!r}; no joint domain"
    for block in (*blocks, base):
        if not abs(block.argument) < block.summation.arg_bound:
            return (
                f"argument {mp.nstr(block.argument, 5)} outside the domain of "
                f"block {block.summation.label!r}"
            )
    return None


def own_product(ctx, bind, r: int) -> tuple:
    """Block r's product at its own argument, P_r(z_r), of the blocks and
    base block ``bind(ctx)`` returns (r = the number of blocks: the base
    block's P_0(w)), as a raw value.  Once per run: it is kept in the run's
    ``PochCache.terms`` under (bind, r), for the Heine couplings and for any
    prefactor that reads it."""
    memo = ctx.poch.terms
    key = (bind, r)
    value = memo.get(key)
    if value is None:
        blocks, base = bind(ctx)
        block = blocks[r] if r < len(blocks) else base
        value = memo[key] = block.summation.product(ctx.poch, block.argument)
    return value


def heine_sides(
    shapes: Sequence[tuple[int, int]], base_shape: tuple[int, int], bind
) -> tuple[SeriesSide, SeriesSide]:
    """The two sides of the Heine pair of p blocks over a base block.

    ``shapes`` gives each block's (outer, inner) dimensions and
    ``base_shape`` the base block's; an inner dimension of 0 means a plain
    summation.  ``bind(ctx)`` returns the run's blocks and base block as
    ``HeineBlock`` values; it is called once per run and kept in the run's
    ``PochCache.terms`` under ``bind``.  The products P_r(z_r) and P_0(w)
    that the couplings divide by are each ``own_product`` of the sides'
    ``SeriesSide.bind``, once per run.  With z_r, s_r,
    S_r, P_r, R_r, sigma_r the blocks' arguments, cross bases, summands,
    products, inner summands and stretches, w and index 0 for the base
    block, and s = prod_r s_r^{|k_r|}:

        lhs = sum_{k, kt} prod_r S_r(z_r; k_r) * R_0(1; kt)
                * P_0(w s)/P_0(w) * (sigma_0 w s)^{|kt|}
        rhs = prod_r P_r(z_r)/P_0(w) * sum_{j, jt} S_0(w; j) prod_r R_r(1; jt_r)
                * prod_r P_r(z_r s_r^{|j|})/P_r(z_r) (sigma_r z_r s_r^{|j|})^{|jt_r|}

    Both sides are summed by block weights (``plan_term``): the summands
    S_r and R_r are the parts, and the rest of each summand is the coupling
    of the block weights.  Expanding P_0(w s) as its sum and swapping the
    two sums turns one side into the other.  Neighbouring blocks that share
    a cross base form one group of the lhs plan and contribute one power of
    it, for the sum of their weights.  Parts and couplings are raw values;
    only the rhs prefactor is an mpf or mpc.

    Each coupling is a product ratio times an inner power.  The stretched
    product and the power's argument depend only on the lhs group weights
    or on |j| (rhs, per block); where an inner weight exists such an index
    recurs across shells, so they are computed once per index and kept for
    the run in ``PochCache.terms``.  The arithmetic runs on raw values: each
    stretched argument, and each coupling with its products, divisors and
    powers in the order of the display, is one ``raw_product`` at the
    working precision, rounded once.  The raw arguments, sigma_r z_r and
    cross bases are formed once per run and kept with the bound blocks; the
    cross bases' integer powers come from ``PochCache.intpow``, which keeps
    them for the run, so the rhs shells do not recompute a power the lhs
    asked for.  Index 0 stretches by exactly 1, so its ratio divides
    P_r(z_r) by itself and asks for no product.
    """
    p = len(shapes)
    base_outer, base_inner = base_shape
    inner_sizes = tuple(size for _, size in shapes) + (base_inner,)
    inner_blocks = [r for r in range(p) if inner_sizes[r]]

    def bound(ctx) -> tuple:
        """The run's blocks and base block, the block indices grouped into
        runs of neighbours with one cross base, and the raw values the
        couplings read: each block's argument z_r (w for the base block),
        sigma_r z_r for a block with an inner sum, and each block's cross
        base."""
        memo = ctx.poch.terms
        run = memo.get(bind)
        if run is None:
            prec = mp.prec
            blocks, base = bind(ctx)
            blocks = tuple(blocks) + (base,)
            crosses = tuple(value_key(block.cross) for block in blocks[:p])
            groups = [list(g) for _, g in groupby(range(p), crosses.__getitem__)]
            args = tuple(value_key(block.argument) for block in blocks)
            stretched_args = tuple(
                raw_mul(value_key(block.summation.stretch), z, prec)
                if size
                else None
                for block, z, size in zip(blocks, args, inner_sizes)
            )
            run = (blocks, groups, args, stretched_args, crosses)
            memo[bind] = run
        return run

    def bound_blocks(ctx) -> tuple:
        blocks = bound(ctx)[0]
        return blocks[:p], blocks[p]

    def summand(r):
        def part(ctx, k):
            block = bound(ctx)[0][r]
            return block.summation.term(ctx.poch, block.argument, k)

        return part

    def inner_summand(r):
        return lambda ctx, j: bound(ctx)[0][r].summation.inner(ctx.poch, j)

    def stretched(ctx, r, index) -> tuple:
        """Block r's product P_r(z_r S) at the stretch S of ``index`` (r =
        p: the base block, at w and the group weights; else the base block's
        outer weight |j|), and sigma_r z_r S for a block with an inner sum,
        as raw values; z_r S and sigma_r z_r S are each one ``raw_product``
        of the argument and the cross powers.  At index 0, S is exactly 1,
        so the product is P_r(z_r) and is not requested again.  Where an
        inner weight exists, the pair is kept for the run in
        ``PochCache.terms``."""
        keep = inner_sizes[r] if r == p else inner_blocks
        memo = ctx.poch.terms
        key = (stretched, r, index)
        if keep:
            value = memo.get(key)
            if value is not None:
                return value
        P = ctx.poch
        prec = mp.prec
        blocks, groups, args, stretched_args, crosses = bound(ctx)
        if r == p:
            powers = [
                (raw_mul, P.intpow(crosses[group[0]], weight))
                for group, weight in zip(groups, index)
            ]
        else:
            powers = [(raw_mul, P.intpow(crosses[r], index))]
        z = args[r]
        zs = raw_product([(raw_mul, z), *powers], prec)
        if zs == z:
            product = own_product(ctx, bound_blocks, r)
        else:
            product = blocks[r].summation.product(P, from_raw(zs))
        arg = None
        if inner_sizes[r]:
            arg = raw_product([(raw_mul, stretched_args[r]), *powers], prec)
        if keep:
            memo[key] = product, arg
        return product, arg

    def lhs_coupling(ctx, weights):
        """The lhs coupling at ``weights`` (the weight of each group of
        blocks sharing a cross base, then the base block's inner weight):
        P_0(w s)/P_0(w) times the inner power, one ``raw_product``."""
        prec = mp.prec
        product, arg = stretched(ctx, p, weights[:-1] if base_inner else weights)
        factors = [(raw_mul, product), (raw_div, own_product(ctx, bound_blocks, p))]
        if base_inner:
            factors.append((raw_mul, _pow_int(arg, weights[-1], prec)))
        return raw_product(factors, prec)

    def rhs_coupling(ctx, weights):
        """The rhs coupling at ``weights`` (|j|, then each inner weight):
        prod_r P_r(z_r s_r^{|j|})/P_r(z_r) times the inner powers, one
        ``raw_product``."""
        prec = mp.prec
        inner_weights = dict(zip(inner_blocks, weights[1:]))
        factors = []
        for r in range(p):
            product, arg = stretched(ctx, r, weights[0])
            factors += (raw_mul, product), (raw_div, own_product(ctx, bound_blocks, r))
            if r in inner_weights:
                factors.append((raw_mul, _pow_int(arg, inner_weights[r], prec)))
        return raw_product(factors, prec)

    def rhs_prefactor(ctx):
        factors = [(raw_mul, own_product(ctx, bound_blocks, r)) for r in range(p)]
        factors.append((raw_div, own_product(ctx, bound_blocks, p)))
        return from_raw(raw_product(factors, mp.prec))

    lhs_blocks = [(outer, summand(r)) for r, (outer, _) in enumerate(shapes)]
    base_group = [((base_inner, inner_summand(p)),)] if base_inner else []

    def lhs_parts(ctx):
        groups = [tuple(lhs_blocks[r] for r in group) for group in bound(ctx)[1]]
        return tuple(groups + base_group)

    rhs_groups = (((base_outer, summand(p)),),)
    rhs_groups += tuple(((inner_sizes[r], inner_summand(r)),) for r in inner_blocks)
    rhs_parts = lambda ctx: rhs_groups  # noqa: E731
    lhs_term = plan_term(lhs_parts, lhs_coupling)
    rhs_term = plan_term(rhs_parts, rhs_coupling)
    lhs_dimension = sum(outer for outer, _ in shapes) + base_inner
    rhs_dimension = base_outer + sum(inner_sizes[:p])
    return (
        SeriesSide(lhs_dimension, lhs_term, bind=bound_blocks, parts=lhs_parts),
        SeriesSide(rhs_dimension, rhs_term, rhs_prefactor, bound_blocks, rhs_parts),
    )


@dataclass(frozen=True)
class SeriesSide:
    """One side of an identity: an n-fold sum with a prefactor.

    ``dimension == 0`` denotes a pure product side (the empty sum equals 1).
    ``term`` maps (ctx, multi-index) to the summand, a raw ``_mpf_`` or
    ``_mpc_`` value; ``prefactor`` returns an mpf or mpc, and ``bind`` the
    run's blocks and base block for ``domain_fault`` (None: the side binds
    no summation); both take the context alone.  ``parts(ctx)``, if given,
    is the run's block plan: groups of (size, part) pairs in index order,
    whose ``plan_term`` with a coupling is ``term``.
    """

    dimension: int
    term: Callable[[EvalContext, MultiIndex], tuple] = lambda ctx, k: fone
    prefactor: Callable[[EvalContext], QComplex] = lambda ctx: mpf(1)
    bind: Callable[[EvalContext], tuple] | None = None
    parts: Callable[[EvalContext], tuple] | None = None


@dataclass(frozen=True)
class TruncationPolicy:
    """Shell truncation: sum shells |k| = 0..max_shell_weight, stopping early
    once two consecutive shells each contribute less than tail_ratio_tol
    times the partial sum (after min_shells shells)."""

    max_shell_weight: int = 40
    tail_ratio_tol: float = 1e-24
    min_shells: int = 6


@dataclass
class Diagnostics:
    shells: int = 0
    terms: int = 0
    tail_bound: mpf = field(default_factory=lambda: mpf(0))
    converged: bool = True


def evaluate_in_context(
    side: SeriesSide, ctx: EvalContext, policy: TruncationPolicy | None = None
) -> tuple[QComplex, Diagnostics]:
    """Sum one series side under a shared evaluation context, by block
    weights (``SeriesSide.parts``; a side without a plan is one block with
    coupling 1).

    In shell W each block's shell sum sigma(W) is the sum of its part over
    the compositions of W, a group's is the convolution of its blocks', and
    the shell is sum_{|S|=W} coupling(S) prod_g sigma_g(S_g); every sum runs
    in lexicographic order, and the shell sums are kept for this call only.
    Each shell sum is one ``raw_sum`` of raw values at the run's precision,
    and each term of a group's convolution one ``raw_product``, each rounded
    once; the shell sum is the only mpf or mpc made per shell, and the
    side's value is ``pref * total``.  ``Diagnostics.terms``
    counts the indices summed, C(W+N-1, N-1) in shell W of an N-fold side.

    A zero denominator raises ``PoleEncountered`` naming the prefactor, a
    part's index (and its block, in a plan) or a coupling's weight tuple.
    """
    if policy is None:
        policy = TruncationPolicy()
    prec = ctx.bases.prec
    with mp.workprec(prec):
        try:
            pref = side.prefactor(ctx)
        except (ZeroDivisionError, DivisionByZero) as exc:
            raise PoleEncountered(f"zero denominator in the prefactor: {exc}") from exc
        if side.dimension == 0:
            return pref, Diagnostics(shells=0, terms=0, converged=True)

        plan = side.parts(ctx) if side.parts else (((side.dimension, side.term),),)
        # Each block's shell sums by group, and each group's, for this call:
        # a one-block group's are its block's.
        sums = [[[] for _ in group] for group in plan]
        group_sums = [s[0] if len(s) == 1 else [] for s in sums]
        blocks = list(enumerate(zip(chain(*plan), chain(*sums))))

        tail_tol = mpmathify(policy.tail_ratio_tol)
        total = mpf(0)
        diag = Diagnostics()
        small_streak = 0
        prev_shell_abs = None
        shell_abs = mpf(0)

        for w in range(policy.max_shell_weight + 1):
            for b, ((size, part), block_sums) in blocks:
                values = []
                try:
                    for k in enumerate_shell(size, w):
                        values.append(part(ctx, k))
                except (ZeroDivisionError, DivisionByZero) as exc:
                    where = f" of block {b}" if side.parts else ""
                    raise PoleEncountered(
                        f"zero denominator at index {k}{where}: {exc}"
                    ) from exc
                block_sums.append(raw_sum(values))
            for sigmas, group_sum in zip(sums, group_sums):
                if len(sigmas) > 1:
                    products = [
                        raw_product([(raw_mul, s[u]) for s, u in zip(sigmas, v)], prec)
                        for v in enumerate_shell(len(sigmas), w)
                    ]
                    group_sum.append(raw_sum(products))
            if side.parts:
                values = []
                try:
                    for weights in enumerate_shell(len(plan), w):
                        factors = [s[u] for s, u in zip(group_sums, weights)]
                        values.append(side.term(ctx, weights, factors))
                except (ZeroDivisionError, DivisionByZero) as exc:
                    raise PoleEncountered(
                        f"zero denominator at weight index {weights}: {exc}"
                    ) from exc
                shell = raw_sum(values)
            else:
                shell = group_sums[0][w]
            diag.terms += math.comb(w + side.dimension - 1, w)
            shell_sum = from_raw(shell)
            total += shell_sum
            diag.shells = w + 1
            prev_shell_abs = shell_abs if w > 0 else None
            shell_abs = abs(shell_sum)
            ratio = shell_abs / max(abs(total), _TINY)
            if w >= policy.min_shells and ratio < tail_tol:
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
        else:
            diag.converged = False
            warnings.warn(
                "tail ratio never fell below tolerance before the shell cap",
                TruncationNotConverged,
                stacklevel=2,
            )

        # Geometric tail estimate from the last two shells, floored at the
        # precision noise level so the bound is never vacuously zero.
        if prev_shell_abs is not None and prev_shell_abs > 0:
            decay = shell_abs / prev_shell_abs
        else:
            decay = mpf(0)
        if decay >= mpf("0.95"):
            decay = mpf("0.95")
        geo_tail = shell_abs * decay / (1 - decay) * 4
        noise = abs(total) * mpf(2) ** (-prec + 4)
        diag.tail_bound = abs(pref) * max(geo_tail, shell_abs * tail_tol, noise)
        diag.tail_bound = max(diag.tail_bound, _TINY)

        value = pref * total
    return value, diag

