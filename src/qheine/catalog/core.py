"""Registry types, verification, and domain sampling for the identity
catalog."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from mpmath import mp, mpf, mpmathify
from mpmath.libmp import fnone, fone

from ..errors import (
    DomainExhausted,
    DomainViolation,
    InvalidConfig,
    QHeineError,
)
from ..multisum import (
    Diagnostics,
    EvalContext,
    HeineBlock,
    SeriesSide,
    TruncationPolicy,
    domain_fault,
    evaluate_in_context,
    make_context,
    vandermonde_ratio,
)
from ..qcore import (
    DEFAULT_PRECISION,
    BaseSystem,
    QComplex,
    from_raw,
    raw_div,
    raw_mul,
    value_key,
)

_REL_FLOOR = mpf(10) ** -300


# ---------------------------------------------------------------------------
# schema / registry types


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of an identity: its name, its draw, the dimension
    symbol sizing it as a vector (None = scalar) and its role (an ordinary
    value or a base exponent).

    A schema lists its entries in draw order, and ``draw_params`` draws them
    in turn: ``draw(rng, size, params, dims, bases)`` returns the value, with
    ``size`` the vector's length (None for a scalar) and ``params`` the
    parameters drawn before it.
    """

    name: str
    draw: Callable
    length: str | None = None
    role: str = "value"


@dataclass(frozen=True)
class Identity:
    """A registered transformation bound to a concrete dimension assignment."""

    id: str
    dims: Mapping[str, int]
    schema: tuple[ParamSpec, ...]
    lhs: SeriesSide
    rhs: SeriesSide
    policy: TruncationPolicy

    def sample(self, rng: random.Random, bases: BaseSystem) -> dict:
        """One draw of the parameters (``draw_params``)."""
        return draw_params(self.schema, rng, self.dims, bases)

    def fault(self, ctx) -> str | None:
        """Why the point of ``ctx`` is outside the domain, or None: a family
        converges where the summations its sides bind converge (``domain_fault``
        once per distinct ``bind``).  Call it at the run's precision: the terms
        read the blocks it binds."""
        binds = dict.fromkeys(side.bind for side in (self.lhs, self.rhs) if side.bind)
        for bind in binds:
            reason = domain_fault(bind, ctx)
            if reason:
                return reason
        return None

    def validate_params(self, params: Mapping) -> None:
        wanted = {spec.name for spec in self.schema}
        got = set(params.keys())
        if wanted != got:
            raise InvalidConfig(
                f"{self.id}: parameter names {sorted(got)} do not match "
                f"schema {sorted(wanted)}"
            )
        for spec in self.schema:
            if spec.length is not None:
                expect = self.dims[spec.length]
                actual = len(params[spec.name])
                if actual != expect:
                    raise InvalidConfig(
                        f"{self.id}: vector {spec.name} has length {actual}, "
                        f"schema wants {spec.length} = {expect}"
                    )


@dataclass(frozen=True)
class IdentityFamily:
    """A transformation family; dimensions are chosen at instantiation."""

    id: str
    reference: str
    dim_names: tuple[str, ...]
    schema: tuple[ParamSpec, ...]
    build: Callable[[Mapping[str, int]], tuple[SeriesSide, SeriesSide]]
    default_dims: tuple[Mapping[str, int], ...] = (dict(),)
    # Ten shells of headroom over the generic cap lets the consecutive-shell
    # stop rule finish even when a side's value is small (ratio inflation).
    policy: TruncationPolicy = TruncationPolicy(max_shell_weight=50)

    def instantiate(self, dims: Mapping[str, int] | None = None, **kw) -> Identity:
        assignment = dict(dims or {})
        assignment.update(kw)
        extra = set(assignment) - set(self.dim_names)
        if extra:
            raise InvalidConfig(f"{self.id}: unknown dimension names {sorted(extra)}")
        for name in self.dim_names:
            value = assignment.setdefault(name, 1)
            if not isinstance(value, int) or value < 1:
                raise InvalidConfig(f"{self.id}: dimension {name} must be >= 1")
        lhs, rhs = self.build(assignment)
        return Identity(
            id=self.id,
            dims=assignment,
            schema=self.schema,
            lhs=lhs,
            rhs=rhs,
            policy=self.policy,
        )


@dataclass
class VerificationResult:
    identity_id: str
    dims: dict
    params: dict
    bases: BaseSystem
    tolerance: mpf
    lhs_value: QComplex
    rhs_value: QComplex
    abs_error: mpf
    rel_error: mpf
    lhs_diag: Diagnostics
    rhs_diag: Diagnostics
    passed: bool


def verify(
    identity: Identity,
    ctx: EvalContext,
    policy: TruncationPolicy | None = None,
    tolerance=mpf("1e-20"),
) -> VerificationResult:
    """Evaluate both sides of an identity on the run's context ``ctx`` (as
    ``sample_domain`` returns it, or ``make_context(params, bases)``) and
    compare them.

    A point outside the domain (``Identity.fault``, checked once, on ``ctx``,
    where it reads the blocks ``sample_domain`` bound) raises
    ``DomainViolation``.  The case passes when the relative error is within
    ``tolerance`` and both sides converged: a side that reached the shell cap
    before its tail fell below the policy's tolerance has not earned a
    verdict, however close the two values are.
    """
    params, bases = ctx.params, ctx.bases
    identity.validate_params(params)
    if policy is None:
        policy = identity.policy
    with mp.workprec(bases.prec):
        fault = identity.fault(ctx)
    if fault:
        raise DomainViolation(f"{identity.id}: {fault}")
    try:
        lhs_value, lhs_diag = evaluate_in_context(identity.lhs, ctx, policy)
    except QHeineError as exc:
        raise type(exc)(f"{identity.id} lhs: {exc}") from exc
    try:
        rhs_value, rhs_diag = evaluate_in_context(identity.rhs, ctx, policy)
    except QHeineError as exc:
        raise type(exc)(f"{identity.id} rhs: {exc}") from exc
    with mp.workprec(bases.prec):
        abs_error = abs(lhs_value - rhs_value)
        rel_error = abs_error / max(abs(lhs_value), abs(rhs_value), _REL_FLOOR)
    tolerance = mpmathify(tolerance)
    return VerificationResult(
        identity_id=identity.id,
        dims=dict(identity.dims),
        params=dict(params),
        bases=bases,
        tolerance=tolerance,
        lhs_value=lhs_value,
        rhs_value=rhs_value,
        abs_error=abs_error,
        rel_error=rel_error,
        lhs_diag=lhs_diag,
        rhs_diag=rhs_diag,
        passed=bool(
            rel_error <= tolerance and lhs_diag.converged and rhs_diag.converged
        ),
    )


# ---------------------------------------------------------------------------
# sampling

_MAX_REJECTS = 10_000


def sample_bases(rng: random.Random, prec: int = DEFAULT_PRECISION) -> BaseSystem:
    """Real bases inside the safe box: q in [0.1, 0.6], h, t in [0.5, 2.5]."""
    q = mpf(rng.uniform(0.1, 0.6))
    h = mpf(rng.uniform(0.5, 2.5))
    t = mpf(rng.uniform(0.5, 2.5))
    return BaseSystem(q, h, t, prec)


def sample_domain(
    identity: Identity,
    seed: int,
    count: int,
    prec: int = DEFAULT_PRECISION,
) -> list[EvalContext]:
    """Deterministic pseudo-random points in the identity's domain, as the
    run contexts ``verify`` evaluates on: each draw is checked by
    ``Identity.fault`` on a context of its own, which keeps the blocks it
    bound."""
    if count < 1:
        raise InvalidConfig("sample count must be >= 1")
    rng = random.Random(seed)
    contexts: list[EvalContext] = []
    consecutive_failures = 0
    while len(contexts) < count:
        bases = sample_bases(rng, prec)
        with mp.workprec(prec):
            ctx = make_context(identity.sample(rng, bases), bases)
            fault = identity.fault(ctx)
        if not fault:
            contexts.append(ctx)
            consecutive_failures = 0
        else:
            consecutive_failures += 1
            if consecutive_failures >= _MAX_REJECTS:
                raise DomainExhausted(
                    f"{identity.id}: rejection sampling failed "
                    f"{_MAX_REJECTS} times in a row"
                )
    return contexts


def draw_params(schema, rng: random.Random, dims: Mapping[str, int], bases) -> dict:
    """The parameters of ``schema`` at the dimensions ``dims``, each drawn
    by its entry's ``draw`` in schema order (``ParamSpec``); ``bases`` is
    the point's ``BaseSystem``, or None for a block."""
    params: dict = {}
    for spec in schema:
        size = None if spec.length is None else dims[spec.length]
        params[spec.name] = spec.draw(rng, size, params, dims, bases)
    return params


def signed(rng: random.Random, lo: float, hi: float) -> mpf:
    magnitude = rng.uniform(lo, hi)
    return mpf(magnitude if rng.random() < 0.5 else -magnitude)


def coefficient(rng: random.Random) -> mpf:
    """Generic series parameter, bounded away from 0 and 1 in magnitude."""
    return signed(rng, 0.15, 0.85)


def argument(rng: random.Random, hi: float = 0.2) -> mpf:
    """Series argument; magnitudes stay small enough that 40 shells reach
    well below the verification tolerances (0.2^41 ~ 2e-29)."""
    return signed(rng, 0.03, hi)


def distinct_vector(rng: random.Random, dim: int, lo=0.7, hi=1.9) -> tuple[mpf, ...]:
    """Positive components in [lo, hi], separated slot by slot."""
    width = (hi - lo) / dim
    return tuple(
        mpf(lo + width * (i + rng.uniform(0.1, 0.9))) for i in range(dim)
    )


def exponent(rng: random.Random) -> mpf:
    return mpf(rng.uniform(0.5, 2.5))


def each(unit, *args) -> Callable:
    """The draw of ``unit(rng, *args)``: one value for a scalar, one per
    entry for a vector."""

    def draw(rng, size, params, dims, bases):
        if size is None:
            return unit(rng, *args)
        return tuple(unit(rng, *args) for _ in range(size))

    return draw


def distinct(*bounds) -> Callable:
    """The draw of a vector ``distinct_vector(rng, size, *bounds)``."""
    return lambda rng, size, params, dims, bases: distinct_vector(rng, size, *bounds)


def inside(name: str) -> Callable:
    """The draw of an argument times min_r |x_r|, x the vector ``name``
    drawn before it: inside the domain of a Milne-Lilly summation in x."""

    def draw(rng, size, params, dims, bases):
        return argument(rng) * min(abs(v) for v in params[name])

    return draw


COEFFICIENT = each(coefficient)
ARGUMENT = each(argument)
EXPONENT = each(exponent)
DISTINCT = distinct()


# ---------------------------------------------------------------------------
# term-building helpers shared by the entry modules


def staircase(k: Sequence[int]) -> int:
    """sum_r (r-1) k_r with 1-based r, i.e. 0*k_1 + 1*k_2 + ..."""
    return sum(i * ki for i, ki in enumerate(k))


def tri(n: int) -> int:
    """Binomial C(n+1, 2) = n(n+1)/2, the staple quadratic exponent."""
    return math.comb(n + 1, 2)


def geom(base_power, dim: int, prec: int) -> tuple:
    """(1, Q, Q^2, ..., Q^{dim-1}) for specialised variable vectors,
    multiplied at ``prec`` bits.  The 1 is a real one of Q's kind, |Q| ** 0:
    an mpf for an mpf or mpc Q, a Fraction for a Fraction."""
    with mp.workprec(prec):
        out = [abs(base_power) ** 0]
        for _ in range(dim - 1):
            out.append(out[-1] * base_power)
    return tuple(out)


def summation_sides(shape: tuple[int, int], bind, product_left: bool = False):
    """The two sides of a family that states one summation: its sum, and
    its product times its inner sum, if any.  ``shape`` is the summation's
    (outer, inner) dimensions, and ``bind(ctx)`` returns the run's
    ``Summation`` and argument z, once per run (``run_memo``).  The inner
    summand is taken at unit argument times (stretch z)^{|j|}.  The sum is
    the lhs unless ``product_left``.  The product, a prefactor, is the one
    mpf or mpc; the terms are raw.  Both sides bind the summation at z as a
    base block (``multisum.domain_fault``)."""
    outer, inner = shape

    def bound(ctx) -> tuple:
        """(summation, z, stretch z) of the run, the last one raw."""
        summation, z = bind(ctx)
        return summation, z, value_key(summation.stretch * z)

    def blocks(ctx) -> tuple:
        summation, z, _ = run_memo(ctx, bound)
        return (), HeineBlock(summation, z)

    def term(ctx, k):
        summation, z, _ = run_memo(ctx, bound)
        return summation.term(ctx.poch, z, k)

    def product(ctx):
        summation, z, _ = run_memo(ctx, bound)
        return from_raw(summation.product(ctx.poch, z))

    def inner_term(ctx, j):
        summation, _, stretched = run_memo(ctx, bound)
        power = ctx.poch.intpow(stretched, sum(j))
        return raw_mul(summation.inner(ctx.poch, j), power, mp.prec)

    product_side = SeriesSide(inner, inner_term, product, blocks)
    sides = (SeriesSide(outer, term, bind=blocks), product_side)
    return sides[::-1] if product_left else sides


def sq_ratio(P, avec, x, base, k) -> tuple:
    """prod_{r,s} (a_s x_r/x_s; base)_{k_r} / (base x_r/x_s; base)_{k_r} as
    a raw value, multiplied from 1 as ``value *= num; value /= den``
    round it, factor by factor in (r, s) order; its tables are built once
    per run."""

    def build():
        return [
            [
                (P.finite_table(a_s * t, base), P.finite_table(base * t, base))
                for a_s, t in zip(avec, [x_r / x_s for x_s in x])
            ]
            for x_r in x
        ]

    rows = P.table("sq_ratio", (avec, x, base), build)
    prec = mp.prec
    value = fone
    for kr, row in zip(k, rows):
        if kr:
            for num, den in row:
                value = raw_mul(value, num.at(kr), prec)
                value = raw_div(value, den.at(kr), prec)
    return value


# ---------------------------------------------------------------------------
# summands as data


def numer(a, base, stretch: int = 1) -> tuple:
    """(a; base)_{stretch * index} in the numerator of a ``TermSpec``, or
    (a z; base)_oo in the numerator of a ``ProductSpec``."""
    return a, base, stretch, raw_mul


def denom(a, base, stretch: int = 1) -> tuple:
    """(a; base)_{stretch * index} in the denominator of a ``TermSpec``, or
    (a z; base)_oo in the denominator of a ``ProductSpec``."""
    return a, base, stretch, raw_div


@dataclass(frozen=True, eq=False)
class TermSpec:
    """A summand as data: at index k, the product of

        vandermonde_ratio(x, k, S) for ``vandermonde`` = (x, S),
        sq_ratio(P, a, x, base, k) for ``pairs`` = (a, x),
        the factors of ``total`` read at stretch * |k|,
        per index r the factors of ``rows[r]`` read at stretch * k_r,
        base ** exponent(k), prod_r x_r^{-k_r} for ``monomials`` = x,
        z^{|k|} if it has an ``argument``, and (-1)^{|k|} if ``sign``,

    each optional; a factor is a ``numer`` or a ``denom``.  A spec is called
    as term(P, z, k), with z an mpf or mpc, or without an argument as
    inner(P, k).  Its tables are looked up once per run
    (``PochCache.table``), and the raw pieces multiplied in the order
    above, as ``value *= factor`` rounds them; the summand is a raw value.
    """

    base: QComplex
    vandermonde: tuple | None = None
    pairs: tuple | None = None
    rows: Sequence = ()
    total: Sequence = ()
    exponent: Callable[[Sequence[int]], int] | None = None
    monomials: Sequence | None = None
    sign: bool = False
    argument: bool = True

    def tables(self, P) -> list:
        """``total`` and then ``rows``, each factor's arguments replaced by
        its table."""

        def build():
            return [
                [(P.finite_table(a, b), c, op) for a, b, c, op in factors]
                for factors in (self.total, *self.rows)
            ]

        return P.table(self, (), build)

    def __call__(self, P, *args) -> tuple:
        z, k = args if self.argument else (None, *args)
        prec = mp.prec
        value = fone
        if self.vandermonde is not None:
            x, step = self.vandermonde
            value = vandermonde_ratio(x, k, step, P)
        if self.pairs is not None:
            factor = sq_ratio(P, *self.pairs, self.base, k)
            value = _fold(value, raw_mul, factor, prec)
        weight = sum(k)
        for index, factors in zip((weight, *k), self.tables(P)):
            if index:
                for table, stretch, op in factors:
                    value = _fold(value, op, table.at(stretch * index), prec)
        n = self.exponent(k) if self.exponent else 0
        if n:
            value = _fold(value, raw_mul, P.intpow(value_key(self.base), n), prec)
        if self.monomials is not None:
            for x_r, kr in zip(self.monomials, k):
                if kr:
                    power = P.intpow(value_key(x_r), -kr)
                    value = _fold(value, raw_mul, power, prec)
        if self.argument and weight:
            value = _fold(value, raw_mul, P.intpow(value_key(z), weight), prec)
        if self.sign and weight & 1:
            value = raw_mul(value, fnone, prec)
        return value


@dataclass(frozen=True, eq=False)
class ProductSpec:
    """A product as data: prod_i (c_i z; b_i)_oo^{+-1} over the ``factors``,
    each a ``numer(c_i, b_i)`` or a ``denom(c_i, b_i)``.  Called as
    product(P, z) with z an mpf or mpc, or as product(P) for the constant
    prod_i (c_i; b_i)_oo^{+-1}.  c_i z is multiplied at the working
    precision (z itself where c_i is 1), and the raw factors in list order,
    as ``value *= f`` and ``value /= f`` round them; the product is a raw
    value."""

    factors: Sequence

    def __call__(self, P, z=None) -> tuple:
        prec = mp.prec
        raw_z = None if z is None else value_key(z)
        value = fone
        for c, base, _, op in self.factors:
            c = value_key(c)
            if raw_z is not None:
                c = raw_z if c == fone else raw_mul(c, raw_z, prec)
            value = _fold(value, op, P.infinite(c, value_key(base)), prec)
        return value


def _fold(value, op, factor, prec: int) -> tuple:
    """op(value, factor) for raw values; a factor at the working precision
    times 1 is the factor itself."""
    if value is fone and op is raw_mul:
        return factor
    return op(value, factor, prec)


def run_memo(ctx, bind):
    """``bind(ctx)``, once per run (kept in ``PochCache.terms``)."""
    memo = ctx.poch.terms
    value = memo.get(bind)
    if value is None:
        value = memo[bind] = bind(ctx)
    return value


def spec_side(dimension: int, bind, product=None, blocks=None) -> SeriesSide:
    """The side sum_k spec(k), where ``bind(ctx)`` returns the run's
    ``TermSpec`` and then its argument, if it has one, times the constant
    ``product(ctx)(P)`` if ``product(ctx)`` returns the run's
    ``ProductSpec``.  ``blocks`` is the side's ``SeriesSide.bind``."""

    def term(ctx, k):
        spec, *z = run_memo(ctx, bind)
        return spec(ctx.poch, *z, k)

    def prefactor(ctx):
        return from_raw(product(ctx)(ctx.poch))

    if product is None:
        return SeriesSide(dimension, term, bind=blocks)
    return SeriesSide(dimension, term, prefactor, blocks)
