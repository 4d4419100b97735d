"""Registry types, verification, and domain sampling for the identity
catalog."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from mpmath import mp, mpf, mpmathify

from ..errors import (
    DomainExhausted,
    DomainViolation,
    InvalidConfig,
    QHeineError,
)
from ..multisum import (
    Diagnostics,
    SeriesSide,
    TruncationPolicy,
    evaluate_in_context,
    make_context,
    vandermonde_ratio,
)
from ..qcore import (
    DEFAULT_PRECISION,
    ONE,
    BaseSystem,
    QComplex,
    raw_quotients,
)

_REL_FLOOR = mpf(10) ** -300


# ---------------------------------------------------------------------------
# schema / registry types


@dataclass(frozen=True)
class ParamSpec:
    """One named entry of an identity's parameter schema.

    ``length`` names the dimension symbol sizing a vector (None = scalar);
    ``role`` distinguishes ordinary values from base exponents.
    """

    name: str
    length: str | None = None
    role: str = "value"


@dataclass(frozen=True)
class Identity:
    """A registered transformation bound to a concrete dimension assignment."""

    id: str
    family_id: str
    reference: str
    dims: Mapping[str, int]
    schema: tuple[ParamSpec, ...]
    lhs: SeriesSide
    rhs: SeriesSide
    domain: Callable[[Mapping, BaseSystem], bool]
    sample: Callable[[random.Random, BaseSystem], Mapping]
    policy: TruncationPolicy

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
    domain: Callable[[Mapping[str, int], Mapping, BaseSystem], bool]
    sample: Callable[[random.Random, Mapping[str, int], BaseSystem], Mapping]
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
        dom = self.domain

        def bound_domain(params, bases, _dims=assignment):
            return dom(_dims, params, bases)

        def ctx_domain(ctx, _dims=assignment):
            return dom(_dims, ctx.params, ctx.bases)

        lhs = replace(lhs, domain=ctx_domain)
        rhs = replace(rhs, domain=ctx_domain)
        sampler = self.sample

        def bound_sample(rng, bases, _dims=assignment):
            return sampler(rng, _dims, bases)

        return Identity(
            id=self.id,
            family_id=self.id,
            reference=self.reference,
            dims=assignment,
            schema=self.schema,
            lhs=lhs,
            rhs=rhs,
            domain=bound_domain,
            sample=bound_sample,
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
    params: Mapping,
    bases: BaseSystem,
    policy: TruncationPolicy | None = None,
    tolerance=mpf("1e-20"),
) -> VerificationResult:
    """Evaluate both sides of an identity and compare them.

    The case passes when the relative error is within ``tolerance`` and both
    sides converged: a side that reached the shell cap before its tail fell
    below the policy's tolerance has not earned a verdict, however close the
    two values are.
    """
    identity.validate_params(params)
    if not identity.domain(params, bases):
        raise DomainViolation(f"{identity.id}: point outside identity domain")
    if policy is None:
        policy = identity.policy
    ctx = make_context(params, bases)
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
) -> list[tuple[Mapping, BaseSystem]]:
    """Deterministic pseudo-random points satisfying the identity domain."""
    if count < 1:
        raise InvalidConfig("sample count must be >= 1")
    rng = random.Random(seed)
    points: list[tuple[Mapping, BaseSystem]] = []
    consecutive_failures = 0
    while len(points) < count:
        bases = sample_bases(rng, prec)
        with mp.workprec(prec):
            params = identity.sample(rng, bases)
        if identity.domain(params, bases):
            points.append((params, bases))
            consecutive_failures = 0
        else:
            consecutive_failures += 1
            if consecutive_failures >= _MAX_REJECTS:
                raise DomainExhausted(
                    f"{identity.id}: rejection sampling failed "
                    f"{_MAX_REJECTS} times in a row"
                )
    return points


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
    multiplied at ``prec`` bits."""
    out = [mpf(1)]
    with mp.workprec(prec):
        for _ in range(dim - 1):
            out.append(out[-1] * base_power)
    return tuple(out)


def summation_sides(shape: tuple[int, int], bind, product_left: bool = False):
    """The two sides of a family that states one summation: its sum, and
    its product times its inner sum, if any.  ``shape`` is the summation's
    (outer, inner) dimensions, and ``bind(ctx)`` returns the run's
    ``Summation`` and argument z; it is called once per run and kept in the
    run's ``PochCache.terms`` under ``bind``.  The inner summand is taken at
    unit argument times (stretch z)^{|j|}.  The sum is the lhs unless
    ``product_left``."""
    outer, inner = shape

    def bound(ctx) -> tuple:
        """(summation, z, stretch z) of the run."""
        memo = ctx.poch.terms
        run = memo.get(bind)
        if run is None:
            summation, z = bind(ctx)
            run = memo[bind] = (summation, z, summation.stretch * z)
        return run

    def term(ctx, k):
        summation, z, _ = bound(ctx)
        return summation.term(ctx.poch, z, k)

    def product(ctx):
        summation, z, _ = bound(ctx)
        return summation.product(ctx.poch, z)

    def inner_term(ctx, j):
        summation, _, stretched = bound(ctx)
        return summation.inner(ctx.poch, j) * ctx.poch.intpow(stretched, sum(j))

    sides = (SeriesSide(outer, term), SeriesSide(inner, inner_term, product))
    return sides[::-1] if product_left else sides


def finite_rows(P, tag: str, values: tuple, base, pairs) -> list:
    """Rows of (numerator, denominator) finite-product tables in ``base``.

    ``pairs()`` lists, for each index r, the (numerator, denominator)
    arguments of the factors read at k_r; it may use only ``values`` and
    ``base``.  The tables are built once per run (``PochCache.table``), and
    ``times_rows`` reads them.
    """

    def build():
        return [
            [(P.finite_table(a, base), P.finite_table(b, base)) for a, b in row]
            for row in pairs()
        ]

    return P.table(tag, values + (base,), build)


def times_rows(value, rows, k) -> QComplex:
    """value * prod_r prod_{(num, den) in row r} num_{k_r} / den_{k_r},
    multiplied factor by factor in row order; rows with k_r = 0 are 1.

    The factors are multiplied on raw values with the rounding of
    ``value *= num; value /= den`` at the working precision, and the result
    is one mpf or mpc made at the end."""
    return raw_quotients(
        ((num.at(kr), den.at(kr)) for kr, row in zip(k, rows) if kr for num, den in row),
        value,
    )


def sq_ratio(P, avec, x, base, k) -> QComplex:
    """prod_{r,s} (a_s x_r/x_s; base)_{k_r} / (base x_r/x_s; base)_{k_r}."""

    def pairs():
        rows = []
        for r in range(len(x)):
            ratios = [x[r] / x_s for x_s in x]
            rows.append(
                [(a_s * ratio, base * ratio) for a_s, ratio in zip(avec, ratios)]
            )
        return rows

    rows = finite_rows(P, "sq_ratio", (avec, x), base, pairs)
    return times_rows(ONE, rows, k)


def vande(P, x, k, step) -> QComplex:
    return vandermonde_ratio(x, k, step, P)
