"""Shared helpers for the test suite."""

import csv
import io

from mpmath import mp, mpf, mpmathify

from qheine.errors import (
    DegenerateVariables,
    DivisionByZero,
    LengthMismatch,
    NonConvergentBase,
)
from qheine.multisum import _LOSS, evaluate_in_context, exact_pair, make_context
from qheine.qcore import FiniteTable, default_tol, qpoch_infinite

REL_FLOOR = mpf("1e-300")

# Must equal qcore._MAX_FACTORS.
MAX_FACTORS = 200_000


def qpoch_finite(a, base, k):
    """Finite q-rising factorial (a; base)_k = prod_{r<k} (1 - a*base^r),
    read from a fresh ``qcore.FiniteTable`` at the working precision."""
    if k < 0:
        raise ValueError("finite q-rising factorial needs k >= 0")
    return FiniteTable(a, base, mp.prec).at(int(k))


def qpoch_finite_loop(a, base, k):
    """Reference (a; base)_k: the product loop on mpmath objects, which
    ``qcore.FiniteTable`` and ``qpoch_finite`` must match bit for bit."""
    a = mpmathify(a)
    base = mpmathify(base)
    prod = mpf(1)
    factor = a
    for _ in range(int(k)):
        prod *= 1 - factor
        factor *= base
    return prod


def qpoch_infinite_loop(a, base, tol=None):
    """Reference (a; base)_oo: the product loop on mpmath objects, which
    ``qcore.qpoch_infinite`` must match bit for bit, errors included."""
    a = mpmathify(a)
    base = mpmathify(base)
    absbase = abs(base)
    if absbase >= 1:
        raise NonConvergentBase(f"|base| = {absbase} >= 1")
    if tol is None:
        tol = default_tol(mp.prec)
    threshold = mpmathify(tol) * (1 - absbase)
    prod = mpf(1)
    factor = a
    count = 0
    while abs(factor) >= threshold:
        prod *= 1 - factor
        factor *= base
        count += 1
        if count > MAX_FACTORS:
            raise NonConvergentBase(
                "infinite product did not reach tolerance; base too close to 1"
            )
    return prod


def vandermonde_ratio_loop(x, k, step_power):
    """Reference prod_{r<s} (1 - S^{k_r-k_s} x_r/x_s) / (1 - x_r/x_s): the
    uncached loop on mpmath objects at the working precision, which
    ``multisum.vandermonde_ratio`` must match bit for bit.  A pair whose
    numerator or denominator is below ``multisum._LOSS`` goes through
    ``exact_pair``."""
    n = len(x)
    if n < 2:
        return mpf(1)
    step = mpmathify(step_power)
    pairs = []
    for r in range(n):
        for s in range(r + 1, n):
            ratio = x[r] / x[s]
            den = 1 - ratio
            if den == 0:
                raise DegenerateVariables(f"x[{r}] == x[{s}]")
            pairs.append((r, s, ratio, den))
    value = mpf(1)
    for r, s, ratio, den in pairs:
        shift = k[r] - k[s]
        num = 1 - step**shift * ratio
        if abs(den) < _LOSS or abs(num) < _LOSS:
            value *= exact_pair(x[r], x[s], step, shift, 0)
        else:
            value *= num / den
    return value


def qpoch_ratio(a, base, scale, tol=None):
    """Reference (a; base)_kappa for a general index, given scale =
    base**kappa: (a; base)_oo / (a*scale; base)_oo, the defining extension of
    the q-rising factorial, which ``PochCache.ratio`` must match."""
    a = mpmathify(a)
    base = mpmathify(base)
    scale = mpmathify(scale)
    num = qpoch_infinite(a, base, tol)
    den = qpoch_infinite(a * scale, base, tol)
    if den == 0:
        raise DivisionByZero(
            "(a*scale; base)_oo vanished; the requested index is a pole"
        )
    return num / den


def dot(exponents, k):
    """Reference dot product h.k = h_1 k_1 + ... + h_p k_p."""
    if len(exponents) != len(k):
        raise LengthMismatch(
            f"dot product needs equal lengths, got {len(exponents)} and {len(k)}"
        )
    total = mpf(0)
    for h_r, k_r in zip(exponents, k):
        total += mpmathify(h_r) * k_r
    return total


def vandermonde_factor(x, k, step_power):
    """Reference type-A Vandermonde factor in product form:
    prod_{r<s} (x_r S^{k_r} - x_s S^{k_s}) / (x_r - x_s) with S =
    ``step_power``; ``multisum.vandermonde_ratio`` is this times
    S^{-sum_r (r-1) k_r}."""
    if len(x) != len(k):
        raise LengthMismatch("x and k must have the same length")
    step = mpmathify(step_power)
    n = len(x)
    value = mpf(1)
    for r in range(n):
        for s in range(r + 1, n):
            if x[r] == x[s]:
                raise DegenerateVariables(f"x[{r}] == x[{s}]")
            value *= exact_pair(x[r], x[s], step, k[r], k[s])
    return value


def evaluate(side, params, bases, policy=None):
    """Sum one series side with a fresh product cache for the run."""
    return evaluate_in_context(side, make_context(params, bases), policy)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), REL_FLOOR)


def side_values(identity, params, bases, policy=None):
    """Evaluate both sides of an identity under one shared product cache."""
    ctx = make_context(params, bases)
    policy = policy or identity.policy
    lhs, _ = evaluate_in_context(identity.lhs, ctx, policy)
    rhs, _ = evaluate_in_context(identity.rhs, ctx, policy)
    return lhs, rhs


def verify_sweep(family, dims_list, seed, count, tolerance, policy=None):
    """Run verify over sampled points for each dimension assignment; returns
    the worst relative error seen (all cases must pass)."""
    from qheine import catalog

    worst = mpf(0)
    for dims in dims_list:
        identity = family.instantiate(dims)
        for params, bases in catalog.sample_domain(identity, seed=seed, count=count):
            result = catalog.verify(
                identity, params, bases, policy, tolerance=tolerance
            )
            assert result.passed, (
                f"{family.id} at dims {dims} failed: rel={result.rel_error}"
            )
            worst = max(worst, result.rel_error)
    return worst


def parse_csv(text: str) -> list[dict]:
    """The rows of a csv report, one dict per case."""
    return list(csv.DictReader(io.StringIO(text)))
