"""Shared helpers for the test suite."""

from mpmath import mp, mpf, mpmathify

from qheine.errors import DegenerateVariables, NonConvergentBase
from qheine.multisum import _LOSS, evaluate_in_context, exact_pair, make_context
from qheine.qcore import default_tol

REL_FLOOR = mpf("1e-300")

# Must equal qcore._MAX_FACTORS.
MAX_FACTORS = 200_000


def qpoch_finite_loop(a, base, k):
    """Reference (a; base)_k: the product loop on mpmath objects, which
    ``qcore.FiniteTable`` and ``qcore.qpoch_finite`` must match bit for bit."""
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
