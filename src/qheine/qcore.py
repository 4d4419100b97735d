"""Arbitrary-precision scalars, cached base powers, and q-rising factorials.

Everything here is plain mpmath arithmetic.  Functions honour the ambient
mpmath precision; the evaluation pipeline pins it from the ``BaseSystem`` it
was handed, so results are deterministic for a fixed precision.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from mpmath import mp, mpc, mpf, mpmathify

from .errors import DivisionByZero, LengthMismatch, NonConvergentBase

QComplex = Union[mpf, mpc]

DEFAULT_PRECISION = 128

# Hard cap on factors in one infinite product; only reachable for |base|
# pathologically close to 1, which the BaseSystem validation already rejects
# for sensible inputs.
_MAX_FACTORS = 200_000


def default_tol(prec: int) -> mpf:
    """Product-truncation tolerance leaving ~8 decimal guard digits."""
    return mpf(10) ** -(prec * 301 // 1000 - 8)


def qpoch_finite(a, base, k: int) -> QComplex:
    """Finite q-rising factorial (a; base)_k = prod_{r<k} (1 - a*base^r)."""
    if k < 0:
        raise ValueError("finite q-rising factorial needs k >= 0")
    a = mpmathify(a)
    base = mpmathify(base)
    prod = mpf(1)
    factor = a
    for _ in range(int(k)):
        prod *= 1 - factor
        factor *= base
    return prod


def qpoch_infinite(a, base, tol=None) -> QComplex:
    """Infinite q-rising factorial (a; base)_oo for |base| < 1.

    The product is truncated at the first R with |a|*|base|^R below
    tol*(1-|base|); comparing log(1-x) <= -x termwise bounds the dropped
    tail factor within ~tol of 1 in relative terms.
    """
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
        if count > _MAX_FACTORS:
            raise NonConvergentBase(
                "infinite product did not reach tolerance; base too close to 1"
            )
    return prod


def qpoch_ratio(a, base, scale, tol=None) -> QComplex:
    """(a; base)_kappa for a general index, given scale = base**kappa.

    Computed as (a; base)_oo / (a*scale; base)_oo, which is the defining
    extension of the q-rising factorial to arbitrary index.
    """
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


def e2(k: Sequence[int]) -> int:
    """Elementary symmetric function of degree 2 of a multi-index:
    C(|k|, 2) - sum_r C(k_r, 2)."""
    total = sum(k)
    return math.comb(total, 2) - sum(math.comb(kr, 2) for kr in k)


def dot(exponents: Sequence, k: Sequence[int]) -> QComplex:
    """Dot product h.k = h_1 k_1 + ... + h_p k_p."""
    if len(exponents) != len(k):
        raise LengthMismatch(
            f"dot product needs equal lengths, got {len(exponents)} and {len(k)}"
        )
    total = mpf(0)
    for h_r, k_r in zip(exponents, k):
        total += mpmathify(h_r) * k_r
    return total


def value_key(x):
    """Hashable exact value of an mpmath number: its raw ``_mpf_`` or
    ``_mpc_`` tuple.  Cache keys built from it never hash an mpf object;
    an mpf and an mpc of equal value get different keys."""
    try:
        return x._mpf_
    except AttributeError:
        pass
    try:
        return x._mpc_
    except AttributeError:
        return value_key(mpmathify(x))


class FiniteTable(list):
    """(a; base)_0, (a; base)_1, ... as a list that ``at`` extends."""

    __slots__ = ("factor", "base", "prec")

    def __init__(self, a, base, prec: int):
        super().__init__((mpf(1),))
        self.factor = mpmathify(a)
        self.base = base
        self.prec = prec

    def at(self, k: int) -> QComplex:
        """(a; base)_k, extending the table through index k if needed."""
        if len(self) <= k:
            with mp.workprec(self.prec):
                factor = self.factor
                while len(self) <= k:
                    self.append(self[-1] * (1 - factor))
                    factor *= self.base
                self.factor = factor
        return self[k]


class BaseSystem:
    """The modular data (q, h, t) with the derived powers q^h, q^t, q^{ht}.

    The principal logarithm of q is taken exactly once; every other power of
    q is produced from it (and cached), so both sides of an identity see the
    same branch.  Construction validates the usual convergence conditions
    0 < |q^h| < 1, 0 < |q^t| < 1, 0 < |q^{ht}| < 1.
    """

    def __init__(self, q, h=1, t=1, prec: int = DEFAULT_PRECISION):
        if prec < 64:
            raise ValueError("BaseSystem precision must be >= 64 bits")
        self.prec = int(prec)
        with mp.workprec(self.prec):
            self.q = mpmathify(q)
            self.h = mpmathify(h)
            self.t = mpmathify(t)
            if self.q == 0:
                raise NonConvergentBase("q must be nonzero")
            self._log_q = mp.log(self.q)
            ht = self.h * self.t
        self._powers: dict = {}
        self.qh = self.power(self.h)
        self.qt = self.power(self.t)
        self.qht = self.power(ht)
        for name, value in (("q^h", self.qh), ("q^t", self.qt), ("q^ht", self.qht)):
            mag = abs(value)
            if not (0 < mag < 1):
                raise NonConvergentBase(f"|{name}| = {mag} outside (0, 1)")

    def power(self, alpha) -> QComplex:
        """q**alpha via the cached principal logarithm (memoised)."""
        alpha = mpmathify(alpha)
        key = value_key(alpha)
        cached = self._powers.get(key)
        if cached is None:
            with mp.workprec(self.prec):
                if isinstance(alpha, mpf) and alpha == int(alpha):
                    cached = self.q ** int(alpha)
                else:
                    cached = mp.exp(alpha * self._log_q)
            self._powers[key] = cached
        return cached

    def __repr__(self):
        return f"BaseSystem(q={self.q}, h={self.h}, t={self.t}, prec={self.prec})"


class PochCache:
    """Memoised q-rising factorials and term-layer values for one run.

    Values are bit-identical to computing them from scratch at the cache
    precision; the cache only removes repeated work across the many series
    terms that share the same products, powers and pair tables.  Every key
    is built from raw mpmath values (``value_key``), so no lookup hashes an
    mpf object.  ``terms`` holds the block factors of ``multisum.block_term``:
    each part under its function and index, the current shell's couplings
    under the coupling function; and the run's bound blocks of
    ``multisum.heine_sides`` under their ``bind`` function.
    """

    def __init__(self, prec: int, tol=None):
        self.prec = int(prec)
        self.tol = tol if tol is not None else default_tol(self.prec)
        self._finite: dict = {}
        self._infinite: dict = {}
        self._ratio: dict = {}
        self._intpow: dict = {}
        self._tables: dict = {}
        self.terms: dict = {}

    def finite_table(self, a, base) -> FiniteTable:
        """The list of (a; base)_0, (a; base)_1, ... kept for this run."""
        key = (value_key(a), value_key(base))
        table = self._finite.get(key)
        if table is None:
            table = self._finite[key] = FiniteTable(a, base, self.prec)
        return table

    def finite(self, a, base, k: int) -> QComplex:
        return self.finite_table(a, base).at(k)

    def infinite(self, a, base) -> QComplex:
        key = (value_key(a), value_key(base))
        value = self._infinite.get(key)
        if value is None:
            with mp.workprec(self.prec):
                value = qpoch_infinite(a, base, self.tol)
            self._infinite[key] = value
        return value

    def ratio(self, a, base, scale) -> QComplex:
        """(a; base)_kappa with scale = base**kappa, as a product ratio."""
        key = (value_key(a), value_key(base), value_key(scale))
        value = self._ratio.get(key)
        if value is None:
            num = self.infinite(a, base)
            with mp.workprec(self.prec):
                shifted = a * scale
            den = self.infinite(shifted, base)
            if den == 0:
                raise DivisionByZero(
                    "(a*scale; base)_oo vanished; the requested index is a pole"
                )
            with mp.workprec(self.prec):
                value = num / den
            self._ratio[key] = value
        return value

    def intpow(self, x, n: int) -> QComplex:
        """x ** n for an integer n, evaluated at the cache precision."""
        key = (value_key(x), n)
        value = self._intpow.get(key)
        if value is None:
            with mp.workprec(self.prec):
                value = x**n
            self._intpow[key] = value
        return value

    def table(self, tag, values: tuple, build):
        """``build()`` evaluated at the cache precision, once per ``tag`` (a
        hashable name) and set of ``values``, the scalars and vectors it is
        built from.

        For values that depend only on the parameters of a run, such as the
        pair tables of ``catalog.core.sq_ratio`` and
        ``multisum.vandermonde_ratio``.
        """
        key = (tag,) + tuple(
            tuple(map(value_key, v)) if isinstance(v, (tuple, list)) else value_key(v)
            for v in values
        )
        value = self._tables.get(key)
        if value is None:
            with mp.workprec(self.prec):
                value = build()
            self._tables[key] = value
        return value
