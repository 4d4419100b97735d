"""Layer probes for the traced benchmark run.

Every probe wraps a public function or method of one qheine layer from the
outside; nothing in the package is edited.  The hot calls (PochCache
lookups, term closures) happen 10^5-10^6 times in one pass, so they are
aggregated into per-layer counters and time accumulators.  Only the coarse
boundaries (pass, cli run, case verification, side evaluation and
composition) are also kept as individual spans.

Self time of a probe is its duration minus the time covered by the probes
called inside it, so the self times of all probes add up to the duration of
the outermost one.
"""

from __future__ import annotations

import dataclasses
import time
import weakref
from collections import Counter

from mpmath import mp


class Tracer:
    """In-memory span recorder with aggregated per-layer accumulators."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self.case_id = None
        self._stack: list[list] = []  # [child_seconds, span_index or None]

    def wrap(self, name: str, fn, span: bool = False):
        """Return ``fn`` wrapped in a probe named ``name``."""
        stack = self._stack
        clock = time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def probe(*args, **kwargs):
            index = self._open_span(name) if span else None
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index is not None:
                    self.spans[index]["end"] = start + duration

        return probe

    def _open_span(self, name: str) -> int:
        parent = None
        for frame in reversed(self._stack):
            if frame[1] is not None:
                parent = frame[1]
                break
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "case": self.case_id,
            }
        )
        return len(self.spans) - 1


def _infinite_factors(a, base, tol) -> int:
    """Factors qpoch_infinite multiplies for these arguments: the first R
    with |a| |base|^R below tol (1 - |base|).  Computed, not counted."""
    with mp.workprec(64):
        absa = abs(a)
        absbase = abs(base)
        threshold = tol * (1 - absbase)
        if absa < threshold:
            return 0
        return max(0, int(mp.ceil(mp.log(threshold / absa) / mp.log(absbase))))


class Instrumentation:
    """Installs probes on every layer of one imported qheine package and
    restores the originals on ``remove``."""

    def __init__(self, qheine_modules: dict, tracer: Tracer):
        self.m = qheine_modules
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        t = self.tracer
        m = self.m
        qcore, multisum, core = m["qcore"], m["multisum"], m["catalog.core"]
        catalog, heine_engine, report, cli = (
            m["catalog"],
            m["heine_engine"],
            m["report"],
            m["cli"],
        )
        counts = t.counts

        # -- qcore: the q-rising-factorial kernel --------------------------
        raw_infinite = qcore.qpoch_infinite

        def qpoch_infinite(a, base, tol=None):
            counts["qcore.infinite.computed"] += 1
            counts["qcore.infinite.factors"] += _infinite_factors(
                a, base, tol if tol is not None else qcore.default_tol(mp.prec)
            )
            return raw_infinite(a, base, tol)

        self._patch(qcore, "qpoch_infinite", qpoch_infinite)

        cache_cls = qcore.PochCache
        self._patch(
            cache_cls, "infinite", t.wrap("qcore.infinite", cache_cls.infinite)
        )

        # A ratio lookup that reaches no infinite product was a cache hit.
        raw_ratio = cache_cls.ratio

        def ratio(cache, a, base, scale):
            before = t.calls["qcore.infinite"]
            value = raw_ratio(cache, a, base, scale)
            if t.calls["qcore.infinite"] == before:
                counts["qcore.ratio.hits"] += 1
            return value

        self._patch(cache_cls, "ratio", t.wrap("qcore.ratio", ratio))

        # Finite tables grow to the largest index requested per (a, base);
        # a shadow of that high-water mark counts the factors appended.
        seen = weakref.WeakKeyDictionary()
        raw_finite = cache_cls.finite

        def finite(cache, a, base, k):
            marks = seen.get(cache)
            if marks is None:
                marks = seen[cache] = {}
            key = (a, base)
            mark = marks.get(key, 0)
            if k > mark:
                counts["qcore.finite.grown"] += k - mark
                marks[key] = k
            else:
                counts["qcore.finite.hits"] += 1
            return raw_finite(cache, a, base, k)

        self._patch(cache_cls, "finite", t.wrap("qcore.finite", finite))
        self._patch(
            qcore.BaseSystem,
            "power",
            t.wrap("qcore.power", qcore.BaseSystem.power),
        )

        # -- term assembly helpers, bound by name in every catalog module --
        sq_ratio = t.wrap("catalog.sq_ratio", core.sq_ratio)
        vandermonde = t.wrap("multisum.vandermonde", core.vandermonde_ratio)
        for module in m["term_modules"]:
            if hasattr(module, "sq_ratio"):
                self._patch(module, "sq_ratio", sq_ratio)
        self._patch(core, "vandermonde_ratio", vandermonde)

        # -- catalog: instantiation wraps the term closures it hands out ---
        family_cls = core.IdentityFamily
        raw_instantiate = family_cls.instantiate

        def instantiate(family, dims=None, **kw):
            identity = raw_instantiate(family, dims, **kw)
            return dataclasses.replace(
                identity,
                lhs=self._side(identity.lhs, "catalog.term"),
                rhs=self._side(identity.rhs, "catalog.term"),
            )

        self._patch(
            family_cls, "instantiate", t.wrap("catalog.instantiate", instantiate)
        )
        self._patch(
            catalog,
            "sample_domain",
            t.wrap("catalog.sample", catalog.sample_domain),
        )
        self._patch(
            catalog, "verify", t.wrap("catalog.verify", catalog.verify, span=True)
        )

        # -- multisum: the shell loop ---------------------------------------
        raw_evaluate = t.wrap(
            "multisum.side", multisum.evaluate_in_context, span=True
        )

        def evaluate_in_context(side, ctx, policy=None):
            value, diag = raw_evaluate(side, ctx, policy)
            counts["multisum.sides"] += 1
            counts["multisum.shells"] += diag.shells
            counts["multisum.terms"] += diag.terms
            return value, diag

        for module in (core, cli):
            self._patch(module, "evaluate_in_context", evaluate_in_context)

        # -- heine_engine: composition, homogeneity check, composed terms --
        for attr in ("compose", "compose_with_transformation"):
            self._patch(
                heine_engine,
                attr,
                self._composer(getattr(heine_engine, attr)),
            )
        raw_check = t.wrap(
            "heine_engine.property_h", heine_engine.check_property_H
        )

        def check_property_H(block, trials=24, *args, **kwargs):
            counts["heine_engine.property_h.trials"] += trials
            return raw_check(block, trials, *args, **kwargs)

        self._patch(heine_engine, "check_property_H", check_property_H)

        # -- report and cli ---------------------------------------------------
        self._patch(report, "case_row", t.wrap("report.case_row", report.case_row))
        self._patch(report, "render", t.wrap("report.render", report.render))
        self._patch(cli, "run_verify", t.wrap("cli", cli.run_verify, span=True))
        self._patch(cli, "run_compose", t.wrap("cli", cli.run_compose, span=True))

    def _side(self, side, name):
        if side.dimension == 0:
            term = side.term
        else:
            term = self.tracer.wrap(name, side.term)
        return dataclasses.replace(
            side,
            term=term,
            prefactor=self.tracer.wrap("multisum.prefactor", side.prefactor),
        )

    def _composer(self, compose):
        wrapped = self.tracer.wrap("heine_engine.compose", compose, span=True)

        def composer(*args, **kwargs):
            identity = wrapped(*args, **kwargs)
            return dataclasses.replace(
                identity,
                lhs=self._side(identity.lhs, "heine_engine.term"),
                rhs=self._side(identity.rhs, "heine_engine.term"),
            )

        return composer
