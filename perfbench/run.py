#!/usr/bin/env python3
"""qheine benchmark: end-to-end and per-layer metrics for three workloads.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload reference_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any case failed.  The full result (environment, raw and scaled
times per case, deterministic counters, spans) is written to
``.perfbench/<workload>-seed<seed>-trace<trace>.json``.

All reported times are seconds at the reference CPU speed (see speed.py):
each measured interval is scaled by the CPU speed sampled during it, so
runs made while the shared host is busy or idle compare.  The raw times
are kept in the result file.

Compare two result files, or two directories of them, workload by workload:

    python3 perfbench/run.py compare BASE NEW

Rewrite the reference values a workload is checked against (only after a
change that is meant to move them):

    python3 perfbench/run.py reference --workload reference_sweep
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import mpmath
from mpmath import mp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE_DIR = HERE / "reference"
MANIFEST = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from probes import Instrumentation, Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SETUP_REPS = 7
REL_TOL = mpmath.mpf("1e-20")
TAIL_BEYOND = 10

KERNEL_LAYERS = ("qcore.infinite", "qcore.finite", "qcore.ratio", "qcore.power")
TERM_LAYERS = (
    "catalog.term",
    "catalog.sq_ratio",
    "multisum.vandermonde",
    "heine_engine.term",
)

# Which end-to-end metric, on which workloads, each per-layer group should
# move.  Written into every traced result.
LAYER_MOVES = {
    "qcore.": ("wall_s", ["hiprec_sweep", "compose_mix"]),
    "catalog.term.": ("wall_s, case_ms_tail", ["reference_sweep"]),
    "catalog.sq_ratio.": ("wall_s, case_ms_tail", ["reference_sweep"]),
    "multisum.vandermonde.": ("wall_s, case_ms_tail", ["reference_sweep"]),
    "heine_engine.term.": ("wall_s", ["compose_mix"]),
    "multisum.": ("wall_s", list(workloads.WORKLOADS)),
    "catalog.verify.": ("case_ms_p50", ["reference_sweep", "hiprec_sweep"]),
    "catalog.sample_s": ("setup_s", list(workloads.WORKLOADS)),
    "catalog.instantiate_s": ("setup_s", ["reference_sweep", "hiprec_sweep"]),
    "heine_engine.": ("wall_s", ["compose_mix"]),
    "report.": ("wall_s", list(workloads.WORKLOADS)),
    "cli.": ("wall_s", list(workloads.WORKLOADS)),
}


# ---------------------------------------------------------------------------
# loading the package under test


def load_qheine() -> SimpleNamespace:
    """Import qheine from this checkout afresh, dropping earlier imports."""
    for name in [n for n in sys.modules if n == "qheine" or n.startswith("qheine.")]:
        del sys.modules[name]
    cli = importlib.import_module("qheine.cli")
    if Path(cli.__file__).resolve().parent != SRC / "qheine":
        raise ImportError(f"qheine was imported from {cli.__file__}, not {SRC}")
    catalog = sys.modules["qheine.catalog"]
    heine_engine = sys.modules["qheine.heine_engine"]
    term_modules = [
        sys.modules[name] for name in sorted(sys.modules) if name.startswith("qheine.catalog.")
    ] + [heine_engine]
    return SimpleNamespace(
        cli=cli,
        catalog=catalog,
        report=sys.modules["qheine.report"],
        modules={
            "qcore": sys.modules["qheine.qcore"],
            "multisum": sys.modules["qheine.multisum"],
            "catalog": catalog,
            "catalog.core": sys.modules["qheine.catalog.core"],
            "heine_engine": heine_engine,
            "report": sys.modules["qheine.report"],
            "cli": cli,
            "term_modules": term_modules,
        },
    )


def set_up(workload: str):
    """Import, instantiate every identity and sample every domain point."""
    start = time.perf_counter()
    q = load_qheine()
    cases = workloads.build_cases(workload, q.catalog)
    for case in cases:
        config = case.config
        mp.prec = config["precision"]
        if case.runner == "run_verify":
            family = q.catalog.lookup(config["identities"][0])
            identity = family.instantiate(config["dims"][0])
            q.catalog.sample_domain(identity, config["seed"], 1, config["precision"])
        else:
            q.cli.validate_config(q.cli.RunConfig(**config))
            q.catalog.sample_bases(random.Random(config["seed"]), config["precision"])
    return time.perf_counter() - start, q, cases


# ---------------------------------------------------------------------------
# one pass over the cases of a workload


def run_pass(q, cases, order, tracer=None):
    """Run every case once; case timings cover the program's calls only."""
    results = {}
    start = time.perf_counter()
    cpu_start = time.process_time()
    for case in order:
        config = q.cli.RunConfig(**json.loads(json.dumps(case.config)))
        if tracer is not None:
            tracer.case_id = case.key
        mp.prec = config.precision
        case_start = time.perf_counter()
        try:
            records, code = getattr(q.cli, case.runner)(config)
            text = q.report.render(records, "json-lines")
            error = None
        except Exception:  # a raising case is a failed case; keep going
            records, code, text = [], None, ""
            error = traceback.format_exc(limit=3)
        case_end = time.perf_counter()
        results[case.key] = {
            "start": case_start,
            "end": case_end,
            "seconds": case_end - case_start,
            "records": records,
            "code": code,
            "text": text,
            "error": error,
        }
    return {
        "start": start,
        "end": time.perf_counter(),
        "cpu_s": time.process_time() - cpu_start,
        "cases": results,
    }


def _rel_diff(got: dict, want: dict, prec: int, report) -> mpmath.mpf:
    with mp.workprec(prec):
        g = [report.parse_value(got[p], prec) for p in ("re", "im")]
        w = [report.parse_value(want[p], prec) for p in ("re", "im")]
        scale = max(mpmath.hypot(*w), mpmath.mpf(10) ** -300)
        return mpmath.hypot(g[0] - w[0], g[1] - w[1]) / scale


def check_case(q, key: str, result: dict, reference: dict | None) -> list[str]:
    """Reasons the case failed; empty when it passed every check."""
    if result["error"]:
        return ["raised: " + result["error"].strip().splitlines()[-1]]
    problems = []
    records = result["records"]
    case_records = [r for r in records if r.get("kind") == "case"]
    if result["code"] != 0 or not case_records:
        problems.append(f"exit code {result['code']} with {len(case_records)} cases")
    for record in case_records:
        if not record.get("passed") or record.get("status") != "ok":
            problems.append(f"verdict {record.get('status')} passed={record.get('passed')}")
        if not (record.get("lhs_converged") and record.get("rhs_converged")):
            problems.append("a side did not converge")
    parsed = q.report.parse_json_lines(result["text"])
    expected = json.loads(json.dumps(records))
    kinds = ("header", "case", "summary", "total")
    by_kind = [r for kind in kinds for r in expected if r["kind"] == kind]
    if [parsed["header"]] + parsed["cases"] + parsed["summaries"] + [parsed["total"]] != by_kind:
        problems.append("json-lines output does not round-trip")
    if reference is not None:
        stripped = q.report.parse_json_lines(q.report.strip_volatile(result["text"]))
        want = reference.get(key)
        if want is None or len(want) != len(stripped["cases"]):
            problems.append("no stored reference values for this case")
        else:
            for got, ref in zip(stripped["cases"], want):
                prec = got["bases"]["precision"]
                for side in ("lhs", "rhs"):
                    if _rel_diff(got[side], ref[side], prec, q.report) > REL_TOL:
                        problems.append(f"{side} differs from the stored reference")
    return problems


def pass_counts(result: dict) -> dict:
    """Deterministic work counts read from the case records of one pass."""
    counts = {"cases": 0, "shells": 0, "terms": 0}
    for case in result["cases"].values():
        for record in case["records"]:
            if record.get("kind") != "case":
                continue
            counts["cases"] += 1
            counts["shells"] += record.get("lhs_shells", 0) + record.get("rhs_shells", 0)
            counts["terms"] += record.get("lhs_terms", 0) + record.get("rhs_terms", 0)
    return counts


def max_base(records: list[dict]) -> float | None:
    """Largest of |q^h|, |q^t|, |q^{ht}| over the case records."""
    values = []
    for record in records:
        if record.get("kind") == "case" and record.get("bases"):
            q, h, t = (float(record["bases"][k]) for k in ("q", "h", "t"))
            values.append(max(abs(q) ** h, abs(q) ** t, abs(q) ** (h * t)))
    return max(values, default=None)


# ---------------------------------------------------------------------------
# metrics


def median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by a Beta((n+1)/2, (n+1)/2) distribution.  Steadier than the middle
    value when the cases next to it are far apart in time."""
    ordered = sorted(values)
    n = len(ordered)
    shape = (n + 1) / 2
    with mp.workprec(53):
        cdf = [
            float(mpmath.betainc(shape, shape, 0, i / n, regularized=True))
            for i in range(n + 1)
        ]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND values beyond it, and its
    percentile level."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(passes: list[dict], setup_s: float) -> tuple[dict, dict]:
    keys = passes[0]["cases"].keys()
    per_case_ms = [
        1000 * statistics.median(p["cases"][k]["scaled_s"] for p in passes) for k in keys
    ]
    tail_ms, level = tail(per_case_ms)
    metrics = {
        "wall_s": statistics.median(p["scale"] * (p["end"] - p["start"]) for p in passes),
        "cpu_s": statistics.median(p["scale"] * p["cpu_s"] for p in passes),
        "case_ms_p50": median(per_case_ms),
        "case_ms_tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"case_ms_tail_level": level, "case_count": len(per_case_ms)}


def layer_metrics(tracer: Tracer, scale: float, untraced_wall: float) -> dict:
    """Per-layer counts and self times of the traced pass, times scaled."""
    calls, counts = tracer.calls, tracer.counts
    self_s = {name: scale * seconds for name, seconds in tracer.self_s.items()}
    traced_wall = scale * tracer.total_s["bench"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "qcore.infinite.calls": calls["qcore.infinite"],
        "qcore.infinite.computed": counts["qcore.infinite.computed"],
        "qcore.infinite.hit_ratio": ratio(
            calls["qcore.infinite"] - counts["qcore.infinite.computed"],
            calls["qcore.infinite"],
        ),
        "qcore.infinite.factors": counts["qcore.infinite.factors"],
        "qcore.finite.calls": calls["qcore.finite"],
        "qcore.finite.grown": counts["qcore.finite.grown"],
        "qcore.finite.hit_ratio": ratio(counts["qcore.finite.hits"], calls["qcore.finite"]),
        "qcore.ratio.calls": calls["qcore.ratio"],
        "qcore.ratio.hit_ratio": ratio(counts["qcore.ratio.hits"], calls["qcore.ratio"]),
        "qcore.power.calls": calls["qcore.power"],
        "catalog.term.calls": calls["catalog.term"],
        "catalog.sq_ratio.calls": calls["catalog.sq_ratio"],
        "multisum.vandermonde.calls": calls["multisum.vandermonde"],
        "heine_engine.term.calls": calls["heine_engine.term"],
        "multisum.sides": counts["multisum.sides"],
        "multisum.shells": counts["multisum.shells"],
        "multisum.terms": counts["multisum.terms"],
        "multisum.prefactor_s": self_s.get("multisum.prefactor", 0.0),
        "multisum.self_s": self_s.get("multisum.side", 0.0),
        "catalog.verify.calls": calls["catalog.verify"],
        "catalog.sample_s": self_s.get("catalog.sample", 0.0),
        "catalog.instantiate_s": self_s.get("catalog.instantiate", 0.0),
        "heine_engine.compose.calls": calls["heine_engine.compose"],
        "heine_engine.property_h.trials": counts["heine_engine.property_h.trials"],
        "report.case_row_s": self_s.get("report.case_row", 0.0),
        "report.render_s": self_s.get("report.render", 0.0),
        "report.bytes": counts["report.bytes"],
        "cli.self_s": self_s.get("cli", 0.0),
        "bench.self_s": self_s.get("bench", 0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.accounted_s": sum(self_s.values()),
    }
    for name in KERNEL_LAYERS + TERM_LAYERS + (
        "catalog.verify",
        "heine_engine.compose",
        "heine_engine.property_h",
    ):
        out[name + ".self_s"] = self_s.get(name, 0.0)
    return out


def layer_shares(tracer: Tracer) -> dict:
    """Share of the traced pass each layer's self time takes."""
    wall = tracer.total_s["bench"]
    shares = {name: seconds / wall for name, seconds in sorted(tracer.self_s.items())}
    for group, names in (("kernel", KERNEL_LAYERS), ("terms", TERM_LAYERS)):
        shares["group." + group] = sum(tracer.self_s[n] for n in names) / wall
    return shares


# ---------------------------------------------------------------------------
# the run


def environment() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def scaled(result: dict, speed: SpeedSampler) -> dict:
    """Add the speed scale of a pass and the scaled time of each case."""
    result["scale"] = speed.scale(result["start"], result["end"])
    for case in result["cases"].values():
        case["scaled_s"] = case["seconds"] * speed.scale(case["start"], case["end"])
    return result


def measure(args, cases, q, speed: SpeedSampler):
    """Untraced passes until the time is up.  The traced run makes one
    untraced pass, the baseline of the tracing overhead, then a traced one."""
    passes = []
    loop_start = time.perf_counter()
    while not passes or (
        not args.trace
        and time.perf_counter() - loop_start + passes[-1]["end"] - passes[-1]["start"]
        <= args.seconds
    ):
        order = workloads.pass_order(cases, args.seed, len(passes))
        passes.append(scaled(run_pass(q, cases, order), speed))
    if not args.trace:
        return passes, None
    tracer = Tracer()
    instrumentation = Instrumentation(q.modules, tracer)
    instrumentation.install()
    try:
        order = workloads.pass_order(cases, args.seed, len(passes))
        traced = tracer.wrap("bench", run_pass, span=True)(q, cases, order, tracer)
    finally:
        instrumentation.remove()
    scaled(traced, speed)
    # Bytes after strip_volatile, so that the count repeats exactly.
    tracer.counts["report.bytes"] = sum(
        len(q.report.strip_volatile(c["text"]).encode()) for c in traced["cases"].values()
    )
    return passes + [traced], tracer


def run(args) -> int:
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    reference = load_reference(args.workload)

    with SpeedSampler() as speed:
        setup_start = time.perf_counter()
        setup_times = []
        for _ in range(SETUP_REPS):
            seconds, q, cases = set_up(args.workload)
            setup_times.append(seconds)
        setup_scale = speed.scale(setup_start, time.perf_counter())
        all_passes, tracer = measure(args, cases, q, speed)

    attempted = failed = 0
    failures = {}
    for result in all_passes:
        for case in cases:
            attempted += 1
            problems = check_case(q, case.key, result["cases"][case.key], reference)
            if problems:
                failed += 1
                failures.setdefault(case.key, problems)
    counts = [pass_counts(p) for p in all_passes]
    self_checks = {"record_counts_repeat": all(c == counts[0] for c in counts)}
    correct = failed == 0 and all(self_checks.values())

    if tracer is not None:
        untraced, traced = all_passes[0], all_passes[-1]
        untraced_wall = untraced["scale"] * (untraced["end"] - untraced["start"])
        values = layer_metrics(tracer, traced["scale"], untraced_wall)
        detail = {"self_share": layer_shares(tracer)}
    else:
        values, detail = end_to_end(all_passes, setup_scale * statistics.median(setup_times))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result_doc = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "setup_raw_s": setup_times,
        "setup_scale": setup_scale,
        "passes": [
            {"raw_wall_s": p["end"] - p["start"], "raw_cpu_s": p["cpu_s"], "scale": p["scale"]}
            for p in all_passes
        ],
        "metrics": metrics,
        "detail": detail,
        "counts": dict(counts[0], **(tracer.counts if tracer else {})),
        "self_checks": self_checks,
        "failures": failures,
        "cases": [
            {
                "key": case.key,
                "raw_seconds": [p["cases"][case.key]["seconds"] for p in all_passes],
                "scaled_seconds": [p["cases"][case.key].get("scaled_s") for p in all_passes],
                "max_base": max_base(all_passes[0]["cases"][case.key]["records"]),
            }
            for case in cases
        ],
    }
    if tracer is not None:
        result_doc["layer_moves"] = LAYER_MOVES
        result_doc["spans"] = tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result_doc, handle, indent=1)

    print("environment: " + json.dumps(result_doc["environment"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    if "case_count" in detail:
        print(
            f"case_ms_tail is the p{detail['case_ms_tail_level']:.1f} of "
            f"{detail['case_count']} cases; {len(all_passes)} passes"
        )
    for key, problems in failures.items():
        print(f"FAILED {key}: {'; '.join(problems)}")
    for name, ok in self_checks.items():
        if not ok:
            print(f"SELF-CHECK FAILED {name}")
    print(f"result written to {out_path.relative_to(ROOT)}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# reference values and comparison


def write_reference(args) -> int:
    _, q, cases = set_up(args.workload)
    result = run_pass(q, cases, cases)
    reference = {}
    for case in cases:
        case_result = result["cases"][case.key]
        problems = check_case(q, case.key, case_result, None)
        if problems:
            print(f"error: {case.key}: {problems}", file=sys.stderr)
            return 1
        stripped = q.report.parse_json_lines(q.report.strip_volatile(case_result["text"]))
        reference[case.key] = [{"lhs": c["lhs"], "rhs": c["rhs"]} for c in stripped["cases"]]
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{args.workload}.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def _load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            results.append(json.load(handle))
    return results


def compare(args) -> int:
    """Median of each metric per (workload, trace) on both sides, the ratio
    new/base, and whether the deterministic counters are identical."""

    def grouped(path):
        groups = {}
        for result in _load_results(Path(path)):
            groups.setdefault((result["workload"], result["trace"]), []).append(result)
        return groups

    base_groups, new_groups = grouped(args.base), grouped(args.new)
    for group in sorted(set(base_groups) & set(new_groups)):
        base, new = base_groups[group], new_groups[group]
        kind = "per-layer" if group[1] else "end-to-end"
        print(f"== {group[0]} {kind}: base {len(base)} runs, new {len(new)} runs")
        for name, metric in base[0]["metrics"].items():
            if name not in new[0]["metrics"]:
                continue
            b = statistics.median(r["metrics"][name]["value"] for r in base)
            n = statistics.median(r["metrics"][name]["value"] for r in new)
            ratio = f"{n / b:.4f}" if b else "n/a"
            print(
                f"  {name:34s} base {b:<12.6g} new {n:<12.6g} "
                f"{metric['unit']:15s} new/base {ratio}"
            )
        for label, runs in (("base", base), ("new", new)):
            if any(r["counts"] != runs[0]["counts"] for r in runs):
                print(f"  deterministic counters differ between the {label} runs")
        differ = {
            key: (base[0]["counts"].get(key), new[0]["counts"].get(key))
            for key in sorted(set(base[0]["counts"]) | set(new[0]["counts"]))
            if base[0]["counts"].get(key) != new[0]["counts"].get(key)
        }
        print(f"  deterministic counters: {'differ' if differ else 'identical'}")
        for key, (b, n) in differ.items():
            print(f"    {key}: base {b} new {n}")
    for group in sorted(set(base_groups) ^ set(new_groups)):
        print(f"== {group[0]} trace={group[1]}: only on one side")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return compare(parser.parse_args(argv[1:]))
    if argv and argv[0] == "reference":
        parser = argparse.ArgumentParser(prog="run.py reference")
        parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
        return write_reference(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description="qheine benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    if not (SRC / "qheine" / "__init__.py").is_file():
        print(f"error: no qheine sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, so that every sample of the speed kernel
    # and every measured call see the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
