#!/usr/bin/env python3
"""Time passes of one benchmark workload from two source trees in one
process, alternating between them.

Each tree's ``qheine`` package is imported once, under its own copy of the
``qheine`` entries of ``sys.modules``; before each pass the entries of the
tree about to run are put back, so each pass runs its own tree's code.  The
cases come from ``perfbench/workloads.py`` of this checkout and each pass is
``run_pass`` of ``perfbench/run.py``; both are only imported.  The process
is pinned to one CPU, every tree runs one untimed pass first, and each pair
of timed passes alternates which tree goes first.  A pass is timed in
process CPU time, so that other load on the machine moves it less than wall
time.

Prints the median and quartiles of each tree's CPU seconds per pass, and
the number of pairs each tree won.  Exits 1 if any case exits nonzero or
raises.  The workload's own figures still come from ``perfbench/run.py``.

Example (two checkouts side by side):
    python3 scripts/ab_passes.py ../base/src src --workload reference_sweep --pairs 6
"""

import argparse
import importlib
import os
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402

# Sets the case order of every pass, as ``perfbench/run.py --seed`` does.
SEED = 1


def _is_qheine(name: str) -> bool:
    return name == "qheine" or name.startswith("qheine.")


def _use(modules: dict) -> None:
    """Make ``modules`` the ``qheine`` entries of ``sys.modules``."""
    for name in [n for n in sys.modules if _is_qheine(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load_tree(src: Path) -> dict:
    """Import ``qheine`` from ``src`` afresh; return its ``sys.modules``
    entries."""
    _use({})
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("qheine.cli")
    finally:
        sys.path.remove(str(src))
    if Path(cli.__file__).resolve().parent != src / "qheine":
        raise ImportError(f"qheine was imported from {cli.__file__}, not {src}")
    return {n: m for n, m in sys.modules.items() if _is_qheine(n)}


def timed_pass(modules: dict, cases: list, order: list) -> float:
    """Process CPU seconds for one pass of ``cases`` in ``order`` with the
    tree whose modules are ``modules``; raises SystemExit if a case fails."""
    _use(modules)
    q = SimpleNamespace(cli=modules["qheine.cli"], report=modules["qheine.report"])
    result = run.run_pass(q, cases, order)
    for key, case in result["cases"].items():
        if case["error"]:
            raise SystemExit(f"{key}: raised {case['error'].strip().splitlines()[-1]}")
        if case["code"] != 0:
            raise SystemExit(f"{key}: exit code {case['code']}")
    return result["cpu_s"]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="src directory of the first tree")
    parser.add_argument("new", type=Path, help="src directory of the second tree")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    # The same CPU as perfbench/run.py pins to.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    trees = {}
    for label, src in (("base", args.base), ("new", args.new)):
        trees[label] = load_tree(src.resolve())
    cases = workloads.build_cases(args.workload, trees["base"]["qheine.catalog"])
    try:
        for modules in trees.values():
            timed_pass(modules, cases, workloads.pass_order(cases, SEED, 0))
        times = {label: [] for label in trees}
        wins = {label: 0 for label in trees}
        for index in range(args.pairs):
            order = workloads.pass_order(cases, SEED, index + 1)
            labels = ("base", "new") if index % 2 == 0 else ("new", "base")
            pair = {label: timed_pass(trees[label], cases, order) for label in labels}
            for label, seconds in pair.items():
                times[label].append(seconds)
            if pair["base"] != pair["new"]:
                wins[min(pair, key=pair.get)] += 1
            print(
                f"pair {index + 1}: base {pair['base']:.3f} s, new {pair['new']:.3f} s",
                flush=True,
            )
    except SystemExit as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, {args.pairs} pairs, CPU {cpu}")
    for label in trees:
        q1, median, q3 = quartiles(times[label])
        print(
            f"{label}: median {median:.3f} s per pass (q1 {q1:.3f}, q3 {q3:.3f}), "
            f"{wins[label]} wins"
        )
    ratio = statistics.median(times["new"]) / statistics.median(times["base"])
    print(f"new/base median: {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
