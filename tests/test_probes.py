"""The benchmark's layer probes (perfbench/probes.py) install on the package
and come off it again.

They patch functions, methods and module attributes by name, so a name they
patch that the package no longer has fails here, and not only in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from mpmath import mpc, mpf

from qheine import cli, qcore

ROOT = Path(__file__).resolve().parent.parent

# Loads the package as perfbench/run.py does, then runs one q_binomial
# verify and two compose cases of the benchmark's workloads with the probes
# installed: q_bin/q_bin, and milne_lilly:2+gk:1/q_bin, whose terms run
# sq_ratio and the Vandermonde factor.  It compares every patched owner's
# attributes before installing and after removing them.
SCRIPT = textwrap.dedent(
    """
    import json, sys

    sys.path.insert(0, sys.argv[1])
    import run, workloads
    from probes import Instrumentation, Tracer

    q = run.load_qheine()
    wanted = (
        ("reference_sweep", "q_binomial{}"),
        ("compose_mix", "q_bin+q_bin/q_bin#0"),
        ("compose_mix", "milne_lilly:2+gk:1/q_bin#0"),
    )
    cases = [
        case
        for workload, key in wanted
        for case in workloads.build_cases(workload, q.catalog)
        if case.key == key
    ]
    m = q.modules
    owners = [module for name, module in m.items() if name != "term_modules"]
    owners += m["term_modules"] + [
        m["qcore"].PochCache,
        m["qcore"].BaseSystem,
        m["catalog.core"].IdentityFamily,
    ]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    probes = Instrumentation(m, tracer)
    probes.install()
    try:
        result = run.run_pass(q, cases, cases, tracer)
    finally:
        probes.remove()
    after = [dict(vars(owner)) for owner in owners]
    restored = all(
        old.keys() == new.keys() and all(old[k] is new[k] for k in old)
        for old, new in zip(before, after)
    )
    print(json.dumps({
        "keys": [case.key for case in cases],
        "codes": [result["cases"][case.key]["code"] for case in cases],
        "errors": [result["cases"][case.key]["error"] for case in cases],
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "restored": restored,
    }))
    """
)


def test_probes_install_and_come_off():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["keys"] == [
        "q_binomial{}",
        "q_bin+q_bin/q_bin#0",
        "milne_lilly:2+gk:1/q_bin#0",
    ]
    assert out["errors"] == [None, None, None]
    assert out["codes"] == [0, 0, 0]
    # A refactor that routes the hot path around a patched name leaves its
    # probe in place but never called: each must count.
    calls = out["calls"]
    for layer in (
        "cli",
        "catalog.verify",
        "catalog.term",
        "catalog.sq_ratio",
        "heine_engine.compose",
        "heine_engine.term",
        "multisum.side",
        "multisum.vandermonde",
        "qcore.infinite",
    ):
        assert calls.get(layer, 0) > 0, layer
    # Spec blocks are homogeneous by their form and run no numerical trials;
    # the probe stays on ``check_property_H`` for summands written as code.
    assert calls.get("heine_engine.property_h", 0) == 0
    assert out["counts"].get("qcore.infinite.computed", 0) > 0
    assert out["restored"]


def test_every_computed_product_reaches_qpoch_infinite(monkeypatch, capsys):
    # The probe counts qcore.infinite.computed and factors in a wrapper of
    # qcore.qpoch_infinite, whose arguments it reads with abs(): every
    # product loop that runs must have been entered through that name, with
    # mpf or mpc arguments.
    entered, loops = [], []
    raw = qcore.qpoch_infinite

    def counted(a, base, tol=None):
        entered.append((type(a), type(base)))
        return raw(a, base, tol)

    def loop(name):
        inner = getattr(qcore, name)

        def run(*args):
            loops.append(name)
            return inner(*args)

        return run

    monkeypatch.setattr(qcore, "qpoch_infinite", counted)
    for name in ("_infinite",):
        monkeypatch.setattr(qcore, name, loop(name))
    argv = ["compose", "--blocks", "q_bin,q_bin", "--base", "q_bin"]
    assert cli.main(argv + ["--samples", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(entered) == len(loops) > 0
    assert {t for pair in entered for t in pair} <= {mpf, mpc}
