#!/usr/bin/env python3
"""Print the sha256 of the stripped reference sweep report, or of a
compose run's, or of the 1024-bit run of the hiprec_sweep families, or of
the compose_mix specs' runs.

Runs ``qheine verify --all --samples 1 --seed 1`` in process, writing the
report to a buffer rather than a file (the header records the ``--out``
path), removes the volatile fields with ``report.strip_volatile`` and
prints the sha256 of the result.  The exit code is the run's exit code.
Two checkouts whose arithmetic is the same print the same digest.

Arguments are added to that ``qheine verify`` command, so a flag given
again overrides the default (argparse keeps the last value), and
``--identity`` replaces ``--all``.  Without arguments the command is the
reference sweep above.  When the first argument is ``compose``, the
arguments are a ``qheine compose`` command line, digested as given.  When
it is ``hiprec``, the command is the reference sweep at the benchmark's
hiprec_sweep precision (1024 bits) over every catalog family that
``perfbench/workloads.py`` does not exclude from that workload, at the
families' default dimensions; the remaining arguments are added to it.
When it is ``compose_mix``, one ``qheine compose`` command runs per spec of
``perfbench/workloads.py``'s ``COMPOSE_SPECS``, at seed 1 with the spec's
sample count and the remaining arguments added; the digest is that of the
stripped reports joined in spec order, and the exit code the largest of
the runs'.

A leading ``--save PATH`` also writes the stripped report (for compose_mix
the stripped reports joined in spec order) to PATH, so that
``scripts/report_diff.py`` can compare the runs of two checkouts case by
case where their digests differ.

Examples:
    PYTHONPATH=src python3 scripts/report_digest.py
    PYTHONPATH=src python3 scripts/report_digest.py hiprec
    PYTHONPATH=src python3 scripts/report_digest.py compose_mix
    PYTHONPATH=src python3 scripts/report_digest.py --save hiprec.jsonl hiprec
    PYTHONPATH=src python3 scripts/report_digest.py --precision 1024 \
        --identity thm_heine7 --identity ram_core
    PYTHONPATH=src python3 scripts/report_digest.py compose --blocks q_euler \
        --base q_euler --samples 14 --seed 1
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from qheine import catalog, cli, report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

ARGV = ["verify", "--all", "--samples", "1", "--seed", "1"]


def command(extra: list) -> list:
    """The ``qheine`` command line that ``main(extra)`` runs."""
    if extra[:1] == ["compose"]:
        return list(extra)
    if extra[:1] == ["hiprec"]:
        precision = ["--precision", str(workloads.PRECISION["hiprec_sweep"])]
        families = [
            f"--identity={family.id}"
            for family in catalog.register_all()
            if family.id not in workloads.HIPREC_EXCLUDED
        ]
        extra = precision + families + extra[1:]
    argv = ARGV + extra
    if any(arg.startswith("--identity") for arg in extra):
        argv.remove("--all")
    return argv


def commands(extra: list) -> list:
    """The ``qheine`` command lines that ``main(extra)`` runs, in order."""
    if extra[:1] != ["compose_mix"]:
        return [command(extra)]
    return [
        ["compose", "--blocks", ",".join(blocks), "--base", base]
        + ["--samples", str(samples), "--seed", "1"]
        + extra[1:]
        for blocks, base, samples in workloads.COMPOSE_SPECS
    ]


def main(extra: list) -> int:
    save = None
    if extra[:1] == ["--save"]:
        if len(extra) < 2:
            print("usage: report_digest.py [--save PATH] [ARGS...]", file=sys.stderr)
            return 2
        save, extra = extra[1], extra[2:]
    stripped = []
    code = 0
    for argv in commands(extra):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = max(code, cli.main(argv))
        stripped.append(report.strip_volatile(buffer.getvalue()))
    text = "".join(stripped)
    if save is not None:
        Path(save).write_text(text, encoding="utf-8")
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
