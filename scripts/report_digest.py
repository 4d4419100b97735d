#!/usr/bin/env python3
"""Print the sha256 of the stripped reference sweep report.

Runs ``qheine verify --all --samples 1 --seed 1`` in process, writing the
report to a buffer rather than a file (the header records the ``--out``
path), removes the volatile fields with ``report.strip_volatile`` and
prints the sha256 of the result.  The exit code is the run's exit code.
Two checkouts whose arithmetic is the same print the same digest.

Example:
    PYTHONPATH=src python3 scripts/report_digest.py
"""

import contextlib
import hashlib
import io
import sys

from qheine import cli, report

ARGV = ["verify", "--all", "--samples", "1", "--seed", "1"]


def main() -> int:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(ARGV)
    stripped = report.strip_volatile(buffer.getvalue())
    print(hashlib.sha256(stripped.encode("utf-8")).hexdigest())
    return code


if __name__ == "__main__":
    sys.exit(main())
