#!/usr/bin/env python3
"""Compare two json-lines verification reports case by case.

Both reports are normalised with ``report.strip_volatile``, and their cases
are matched by (identity, dims, sample_index).  For every case the script
prints the largest relative change of the lhs and rhs values between the
two reports, then the largest change over all cases.  It exits 1 if the two
reports hold different sets of cases, if any case's verdict (``passed`` and
``status``) differs, or if any case's work counts (``lhs_shells``,
``rhs_shells``, ``lhs_terms``, ``rhs_terms``) differ, and 0 otherwise.

Use it where ``report_digest.py`` cannot help: a change that moves the last
bits of the values changes the digest, and this shows by how much.  The
reports ``report_digest.py --save`` writes can be compared too, the joined
compose_mix reports included; a case that appears twice in one report is
an error (exit 2).

Example:
    PYTHONPATH=src python3 -m qheine.cli verify --all --samples 1 --seed 1 --out new.jsonl
    PYTHONPATH=src python3 scripts/report_diff.py base.jsonl new.jsonl
    PYTHONPATH=src python3 scripts/report_digest.py --save new.jsonl compose_mix
"""

import json
import sys

from mpmath import mp, mpf

from qheine import report

COUNTS = ("lhs_shells", "rhs_shells", "lhs_terms", "rhs_terms")


def cases(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = report.strip_volatile(handle.read())
    out = {}
    for case in report.parse_json_lines(text)["cases"]:
        key = (
            case["identity"],
            json.dumps(case["dims"], sort_keys=True),
            case["sample_index"],
        )
        if key in out:
            raise ValueError(f"{path}: case {key} appears twice")
        out[key] = case
    return out


def relative_change(base: dict, new: dict, prec: int):
    """|new - base| / |base| at precision ``prec`` (absolute if base is 0)."""
    old = report.parse_complex(base, prec)
    cur = report.parse_complex(new, prec)
    with mp.workprec(prec):
        return abs(cur - old) / max(abs(old), mpf(2) ** -prec)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py BASE NEW", file=sys.stderr)
        return 2
    try:
        base, new = cases(argv[0]), cases(argv[1])
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    code = 0
    for key in sorted(set(base) ^ set(new)):
        where = "BASE" if key in base else "NEW"
        print(f"only in {where}: {key[0]} {key[1]} #{key[2]}")
        code = 1
    worst, worst_key = mpf(0), None
    for key in sorted(set(base) & set(new)):
        old, cur = base[key], new[key]
        if "lhs" not in old or "lhs" not in cur:
            change = None
        else:
            prec = old["bases"]["precision"]
            change = max(
                relative_change(old[side], cur[side], prec) for side in ("lhs", "rhs")
            )
        verdicts = [(c["passed"], c.get("status", "ok")) for c in (old, cur)]
        flag = "" if verdicts[0] == verdicts[1] else "  VERDICT CHANGED"
        if any(old.get(name) != cur.get(name) for name in COUNTS):
            flag += "  COUNTS CHANGED"
        if flag:
            code = 1
        shown = "n/a" if change is None else mp.nstr(change, 3)
        print(f"{key[0]:30s} {key[1]:28s} #{key[2]:<3d} {shown}{flag}")
        if change is not None and change >= worst:
            worst, worst_key = change, key
    if worst_key is not None:
        print(
            f"largest relative change: {mp.nstr(worst, 3)} "
            f"({worst_key[0]} {worst_key[1]} #{worst_key[2]})"
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
