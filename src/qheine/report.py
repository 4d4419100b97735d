"""Report serialisation: json-lines, csv, and plain text.

High-precision values are written as decimal strings with enough
significant digits for the run's precision (at least 50) so that reparsing
at the recorded working precision recovers them exactly.  The ``generated_at`` and ``wall_ms`` fields are volatile run
metadata; ``strip_volatile`` removes them for reproducibility comparisons.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Iterable

from mpmath import mp, mpc, mpf, mpmathify

from .qcore import DEFAULT_PRECISION

SCHEMA_VERSION = "1"
VALUE_DIGITS = 50
VOLATILE_KEYS = ("generated_at", "wall_ms")


def value_digits(prec: int) -> int:
    """Significant digits that recover a ``prec``-bit value when parsed back
    at ``prec`` bits: ceil(prec log10 2) + 2, never fewer than VALUE_DIGITS."""
    return max(VALUE_DIGITS, math.ceil(prec * math.log10(2)) + 2)


def value_str(x, prec: int = DEFAULT_PRECISION) -> str:
    with mp.workprec(max(mp.prec, prec, 192)):
        return mp.nstr(mpmathify(x), value_digits(prec), strip_zeros=True)


def complex_dict(x, prec: int = DEFAULT_PRECISION) -> dict:
    x = mpmathify(x)
    if isinstance(x, mpc):
        return {"re": value_str(x.real, prec), "im": value_str(x.imag, prec)}
    return {"re": value_str(x, prec), "im": "0.0"}


def parse_value(s: str, prec: int):
    with mp.workprec(prec):
        return mpf(s)


def parse_complex(d: dict, prec: int):
    re = parse_value(d["re"], prec)
    im = parse_value(d["im"], prec)
    if im == 0:
        return re
    with mp.workprec(prec):
        return mpc(re, im)


def params_to_json(params: dict, prec: int = DEFAULT_PRECISION) -> dict:
    out = {}
    for name, value in params.items():
        if isinstance(value, tuple):
            out[name] = [value_str(v, prec) for v in value]
        else:
            out[name] = value_str(value, prec)
    return out


def case_row(result, dims, sample_index) -> dict:
    """Flatten a VerificationResult into a serialisable case record; values
    carry enough digits for the precision of its run."""
    prec = result.bases.prec
    return {
        "kind": "case",
        "identity": result.identity_id,
        "dims": dict(dims),
        "sample_index": sample_index,
        "passed": result.passed,
        "rel_error": value_str(result.rel_error, prec),
        "abs_error": value_str(result.abs_error, prec),
        "tolerance": value_str(result.tolerance, prec),
        "lhs": complex_dict(result.lhs_value, prec),
        "rhs": complex_dict(result.rhs_value, prec),
        "lhs_shells": result.lhs_diag.shells,
        "rhs_shells": result.rhs_diag.shells,
        "lhs_terms": result.lhs_diag.terms,
        "rhs_terms": result.rhs_diag.terms,
        "lhs_converged": result.lhs_diag.converged,
        "rhs_converged": result.rhs_diag.converged,
        "lhs_tail_bound": value_str(result.lhs_diag.tail_bound, prec),
        "rhs_tail_bound": value_str(result.rhs_diag.tail_bound, prec),
        "params": params_to_json(result.params, prec),
        "bases": {
            "q": value_str(result.bases.q, prec),
            "h": value_str(result.bases.h, prec),
            "t": value_str(result.bases.t, prec),
            "precision": prec,
        },
        "status": "ok",
    }


def dumps_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def render_json_lines(records: Iterable[dict]) -> str:
    return "\n".join(dumps_line(r) for r in records) + "\n"


_CSV_COLUMNS = (
    "identity",
    "dims",
    "sample_index",
    "status",
    "passed",
    "rel_error",
    "abs_error",
    "tolerance",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "lhs_shells",
    "rhs_shells",
    "lhs_converged",
    "rhs_converged",
)


def render_csv(records: Iterable[dict]) -> str:
    """One row per case; a case that failed before verification, such as a
    property-H failure, has its status and empty value cells."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for record in records:
        if record.get("kind") != "case":
            continue
        row = dict(record, dims=json.dumps(record["dims"], sort_keys=True))
        row.setdefault("status", "ok")
        for side in ("lhs", "rhs"):
            value = record.get(side, {})
            row[side + "_re"], row[side + "_im"] = value.get("re"), value.get("im")
        writer.writerow([row.get(column) for column in _CSV_COLUMNS])
    return buffer.getvalue()


def render_text(records: Iterable[dict]) -> str:
    lines = []
    for record in records:
        kind = record.get("kind")
        if kind == "header":
            lines.append(f"# qheine {record.get('version', '')} {record.get('mode', '')} run")
            lines.append(f"# config: {json.dumps(record.get('config', {}), sort_keys=True)}")
        elif kind == "case":
            dims = json.dumps(record["dims"], sort_keys=True)
            status = record.get("status", "ok")
            flag = "PASS" if record["passed"] else ("FAIL" if status == "ok" else status)
            rel = record.get("rel_error", "n/a")
            lines.append(
                f"{record['identity']:30s} {dims:28s} "
                f"#{record['sample_index']:<3d} {flag:6s} rel={rel}"
            )
        elif kind == "summary":
            lines.append(
                f"-- {record['identity']}: {record['passed']}/{record['cases']} passed, "
                f"worst rel {record['worst_rel_error']}"
            )
        elif kind == "total":
            lines.append(
                f"== total: {record['passed']}/{record['cases']} passed, "
                f"exit {record['exit_code']}"
            )
    return "\n".join(lines) + "\n"


# Report format -> renderer; the CLI's --report choices are its keys.
FORMATS = {"json-lines": render_json_lines, "csv": render_csv, "text": render_text}


def render(records: list[dict], fmt: str) -> str:
    return FORMATS[fmt](records)


def parse_json_lines(text: str) -> dict:
    header = None
    cases = []
    summaries = []
    total = None
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "header":
            header = record
        elif kind == "case":
            cases.append(record)
        elif kind == "summary":
            summaries.append(record)
        elif kind == "total":
            total = record
    return {"header": header, "cases": cases, "summaries": summaries, "total": total}


def strip_volatile(text: str, fmt: str = "json-lines") -> str:
    """Normalised report content with run-time metadata removed."""
    if fmt != "json-lines":
        return text
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for key in VOLATILE_KEYS:
            record.pop(key, None)
        out.append(dumps_line(record))
    return "\n".join(out) + "\n"
