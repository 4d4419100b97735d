"""Command-line harness: catalog verification sweeps, block compositions,
and catalog metadata export.

Exit codes: 0 all checks passed, 1 verification failures, 2 configuration
errors, 3 homogeneity (composition precondition) failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

from mpmath import mp, mpf

from . import __version__, catalog, heine_engine, report
from .catalog.blocks import BLOCKS, sample_block
from .catalog.core import argument, exponent, sample_bases
from .errors import (
    InvalidConfig,
    PropertyHViolation,
    QHeineError,
    UnknownIdentity,
)
from .multisum import HeineBlock, TruncationPolicy, make_context
# Unused here; kept because perfbench/probes.py patches cli.evaluate_in_context.
from .multisum import evaluate_in_context  # noqa: F401

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_PROPERTY_H_FAILED = 3


@dataclass
class RunConfig:
    """Fully serialisable description of one CLI run; embedded in reports."""

    mode: str = "verify"
    identities: list = field(default_factory=lambda: ["all"])
    dims: list | None = None
    samples: int = 5
    seed: int = 1
    precision: int = 128
    max_shell: int | None = None
    tail_tol: float = 1e-24
    min_shells: int = 6
    tolerance: float = 1e-20
    report: str = "json-lines"
    out: str | None = None
    blocks: list = field(default_factory=list)
    base: str = "q_bin"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_dims_spec(spec: str) -> dict:
    out = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise InvalidConfig(f"bad dimension assignment {spec!r}; use name=value")
        name, _, value = piece.partition("=")
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise InvalidConfig(f"dimension {name!r} needs an integer, got {value!r}")
    if not out:
        raise InvalidConfig(f"empty dimension assignment {spec!r}")
    return out


def parse_block_spec(spec: str) -> tuple[str, tuple[int, ...]]:
    name, _, dims = spec.partition(":")
    name = name.strip()
    if not dims:
        return name, (1,)
    try:
        parts = tuple(int(v) for v in dims.replace("x", ",").split(",") if v)
    except ValueError:
        raise InvalidConfig(f"bad block dimensions in {spec!r}")
    return name, parts or (1,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheine",
        description="evaluate and verify basic hypergeometric transformation "
        "identities over root systems of type A",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--samples", type=int, default=5)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--precision", type=int, default=128, help="binary digits")
        p.add_argument("--max-shell", type=int, default=None)
        p.add_argument("--tail-tol", type=float, default=1e-24)
        p.add_argument("--min-shells", type=int, default=6)
        p.add_argument("--tol", type=float, default=1e-20)
        p.add_argument(
            "--report",
            choices=("json-lines", "csv", "text"),
            default="json-lines",
        )
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="JSON file; overrides flags")

    p_verify = sub.add_parser("verify", help="verify catalog identities")
    p_verify.add_argument("--identity", action="append", default=[])
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument(
        "--dims",
        action="append",
        default=[],
        help='dimension assignment like "n=2,m=1"; repeatable',
    )
    add_common(p_verify)

    p_compose = sub.add_parser("compose", help="compose blocks and verify the result")
    p_compose.add_argument(
        "--blocks",
        default="q_bin",
        help='comma-separated block specs like "milne_lilly:2,gk:2"',
    )
    p_compose.add_argument("--base", default="q_bin", help='base block spec')
    add_common(p_compose)

    p_export = sub.add_parser("export-catalog", help="write catalog metadata")
    p_export.add_argument("--out", default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(mode=args.command)
    if args.command == "verify":
        if args.all or not args.identity:
            config.identities = ["all"]
        else:
            config.identities = list(args.identity)
        config.dims = [parse_dims_spec(s) for s in args.dims] or None
    elif args.command == "compose":
        config.blocks = [s.strip() for s in args.blocks.split(",") if s.strip()]
        config.base = args.base
    for name in (
        "samples",
        "seed",
        "precision",
        "tail_tol",
        "min_shells",
    ):
        setattr(config, name, getattr(args, name))
    config.max_shell = args.max_shell
    config.tolerance = args.tol
    config.report = args.report
    config.out = args.out
    if args.config:
        config = apply_config_file(config, args.config)
    validate_config(config)
    return config


def apply_config_file(config: RunConfig, path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidConfig("config file must hold a JSON object")
    if data.get("mode", config.mode) != config.mode:
        raise InvalidConfig(
            f"config file {path} is for mode {data['mode']!r}, "
            f"not {config.mode!r}"
        )
    known = {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in data.items():
        if key not in known:
            raise InvalidConfig(f"unknown config key {key!r}")
        setattr(config, key, value)
    return config


# The type each RunConfig field must have; a config file can set any field.
_FIELD_TYPES = {
    "mode": str,
    "identities": list,
    "dims": (list, type(None)),
    "samples": int,
    "seed": int,
    "precision": int,
    "max_shell": (int, type(None)),
    "tail_tol": (int, float),
    "min_shells": int,
    "tolerance": (int, float),
    "report": str,
    "out": (str, type(None)),
    "blocks": list,
    "base": str,
}


def validate_config(config: RunConfig) -> None:
    for name, kind in _FIELD_TYPES.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidConfig(f"{name} has the wrong type: {value!r}")
    for name in ("identities", "blocks"):
        if not all(isinstance(v, str) for v in getattr(config, name)):
            raise InvalidConfig(f"{name} must be a list of strings")
    for spec in config.dims or ():
        if not isinstance(spec, dict) or not all(
            isinstance(k, str) and type(v) is int and v >= 1 for k, v in spec.items()
        ):
            raise InvalidConfig(f"dims entry {spec!r} must map names to integers >= 1")
    if config.mode not in ("verify", "compose"):
        raise InvalidConfig(f"unknown mode {config.mode!r}")
    if config.samples < 1:
        raise InvalidConfig("samples must be >= 1")
    if config.precision < 64:
        raise InvalidConfig("precision must be >= 64 bits")
    if config.max_shell is not None and config.max_shell < 0:
        raise InvalidConfig("max_shell must be >= 0")
    if config.min_shells < 0:
        raise InvalidConfig("min_shells must be >= 0")
    if not config.tail_tol > 0 or config.tolerance < 0:
        raise InvalidConfig("tail_tol must be > 0 and tolerance >= 0")
    # inf and nan compare past the bounds above, and neither is JSON.
    for name in ("tail_tol", "tolerance"):
        if not math.isfinite(getattr(config, name)):
            raise InvalidConfig(f"{name} must be finite")
    if config.report not in ("json-lines", "csv", "text"):
        raise InvalidConfig(f"unknown report format {config.report!r}")
    if config.mode == "verify":
        if config.identities == ["all"]:
            families = catalog.register_all()
        else:
            families = [catalog.lookup(name) for name in config.identities]
        known = {name for family in families for name in family.dim_names}
        for spec in config.dims or ():
            if set(spec) - known:
                raise InvalidConfig(
                    f"dims names {sorted(set(spec) - known)} belong to no "
                    "requested identity"
                )
    elif config.mode == "compose":
        if not config.blocks:
            raise InvalidConfig("compose needs at least one block")
        for spec in list(config.blocks) + [config.base]:
            name, dims = parse_block_spec(spec)
            if name not in BLOCKS:
                raise InvalidConfig(f"unknown block {name!r}")
            # One value per dimension name; a block without dimensions is
            # one-fold and takes the 1 a spec without dimensions reads as.
            names = BLOCKS[name].dim_names
            if min(dims) < 1 or (len(dims) > len(names) and dims != (1,)):
                raise InvalidConfig(f"bad block dimensions in {spec!r}")


def _policy_for(identity, config: RunConfig) -> TruncationPolicy:
    base = identity.policy
    return TruncationPolicy(
        max_shell_weight=config.max_shell
        if config.max_shell is not None
        else base.max_shell_weight,
        tail_ratio_tol=config.tail_tol,
        min_shells=config.min_shells,
    )


def _assignments_for(family, config: RunConfig) -> list[dict]:
    if config.dims is None:
        return [dict(d) for d in family.default_dims]
    seen = []
    for spec in config.dims:
        filtered = {k: v for k, v in spec.items() if k in family.dim_names}
        for name in family.dim_names:
            filtered.setdefault(name, 1)
        if filtered not in seen:
            seen.append(filtered)
    return seen or [{}]


def run_verify(config: RunConfig) -> tuple[list[dict], int]:
    """Verification sweep over the requested identities; returns the report
    records and the exit code."""
    if config.identities == ["all"]:
        ids = [family.id for family in catalog.register_all()]
    else:
        ids = list(config.identities)
    ids = sorted(set(ids))

    records: list[dict] = [_header(config)]
    summaries = []
    for identity_id in ids:
        family = catalog.lookup(identity_id)
        started = time.perf_counter()
        results = []
        for assignment in _assignments_for(family, config):
            identity = family.instantiate(assignment)
            policy = _policy_for(identity, config)
            contexts = catalog.sample_domain(
                identity, seed=config.seed, count=config.samples, prec=config.precision
            )
            for index in range(len(contexts)):
                # Each context holds its case's products; drop it once verified.
                ctx, contexts[index] = contexts[index], None
                result = catalog.verify(
                    identity, ctx, policy, tolerance=config.tolerance
                )
                records.append(report.case_row(result, assignment, index))
                results.append(result)
        summaries.append(_summary(identity_id, results, started, config.precision))
        records.append(summaries[-1])
    records.append(_total(summaries))
    return records, records[-1]["exit_code"]


def _compose_sample(config: RunConfig, rng: random.Random):
    """Draw one composition: bases, one ``HeineBlock`` per requested block
    (cross base q^{t h_r}), the base block, and the composed identity."""
    bases = sample_bases(rng, config.precision)
    blocks = []
    # Blocks derive constants from their parameters, so they are drawn at
    # the run's precision rather than the ambient one.
    with mp.workprec(config.precision):
        for spec in config.blocks:
            name, dims = parse_block_spec(spec)
            h_r = exponent(rng)
            block = sample_block(name, rng, dims, bases.power(h_r), config.precision)
            z_r = argument(rng) * min(1, block.arg_bound)
            blocks.append(HeineBlock(block, z_r, bases.power(bases.t * h_r)))
        base_name, base_dims = parse_block_spec(config.base)
        base_block = sample_block(base_name, rng, base_dims, bases.qt, config.precision)
        w = argument(rng) * min(1, base_block.arg_bound)
        composed = heine_engine.compose(tuple(blocks), HeineBlock(base_block, w))
    return bases, composed


def run_compose(config: RunConfig) -> tuple[list[dict], int]:
    """Sample block assignments, compose them, and verify each composition."""
    records: list[dict] = [_header(config)]
    rng = random.Random(config.seed)
    label = "composed:" + "+".join(config.blocks) + "/" + config.base
    started = time.perf_counter()
    results = []
    h_failures = 0
    for index in range(config.samples):
        try:
            bases, composed = _compose_sample(config, rng)
        except PropertyHViolation as exc:
            h_failures += 1
            records.append(
                {
                    "kind": "case",
                    "identity": label,
                    "dims": {},
                    "sample_index": index,
                    "passed": False,
                    "status": "property-H-failed",
                    "detail": str(exc),
                }
            )
            continue
        result = catalog.verify(
            composed,
            make_context({}, bases),
            _policy_for(composed, config),
            tolerance=config.tolerance,
        )
        row = report.case_row(result, composed.dims, index)
        records.append({**row, "identity": label})
        results.append(result)
    summary = _summary(label, results, started, config.precision, h_failures)
    records += [summary, _total([summary], h_failures)]
    return records, records[-1]["exit_code"]


def _header(config: RunConfig) -> dict:
    return {
        "kind": "header",
        "schema_version": report.SCHEMA_VERSION,
        "tool": "qheine",
        "version": __version__,
        "mode": config.mode,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
    }


def _summary(
    identity: str, results: list, started: float, prec: int, h_failures: int = 0
) -> dict:
    """Per-identity counts; ``h_failures`` cases failed before verification.
    The worst relative error is written with the digits of the run's
    precision ``prec``, as the case rows are."""
    cases = len(results) + h_failures
    passed = sum(int(result.passed) for result in results)
    worst = max((result.rel_error for result in results), default=mpf(0))
    return {
        "kind": "summary",
        "identity": identity,
        "cases": cases,
        "passed": passed,
        "failed": cases - passed,
        "worst_rel_error": report.value_str(worst, prec),
        "wall_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def _total(summaries: list[dict], h_failures: int = 0) -> dict:
    cases = sum(summary["cases"] for summary in summaries)
    passed = sum(summary["passed"] for summary in summaries)
    if h_failures:
        exit_code = EXIT_PROPERTY_H_FAILED
    elif passed != cases:
        exit_code = EXIT_VERIFICATION_FAILED
    else:
        exit_code = EXIT_OK
    return {
        "kind": "total",
        "cases": cases,
        "passed": passed,
        "failed": cases - passed,
        "exit_code": exit_code,
    }


def _write(text: str, out: str | None, mode: str = "w") -> None:
    """Write the report to stdout or to the file ``out``, opened in
    ``mode``; a file that cannot be written is a configuration error."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidConfig(f"cannot write {out}: {exc.strerror or exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "export-catalog":
            document = catalog.catalog_document()
            _write(json.dumps(document, indent=2, sort_keys=True) + "\n", args.out)
            return EXIT_OK
        config = config_from_args(args)
        _write("", config.out, "a")  # an unwritable --out fails before the run
        mp.prec = config.precision
        if config.mode == "verify":
            records, exit_code = run_verify(config)
        else:
            records, exit_code = run_compose(config)
        _write(report.render(records, config.report), config.out)
    except (UnknownIdentity, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except QHeineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    return exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
