"""Command-line harness: catalog verification sweeps, block compositions,
and catalog metadata export.

``RunConfig`` declares each run option once: a flag's ``dest`` is its field
name (``--tol`` sets ``tolerance``), a flag both commands take defaults to
its field's default, and a ``--config`` file is checked against the field's
type hint.  ``run_verify`` and ``run_compose`` only draw cases; ``_run``
verifies the cases of both and writes their report records.

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
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone

from mpmath import mp, mpf

from . import __version__, catalog, heine_engine, report
from .catalog.blocks import block_dims, sample_block
from .catalog.core import argument, exponent, sample_bases
from .errors import InvalidConfig, PropertyHViolation, QHeineError, UnknownIdentity
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
    tail_tol: float = TruncationPolicy.tail_ratio_tol
    min_shells: int = TruncationPolicy.min_shells
    tolerance: float = 1e-20
    report: str = "json-lines"
    out: str | None = None
    blocks: list = field(default_factory=list)
    base: str = "q_bin"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# The type a value of each field must have; a config file can set any field.
_FIELD_HINTS = typing.get_type_hints(RunConfig)


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


def _spec_list(text: str) -> list[str]:
    return [spec.strip() for spec in text.split(",") if spec.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qheine",
        description="evaluate and verify basic hypergeometric transformation "
        "identities over root systems of type A",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default = RunConfig()

    def add_common(p):
        p.add_argument("--samples", type=int, default=default.samples)
        p.add_argument("--seed", type=int, default=default.seed)
        p.add_argument(
            "--precision", type=int, default=default.precision, help="binary digits"
        )
        p.add_argument("--max-shell", type=int, default=default.max_shell)
        p.add_argument("--tail-tol", type=float, default=default.tail_tol)
        p.add_argument("--min-shells", type=int, default=default.min_shells)
        p.add_argument("--tol", dest="tolerance", type=float, default=default.tolerance)
        p.add_argument("--report", choices=report.FORMATS, default=default.report)
        p.add_argument("--out", default=default.out)
        p.add_argument("--config", default=None, help="JSON file; overrides flags")

    p_verify = sub.add_parser("verify", help="verify catalog identities")
    p_verify.add_argument("--identity", dest="identities", action="append")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument(
        "--dims",
        action="append",
        type=parse_dims_spec,
        default=default.dims,
        help='dimension assignment like "n=2,m=1"; repeatable',
    )
    add_common(p_verify)

    p_compose = sub.add_parser("compose", help="compose blocks and verify the result")
    p_compose.add_argument(
        "--blocks",
        type=_spec_list,
        default=[default.base],  # one block of the default base's family
        help='comma-separated block specs like "milne_lilly:2,gk:2"',
    )
    p_compose.add_argument("--base", default=default.base, help="base block spec")
    add_common(p_compose)

    p_export = sub.add_parser("export-catalog", help="write catalog metadata")
    p_export.add_argument("--out", default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run the parsed flags describe: each value under its field name,
    then a ``--config`` file's keys over them."""
    given = vars(args)
    names = [f.name for f in dataclasses.fields(RunConfig) if f.name in given]
    config = RunConfig(mode=args.command, **{name: given[name] for name in names})
    if args.command == "verify" and (args.all or not args.identities):
        config.identities = ["all"]
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


def validate_config(config: RunConfig) -> None:
    for name, hint in _FIELD_HINTS.items():
        kinds = typing.get_args(hint) or (hint,)
        if float in kinds:
            kinds += (int,)  # a float field accepts an int
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise InvalidConfig(f"{name} has the wrong type: {value!r}")
    for name in ("identities", "blocks"):
        if not all(isinstance(v, str) for v in getattr(config, name)):
            raise InvalidConfig(f"{name} must be a list of strings")
    # An empty list would run nothing, or every family at all-ones dimensions.
    for name in ("identities", "dims"):
        if getattr(config, name) == []:
            raise InvalidConfig(f"{name} must not be empty")
    for spec in config.dims or ():
        if not isinstance(spec, dict) or not all(
            isinstance(k, str) and type(v) is int and v >= 1 for k, v in spec.items()
        ):
            raise InvalidConfig(f"dims entry {spec!r} must map names to integers >= 1")
    if config.mode not in _RUNNERS:
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
    if config.report not in report.FORMATS:
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
        for spec in [*config.blocks, config.base]:
            block_dims(*parse_block_spec(spec))


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
        assignment = {name: spec.get(name, 1) for name in family.dim_names}
        if assignment not in seen:
            seen.append(assignment)
    return seen


def _run(config: RunConfig, groups) -> tuple[list[dict], int]:
    """Verify every case of ``groups`` and write the report records: the
    header, a row per case, a summary per group and the total; returns them
    and the exit code.

    A group is ``(label, cases)`` and a case ``(dims, sample_index, draw)``,
    whose draw is an ``(identity, context)`` pair or the
    ``PropertyHViolation`` that refused its composition.
    """
    records: list[dict] = [_header(config)]
    for label, cases in groups:
        started = time.perf_counter()
        rows, results = [], []
        for dims, index, draw in cases:
            if isinstance(draw, PropertyHViolation):
                row = {"kind": "case", "passed": False, "status": "property-H-failed"}
                row["detail"] = str(draw)
            else:
                identity, ctx = draw
                policy = _policy_for(identity, config)
                results.append(
                    catalog.verify(identity, ctx, policy, tolerance=config.tolerance)
                )
                row = report.case_row(results[-1], dims, index)
            row.update(identity=label, dims=dict(dims), sample_index=index)
            rows.append(row)
        records += rows
        records.append(_summary(label, rows, results, started, config.precision))
    records.append(_total(records))
    return records, records[-1]["exit_code"]


def run_verify(config: RunConfig) -> tuple[list[dict], int]:
    """Verification sweep over the requested identities; returns the report
    records and the exit code."""
    if config.identities == ["all"]:
        ids = [family.id for family in catalog.register_all()]
    else:
        ids = list(config.identities)
    return _run(config, ((i, _verify_cases(i, config)) for i in sorted(set(ids))))


def _verify_cases(identity_id: str, config: RunConfig):
    """The cases of one catalog family: each assignment's sampled contexts."""
    family = catalog.lookup(identity_id)
    for assignment in _assignments_for(family, config):
        identity = family.instantiate(assignment)
        contexts = catalog.sample_domain(
            identity, seed=config.seed, count=config.samples, prec=config.precision
        )
        for index in range(len(contexts)):
            # Each context holds its case's products; the list lets go of it
            # here, so it is freed once verified.
            ctx, contexts[index] = contexts[index], None
            yield assignment, index, (identity, ctx)


def _compose_sample(config: RunConfig, rng: random.Random):
    """Draw one composition: bases, one ``HeineBlock`` per requested block
    (cross base q^{t h_r}) and the base block; returns the composed identity
    and its context, as ``catalog.sample_domain`` returns its draws."""
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
    return composed, make_context({}, bases)


def run_compose(config: RunConfig) -> tuple[list[dict], int]:
    """Sample block assignments, compose them, and verify each composition."""
    label = "composed:" + "+".join(config.blocks) + "/" + config.base
    return _run(config, [(label, _compose_cases(config))])


def _compose_cases(config: RunConfig):
    """The compositions drawn from one seed; a refused one is its error."""
    rng = random.Random(config.seed)
    for index in range(config.samples):
        try:
            draw = _compose_sample(config, rng)
        except PropertyHViolation as exc:
            draw = exc
        yield {}, index, draw


_RUNNERS = {"verify": run_verify, "compose": run_compose}


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
    identity: str, rows: list, results: list, started: float, prec: int
) -> dict:
    """Per-identity counts of the case ``rows``, and the worst relative error
    of the verified ``results`` written with the digits of the run's
    precision ``prec``, as the case rows are."""
    cases = len(rows)
    passed = sum(row["passed"] for row in rows)
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


def _total(records: list[dict]) -> dict:
    rows = [record for record in records if record["kind"] == "case"]
    cases, passed = len(rows), sum(row["passed"] for row in rows)
    if any(row["status"] == "property-H-failed" for row in rows):
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
    try:
        # A --dims value is parsed here, and a bad one is a configuration error.
        args = build_parser().parse_args(argv)
        if args.command == "export-catalog":
            document = catalog.catalog_document()
            _write(json.dumps(document, indent=2, sort_keys=True) + "\n", args.out)
            return EXIT_OK
        config = config_from_args(args)
        _write("", config.out, "a")  # an unwritable --out fails before the run
        mp.prec = config.precision
        records, exit_code = _RUNNERS[config.mode](config)
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
