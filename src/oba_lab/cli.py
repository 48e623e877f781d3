"""Command-line surface emitting JSON or CSV verification reports.

Exit codes: 0 when every checked property passes, 1 when the run completed
but a property failed (the report is still written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import enum
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from .errors import ComputationError
from .operators import ToleranceConfig
from .suites import run_axiom_suite, run_rigidity_suite
from .volterra import (
    GrowthReport,
    QuadratureRule,
    build_witness,
    convergence_study,
    growth_diagnostic,
)

DEFAULT_NS = (16, 32, 64, 128, 256, 512, 1024)

_RULE_NAMES = {
    "trapezoid": QuadratureRule.TRAPEZOID,
    "left": QuadratureRule.LEFT_ENDPOINT,
    "left-endpoint": QuadratureRule.LEFT_ENDPOINT,
    "leftendpoint": QuadratureRule.LEFT_ENDPOINT,
}


@dataclass
class RunConfig:
    """Validated arguments for one invocation."""

    command: str
    n: int = 1024
    ns: tuple[int, ...] = DEFAULT_NS
    rule: QuadratureRule = QuadratureRule.TRAPEZOID
    seed: int = 42
    trials: int = 10_000
    k_max: int = 64
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    output_format: str = "json"
    output_path: Path | None = None
    timestamp: bool = True

    def tolerance(self) -> ToleranceConfig:
        return ToleranceConfig(self.abs_tol, self.rel_tol)


def _env_seed() -> int:
    raw = os.environ.get("OBA_LAB_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"OBA_LAB_SEED must be an integer, got {raw!r}") from exc


def _record(obj, *properties: str) -> dict:
    """A report dataclass as a JSON-ready dict: its fields in order, then the named properties.

    Enums become their value and non-finite floats become None (JSON null).
    """
    record = {}
    for name in [f.name for f in fields(obj)] + list(properties):
        value = getattr(obj, name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, float) and not math.isfinite(value):
            value = None
        record[name] = value
    return record


def _run_witness(config: RunConfig):
    w = build_witness(config.n, config.rule, config.tolerance())
    report = _record(w)
    targets = {
        "norm_T": 1.0,
        "cluster_radius": 0.0,
        "norm_excess": 0.0,
        "cone_member": True,
        "geq_unit": False,
    }
    passed = w.cone_member and not w.geq_unit and w.deviation > config.abs_tol
    return report, targets, passed, (list(report), [report])


def _run_converge(config: RunConfig):
    witnesses = convergence_study(config.ns, config.rule, config.tolerance())
    header = ["n", "h", "norm_T", "cluster_radius", "deviation", "norm_excess"]
    table = [{key: record[key] for key in header} for record in map(_record, witnesses)]
    if config.rule is QuadratureRule.TRAPEZOID:
        # accretivity sandwich: spectral-radius lower bound, norm upper bound
        passed = all(1.0 / (1.0 + w.h / 2) <= w.norm_T <= 1.0 + 1e-10 for w in witnesses)
    else:
        # quasinilpotency: spectrum exactly {1}, yet the norm exceeds 1
        passed = all(w.cluster_radius == 0.0 and w.norm_excess > 0 for w in witnesses)
    report = {"rule": config.rule.value, "rows": table}
    targets = {"norm_T": 1.0, "cluster_radius": 0.0, "norm_excess": 0.0}
    return report, targets, passed, (header, table)


def _suite_payload(suite):
    report = _record(suite)
    properties = [_record(r, "passed") for r in report.pop("results")]
    report["properties"] = properties
    return report, {"failures": 0}, suite.all_passed, (list(properties[0]), properties)


def _run_axioms(config: RunConfig):
    return _suite_payload(run_axiom_suite(config.trials, config.seed, config.tolerance()))


def _run_rigidity(config: RunConfig):
    return _suite_payload(run_rigidity_suite(config.trials, config.seed, config.tolerance()))


def _run_growth(config: RunConfig):
    values = growth_diagnostic(config.n, config.k_max)
    growth = GrowthReport(config.n, config.k_max, tuple(float(v) for v in values))
    report = _record(growth, "max_a", "argmax_k", "a_last")
    # pass thresholds calibrated for the default n=256, k_max=64 run
    targets = {"max_a_cap": 3.0, "a_last_floor": 1.0}
    passed = growth.max_a <= 3.0 and growth.a_last >= 1.0
    rows = [{"k": k, "a_k": v} for k, v in enumerate(growth.a_k, start=1)]
    return report, targets, passed, (["k", "a_k"], rows)


_HANDLERS = {
    "witness": _run_witness,
    "converge": _run_converge,
    "axioms": _run_axioms,
    "rigidity": _run_rigidity,
    "growth": _run_growth,
}


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def render(config: RunConfig, report, targets, passed, csv_spec) -> str:
    if config.output_format == "csv":
        header, rows = csv_spec
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[key]) for key in header])
        return buf.getvalue()
    doc = {"command": config.command, "report": report, "targets": targets, "passed": passed}
    if config.timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(doc, indent=2) + "\n"


def run(config: RunConfig) -> int:
    """Execute one command, write its report, and return the exit status."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    report, targets, passed, csv_spec = handler(config)
    text = render(config, report, targets, passed, csv_spec)
    if config.output_path is not None:
        try:
            config.output_path.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write report to {config.output_path}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _parse_rule(raw: str) -> QuadratureRule:
    rule = _RULE_NAMES.get(raw.strip().lower())
    if rule is None:
        raise argparse.ArgumentTypeError(
            f"unknown rule {raw!r}; choose from trapezoid, left"
        )
    return rule


def _parse_ns(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid list {raw!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid list is empty")
    return values


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None,
                        help="trial seed (default: $OBA_LAB_SEED or 42)")
    parser.add_argument("--abs-tol", type=float, default=1e-9, dest="abs_tol")
    parser.add_argument("--rel-tol", type=float, default=1e-9, dest="rel_tol")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="output_format")
    parser.add_argument("--output", type=Path, default=None, dest="output_path",
                        help="write the report here instead of stdout (UTF-8)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical reruns")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oba-lab",
        description="Product-algebra cone, resolvent witness, and rigidity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="fact sheet for the resolvent element at one grid size")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--rule", type=_parse_rule, default=QuadratureRule.TRAPEZOID)
    _add_common(p)

    p = sub.add_parser("converge", help="norm/spectrum convergence table over grid sizes")
    p.add_argument("--ns", type=_parse_ns, default=DEFAULT_NS)
    p.add_argument("--rule", type=_parse_rule, default=QuadratureRule.TRAPEZOID)
    _add_common(p)

    p = sub.add_parser("axioms", help="seeded cone-axiom and norm-identity trials")
    p.add_argument("--trials", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("rigidity", help="seeded finite-dimensional rigidity trials")
    p.add_argument("--trials", type=int, default=10_000)
    _add_common(p)

    # growth has no --rule flag: the left-endpoint grid is the only one whose
    # resolvent deviation is nilpotent, so overrides are rejected as usage errors
    p = sub.add_parser("growth", help="normalized power-growth diagnostic of T - I")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--k-max", type=int, default=64, dest="k_max")
    _add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.seed if args.seed is not None else _env_seed()
    fields = {"command": args.command, "seed": seed, "abs_tol": args.abs_tol,
              "rel_tol": args.rel_tol, "output_format": args.output_format,
              "output_path": args.output_path, "timestamp": not args.no_timestamp}
    for name in ("n", "ns", "rule", "trials", "k_max"):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    return RunConfig(**fields)


def main(argv=None) -> None:
    args = _build_parser().parse_args(argv)
    try:
        code = run(_config_from_args(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
