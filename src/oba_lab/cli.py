"""Command-line surface emitting JSON or CSV verification reports.

Exit codes: 0 when every checked property passes, 1 when the run completed
but a property failed (the report is still written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import enum
import functools
import io
import json
import math
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from .errors import ComputationError
from .operators import DEFAULT_TOLERANCE, ToleranceConfig
from .suites import run_axiom_suite, run_rigidity_suite
from .volterra import (
    GrowthReport,
    QuadratureRule,
    build_witness,
    convergence_study,
    growth_diagnostic,
)

DEFAULT_NS = (16, 32, 64, 128, 256, 512, 1024)


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


def _run_witness(args):
    w = build_witness(args.n, QuadratureRule(args.rule), ToleranceConfig(abs_tol=args.abs_tol))
    report = _record(w)
    targets = {
        "norm_T": 1.0,
        "cluster_radius": 0.0,
        "norm_excess": 0.0,
        "cone_member": True,
        "geq_unit": False,
    }
    passed = w.cone_member and not w.geq_unit and w.deviation > args.abs_tol
    return report, targets, passed, [report]


def _run_converge(args):
    rule = QuadratureRule(args.rule)
    witnesses = convergence_study(args.ns, rule)
    columns = ("n", "h", "norm_T", "cluster_radius", "deviation", "norm_excess")
    table = [{key: record[key] for key in columns} for record in map(_record, witnesses)]
    if rule is QuadratureRule.TRAPEZOID:
        # accretivity sandwich: spectral-radius lower bound, norm upper bound
        passed = all(1.0 / (1.0 + w.h / 2) <= w.norm_T <= 1.0 for w in witnesses)
    else:
        # quasinilpotency: spectrum exactly {1}, and the rigidity dichotomy: the
        # norm exceeds 1 unless T is the identity (T_1 = I, as V_1 = 0)
        passed = all(
            w.cluster_radius == 0.0 and (w.norm_excess > 0 or w.deviation == 0)
            for w in witnesses
        )
    report = {"rule": rule.value, "rows": table}
    targets = {"norm_T": 1.0, "cluster_radius": 0.0, "norm_excess": 0.0}
    return report, targets, passed, table


def _run_suite(run_suite, args):
    suite = run_suite(args.trials, args.seed, ToleranceConfig(args.abs_tol, args.rel_tol))
    report = _record(suite)
    properties = [_record(r, "passed") for r in report.pop("results")]
    report["properties"] = properties
    return report, {"failures": 0}, suite.all_passed, properties


def _run_growth(args):
    values = growth_diagnostic(args.n, args.k_max)
    growth = GrowthReport(args.n, args.k_max, tuple(float(v) for v in values))
    report = _record(growth, "max_a", "argmax_k", "a_last")
    # pass thresholds calibrated for the default n=256, k_max=64 run
    targets = {"max_a_cap": 3.0, "a_last_floor": 1.0}
    passed = growth.max_a <= targets["max_a_cap"] and growth.a_last >= targets["a_last_floor"]
    rows = [{"k": k, "a_k": v} for k, v in enumerate(growth.a_k, start=1)]
    return report, targets, passed, rows


def render(args, report, targets, passed, rows) -> str:
    if args.format == "csv":
        # the first row's keys are the header; csv writes None as an empty cell
        # and a float by its repr, so only bools need their JSON spelling
        buf = io.StringIO()
        writer = csv.DictWriter(buf, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: str(v).lower() if isinstance(v, bool) else v for k, v in row.items()})
        return buf.getvalue()
    doc = {"command": args.command, "report": report, "targets": targets, "passed": passed}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(doc, indent=2) + "\n"


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command, write its report, and return the exit status."""
    report, targets, passed, rows = args.handler(args)
    text = render(args, report, targets, passed, rows)
    if args.output is not None:
        try:
            args.output.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write report to {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _parse_ns(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid list {raw!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid list is empty")
    return values


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each declaring exactly the flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="oba-lab",
        description="Product-algebra cone, resolvent witness, and rigidity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule = {"choices": [r.value for r in QuadratureRule], "default": QuadratureRule.TRAPEZOID.value}
    abs_tol = {"type": float, "default": DEFAULT_TOLERANCE.abs_tol}

    p = sub.add_parser("witness", help="fact sheet for the resolvent element at one grid size")
    p.set_defaults(handler=_run_witness)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--rule", **rule)
    p.add_argument("--abs-tol", **abs_tol)

    p = sub.add_parser("converge", help="norm/spectrum convergence table over grid sizes")
    p.set_defaults(handler=_run_converge)
    p.add_argument("--ns", type=_parse_ns, default=DEFAULT_NS)
    p.add_argument("--rule", **rule)

    for name, run_suite, summary in (
        ("axioms", run_axiom_suite, "seeded cone-axiom and norm-identity trials"),
        ("rigidity", run_rigidity_suite, "seeded finite-dimensional rigidity trials"),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=functools.partial(_run_suite, run_suite),
                       abs_tol=DEFAULT_TOLERANCE.abs_tol, rel_tol=DEFAULT_TOLERANCE.rel_tol)
        p.add_argument("--trials", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=42, help="trial seed")
    # no rigidity property reads a tolerance, so only axioms takes them as flags
    sub.choices["axioms"].add_argument("--abs-tol", type=float)
    sub.choices["axioms"].add_argument("--rel-tol", type=float)

    # growth has no --rule flag: the left-endpoint grid is the only one whose
    # resolvent deviation is nilpotent, so overrides are rejected as usage errors
    p = sub.add_parser("growth", help="normalized power-growth diagnostic of T - I")
    p.set_defaults(handler=_run_growth)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--k-max", type=int, default=64)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", type=Path, default=None,
                       help="write the report here instead of stdout (UTF-8)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-identical reruns")
    return parser


def main(argv=None) -> None:
    args = _build_parser().parse_args(argv)
    try:
        code = run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
