"""Checks of CLI outputs against stored references and verdict invariants.

A command fails when its exit code differs from the reference's, when a
verdict (bool) field, string or integer differs, or when a float differs by
more than REL_TOL relative (with an absolute floor ABS_FLOOR for values near
zero).  The report's own `passed` field is compared like any other verdict
but never trusted on its own.  Reports may gain fields; every field of the
reference must still be present and equal.

References exist for every command at the seeds in REFERENCE_SEEDS; the
witness, convergence and growth outputs do not depend on the seed, so they
are always compared in full.  At other seeds the suites are checked by
invariant only: no property reports a failure and the report echoes the seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from workloads import Command

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def floats_close(expected: float, actual: float) -> bool:
    if expected == actual:
        return True
    if not (math.isfinite(expected) and math.isfinite(actual)):
        return False
    return abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual)) + ABS_FLOOR


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(expected, actual, where: str, problems: list[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            problems.append(f"{where}: expected an object")
            return
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{where}.{key}: missing")
            else:
                _compare(value, actual[key], f"{where}.{key}", problems)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append(f"{where}: expected a list of {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{where}[{i}]", problems)
    elif isinstance(expected, float) and _is_number(actual):
        if not floats_close(expected, float(actual)):
            problems.append(f"{where}: {actual!r} != {expected!r}")
    elif type(expected) is not type(actual) or expected != actual:
        problems.append(f"{where}: {actual!r} != {expected!r}")


def _compare_csv(expected: str, actual: str, problems: list[str]) -> None:
    exp_rows = list(csv.DictReader(io.StringIO(expected)))
    act_rows = list(csv.DictReader(io.StringIO(actual)))
    if len(act_rows) != len(exp_rows):
        problems.append(f"csv: {len(act_rows)} rows, expected {len(exp_rows)}")
        return
    for i, (e_row, a_row) in enumerate(zip(exp_rows, act_rows)):
        for column, e_cell in e_row.items():
            a_cell = a_row.get(column)
            where = f"csv[{i}].{column}"
            if a_cell is None:
                problems.append(f"{where}: missing")
                continue
            try:
                same = floats_close(float(e_cell), float(a_cell))
            except ValueError:
                same = e_cell == a_cell
            if not same:
                problems.append(f"{where}: {a_cell!r} != {e_cell!r}")


def _invariants(cmd: Command, seed: int, doc: dict, problems: list[str]) -> None:
    report = doc["report"]
    if cmd.argv[0] == "witness":
        if report.get("cone_member") is not True:
            problems.append("witness: cone_member is not true")
        if report.get("geq_unit") is not False:
            problems.append("witness: geq_unit is not false")
    elif cmd.seeded:
        if report.get("seed") != seed:
            problems.append(f"{cmd.key}: report seed {report.get('seed')!r} != {seed}")
        properties = report.get("properties") or []
        if not properties:
            problems.append(f"{cmd.key}: no properties reported")
        for prop in properties:
            if prop.get("failures") != 0:
                problems.append(f"{cmd.key}.{prop.get('name')}: {prop.get('failures')} failures")


def check_command(cmd: Command, seed: int, exit_code: int, stdout: str, refs: dict) -> list[str]:
    """Problems found in one command's output; an empty list means it passed."""
    problems: list[str] = []
    ref = refs.get(cmd.reference_key(seed))
    expected_exit = refs[cmd.reference_key(42)]["exit"]
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    if "--format" in cmd.argv:  # csv
        if ref is None:
            problems.append("no reference for csv output")
        else:
            _compare_csv(ref["stdout"], stdout, problems)
        return problems
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict) or not isinstance(doc.get("report"), dict):
        problems.append("output is not a JSON report")
        return problems
    _invariants(cmd, seed, doc, problems)
    if ref is not None:
        _compare(json.loads(ref["stdout"]), doc, "$", problems)
    return problems
