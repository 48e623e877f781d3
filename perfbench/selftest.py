"""Self-test of the benchmark's own output check and tracer.

Usage (from the repository root): python3 perfbench/selftest.py

Exits 1 and names each failed expectation.  Corrupted copies of stored
reference outputs (a flipped verdict, a float off by 1e-6 relative, a wrong
exit code, a reported suite failure) must each count as a failed op, while
last-digit noise must not.  The tracer must compute self time as duration
minus child coverage, see calls that other modules bound by name, and count
repeated norm inputs.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from check import check_command, load_references
from run import E2E_UNITS, ROOT
from tracer import REPEAT_FRAC, Tracer, aggregate, metric_units
from workloads import WORKLOADS

FAILED: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILED.append(what)


def command(key: str):
    return next(c for cmds in WORKLOADS.values() for c in cmds if c.key == key)


def edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc["report"])
    return json.dumps(doc, indent=2) + "\n"


def test_check() -> None:
    refs = load_references()
    witness = command("witness-left")
    good = refs["witness-left"]["stdout"]
    expect(not check_command(witness, 42, 0, good, refs), "reference witness output passes")
    expect(not check_command(witness, 123, 0, good, refs), "seedless output passes at any seed")

    def flip(r):
        r["geq_unit"] = True

    def nudge(r):
        r["norm_T"] *= 1 + 1e-6

    def noise(r):
        r["deviation"] *= 1 + 1e-14

    expect(bool(check_command(witness, 42, 0, edited(good, flip), refs)), "flipped verdict fails")
    expect(bool(check_command(witness, 42, 0, edited(good, nudge), refs)),
           "float off by 1e-6 fails")
    expect(not check_command(witness, 42, 0, edited(good, noise), refs),
           "float off by 1e-14 passes")
    expect(bool(check_command(witness, 42, 1, good, refs)), "wrong exit code fails")
    expect(bool(check_command(witness, 42, 0, "[]\n", refs)), "output that is no report fails")
    expect(bool(check_command(witness, 42, 0, good.replace('"passed": true', '"passed": false'),
                              refs)), "flipped passed field fails")

    csv_cmd = command("converge-left-csv")
    table = refs["converge-left-csv"]["stdout"]
    expect(not check_command(csv_cmd, 42, 0, table, refs), "reference csv passes")
    rows = table.splitlines()
    cells = rows[3].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    rows[3] = ",".join(cells)
    expect(bool(check_command(csv_cmd, 42, 0, "\n".join(rows) + "\n", refs)),
           "csv float off by 1e-6 fails")

    axioms = command("axioms")
    suite = refs["axioms-seed42"]["stdout"]
    expect(not check_command(axioms, 42, 0, suite, refs), "reference suite passes")

    def fail_one(r):
        r["properties"][2]["failures"] = 1

    def slack(r):
        r["properties"][3]["worst_slack"] *= 1 + 1e-6  # properness, ~0.028

    expect(bool(check_command(axioms, 42, 0, edited(suite, fail_one), refs)), "suite failure fails")
    expect(bool(check_command(axioms, 42, 0, edited(suite, slack), refs)),
           "suite slack off by 1e-6 fails")
    other = edited(suite, lambda r: r.update(seed=5))
    expect(not check_command(axioms, 5, 0, other, refs), "other seed: invariants pass")
    expect(bool(check_command(axioms, 5, 0, edited(other, fail_one), refs)),
           "other seed: a reported failure fails")
    expect(bool(check_command(axioms, 6, 0, other, refs)), "other seed: wrong seed echo fails")


def test_self_time() -> None:
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 6]; 1 has child 3 [2, 3].
    name = np.array([0, 1, 1, 2])
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 3.0])
    stats = aggregate(name, parent, start, end, 3)
    expect(stats == [(1, 10.0, 6.0), (2, 4.0, 3.0), (1, 1.0, 1.0)], f"self time {stats}")


def test_tracer() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import oba_lab.algebra as algebra

    tracer = Tracer()
    tracer.install()
    x = algebra.unit_element(3)
    tracer.begin_command()
    algebra.prod_norm(x)
    algebra.prod_norm(x)
    tracer.begin_command()
    algebra.prod_norm(x)
    out = tracer.summary()
    expect(out["algebra.prod_norm.calls"] == 3, "prod_norm calls counted")
    expect(out["spectral.spectral_norm.svd.calls"] == 3,
           "spectral_norm calls seen through algebra's own binding")
    expect(abs(out[REPEAT_FRAC] - 1 / 3) < 1e-15, "repeats counted within one command only")
    expect(out["operators.MatrixOperator.calls"] >= 1, "MatrixOperator construction counted")
    expect(out["algebra.prod_norm.self_s"] <= out["algebra.prod_norm.total_s"], "self <= total")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS,
           "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units(),
           "BENCHMARK.json per_layer matches tracer.py")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


if __name__ == "__main__":
    test_check()
    test_self_time()
    test_tracer()
    test_benchmark_json()
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    sys.exit(1 if FAILED else 0)
