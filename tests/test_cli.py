"""Tests for the command-line surface: schemas, exit codes, and determinism."""

import dataclasses
import json
import re

import pytest

from oba_lab import cli, suites
from oba_lab.cli import main

WITNESS_KEYS = [
    "n",
    "rule",
    "h",
    "norm_T",
    "xi_used",
    "cone_member",
    "cluster_radius",
    "deviation",
    "geq_unit",
    "norm_excess",
]

CONVERGE_HEADER = "n,h,norm_T,cluster_radius,deviation,norm_excess"

OUTPUT_FLAGS = {"--format", "--output", "--no-timestamp"}
COMMAND_FLAGS = {
    "witness": {"--n", "--rule", "--abs-tol"},
    "converge": {"--ns", "--rule"},
    "axioms": {"--trials", "--seed", "--abs-tol", "--rel-tol"},
    "rigidity": {"--trials", "--seed"},
    "growth": {"--n", "--k-max"},
}


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_witness_json_schema(capsys):
    code, out, _ = run_cli(["witness", "--n", "32", "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "witness"
    assert list(doc["report"]) == WITNESS_KEYS
    assert doc["report"]["rule"] == "trapezoid"
    assert doc["report"]["cone_member"] is True
    assert doc["report"]["geq_unit"] is False
    assert doc["passed"] is True
    assert "timestamp" not in doc


def test_witness_timestamp_present_by_default(capsys):
    _, out, _ = run_cli(["witness", "--n", "8"], capsys)
    assert "timestamp" in json.loads(out)


def test_converge_csv_schema(capsys):
    code, out, _ = run_cli(
        ["converge", "--ns", "16,32,64", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CONVERGE_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "16"
    assert float(first[2]) <= 1.0


def test_converge_rows_sorted_and_deduplicated(capsys):
    _, out, _ = run_cli(["converge", "--ns", "32,16,16", "--format", "csv"], capsys)
    ns = [int(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert ns == [16, 32]


def test_axioms_small_run_passes(capsys):
    code, out, _ = run_cli(
        ["axioms", "--trials", "100", "--seed", "42", "--no-timestamp"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    names = {p["name"] for p in doc["report"]["properties"]}
    assert "additivity" in names and "cstar_identity" in names
    assert all(p["failures"] == 0 for p in doc["report"]["properties"])


def test_axioms_gate_fails_at_zero_relative_tolerance(capsys):
    """--rel-tol reaches the suite: with no relative slack, the C*-identity
    ||a* a|| = ||a||^2 fails on rounding alone.  The failure count moves with
    the BLAS kernel, so only its sign is pinned."""
    argv = ["axioms", "--trials", "50", "--rel-tol", "0", "--no-timestamp"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["rel_tol"] == 0.0
    assert sum(p["failures"] for p in doc["report"]["properties"]) > 0
    assert doc["passed"] is False


def test_rigidity_small_run_passes(capsys):
    code, out, _ = run_cli(["rigidity", "--trials", "100", "--no-timestamp"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_growth_report(capsys):
    code, out, _ = run_cli(
        ["growth", "--n", "64", "--k-max", "16", "--no-timestamp"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["rule"] == "left"
    assert len(doc["report"]["a_k"]) == 16


def test_growth_rejects_rule_flag(capsys):
    code, _, err = run_cli(["growth", "--rule", "trapezoid"], capsys)
    assert code == 2
    assert "unrecognized" in err


@pytest.mark.parametrize(
    "argv", [["witness", "--n", "5000"], ["growth", "--n", "0"], ["growth", "--n", "4097"]]
)
def test_out_of_range_grid_is_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "grid size must be in [1, 4096]" in err



@pytest.mark.parametrize("trials", [2**63, 99999999999999999999])
@pytest.mark.parametrize("command", ["axioms", "rigidity"])
def test_trial_counts_from_2_to_the_63_are_usage_errors(command, trials, monkeypatch, capsys):
    """Trial indices wrap mod 2^63 in the trial seeds, and past it the trial
    ranges' lengths overflow: the count is named before any worker forks."""

    def no_tally(tasks):
        raise AssertionError("a group ran before trials was checked")

    monkeypatch.setattr(suites, "_tally_groups", no_tally)
    code, out, err = run_cli([command, "--trials", str(trials), "--no-timestamp"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: trials must be below 2^63, got {trials}\n"


def test_the_largest_trial_count_is_accepted(monkeypatch):
    """2^63 - 1 trials pass the check; the groups are stubbed, since running
    them would take forever."""
    monkeypatch.setattr(suites, "_tally_groups", lambda tasks: [(0, 1.0)] * len(tasks))
    report = suites.run_axiom_suite(trials=2**63 - 1)
    assert report.trials == 2**63 - 1 and report.all_passed

def test_unknown_rule_is_usage_error(capsys):
    code, _, _ = run_cli(["witness", "--rule", "simpson"], capsys)
    assert code == 2


@pytest.mark.parametrize("rule", ["Left", "left-endpoint", "leftendpoint", " left"])
def test_rule_takes_only_the_quadrature_rule_values(rule, capsys):
    code, _, err = run_cli(["witness", "--rule", rule], capsys)
    assert code == 2
    choices = err.split("choose from", 1)[1]
    assert "trapezoid" in choices and "left" in choices


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_the_command_reads(command, capsys):
    code, out, _ = run_cli([command, "--help"], capsys)
    assert code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
    assert flags == COMMAND_FLAGS[command] | OUTPUT_FLAGS | {"--help"}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag)
     for command in ("witness", "converge", "rigidity", "growth")
     for flag in sorted({"--seed", "--abs-tol", "--rel-tol"} - COMMAND_FLAGS[command])],
)
def test_flags_a_command_does_not_read_are_usage_errors(command, flag, capsys):
    code, out, err = run_cli([command, flag, "1e-6"], capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(["bogus"], capsys)
    assert code == 2


def test_reports_are_byte_identical_without_timestamp(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            ["witness", "--n", "64", "--no-timestamp", "--output", str(path)], capsys
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_reports_never_carry_timestamps(capsys):
    _, out, _ = run_cli(["converge", "--ns", "16", "--format", "csv"], capsys)
    assert out.strip().split("\n")[0] == CONVERGE_HEADER


def test_output_file_is_utf8(tmp_path, capsys):
    path = tmp_path / "report.json"
    run_cli(["witness", "--n", "16", "--no-timestamp", "--output", str(path)], capsys)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["report"]["n"] == 16


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_output_is_usage_error(tmp_path, capsys, target):
    path = tmp_path / target
    code, out, err = run_cli(
        ["witness", "--n", "8", "--no-timestamp", "--output", str(path)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write report to {path}: ")


def test_converge_left_gate_passes_at_default_grids(capsys):
    code, out, _ = run_cli(["converge", "--rule", "left", "--no-timestamp"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_converge_left_gate_passes_at_n_1(capsys):
    # T_1 = I: no norm excess and no deviation, so the linear law reads 0 <= 0
    code, out, _ = run_cli(["converge", "--ns", "1,5", "--rule", "left", "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["report"]["rows"][0]["norm_excess"] == doc["report"]["rows"][0]["deviation"] == 0.0


def test_converge_left_gate_fails_without_norm_excess(monkeypatch, capsys):
    """A row that deviates from I with no norm excess breaks the dichotomy."""
    study = cli.convergence_study

    def no_excess(ns, rule):
        return [dataclasses.replace(w, norm_excess=0.0) for w in study(ns, rule)]

    monkeypatch.setattr(cli, "convergence_study", no_excess)
    code, out, _ = run_cli(["converge", "--ns", "5", "--rule", "left", "--no-timestamp"], capsys)
    assert code == 1
    doc = json.loads(out)
    row = doc["report"]["rows"][0]
    assert row["norm_excess"] == 0.0 and row["deviation"] > 0
    assert doc["passed"] is False


def test_converge_left_gate_fails_with_halved_norm_excess(monkeypatch, capsys):
    """Every row keeps a positive norm excess, so the dichotomy still holds, but
    half of it is too little for the deviation under the linear law, whose
    room is about 11% at n = 2 and 30% from n = 8 on."""
    study = cli.convergence_study

    def halved(ns, rule):
        return [dataclasses.replace(w, norm_excess=w.norm_excess / 2) for w in study(ns, rule)]

    monkeypatch.setattr(cli, "convergence_study", halved)
    argv = ["converge", "--ns", "2,5,64", "--rule", "left", "--no-timestamp"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    doc = json.loads(out)
    assert all(row["norm_excess"] > 0 for row in doc["report"]["rows"])
    assert doc["passed"] is False


@pytest.mark.parametrize(
    "norm_T",
    [1.0 + 2.0**-40, 1.0 / (1.0 + 1 / 128) * (1 - 2.0**-40)],
    ids=["above_one", "below_the_spectral_radius"],
)
def test_converge_trapezoid_gate_fails_outside_the_sandwich(norm_T, monkeypatch, capsys):
    """Accretivity gives 1/(1 + h/2) <= ||T_n|| <= 1 with no slop: a norm a
    hair outside either end fails the gate (n = 64, h/2 = 1/128)."""
    study = cli.convergence_study

    def moved(ns, rule):
        return [dataclasses.replace(w, norm_T=norm_T) for w in study(ns, rule)]

    monkeypatch.setattr(cli, "convergence_study", moved)
    argv = ["converge", "--ns", "64", "--rule", "trapezoid", "--no-timestamp"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["rows"][0]["norm_T"] == norm_T
    assert doc["passed"] is False


@pytest.mark.parametrize("rule", ["trapezoid", "left"])
def test_witness_gate_fails_when_the_tolerance_covers_the_deviation(rule, capsys):
    """At --abs-tol 1 the tolerance covers T_64's deviation from the unit (about
    0.44), so T_64 - 1 reads as a cone member, T_64 as above the unit, and the
    witness gate fails."""
    argv = ["witness", "--n", "64", "--rule", rule, "--abs-tol", "1", "--no-timestamp"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["cone_member"] is True and doc["report"]["geq_unit"] is True
    assert doc["passed"] is False


@pytest.mark.parametrize("abs_tol", ["0", "1e-9", "0.4", "0.5", "1"])
@pytest.mark.parametrize("rule", ["trapezoid", "left"])
@pytest.mark.parametrize("n", [1, 2, 64, 600])
def test_witness_gate_is_decided_by_geq_unit(n, rule, abs_tol, capsys):
    """xi_used >= 1, so `not geq_unit` already puts the deviation above abs_tol:
    the verdict is `not geq_unit` alone."""
    argv = ["witness", "--n", str(n), "--rule", rule, "--abs-tol", abs_tol, "--no-timestamp"]
    code, out, _ = run_cli(argv, capsys)
    doc = json.loads(out)
    assert doc["passed"] is (not doc["report"]["geq_unit"])
    assert code == (0 if doc["passed"] else 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--n", "8"],
        ["converge", "--ns", "16"],
        ["growth", "--n", "64", "--k-max", "16"],
        ["axioms", "--trials", "10"],
        ["rigidity", "--trials", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_reads_the_environment_for_a_seed(argv, monkeypatch, capsys):
    """`--seed` alone seeds a suite: a stray OBA_LAB_SEED changes nothing."""
    argv = [*argv, "--no-timestamp"]
    monkeypatch.delenv("OBA_LAB_SEED", raising=False)
    code, expected, _ = run_cli(argv, capsys)
    monkeypatch.setenv("OBA_LAB_SEED", "not-a-number")
    assert run_cli(argv, capsys) == (code, expected, "")
    assert code == 0
    if argv[0] in ("axioms", "rigidity"):
        assert json.loads(expected)["report"]["seed"] == 42
