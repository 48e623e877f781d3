"""Golden CLI outputs: stdout and exit code must match the stored files byte for byte.

Every case runs `oba_lab.cli.main` in-process with `--no-timestamp`, at
whatever BLAS thread count the process has: no golden depends on it at 1 or 2
threads, the witness's capped Lanczos norm above n = 512 included (README,
numerics notes), and a test below compares that norm at 1 and 2 threads in
fresh interpreters.  After an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of `tests/golden/` like any other change.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oba_lab
from oba_lab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# file name -> (argv without --no-timestamp, expected exit code)
CASES = {
    **{
        f"witness-{n}-{rule}.json": (["witness", "--n", str(n), "--rule", rule], 0)
        for n in (2, 64, 600, 4096)
        for rule in ("left", "trapezoid")
    },
    **{
        f"converge-{rule}.{fmt}": (
            ["converge", "--ns", "16,64,600", "--rule", rule, "--format", fmt], 0
        )
        for rule in ("left", "trapezoid")
        for fmt in ("json", "csv")
    },
    **{
        f"{suite}-seed{seed}.json": ([suite, "--trials", "200", "--seed", str(seed)], 0)
        for suite in ("axioms", "rigidity")
        for seed in (42, 0, 7)
    },
    "axioms-seed42.csv": (["axioms", "--trials", "200", "--seed", "42", "--format", "csv"], 0),
    "growth-64-16.json": (["growth", "--n", "64", "--k-max", "16"], 0),
    "growth-64-16.csv": (["growth", "--n", "64", "--k-max", "16", "--format", "csv"], 0),
    "growth-600-8.json": (["growth", "--n", "600", "--k-max", "8"], 0),
    "growth-1024-256.json": (["growth", "--n", "1024", "--k-max", "256"], 0),
    "growth-4096-256.json": (["growth", "--n", "4096", "--k-max", "256"], 0),
    # past the witness's grid of 4096
    "growth-65536-16.json": (["growth", "--n", "65536", "--k-max", "16"], 0),
    # the benchmark's default commands, exactly as it runs them
    "growth-256-64.json": (["growth"], 0),
    "converge-default-trapezoid.json": (["converge", "--rule", "trapezoid"], 0),
    "converge-default-left.csv": (["converge", "--rule", "left", "--format", "csv"], 0),
    "witness-64-left.csv": (["witness", "--n", "64", "--rule", "left", "--format", "csv"], 0),
    "witness-1-left.json": (["witness", "--n", "1", "--rule", "left"], 1),
    "growth-8-7.json": (["growth", "--n", "8", "--k-max", "7"], 1),
}


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main([*argv, "--no-timestamp"])
        except SystemExit as exc:
            return exc.code, out.getvalue().encode("utf-8")
    raise AssertionError("main() returned without calling sys.exit")


def _fresh_interpreter(code: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run `code` in a new Python process that imports this checkout's `oba_lab`,
    with `env` on top of this process's environment."""
    src = str(Path(oba_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = _run(CASES[name][0])
    assert code == CASES[name][1]
    assert out == (GOLDEN_DIR / name).read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    result = _fresh_interpreter("import sys, oba_lab.cli; print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"False\n"


def test_cli_import_leaves_numpy_random_unloaded():
    result = _fresh_interpreter("import sys, oba_lab.cli; print('numpy.random' in sys.modules)")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["growth"],
        ["witness", "--n", "512"],
        ["converge", "--ns", "16,512"],
        ["witness", "--n", "4096", "--rule", "left"],
        ["witness", "--n", "4096", "--rule", "trapezoid"],
        ["converge"],
    ],
)
def test_commands_that_draw_nothing_run_without_numpy_random(argv):
    """growth, the witness and converge draw no random number at any n: the
    capped Lanczos norm above n = 512 reads its seeded start from a stored
    table.  They print the in-process bytes with `numpy.random` unimportable."""
    code, out = _run(argv)
    result = _fresh_interpreter(
        "import sys; sys.modules['numpy.random'] = None\n"
        "from oba_lab.cli import main\n"
        f"main({[*argv, '--no-timestamp']!r})"
    )
    assert code == 0
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == out


def test_pooled_suite_loads_numpy_random_before_forking():
    """A pooled suite run imports `numpy.random` in the parent, which draws
    nothing itself, so the forked workers share it; the report is the inline one."""
    result = _fresh_interpreter(
        "import sys\n"
        "from oba_lab import suites\n"
        "print('numpy.random' in sys.modules)\n"
        "suites._cpu_count = lambda: 2\n"
        "pooled = suites.run_axiom_suite(trials=14, seed=0)\n"
        "print('numpy.random' in sys.modules)\n"
        "suites._cpu_count = lambda: 1\n"
        "print(repr(pooled) == repr(suites.run_axiom_suite(trials=14, seed=0)))"
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"False\nTrue\nTrue\n"


@pytest.mark.parametrize("name", ["witness-600-left.json", "growth-64-16.json"])
def test_golden_output_without_scipy(name):
    """The runtime needs numpy only: the witness's Lanczos norm and the growth
    power iteration run with scipy unimportable."""
    argv, expected_code = CASES[name]
    result = _fresh_interpreter(
        "import sys; sys.modules['scipy'] = None\n"
        "from oba_lab.cli import main\n"
        f"main({[*argv, '--no-timestamp']!r})"
    )
    assert result.returncode == expected_code, result.stderr.decode()
    assert result.stdout == (GOLDEN_DIR / name).read_bytes()


def test_witness_norms_match_at_one_and_two_blas_threads():
    """The capped Lanczos norm_T gives the same bytes under 1 and 2 BLAS threads.

    n = 2048 (both rules) and 4096 left printed another last digit under one
    thread before the reorthogonalization block was padded to a multiple of 8
    rows.  OpenBLAS caps its thread variable at the CPUs the process may run
    on, so on one CPU both runs take one thread and this compares nothing new.
    """
    runs = "\n".join(
        f"try:\n    main({['witness', '--n', n, '--rule', rule, '--no-timestamp']!r})\n"
        "except SystemExit as exc:\n    print('exit', exc.code)"
        for n in ("2048", "4096")
        for rule in ("left", "trapezoid")
    )
    outputs = []
    for threads in ("1", "2"):
        result = _fresh_interpreter(
            f"from oba_lab.cli import main\n{runs}", {"OPENBLAS_NUM_THREADS": threads}
        )
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(result.stdout)
    assert outputs[0].count(b"exit 0\n") == 4
    assert outputs[0] == outputs[1]


def test_every_golden_file_has_a_case():
    assert {p.name for p in GOLDEN_DIR.iterdir()} == set(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN_DIR / name).write_bytes(out)
        print(f"wrote {GOLDEN_DIR / name}")
