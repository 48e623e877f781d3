"""Golden CLI outputs: stdout and exit code must match the stored files byte for byte.

Every case runs `oba_lab.cli.main` with `--no-timestamp`.  After an intended
change of output, rewrite the files with

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
    "witness-64-left.csv": (["witness", "--n", "64", "--rule", "left", "--format", "csv"], 0),
    "witness-1-left.json": (["witness", "--n", "1", "--rule", "left"], 1),
    "growth-8-7.json": (["growth", "--n", "8", "--k-max", "7"], 1),
}


# Above n = 512, norm_T is the capped Lanczos norm, whose reorthogonalization
# sums in an order set by the BLAS thread count (README, numerics notes).  These
# cases were recorded with 2 BLAS threads, the count perfbench uses, so each runs
# in a fresh interpreter with 2.  OpenBLAS caps its thread variables at the CPUs
# the process may run on, so on one CPU the case also asks numpy's bundled
# OpenBLAS for 2 threads through its own call.
BLAS_THREADS = 2
THREAD_PINNED = {
    name for name in CASES if name.startswith(("witness-600-", "witness-4096-", "converge-"))
}
_PIN_OPENBLAS = f"""\
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
    set_threads = ctypes.CDLL(lib).scipy_openblas_set_num_threads64_
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads({BLAS_THREADS})
"""


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main([*argv, "--no-timestamp"])
        except SystemExit as exc:
            return exc.code, out.getvalue()
    raise AssertionError("main() returned without calling sys.exit")


def _fresh_interpreter(code: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run `code` in a new Python process that imports this checkout's `oba_lab`,
    with `env` on top of this process's environment."""
    src = str(Path(oba_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)


def _run_case(name) -> tuple[int, bytes]:
    """Exit code and stdout of a golden case, thread-pinned if it is in THREAD_PINNED."""
    argv, _ = CASES[name]
    if name not in THREAD_PINNED:
        code, out = _run(argv)
        return code, out.encode("utf-8")
    threads = str(BLAS_THREADS)
    result = _fresh_interpreter(
        f"{_PIN_OPENBLAS}from oba_lab.cli import main\nmain({[*argv, '--no-timestamp']!r})",
        {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads},
    )
    assert not result.stderr, result.stderr.decode()
    return result.returncode, result.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = _run_case(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN_DIR / name).read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    result = _fresh_interpreter("import sys, oba_lab.cli; print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"False\n"


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


def test_every_golden_file_has_a_case():
    assert {p.name for p in GOLDEN_DIR.iterdir()} == set(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (_, expected_code) in sorted(CASES.items()):
        code, out = _run_case(name)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN_DIR / name).write_bytes(out)
        print(f"wrote {GOLDEN_DIR / name}")
