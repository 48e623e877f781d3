"""oba-lab benchmark: run one workload through the CLI, check every output, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload resolvent|suites|growth --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (perfbench/worker.py) with the BLAS
thread count pinned, so peak_rss_mb belongs to that pass.  Passes repeat until
S seconds have gone by, at least one.  With --trace 0 the last line is the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and
the last line is the per-layer metrics plus the tracing overhead.  Human
readable lines, the environment and the full result (also written to
.perfbench/) come before it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_command, load_references
from tracer import OVERHEAD_FRAC, metric_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_BLAS_THREADS = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end well within 180 s
SETUP_CODE = "import oba_lab.cli as cli\ncli.main(['--help'])"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "aux_cmd_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("OBA_LAB_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run(argv, env, deadline, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    try:
        return subprocess.run(argv, env=env, cwd=ROOT, timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} did not finish in time") from exc


def setup_once(env, deadline) -> float:
    start = time.perf_counter()
    proc = _run([sys.executable, "-c", SETUP_CODE], env, deadline,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"importing oba_lab.cli failed:\n{proc.stderr}")
    return elapsed


def run_pass(workload: str, seed: int, env, deadline, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = _run(argv, env, deadline, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (never from a parent directory)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def median(values) -> float:
    return float(statistics.median(values))


def check_passes(workload: str, seed: int, passes: list[dict], refs: dict) -> tuple[int, list]:
    attempted, failures = 0, []
    for p in passes:
        for cmd, result in zip(WORKLOADS[workload], p["commands"]):
            attempted += 1
            problems = check_command(cmd, seed, result["exit"], result["stdout"], refs)
            if problems:
                failures.append({"command": result["key"], "problems": problems[:10],
                                 "stderr": result["stderr"][-2000:]})
    return attempted, failures


def end_to_end(workload: str, passes: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """(metrics for the last line, medians of witness_s, axioms_s, ... for the record)."""
    cmds = WORKLOADS[workload]

    def summed(p, pick):
        return sum(r["seconds"] for c, r in zip(cmds, p["commands"]) if pick(c))

    metrics = {
        "setup_s": median(setup),
        "wall_s": median(p["wall_s"] for p in passes),
        "aux_cmd_s": median(summed(p, lambda c: c.aux) for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    named = {name: median(summed(p, lambda c: c.metric == name) for p in passes)
             for name in dict.fromkeys(c.metric for c in cmds)}
    return metrics, named


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Median per-layer values and whether call counts repeated exactly across traced passes."""
    traces = [p["trace"] for p in traced]
    out = {}
    for name in metric_units():
        if name == OVERHEAD_FRAC:
            continue
        values = [t[name] for t in traces]
        out[name] = values[0] if name.endswith(".calls") else median(values)
    calls = [k for k in traces[0] if k.endswith(".calls")]
    repeatable = all(t[k] == traces[0][k] for t in traces for k in calls)
    base = median(p["wall_s"] for p in plain)
    out[OVERHEAD_FRAC] = (median(p["wall_s"] for p in traced) - base) / base
    return out, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oba-lab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "oba_lab" / "cli.py").is_file():
        raise BenchError(f"no oba_lab sources under {ROOT / 'src'}")
    refs = load_references()
    threads = min(MAX_BLAS_THREADS, nproc())
    env = child_env(threads)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    setup_once(env, deadline)  # warm-up: bytecode caches and the page cache
    setup = [] if args.trace else [setup_once(env, deadline) for _ in range(SETUP_SAMPLES)]

    plain, traced = [], []
    spans = out_dir / f"spans-{args.workload}.npz"
    start = time.monotonic()
    while True:
        plain.append(run_pass(args.workload, args.seed, env, deadline))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, env, deadline, spans))
        if time.monotonic() - start >= args.seconds:
            break

    attempted, failures = check_passes(args.workload, args.seed, plain + traced, refs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "git_commit": git_commit(),
            **plain[0]["versions"],
            "blas_threads": threads,
            "nproc": nproc(),
            "cpu": cpu_model(),
            "seed": args.seed,
        },
        "passes": len(plain),
        "pass_seconds": [{c["key"]: c["seconds"] for c in p["commands"]} for p in plain],
        "traced_passes": len(traced),
        "setup_samples": len(setup),
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_frac": len(failures) / attempted,
        "failures": failures,
    }
    correct = not failures
    if args.trace:
        metrics, repeatable = per_layer(plain, traced)
        units = metric_units()
        record["calls_repeat_exactly"] = repeatable
        correct = correct and repeatable
    else:
        metrics, named = end_to_end(args.workload, plain, setup)
        units = {**E2E_UNITS, **{n: "s" for n in named}}
        record["per_command"] = named
    record["metrics"] = metrics
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    samples = (f"median of {len(traced)} traced and {len(plain)} untraced passes" if args.trace
               else f"median of {len(plain)} passes; setup_s: median of {len(setup)} imports")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ({samples})")
    shown = {**metrics, **record.get("per_command", {})}
    for name, value in shown.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(f"{'ops_failed_frac':45s} {record['ops_failed_frac']:14.6g} ratio "
          f"({len(failures)}/{attempted})")
    for failure in failures:
        print(f"FAILED {failure['command']}: {'; '.join(failure['problems'])}")
    print("# env " + json.dumps(record["env"]))
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
