"""Regenerate perfbench/reference.json from the current program.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every workload once per reference seed (once in all for the workloads
whose commands take no seed) and stores each command's exit code and
--no-timestamp output.  Only regenerate on purpose, when a change of output
is intended and explained.
"""

from __future__ import annotations

import json
import time

from check import REFERENCE_FILE
from run import MAX_BLAS_THREADS, child_env, nproc, run_pass
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> None:
    env = child_env(min(MAX_BLAS_THREADS, nproc()))
    refs = {}
    for workload, cmds in WORKLOADS.items():
        seeds = REFERENCE_SEEDS if any(c.seeded for c in cmds) else REFERENCE_SEEDS[:1]
        for seed in seeds:
            result = run_pass(workload, seed, env, time.monotonic() + 600)
            for c in result["commands"]:
                refs[c["key"]] = {"exit": c["exit"], "stdout": c["stdout"]}
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
