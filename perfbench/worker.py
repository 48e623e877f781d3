"""One pass of a workload in a fresh interpreter; prints the pass as one JSON object.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--spans PATH]

The commands go through the `oba-lab` entry point `oba_lab.cli.main`, with
stdout captured per command.  With --spans the pass is traced: the public
functions of the package are wrapped, and the spans are saved to PATH
(NumPy .npz) after the pass.  The BLAS thread count is taken from the
environment the caller set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

from workloads import WORKLOADS


def run_command(main, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import oba_lab.cli

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    entry = oba_lab.cli.main  # looked up after install, so a traced pass records it

    commands = []
    for cmd in WORKLOADS[args.workload]:
        if tracer is not None:
            tracer.begin_command()
        code, out, err, seconds = run_command(entry, cmd.full_argv(args.seed))
        commands.append({"key": cmd.reference_key(args.seed), "exit": code,
                         "stdout": out, "stderr": err, "seconds": seconds})
    result = {
        "commands": commands,
        "wall_s": sum(c["seconds"] for c in commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
        "trace": None,
    }
    if tracer is not None:
        import numpy as np

        result["trace"] = tracer.summary()
        np.savez(args.spans, **tracer.spans())
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
