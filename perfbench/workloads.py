"""The benchmark's workloads: which `oba-lab` commands one pass runs, in order.

Only the suite commands take the benchmark seed.  The witness, convergence
and growth grids are fixed by the paper, so their outputs do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seeds whose full outputs are stored in reference.json.
REFERENCE_SEEDS = (42, 0, 7)


@dataclass(frozen=True)
class Command:
    key: str  # reference key; seeded commands get "-seed<n>" appended
    argv: tuple[str, ...]
    metric: str  # per-command time reported as <metric> = sum over the pass
    aux: bool  # the lighter command(s) of the pass, summed in aux_cmd_s
    seeded: bool = False

    def full_argv(self, seed: int) -> list[str]:
        extra = ["--seed", str(seed)] if self.seeded else []
        return [*self.argv, *extra, "--no-timestamp"]

    def reference_key(self, seed: int) -> str:
        return f"{self.key}-seed{seed}" if self.seeded else self.key


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # The paper's headline object at MAX_GRID: dense n^2 matrices, the
    # triangular solve and four Lanczos norms per witness.
    "resolvent": (
        Command("witness-left", ("witness", "--n", "4096", "--rule", "left"), "witness_s", False),
        Command("witness-trapezoid", ("witness", "--n", "4096", "--rule", "trapezoid"),
                "witness_s", False),
        Command("converge-trapezoid", ("converge", "--rule", "trapezoid"), "converge_s", True),
        Command("converge-left-csv", ("converge", "--rule", "left", "--format", "csv"),
                "converge_s", True),
    ),
    # ~334k tiny SVDs plus object construction: per-call overhead, no Lanczos.
    "suites": (
        Command("axioms", ("axioms",), "axioms_s", False, seeded=True),
        Command("rigidity", ("rigidity",), "rigidity_s", True, seeded=True),
    ),
    # Norms of a matrix rewritten between reads by the dense power chain, on
    # either side of the SVD/Lanczos threshold.
    "growth": (
        Command("growth-default", ("growth",), "growth_s", True),
        Command("growth-1024", ("growth", "--n", "1024", "--k-max", "256"), "growth_s", False),
    ),
}
