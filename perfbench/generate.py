"""Generate a workload's input tables in a child process.

``repro.benchdata.movies`` builds its director pool from a ``set``, whose
iteration order depends on ``PYTHONHASHSEED``, so in a process with a
random hash seed the same generator seed gives a different Movies table
every run. ``run.py`` therefore runs this module with a fixed
``PYTHONHASHSEED`` and everything else with the interpreter's random
one: inputs repeat exactly, and the cross-run output check still sees
any hash-order dependence in the cleaning code itself. ::

    python3 -m perfbench.generate OUT SEED TABLE...

writes ``{table: (Benchmark, generation seconds)}`` as a pickle to OUT.
"""
from __future__ import annotations

import inspect
import pickle
import sys
import time


def generate(table: str, seed: int):
    """The seeded benchmark ``table``: generator default seed + ``seed``."""
    from repro.benchdata import BENCHMARKS

    gen = BENCHMARKS[table]
    return gen(seed=inspect.signature(gen).parameters["seed"].default + seed)


def main(argv: list[str]) -> None:
    out, seed, tables = argv[0], int(argv[1]), argv[2:]
    result = {}
    for t in tables:
        t0 = time.perf_counter()
        bench = generate(t, seed)
        result[t] = (bench, time.perf_counter() - t0)
    with open(out, "wb") as f:
        pickle.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
