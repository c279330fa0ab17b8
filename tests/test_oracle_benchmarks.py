"""End-to-end oracle checks: the full Cocoon SQL artifact for real
benchmarks must produce identical tables on Spark and DuckDB.

This is the strongest correctness property in the repo: a wrong Catalyst
plan, a dialect leak in the emitted SQL, or a nondeterministic layer
would all fail the diff.
"""
import hashlib

import pytest

from repro.benchdata import load
from repro.core import CocoonPipeline
from repro.llm import SimulatedLLM
from repro.oracle import assert_equivalent


#: sha256(SQL)[:16], LLM calls and sha256(repr(report.steps))[:16] at
#: each generator's default seed; a speed-up or refactor must not move
#: them. Movies is not pinned: its generator draws directors from a set,
#: so its table depends on PYTHONHASHSEED.
PINNED = {
    "hospital": ("c55c0390fad2ff3d", 146, "01150c2d3bd27c39"),
    "flights": ("9358b01ca9593128", 44, "33366ccb4e3b55a4"),
    "beers": ("e63723ed28649089", 57, "81076024f9db16bf"),
    "rayyan": ("a3f8ffb0c319f4c8", 66, "981030f415ffeb68"),
}

#: sha256 of Raha+Baran's cleaned rows (each row's repr, sorted, joined
#: by newlines)[:16] at each generator's default seed, recorded at
#: PYTHONHASHSEED 0 and 4242; Movies is left out for the reason above.
RAHA_BARAN_PINNED = {
    "hospital": "f3ac00d275348204",
    "flights": "9fdaf7a9ff9fa3fb",
    "beers": "ae8ce6d17ac121e3",
    "rayyan": "be9b8b4e9e734237",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "name", ["hospital", "rayyan", "beers", "flights", "movies"])
def test_cocoon_sql_is_engine_portable(spark, name):
    bench = load(name)
    dirty = bench.spark_dirty(spark)
    rep = CocoonPipeline(SimulatedLLM()).clean(dirty, name)
    assert_equivalent(rep.cleaned, rep.sql,
                      **{f"cocoon_{name}": bench.dirty})
    if name in PINNED:
        assert (_digest(rep.sql), rep.llm_calls,
                _digest(repr(rep.steps))) == PINNED[name]


@pytest.mark.parametrize("name", sorted(RAHA_BARAN_PINNED))
def test_raha_baran_rows_are_pinned(spark, name):
    from repro.baselines import raha_baran_clean

    bench = load(name)
    rows = raha_baran_clean(bench, bench.spark_dirty(spark)).collect()
    assert (_digest("\n".join(sorted(repr(tuple(r)) for r in rows)))
            == RAHA_BARAN_PINNED[name])


def test_cocoon_cleaned_approaches_truth_on_hospital(spark):
    """Sanity anchor for Table 1: near-perfect repair on Hospital."""
    from repro.benchdata import ErrorType
    from repro.evalharness import repair_metrics

    bench = load("hospital")
    dirty = bench.spark_dirty(spark)
    rep = CocoonPipeline(SimulatedLLM()).clean(dirty, "hospital")
    m = repair_metrics(dirty, rep.cleaned, bench.spark_clean(spark),
                       bench.spark_mask(spark),
                       exclude_types=ErrorType.TABLE1_EXCLUDED)
    assert m.precision >= 0.95 and m.recall >= 0.9
