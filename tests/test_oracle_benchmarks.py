"""End-to-end oracle checks: the full Cocoon and HoloClean SQL
artifacts for real benchmarks must produce identical tables on Spark
and DuckDB.

This is the strongest correctness property in the repo: a wrong Catalyst
plan, a dialect leak in the emitted SQL, or a nondeterministic layer
would all fail the diff.
"""
import hashlib

import pytest

from repro.benchdata import load
from repro.core import CocoonPipeline
from repro.core.sql_emit import build_sql
from repro.llm import SimulatedLLM
from repro.oracle import assert_equivalent
from repro.profiling.fd import value_cube


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

#: the same digest of RetClean's cleaned rows, recorded the same way
#: while it still profiled with ``profile_table``
RETCLEAN_PINNED = {
    "hospital": "44c76fd11809f190",
    "flights": "4fc2c238ed67d0ff",
    "beers": "58697e49bd381be7",
    "rayyan": "194aa658cb92ff8f",
}

#: the same digest of HoloClean's cleaned rows, recorded the same way
#: while it still repaired with a Spark ``groupBy``, window and join
HOLOCLEAN_PINNED = {
    "hospital": "7a25c6905183f344",
    "flights": "a723ca775053ef25",
    "beers": "27dc69aa0c268130",
    "rayyan": "c749b97bbcf24a06",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rows_digest(df) -> str:
    """The pinned digest of a frame's rows: each row's repr, sorted."""
    return _digest("\n".join(sorted(repr(tuple(r)) for r in df.collect())))


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
    assert (_rows_digest(raha_baran_clean(bench, bench.spark_dirty(spark)))
            == RAHA_BARAN_PINNED[name])


@pytest.mark.parametrize("name", sorted(RETCLEAN_PINNED))
def test_retclean_rows_are_pinned(spark, name):
    from repro.baselines import retclean_clean

    assert (_rows_digest(retclean_clean(load(name).spark_dirty(spark)))
            == RETCLEAN_PINNED[name])


@pytest.mark.parametrize(
    "name", ["hospital", "rayyan", "beers", "flights", "movies"])
def test_holoclean_sql_is_engine_portable(spark, name):
    """HoloClean's plan, rendered as SQL, gives the same rows on DuckDB
    as ``holoclean_clean`` gives on Spark. No constraint covers Movies:
    it plans no layer and its rows come back unchanged."""
    from repro.baselines.holoclean import (
        CONSTRAINTS,
        holoclean_clean,
        holoclean_plan,
    )

    bench = load(name)
    dirty = bench.spark_dirty(spark)
    layers = holoclean_plan(
        value_cube(dirty, [c for c in dirty.columns if c != "row_id"]),
        CONSTRAINTS[name])
    cleaned = holoclean_clean(dirty, CONSTRAINTS[name])
    assert_equivalent(cleaned,
                      build_sql("holoclean_input", layers, dirty.columns),
                      holoclean_input=bench.dirty)
    if name in HOLOCLEAN_PINNED:
        assert _rows_digest(cleaned) == HOLOCLEAN_PINNED[name]
    else:
        assert layers == []
        assert _rows_digest(cleaned) == _rows_digest(dirty)


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
