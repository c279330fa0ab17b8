"""End-to-end oracle checks: the full Cocoon SQL artifact for real
benchmarks must produce identical tables on Spark and DuckDB.

This is the strongest correctness property in the repo: a wrong Catalyst
plan, a dialect leak in the emitted SQL, or a nondeterministic layer
would all fail the diff.
"""
import pytest

from repro.benchdata import load
from repro.core import CocoonPipeline
from repro.llm import SimulatedLLM
from repro.oracle import assert_equivalent


@pytest.mark.parametrize(
    "name", ["hospital", "rayyan", "beers", "flights", "movies"])
def test_cocoon_sql_is_engine_portable(spark, name):
    bench = load(name)
    dirty = bench.spark_dirty(spark)
    rep = CocoonPipeline(SimulatedLLM()).clean(dirty, name)
    assert_equivalent(rep.cleaned, rep.sql,
                      **{f"cocoon_{name}": bench.dirty})


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
