"""Scalability benchmark (extra, beyond the paper's tables).

The paper's datasets are small (<= 7390 rows); this benchmark runs the
full Cocoon pipeline — Spark profiling, FD discovery, SQL cleaning —
over a x10-scaled Movies (~74k rows, same error *rates*) to demonstrate
that the statistical detection path is a constant number of Spark
shuffles and the cleaning SQL executes through Catalyst at scale.

The timed region plans the cleaning and writes every cleaned row to the
``noop`` sink. ``count()`` would let Catalyst prune the CASE columns and
time almost none of the emitted SQL.
"""
from repro.benchdata.movies import movies
from repro.core import CocoonPipeline
from repro.llm import SimulatedLLM

SCALE = 10


def test_cocoon_scaled_movies(benchmark, spark):
    bench = movies(scale=SCALE)
    dirty = bench.spark_dirty(spark).cache()
    dirty.count()  # materialize outside the timed region

    def run():
        rep = CocoonPipeline(SimulatedLLM()).clean(dirty, bench.name)
        rep.cleaned.write.format("noop").mode("overwrite").save()
        return rep

    rep = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert rep.cleaned.count() == SCALE * 7390
    assert any(s.step == "misplacement" and s.detected for s in rep.steps)
    dirty.unpersist()
