"""Tests of the benchmark's tracer.

Run from the repository root (the root ``conftest.py`` provides the
``spark`` fixture)::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
import pandas as pd
import pytest

from perfbench import layers
from perfbench.run import make_tracer
from perfbench.tracer import Span, Tracer, covered, self_times


def _snapshot():
    return {(owner, attr): getattr(owner, attr)
            for owner, attr, _, _ in layers.targets()}


def _assert_originals(before):
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, f"{owner}.{attr}"


def test_untraced_run_calls_the_original_functions():
    before = _snapshot()
    tracer = make_tracer(False, None)
    _assert_originals(before)
    assert tracer.sc is None


def test_traced_run_restores_every_patched_attribute(spark):
    from repro.benchdata import load, to_spark_strings
    from repro.core import CocoonPipeline
    from repro.llm import SimulatedLLM

    before = _snapshot()
    tracer = make_tracer(True, spark.sparkContext)
    try:
        for owner, attr in before:
            assert getattr(owner, attr) is not before[(owner, attr)], attr
        df = to_spark_strings(spark, load("beers").dirty.head(60))
        rep = CocoonPipeline(SimulatedLLM()).clean(df, "perfbench_t")
    finally:
        tracer.restore()
    _assert_originals(before)

    names = {s.name for s in tracer.spans}
    assert {"core.pipeline", "core.string_outliers", "core.fd",
            "profiling.profile_table", "profiling.discover_fds",
            "sql_emit.build_sql", "spark.action"} <= names
    llm = [s for s in tracer.spans if s.kind == "llm"]
    assert len(llm) == rep.llm_calls
    assert sum(tracer.prompt_chars.values()) > 0
    jobs = tracer.job_counts()
    root = next(s for s in tracer.spans if s.name == "core.pipeline")
    assert root.parent is None and jobs[root.id] > 0
    # a pipeline span's children are all inside it
    for s in tracer.spans:
        if s.parent == root.id:
            assert root.start <= s.start <= s.end <= root.end


def test_self_time_is_span_minus_covered_child_time():
    spans = [
        Span(0, "root", "layer", 0.0, 10.0),
        # overlapping children cover [1, 5] once: 4 s
        Span(1, "a", "layer", 1.0, 4.0, parent=0),
        Span(2, "b", "llm", 3.0, 5.0, parent=0),
        # an action is the caller's own (blocked) time: not subtracted
        Span(3, "spark.action", "action", 6.0, 8.0, parent=0),
        # a child running past its parent only covers up to the end
        Span(4, "c", "layer", 9.0, 12.0, parent=0),
        Span(5, "a.kid", "layer", 2.0, 3.0, parent=1),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(2.0)
    assert st[5] == pytest.approx(1.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_actions_are_counted_on_the_classic_dataframe(spark):
    from pyspark.sql import DataFrame as SharedDataFrame
    from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

    df = spark.createDataFrame(pd.DataFrame({"x": ["a", "b", "c"]}))
    assert type(df) is ClassicDataFrame
    assert ClassicDataFrame is not SharedDataFrame
    assert "count" in vars(ClassicDataFrame)

    tracer = Tracer(spark.sparkContext)
    for owner, attr, name, kind in layers.targets():
        if kind == "action":
            tracer.wrap(owner, attr, name, kind)
    try:
        with tracer.span("outer") as outer:
            assert df.count() == 3
            df.first()  # first -> head -> take -> collect: one action
            df.toPandas()
            df.write.format("noop").mode("overwrite").save()
    finally:
        tracer.restore()
    actions = [s for s in tracer.spans if s.kind == "action"]
    assert len(actions) == 4
    assert all(s.parent == outer.id for s in actions)
    assert tracer.job_counts()[outer.id] >= 4
