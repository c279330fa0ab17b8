"""Profiling substrate vs. pandas ground truth (Spark aggregations)."""
from dataclasses import replace

import pandas as pd
import pytest
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.benchdata import load
from repro.benchdata.base import to_spark_strings
from repro.profiling import (
    ColumnProfile,
    duplicate_rows,
    profile_cube,
    profile_cube_rows,
    profile_table,
)
from repro.profiling import column_profile, fd
from tests import reference_stats


def _profile_column(df: DataFrame, column: str, *,
                    top_k: int) -> ColumnProfile:
    """Reference profile of one column: a plain count aggregation and a
    grouped top-K, independent of ``profile_table``'s unpivot/groupBy."""
    c = F.col(column)
    counts = df.agg(
        F.count(F.lit(1)).alias("total"),
        F.count(c).alias("non_null"),
        F.count_distinct(c).alias("n_distinct"),
    ).collect()[0]
    top = (
        df.where(c.isNotNull())
        .groupBy(c.alias("v"))
        .agg(F.count(F.lit(1)).alias("cnt"))
        .orderBy(F.desc("cnt"), F.asc("v"))
        .limit(top_k)
        .collect()
    )
    return ColumnProfile(
        name=column,
        total=counts["total"],
        nulls=counts["total"] - counts["non_null"],
        n_distinct=counts["n_distinct"],
        top_values=tuple((r["v"], r["cnt"]) for r in top),
    )


def _profile_table_reference(df: DataFrame, columns: list[str], *,
                             top_k: int) -> dict[str, ColumnProfile]:
    """The earlier two-job ``profile_table``: one count / count-distinct
    aggregation, then an unpivot, ``groupBy`` and ``row_number`` window
    that keeps each column's top-K values."""
    aggs = [F.count(F.lit(1)).alias("__total")]
    for c in columns:
        aggs.append(F.count(F.col(c)).alias(f"{c}__nn"))
        aggs.append(F.count_distinct(F.col(c)).alias(f"{c}__d"))
    stats = df.agg(*aggs).collect()[0]
    total = stats["__total"]
    ranked = (
        df.unpivot(ids=[], values=columns,
                   variableColumnName="__col", valueColumnName="__val")
        .where(F.col("__val").isNotNull())
        .groupBy("__col", "__val")
        .agg(F.count(F.lit(1)).alias("__cnt"))
        .withColumn("__rn", F.row_number().over(
            Window.partitionBy("__col")
            .orderBy(F.desc("__cnt"), F.asc("__val"))))
        .where(F.col("__rn") <= top_k)
        .collect()
    )
    tops: dict[str, list[tuple[str, int]]] = {c: [] for c in columns}
    for r in sorted(ranked, key=lambda r: (r["__col"], r["__rn"])):
        tops[r["__col"]].append((r["__val"], r["__cnt"]))
    return {
        c: ColumnProfile(
            name=c,
            total=total,
            nulls=total - stats[f"{c}__nn"],
            n_distinct=stats[f"{c}__d"],
            top_values=tuple(tops[c]),
        )
        for c in columns
    }


@pytest.fixture(scope="module")
def toy(spark):
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(10)],
        "city": ["Birmingham"] * 5 + ["Boston"] * 3 + ["Boaz", None],
        "score": ["85.0", "90.0", "85.0", "150.0", None,
                  "85.0", "90.0", "85.0", "85.0", "90.0"],
        "mixed": ["5", "x", "7", "9", "9", "9", "2", "1", "3", "4"],
    })
    return pdf, to_spark_strings(spark, pdf)


def test_profile_column_counts(toy):
    _pdf, df = toy
    p = profile_table(df, ["city"])["city"]
    assert p.total == 10 and p.nulls == 1 and p.n_distinct == 3
    assert p.top_values[0] == ("Birmingham", 5)
    assert p.top_values[1] == ("Boston", 3)
    assert p.non_null == 9
    assert p.unique_ratio == pytest.approx(3 / 9)


def test_profile_column_top_k(toy, monkeypatch):
    _pdf, df = toy
    monkeypatch.setattr(column_profile, "TOP_K", 2)
    p = profile_table(df, ["mixed"])["mixed"]
    assert len(p.top_values) == 2
    assert p.top_values[0] == ("9", 3)


def test_profile_column_deterministic_tiebreak(toy):
    _pdf, df = toy
    p = profile_table(df, ["mixed"])["mixed"]
    singles = [v for v, c in p.top_values if c == 1]
    assert singles == sorted(singles)  # value-ordered among equal counts


def test_profile_table_matches_per_column(toy):
    _pdf, df = toy
    profs = profile_table(df, ["city", "score", "mixed"])
    for col in ("city", "score", "mixed"):
        single = _profile_column(df, col, top_k=column_profile.TOP_K)
        assert profs[col] == single, col


@pytest.mark.parametrize("top_k", [5000, 3])
@pytest.mark.parametrize(
    "name", ["hospital", "flights", "beers", "rayyan", "movies"])
def test_profile_table_matches_reference_on_benchmarks(spark, monkeypatch,
                                                       name, top_k):
    """``top_k=3`` truncates inside runs of equal counts."""
    df = load(name).spark_dirty(spark)
    cols = [c for c in df.columns if c != "row_id"]
    monkeypatch.setattr(column_profile, "TOP_K", top_k)
    assert (profile_table(df, cols)
            == _profile_table_reference(df, cols, top_k=top_k))


@pytest.mark.parametrize("values, top_k", [
    pytest.param([None] * 4, 10, id="all-null"),
    pytest.param([None] * 5 + ["b", "b", "a", "c"], 2,
                 id="null-most-frequent"),
    pytest.param([], 10, id="no-rows"),
    pytest.param(["a", "b", "b", None], 0, id="top-k-0"),
    # code-point (and UTF-8) order is z < é < Ａ < 😀; UTF-16 order puts
    # the surrogate pair of 😀 before Ａ
    pytest.param(["😀", "Ａ", "é", "z"] * 2 + ["q"], 3, id="unicode-ties"),
])
def test_profile_table_edge_cases(spark, monkeypatch, values, top_k):
    df = spark.createDataFrame([(v,) for v in values], "v string")
    monkeypatch.setattr(column_profile, "TOP_K", top_k)
    assert (profile_table(df, ["v"])["v"]
            == _profile_column(df, "v", top_k=top_k))


def test_profile_table_runs_one_spark_action(toy, monkeypatch):
    from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

    actions = []
    for name in ("collect", "toPandas", "count"):
        def counted(self, *args, _name=name,
                    _orig=getattr(ClassicDataFrame, name), **kwargs):
            actions.append(_name)
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(ClassicDataFrame, name, counted)
    _pdf, df = toy
    profile_table(df, ["city", "score", "mixed"])
    assert len(actions) == 1, actions


def _cube_rows(df: DataFrame, cols: list[str]):
    """The driver derivation of the row statistics, as the pipeline
    makes it: :func:`profile_cube_rows` of the columns' value cube."""
    return profile_cube_rows(fd.value_cube(df, cols))


def test_duplicate_rows(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2", "3"],
        "a": ["x", "x", "x", "y"],
        "b": ["1", "1", "2", "2"],
    })
    df = to_spark_strings(spark, pdf)
    _, repeated = _cube_rows(df, ["a", "b"])
    surplus, samples = duplicate_rows(repeated, ["a", "b"])
    assert surplus == 1
    assert samples == ["a='x', b='1' (x2)"]
    _, repeated = _cube_rows(df, df.columns)  # row_id makes rows unique
    assert repeated == [] and duplicate_rows(repeated, df.columns) == (0, [])


def _assert_rows_match_reference(df, cols):
    """The value cube's row statistics against Spark's: the profiles
    equal ``profile_table``'s, the repeated rows equal the ``to_json``
    row profile's byte for byte, and the samples are the most repeated
    rows of the ``groupBy`` duplicate count, ties ordered by key."""
    cube = fd.value_cube(df, cols)
    profs, repeated = profile_cube_rows(cube)
    want_profs, want_repeated = reference_stats.profile_rows(df, cols)
    assert profile_cube(cube) == profile_table(df, cols)
    assert profs == want_profs == {c: replace(p, top_values=())
                                   for c, p in profile_table(df, cols).items()}
    assert sorted(repeated) == sorted(want_repeated)
    surplus, samples = duplicate_rows(repeated, cols)
    want, _ = reference_stats.duplicate_rows(df, subset=cols)
    _, every = reference_stats.duplicate_rows(df, subset=cols,
                                              sample=len(repeated))
    assert surplus == want
    assert len(samples) == min(5, len(every)) and set(samples) <= set(every)
    ranked = sorted(repeated, key=lambda kn: (-kn[1], kn[0]))
    assert [s.rsplit(" (x", 1)[1] for s in samples] == [
        f"{n})" for _, n in ranked[:5]]
    return surplus


@pytest.mark.parametrize(
    "name", ["hospital", "flights", "beers", "rayyan", "movies"])
def test_profile_rows_matches_reference_on_benchmarks(spark, name):
    df = load(name).spark_dirty(spark)
    _assert_rows_match_reference(df, [c for c in df.columns
                                      if c != "row_id"])


def test_profile_rows_matches_reference_with_duplicates(spark, monkeypatch):
    # 7 rows repeated twice (ties), one three times, NULLs inside keys,
    # a column named like the count and one named like the row key
    rows = [(f"v{i % 8}", None if i % 8 == 3 else "n", str(i % 2))
            for i in range(16)] + [("v0", "n", "0")] + [
        (f"u{i}", "n", "1") for i in range(4)]
    df = spark.createDataFrame(rows, "count string, __row string, c string")
    cols = ["count", "__row", "c"]
    assert _assert_rows_match_reference(df, cols) == 9
    _, samples = duplicate_rows(_cube_rows(df, cols)[1], cols)
    assert samples[:2] == ["count='v0', __row='n', c='0' (x3)",
                           "count='v1', __row='n', c='1' (x2)"]
    monkeypatch.setattr(column_profile, "SAMPLE_ROWS", 10)
    assert "count='v3', __row=None, c='1' (x2)" in duplicate_rows(
        _cube_rows(df, cols)[1], cols)[1]


@pytest.mark.parametrize("rows", [
    pytest.param([(None, "a"), (None, "a"), (None, "b")], id="all-null"),
    pytest.param([], id="no-rows"),
    # every character to_json escapes, and some it leaves alone
    pytest.param([(v, "\x1f\\") for v in ('"q', "\b\x0b\x7f", "é😀",
                                          '"q', None, None, "", "\x00")],
                 id="json-escapes"),
])
def test_profile_rows_edge_cases(spark, rows):
    df = spark.createDataFrame(rows, "v string, w string")
    _assert_rows_match_reference(df, ["v", "w"])


def test_unique_ratio(toy):
    _pdf, df = toy
    empty = df.withColumn("empty", F.lit(None).cast("string"))
    profs = profile_table(empty, ["city", "row_id", "empty"])
    assert {c: p.unique_ratio for c, p in profs.items()} == {
        "city": pytest.approx(3 / 9), "row_id": 1.0, "empty": 0.0}
