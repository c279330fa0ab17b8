"""Profiling substrate vs. pandas ground truth (Spark aggregations)."""
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.benchdata.base import to_spark_strings
from repro.profiling import (
    ColumnProfile,
    duplicate_rows,
    profile_table,
    unique_ratios,
)


def _profile_column(df: DataFrame, column: str, *,
                    top_k: int) -> ColumnProfile:
    """Reference profile of one column: a plain count aggregation and a
    grouped top-K, independent of ``profile_table``'s unpivot/window."""
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


def test_profile_column_top_k(toy):
    _pdf, df = toy
    p = profile_table(df, ["mixed"], top_k=2)["mixed"]
    assert len(p.top_values) == 2
    assert p.top_values[0] == ("9", 3)


def test_profile_column_deterministic_tiebreak(toy):
    _pdf, df = toy
    p = profile_table(df, ["mixed"])["mixed"]
    singles = [v for v, c in p.top_values if c == 1]
    assert singles == sorted(singles)  # value-ordered among equal counts


def test_profile_table_matches_per_column(toy):
    _pdf, df = toy
    profs = profile_table(df, ["city", "score", "mixed"], top_k=100)
    for col in ("city", "score", "mixed"):
        single = _profile_column(df, col, top_k=100)
        assert profs[col] == single, col


def test_duplicate_rows(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2", "3"],
        "a": ["x", "x", "x", "y"],
        "b": ["1", "1", "2", "2"],
    })
    df = to_spark_strings(spark, pdf)
    surplus, samples = duplicate_rows(df, subset=["a", "b"])
    assert surplus == 1
    assert len(samples) == 1 and "x" in samples[0]
    no_dupes, _ = duplicate_rows(df)  # row_id makes rows unique
    assert no_dupes == 0


def test_unique_ratio(toy):
    _pdf, df = toy
    empty = df.withColumn("empty", F.lit(None).cast("string"))
    ratios = unique_ratios(empty, ["city", "row_id", "empty"])
    assert ratios == {"city": pytest.approx(3 / 9), "row_id": 1.0,
                      "empty": 1.0}
