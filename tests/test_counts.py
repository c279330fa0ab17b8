"""Frequency-vector bookkeeping between pipeline steps."""
import pandas as pd

from repro.core.counts import fold, fold_counts, fold_cube
from repro.core.sql_emit import Layer, build_sql, fold_layers
from repro.profiling import fd
from tests import reference_stats


# fold_counts: a rewriting map merges counts, a nulling map removes values

def test_apply_mapping_merges_counts():
    counts = (("eng", 400), ("English", 90), ("fre", 10))
    out = fold_counts(counts, {"English": "eng"})
    assert out == (("eng", 490), ("fre", 10))


def test_apply_mapping_empty_is_identity():
    counts = (("a", 1),)
    assert fold_counts(counts, {}) == counts


def test_apply_mapping_reorders_by_count_then_value():
    counts = (("b", 5), ("a", 5), ("c", 1))
    out = fold_counts(counts, {"c": "a"})
    assert out == (("a", 6), ("b", 5))


def test_remove_values():
    counts = (("a", 5), ("N/A", 2), ("b", 1))
    assert fold_counts(counts, {"N/A": None}) == (("a", 5), ("b", 1))


def test_remove_values_absent_noop():
    counts = (("a", 5),)
    assert fold_counts(counts, {"zz": None}) == counts


def test_fold_is_one_lookup_per_layer():
    # a CASE layer does not chain its own branches
    assert fold("a", {"a": "b", "b": "c"}) == "b"
    assert fold("z", {"a": "b"}) == "z"


def test_fold_null_stays_null():
    assert fold("N/A", {"N/A": None}) is None
    assert fold(None, {None: "x"}) is None


def test_fold_cube_of_no_rows():
    cube = fd.Cube.of(reference_stats.string_table(
        pd.DataFrame({"a": pd.Series([], dtype=object)})))
    assert fold_cube(cube, {"a": {"x": "y"}}).codes.shape == (0, 1)


def test_folded_joint_equals_sql_groupby(spark):
    """A DMV-nulled value drops its row from the pair's joint counts,
    and merged renderings add up, exactly as over the cleaning SQL."""
    rows = [("35233", "Birmingham"), ("35233", "B'ham"), ("35233", "N/A"),
            ("35233.0", "Birmingham"), ("10001", "N/A"), ("10001", None),
            (None, "NYC"), ("10001", "NYC")]
    df = spark.createDataFrame(rows, "zip string, city string")
    df.createOrReplaceTempView("fold_src")
    layers = [
        Layer("l0", {"city": {"B'ham": "Birmingham"},
                     "zip": {"35233.0": "35233"}}),
        Layer("l1", {"city": {"N/A": None}}),
    ]
    want = {
        (r["zip"], r["city"]): r["count"]
        for r in spark.sql(build_sql("fold_src", layers, ["zip", "city"]))
        .dropna().groupBy("zip", "city").count().collect()
    }
    cube = fd.value_cube(df, ["zip", "city"])
    (joint,) = fd.pair_joints(fold_layers(cube, layers), [("zip", "city")])
    assert {(a, b): c for a, b, c in joint.tuples()} == want == {
        ("35233", "Birmingham"): 3, ("10001", "NYC"): 1}
    spark.catalog.dropTempView("fold_src")
