"""Cocoon pipeline integration tests on a crafted toy table.

Every error class from §2.1 is present once; the test asserts the
cleaned values AND (via the DuckDB oracle) that the emitted SQL is
engine-portable: the same text produces the same table on DuckDB.
"""
import pandas as pd
import pytest

from repro.benchdata.base import to_spark_strings
from repro.core import CocoonPipeline
from repro.llm import SimulatedLLM
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def toy_pdf():
    n = 40
    rows = []
    for i in range(n):
        rows.append({
            "row_id": str(i),
            # string outliers: language inconsistency + a city typo
            "language": "English" if i == 0 else "eng",
            "city": "Birminghxm" if i == 1 else "Birmingham",
            # DMV + numeric outlier + column type (percent)
            "score": {2: "N/A", 3: "150%"}.get(i, f"{60 + i % 30}%"),
            # column type: boolean
            "flag": "yes" if i % 3 else "no",
            # FD zip -> county with one violation
            "zip": "35233" if i < 20 else "10001",
            "county": ("Kings" if i == 4 else
                       ("Jefferson" if i < 20 else "Queens")),
        })
    return pd.DataFrame(rows).astype(object)


@pytest.fixture(scope="module")
def report(spark, toy_pdf):
    pipe = CocoonPipeline(SimulatedLLM())
    return pipe.clean(to_spark_strings(spark, toy_pdf), "toy")


@pytest.fixture(scope="module")
def cleaned_pdf(report):
    return (report.cleaned.toPandas().astype(object)
            .sort_values("row_id").set_index("row_id"))


def test_string_outliers_cleaned(cleaned_pdf):
    assert cleaned_pdf.at["0", "language"] == "eng"
    assert cleaned_pdf.at["1", "city"] == "Birmingham"


def test_dmv_nulled(cleaned_pdf):
    assert cleaned_pdf.at["2", "score"] is None


def test_column_type_canonicalized(cleaned_pdf):
    assert cleaned_pdf.at["5", "score"] == "65.0"
    assert set(cleaned_pdf["flag"].unique()) == {"True", "False"}


def test_numeric_outlier_nulled(cleaned_pdf):
    assert cleaned_pdf.at["3", "score"] is None


def test_fd_violation_repaired(cleaned_pdf):
    assert cleaned_pdf.at["4", "county"] == "Jefferson"


def test_untouched_cells_survive(cleaned_pdf, toy_pdf):
    orig = toy_pdf.set_index("row_id")
    assert (cleaned_pdf["zip"].sort_index() == orig["zip"].sort_index()).all()
    assert cleaned_pdf.at["10", "city"] == "Birmingham"


def test_sql_artifact_is_commented(report):
    assert report.sql.startswith("WITH ")
    assert "--" in report.sql
    assert "CASE" in report.sql


def test_step_reports_cover_all_steps(report):
    steps = {s.step for s in report.steps}
    assert {"string_outliers", "pattern_outliers", "dmv", "column_type",
            "numeric_outliers", "functional_dependency", "misplacement",
            "duplication", "uniqueness"} <= steps
    assert report.llm_calls > 0


def test_oracle_sql_equivalence(spark, report, toy_pdf):
    """The emitted SQL runs identically on Spark and DuckDB."""
    assert_equivalent(report.cleaned, report.sql, cocoon_toy=toy_pdf)


def test_clean_table_produces_no_changes(spark):
    """A clean table passes through the whole pipeline untouched."""
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(30)],
        "city": ["Birmingham" if i % 2 else "Boston" for i in range(30)],
        "score": [f"{60 + i}.0" for i in range(30)],
        "zip": ["35233" if i % 2 else "10001" for i in range(30)],
    }).astype(object)
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, pdf), "pristine")
    out = (rep.cleaned.toPandas().astype(object)
           .sort_values("row_id", key=lambda s: s.astype(int)))
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), pdf.reset_index(drop=True))


def test_duplication_and_uniqueness(spark):
    # 21 rows, one duplicated key -> unique ratio 20/21 ~ 0.952, inside
    # the [0.95, 1.0) statistical pre-filter of §2.1.8
    n = 21
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(n)],
        "order_id": ["O00" if i == 20 else f"O{i:02d}" for i in range(n)],
        "updated_time": [f"2020-01-{i + 1:02d}" for i in range(n)],
        "amount": [f"{i}.0" for i in range(n)],
    }).astype(object)
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, pdf), "orders")
    out = rep.cleaned.toPandas()
    # order_id should be unique; the later updated_time row wins
    assert len(out) == n - 1
    assert out["order_id"].is_unique
    kept = out.set_index("order_id").at["O00", "updated_time"]
    assert kept == "2020-01-21"  # latest record kept


def test_exact_duplicate_rows_removed(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2"],
        "a": ["x", "x", "y"],
        "b": ["1", "1", "2"],
    }).astype(object)
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, pdf), "dupes")
    out = rep.cleaned.toPandas().sort_values("row_id")
    assert list(out["row_id"]) == ["0", "2"]


def test_numeric_step_skips_column_the_type_step_merged(spark):
    """The numeric step sees the distinct count taken before the type
    step, so a column whose renderings the type step folds together (as
    Movies ``duration``) gets no range review."""
    class RangeLog(SimulatedLLM):
        def __init__(self):
            super().__init__()
            self.reviewed: list[str] = []

        def review_numeric_range(self, column, lo, hi):
            self.reviewed.append(column)
            return super().review_numeric_range(column, lo, hi)

    minutes = [90, 100, 110, 130]
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(40)],
        # "1 hour 40 min" and "100 min" both become "100.0"
        "duration": [f"{m // 60} hour {m % 60} min" if i // 4 % 2
                     else f"{m} min" for i, m in enumerate(minutes * 10)],
        # one rendering per value: the type step rewrites, merges nothing
        "runtime": [f"{m} min" for m in minutes * 10],
    }).astype(object)
    llm = RangeLog()
    rep = CocoonPipeline(llm).clean(to_spark_strings(spark, pdf), "durations")
    typed = {s.column for s in rep.steps
             if s.step == "column_type" and s.detected}
    assert typed == {"duration", "runtime"}
    assert llm.reviewed == ["runtime"]


def test_misplacement_swap(spark):
    rows = []
    for i in range(30):
        rows.append({
            "row_id": str(i),
            "language": "USA" if i < 5 else "eng",
            "country": "eng" if i < 5 else "USA",
        })
    pdf = pd.DataFrame(rows).astype(object)
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, pdf), "swapped")
    out = rep.cleaned.toPandas().set_index("row_id")
    assert (out["language"] == "eng").all()
    assert (out["country"] == "USA").all()
