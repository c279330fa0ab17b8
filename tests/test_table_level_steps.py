"""Direct tests for the table-level core steps (duplication,
misplacement) that need a Spark frame. Each returns a ``TableOutcome``:
the finished SQL layers and the step reports the pipeline appends."""
import pandas as pd
import pytest

from repro.benchdata.base import to_spark_strings
from repro.core import StepReport
from repro.core.duplication import clean_duplication
from repro.core.misplacement import _dominant_domain, clean_misplacement
from repro.llm import SimulatedLLM

LLM = SimulatedLLM()


# ---------------------------------------------------------------------------
# duplication (§2.1.7)
# ---------------------------------------------------------------------------

def test_duplication_detected_and_deduped(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2"],
        "a": ["x", "x", "y"], "b": ["1", "1", "2"],
    }).astype(object)
    r = clean_duplication(to_spark_strings(spark, pdf), "orders",
                          ["a", "b"], LLM)
    (layer,) = r.layers
    assert layer.kind == "window_dedupe"
    assert (layer.key_cols, layer.order_col) == (["a", "b"], "row_id")
    assert not layer.order_desc
    assert r.steps == (StepReport("duplication", None, True,
                                  "1 surplus duplicate rows; removed"),)


def test_duplication_acceptable_for_log_tables(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1"],
        "a": ["x", "x"], "b": ["1", "1"],
    }).astype(object)
    r = clean_duplication(to_spark_strings(spark, pdf), "sensor_log",
                          ["a", "b"], LLM)
    assert r.layers == ()
    assert r.steps == (StepReport("duplication", None, True,
                                  "1 surplus duplicate rows; acceptable"),)


def test_duplication_none(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1"], "a": ["x", "y"], "b": ["1", "1"],
    }).astype(object)
    llm = SimulatedLLM()
    r = clean_duplication(to_spark_strings(spark, pdf), "t", ["a", "b"], llm)
    assert r.layers == () and llm.calls == 0
    assert r.steps == (StepReport("duplication", None, False,
                                  "no duplicate rows"),)


# ---------------------------------------------------------------------------
# misplacement domain inference
# ---------------------------------------------------------------------------

def test_dominant_domain_pure_column():
    counts = (("eng", 400), ("fre", 100))
    assert _dominant_domain(counts) == "language"


def test_dominant_domain_with_minority_pollution():
    counts = (("English", 400), ("USA", 40))
    assert _dominant_domain(counts) == "language"


def test_dominant_domain_unclassifiable():
    assert _dominant_domain((("widget", 10), ("gadget", 5))) is None


def test_dominant_domain_mixed_no_purity():
    counts = (("eng", 100), ("USA", 100))
    assert _dominant_domain(counts) is None


def test_clean_misplacement_detects_swapped_pair(spark):
    rows = [{"row_id": str(i),
             "language": "USA" if i < 5 else "eng",
             "country": "eng" if i < 5 else "USA",
             "other": "zzz"} for i in range(30)]
    pdf = pd.DataFrame(rows).astype(object)
    df = to_spark_strings(spark, pdf)
    counts = {
        "language": (("eng", 25), ("USA", 5)),
        "country": (("USA", 25), ("eng", 5)),
        "other": (("zzz", 30),),
    }
    r = clean_misplacement(df, counts, LLM)
    (layer,) = r.layers
    assert layer.kind == "project" and layer.name == "clean_misplacement_0"
    cond = "country IN ('eng') AND language IN ('USA')"
    assert layer.exprs == {
        "country": f"CASE WHEN {cond} THEN language ELSE country END",
        "language": f"CASE WHEN {cond} THEN country ELSE language END",
    }
    assert r.steps == (StepReport("misplacement", "country/language", True,
                                  "swapped 5 misplaced value pairs"),)


def test_clean_misplacement_requires_row_cooccurrence(spark):
    # offending values never co-occur in the same row -> no swap
    rows = [{"row_id": str(i),
             "language": "USA" if i < 2 else "eng",
             "country": "eng" if i >= 28 else "USA"} for i in range(30)]
    pdf = pd.DataFrame(rows).astype(object)
    counts = {
        "language": (("eng", 28), ("USA", 2)),
        "country": (("USA", 28), ("eng", 2)),
    }
    r = clean_misplacement(to_spark_strings(spark, pdf), counts, LLM)
    assert r.layers == ()
    assert r.steps == (StepReport("misplacement", None, False,
                                  "no misplaced columns"),)


def test_clean_misplacement_skips_swap_sharing_a_column(spark):
    # rows 0-4 swap language<->country, rows 5-9 swap country<->state:
    # both pairs are reviewed, only the first swap is emitted
    def row(i):
        if i < 5:
            return ("USA", "eng", "Texas")
        if i < 10:
            return ("eng", "Texas", "USA")
        return ("eng", "USA", "Texas")

    rows = [dict(zip(("row_id", "language", "country", "state"),
                     (str(i),) + row(i))) for i in range(60)]
    counts = {
        "language": (("eng", 55), ("USA", 5)),
        "country": (("USA", 50), ("eng", 5), ("Texas", 5)),
        "state": (("Texas", 55), ("USA", 5)),
    }
    llm = SimulatedLLM()
    r = clean_misplacement(to_spark_strings(spark, pd.DataFrame(rows)),
                           counts, llm)
    assert llm.calls == 2
    (layer,) = r.layers
    assert set(layer.exprs) == {"country", "language"}
    cond = "country IN ('eng') AND language IN ('USA')"
    assert cond in layer.exprs["country"]
    assert r.steps == (StepReport("misplacement", "country/language", True,
                                  "swapped 5 misplaced value pairs"),)
