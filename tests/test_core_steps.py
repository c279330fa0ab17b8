"""Unit tests for the per-issue core step modules (no Spark needed for
the per-column ones — they consume frequency vectors)."""
from repro.core import StepReport
from repro.core.column_type import clean_column_type
from repro.core.dmv import clean_dmv
from repro.core.numeric_outliers import clean_numeric_outliers
from repro.core.pattern_outliers import clean_pattern_outliers
from repro.core.string_outliers import clean_string_outliers
from repro.core.uniqueness import clean_uniqueness
from repro.llm import SimulatedLLM


LLM = SimulatedLLM()


# ---------------------------------------------------------------------------
# string outliers
# ---------------------------------------------------------------------------

def test_string_outliers_basic():
    llm = SimulatedLLM()
    counts = [("eng", 400), ("English", 90)]
    r = clean_string_outliers("lang", counts, llm)
    assert r.detected and r.values == {"English": "eng"}
    assert r.summary == "mapped 1 values" and r.comment
    assert llm.calls == 2  # detection + cleaning prompts


def test_string_outliers_clean_column():
    llm = SimulatedLLM()
    r = clean_string_outliers("lang", [("eng", 400), ("fre", 90)], llm)
    assert not r.detected and not r.values and llm.calls == 1


def test_string_outliers_batching_uses_global_context():
    # the typo sits in the second batch; its donor is in the first
    counts = [("Birmingham", 500)] + [(f"city{i:04d}", 2) for i in range(999)]
    counts += [("Birminghxm", 1)]
    r = clean_string_outliers("city", counts, LLM)
    assert r.values == {"Birminghxm": "Birmingham"}


def test_string_outliers_batch_count():
    llm = SimulatedLLM()
    counts = [(f"w{i:05d}", 1) for i in range(2500)]
    clean_string_outliers("c", counts, llm)
    assert llm.calls == 3  # one detection review per 1000-value batch


def test_string_outliers_chain_collapse():
    class ChainLLM(SimulatedLLM):
        def map_string_outliers(self, column, unusual, frequent):
            m = super().map_string_outliers(column, unusual, frequent)
            object.__setattr__(m, "mapping", {"a": "b", "b": "c"})
            return m

        def review_string_outliers(self, column, values):
            r = super().review_string_outliers(column, values)
            object.__setattr__(r, "unusual", True)
            object.__setattr__(r, "unusual_values", ("a", "b"))
            return r

    r = clean_string_outliers("c", [("a", 1), ("b", 2), ("c", 90)], ChainLLM())
    assert r.values == {"a": "c", "b": "c"}


# ---------------------------------------------------------------------------
# pattern / dmv / type / numeric
# ---------------------------------------------------------------------------

def test_pattern_outliers_step():
    r = clean_pattern_outliers(
        "t", [("7:10 a.m.", 11), ("7:10 a.m.x", 1)], LLM)
    assert r.detected and r.values == {"7:10 a.m.x": "7:10 a.m."}


def test_dmv_step():
    r = clean_dmv("county", [("Jefferson", 9), ("N/A", 1)], LLM)
    assert r.detected and r.values == {"N/A": None}


def test_column_type_step():
    r = clean_column_type("flag", [("yes", 6), ("no", 4)], LLM, n_distinct=2)
    assert r.detected and r.values == {"yes": "True", "no": "False"}
    assert r.summary == "cast to BOOLEAN (2 values rewritten)"
    assert r.comment.startswith("CAST AS BOOLEAN -- ")


def test_column_type_skipped_without_full_coverage():
    llm = SimulatedLLM()
    r = clean_column_type("flag", [("yes", 6)], llm, n_distinct=99)
    assert not r.detected and not r.values and llm.calls == 0


def test_numeric_outliers_step():
    counts = [("85.0", 10), ("90.0", 5), ("150.0", 1)]
    r = clean_numeric_outliers("score", counts, LLM, n_distinct=3)
    assert r.detected and r.values == {"150.0": None}
    assert r.summary == "nulled out-of-range values ['150.0']"


def test_numeric_outliers_skips_textual_column():
    llm = SimulatedLLM()
    r = clean_numeric_outliers(
        "city", [("Boston", 9), ("5", 1)], llm, n_distinct=2)
    assert not r.detected and llm.calls == 0


def test_numeric_outliers_skips_partial_coverage():
    llm = SimulatedLLM()
    r = clean_numeric_outliers(
        "score", [("85.0", 10)], llm, n_distinct=1000)
    assert not r.detected and llm.calls == 0


# ---------------------------------------------------------------------------
# uniqueness (pure planning; window emission covered in sql tests)
# ---------------------------------------------------------------------------

def test_uniqueness_plans_for_near_unique_key():
    r = clean_uniqueness(["order_id", "updated_time"],
                         {"order_id": 0.99, "updated_time": 0.5}, LLM)
    (layer,) = r.layers
    assert (layer.name, layer.decision) == ("clean_uniqueness_order_id", {})
    assert layer.key_cols == ["order_id"]
    # the dedupe keeps the row with the largest (latest) order column,
    # ties broken by row_id
    assert layer.order_col == "updated_time"
    assert "ORDER BY updated_time DESC, row_id)" in layer.render(
        "t", ["row_id", "order_id", "updated_time"])
    assert r.steps == (StepReport(
        "uniqueness", "order_id", True,
        "deduplicated on order_id keeping latest updated_time"),)


def test_uniqueness_ignores_exactly_unique_and_low_ratio():
    llm = SimulatedLLM()
    # an all-NULL column has ratio 0.0
    r = clean_uniqueness(["order_id", "city", "notes"],
                         {"order_id": 1.0, "city": 0.2, "notes": 0.0}, llm)
    assert r.layers == () and llm.calls == 0
    assert r.steps == (StepReport(
        "uniqueness", None, False,
        "no should-be-unique column with duplicates"),)
