"""Baseline mechanisms: each preserves its paper-measured trait."""
import pandas as pd
import pytest

from repro.baselines import (
    cleanagent_clean,
    holoclean_clean,
    raha_baran_clean,
    retclean_clean,
)
from repro.baselines import raha_baran
from repro.baselines.holoclean import CONSTRAINTS
from repro.benchdata import load
from repro.benchdata.base import Benchmark, to_spark_strings


# ---------------------------------------------------------------------------
# HoloClean
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fd_pdf():
    rows = []
    for i in range(20):
        rows.append({"row_id": str(i), "zip": "35233",
                     "city": "Tucson" if i < 2 else "Birmingham",
                     "ounces": "12 ounce" if i < 5 else "12.0 oz"})
    return pd.DataFrame(rows).astype(object)


def test_holoclean_repairs_constraint_violations(spark, fd_pdf):
    df = to_spark_strings(spark, fd_pdf)
    out = holoclean_clean(df, [("zip", "city")]).toPandas()
    assert set(out["city"]) == {"Birmingham"}


def test_holoclean_blind_to_inconsistency(spark, fd_pdf):
    """The defining trait: errors outside the constraints are invisible."""
    df = to_spark_strings(spark, fd_pdf)
    out = holoclean_clean(df, [("zip", "city")]).toPandas()
    assert (out["ounces"] == fd_pdf["ounces"]).all()


def test_holoclean_tau_blocks_weak_majorities(spark):
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(12)],
        "flight": ["F1"] * 12,
        "t": ["10:30"] * 5 + ["10:31"] * 4 + ["10:28"] * 2 + ["10:39"] * 1,
    }).astype(object)
    df = to_spark_strings(spark, pdf)
    out = holoclean_clean(df, [("flight", "t")]).toPandas()
    assert sorted(out["t"]) == sorted(pdf["t"])  # 5/12 < TAU: untouched


def test_holoclean_preserves_nulls(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2", "3"],
        "zip": ["1"] * 4,
        "city": ["A", "A", "B", None],
    }).astype(object)
    out = holoclean_clean(to_spark_strings(spark, pdf),
                          [("zip", "city")]).toPandas()
    vals = out.sort_values("row_id")["city"].tolist()
    assert vals[:3] == ["A", "A", "A"] and pd.isna(vals[3])


def test_holoclean_max_rows_scopes_repairs(spark, fd_pdf):
    df = to_spark_strings(spark, fd_pdf)
    out = holoclean_clean(df, [("zip", "city")], max_rows=1).toPandas()
    out = out.sort_values("row_id", key=lambda s: s.astype(int))
    assert list(out["city"][:2]) == ["Tucson", "Tucson"]  # row 1 out of scope
    assert len(out) == len(fd_pdf)


def test_holoclean_constraints_registry_covers_all_datasets():
    assert set(CONSTRAINTS) == {"hospital", "flights", "beers", "rayyan",
                                "movies"}
    assert CONSTRAINTS["movies"] == []


# ---------------------------------------------------------------------------
# Raha + Baran
# ---------------------------------------------------------------------------

def _mini_bench() -> Benchmark:
    rows = []
    for i in range(40):
        rows.append({
            "row_id": str(i),
            "flag": "yes" if i % 2 else "no",
            "style": "Amber Ale" if i % 4 else "Pale Lager",
            "zip": "35233" if i < 20 else "10001",
            "city": "Birmingham" if i < 20 else "NYC",
        })
    truth = pd.DataFrame(rows).astype(object)
    dirty = truth.copy()
    dirty.at[0, "style"] = "Ambxr Ale"     # typo with frequent donor
    dirty.at[1, "city"] = "Boston"         # FD violation
    truth_c = truth.copy()
    truth_c["flag"] = truth_c["flag"].map(
        lambda v: "True" if v == "yes" else "False")
    mask = pd.DataFrame(
        [("0", "style", "typo"), ("1", "city", "fd")]
        + [(str(i), "flag", "column_type") for i in range(40)],
        columns=["row_id", "column", "error_type"])
    return Benchmark(name="mini", dirty=dirty, clean=truth_c, mask=mask)


def test_raha_baran_models(spark):
    b = _mini_bench()
    out = (raha_baran_clean(b, to_spark_strings(spark, b.dirty))
           .toPandas().set_index("row_id"))
    # domain model: typo mapped to its frequent donor
    assert out.at["0", "style"] == "Amber Ale"
    # vicinity model: FD violation repaired to the group mode
    assert out.at["1", "city"] == "Birmingham"
    # value model: the yes->True token rule learned from labeled cells
    # (labels are dominated by the 40 column_type cells)
    assert set(out["flag"]) == {"True", "False"}


def test_raha_baran_cannot_fix_open_vocabulary_typos(spark, monkeypatch):
    """The Rayyan trait: unique texts have no donor and no rule."""
    rows = [{"row_id": str(i), "title": f"unique text number {i}",
             "k": "a" if i % 2 else "b"} for i in range(30)]
    truth = pd.DataFrame(rows).astype(object)
    dirty = truth.copy()
    dirty.at[0, "title"] = "unqiue text number 0"
    mask = pd.DataFrame([("0", "title", "typo")],
                        columns=["row_id", "column", "error_type"])
    b = Benchmark(name="texts", dirty=dirty, clean=truth, mask=mask)
    # no labels: without a labeled example of this exact typo there is
    # no rule, no donor (every title is unique) and no FD group
    monkeypatch.setattr(raha_baran, "N_LABELS", 0)
    out = (raha_baran_clean(b, to_spark_strings(spark, b.dirty))
           .toPandas().set_index("row_id"))
    assert out.at["0", "title"] == "unqiue text number 0"  # unfixed


def test_raha_baran_is_deterministic(spark):
    b = load("rayyan")
    df = b.spark_dirty(spark)
    a = raha_baran_clean(b, df).toPandas().sort_values("row_id")
    c = raha_baran_clean(b, df).toPandas().sort_values("row_id")
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  c.reset_index(drop=True))


def test_raha_baran_plans_with_one_spark_action(spark, monkeypatch):
    """One value cube of the input serves the profiles and the FD
    statistics: one ``toPandas``, nothing cached, each content column's
    rows coded once, and the only statement handed to Spark is the
    final one."""
    from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

    from repro.profiling import fd

    b = load("hospital")
    df = b.spark_dirty(spark)
    actions, cached, statements, built, coded = [], [], [], [], []
    monkeypatch.setattr(fd, "factorize", lambda values, _orig=(
        fd.factorize): coded.append(len(values)) or _orig(values))
    monkeypatch.setattr(type(spark), "sql", lambda self, sql, _orig=type(
        spark).sql: statements.append(sql) or _orig(self, sql))
    monkeypatch.setattr(raha_baran, "build_sql", lambda *args, _orig=(
        raha_baran.build_sql): built.append(_orig(*args)) or built[-1])
    for name in ("collect", "count", "toPandas", "toArrow", "take", "first",
                 "head", "tail", "isEmpty", "show", "toLocalIterator",
                 "foreach", "foreachPartition"):
        def counted(self, *args, _name=name,
                    _orig=getattr(ClassicDataFrame, name), **kwargs):
            actions.append(_name)
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(ClassicDataFrame, name, counted)
    for name in ("cache", "persist"):
        def kept(self, *args, _orig=getattr(ClassicDataFrame, name),
                 **kwargs):
            cached.append(self)
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(ClassicDataFrame, name, kept)
    raha_baran_clean(b, df)
    assert actions == ["toPandas"]
    assert cached == []
    assert coded.count(len(b.dirty)) == len(df.columns) - 1
    assert len(built) == 1 and statements == built


# ---------------------------------------------------------------------------
# CleanAgent
# ---------------------------------------------------------------------------

def test_cleanagent_standardizes_phones(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1"],
        "phone": ["205-555-0134", "212-555-9999"],
    }).astype(object)
    out = cleanagent_clean(to_spark_strings(spark, pdf)).toPandas()
    assert set(out["phone"]) == {"(205) 555-0134", "(212) 555-9999"}


def test_cleanagent_standardizes_dates_both_ways(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1"],
        "iso": ["2011-12-01", "1999-01-31"],
        "us": ["12/01/2011", "1/31/1999"],
    }).astype(object)
    out = cleanagent_clean(to_spark_strings(spark, pdf)).toPandas()
    assert set(out["iso"]) == {"12/01/2011", "01/31/1999"}
    assert set(out["us"]) == {"2011-12-01", "1999-01-31"}


def test_cleanagent_standardizes_clock_times(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2"],
        "t": ["7:10 a.m.", "10:30 p.m.", "12:05 p.m."],
    }).astype(object)
    out = cleanagent_clean(to_spark_strings(spark, pdf)).toPandas()
    assert set(out["t"]) == {"07:10", "22:30", "12:05"}


def test_cleanagent_measures_every_column_in_one_job(spark, monkeypatch):
    """One ``collect`` decides all columns, and scoping by ``max_rows``
    measures only the rows in scope."""
    from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

    collects = []
    orig = ClassicDataFrame.collect

    def counted(self):
        collects.append(self)
        return orig(self)

    monkeypatch.setattr(ClassicDataFrame, "collect", counted)
    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2"],
        "phone": ["205-555-0134", "212-555-9999", "n/a"],
        "t": ["7:10 a.m.", "x", "y"],
        "city": ["Birmingham", "Boston", "Boaz"],
    }).astype(object)
    cleaned = cleanagent_clean(to_spark_strings(spark, pdf), max_rows=2)
    assert len(collects) == 1
    out = cleaned.toPandas().set_index("row_id")
    assert list(out.loc[["0", "1", "2"], "phone"]) == [
        "(205) 555-0134", "(212) 555-9999", "n/a"]
    assert list(out.loc[["0", "1", "2"], "t"]) == ["7:10 a.m.", "x", "y"]


def test_cleanagent_leaves_plain_text_alone(spark):
    pdf = pd.DataFrame({
        "row_id": ["0", "1"],
        "city": ["Birmingham", "Boston"],
    }).astype(object)
    out = cleanagent_clean(to_spark_strings(spark, pdf)).toPandas()
    assert set(out["city"]) == {"Birmingham", "Boston"}


# ---------------------------------------------------------------------------
# RetClean
# ---------------------------------------------------------------------------

def test_retclean_fixes_typos_in_long_unique_text(spark):
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(12)],
        "title": [f"randomizzed controlled trial of therapy {i}" if i == 0
                  else f"placebo cohort screening outcomes {i}"
                  for i in range(12)],
    }).astype(object)
    out = (retclean_clean(to_spark_strings(spark, pdf))
           .toPandas().set_index("row_id"))
    assert out.at["0", "title"].startswith("randomized controlled")


def test_retclean_ignores_categorical_columns(spark):
    """Without lake tables, repeated short values are out of scope —
    the trait behind its zero scores outside Rayyan."""
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(10)],
        "style": ["Amber Alex" if i == 0 else "Amber Ale" for i in range(10)],
    }).astype(object)
    out = retclean_clean(to_spark_strings(spark, pdf)).toPandas()
    assert "Amber Alex" in set(out["style"])

