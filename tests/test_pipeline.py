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


def test_table_without_content_columns(spark):
    """A table of only ``row_id`` has a value cube with no column: the
    run emits no layer and returns the input rows unchanged, and its
    SQL runs the same on DuckDB."""
    pdf = pd.DataFrame({"row_id": [str(i) for i in range(5)]}).astype(object)
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, pdf), "t")
    assert rep.sql == "SELECT row_id FROM cocoon_t"
    assert sorted(rep.cleaned.toPandas()["row_id"]) == list(pdf["row_id"])
    assert_equivalent(rep.cleaned, rep.sql, cocoon_t=pdf)


@pytest.mark.parametrize("name", ["my-table", "My Table"])
def test_table_name_that_is_not_an_identifier(spark, toy_pdf, name):
    """The view is named from the table name made a SQL identifier."""
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, toy_pdf), name)
    assert rep.view == "cocoon_my_table"
    assert_equivalent(rep.cleaned, rep.sql, cocoon_my_table=toy_pdf)


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


def test_numeric_step_skips_column_the_type_step_merged():
    """The numeric step sees the distinct count taken before the type
    step, so a column whose renderings the type step folds together (as
    Movies ``duration``) gets no range review. Planning needs only the
    table's value cube, no SparkSession."""
    from repro.profiling import fd

    class RangeLog(SimulatedLLM):
        def __init__(self):
            super().__init__()
            self.reviewed: list[str] = []

        def review_numeric_range(self, column, lo, hi):
            self.reviewed.append(column)
            return super().review_numeric_range(column, lo, hi)

    minutes = [90, 100, 110, 130]
    pdf = pd.DataFrame({
        # "1 hour 40 min" and "100 min" both become "100.0"
        "duration": [f"{m // 60} hour {m % 60} min" if i // 4 % 2
                     else f"{m} min" for i, m in enumerate(minutes * 10)],
        # one rendering per value: the type step rewrites, merges nothing
        "runtime": [f"{m} min" for m in minutes * 10],
    }).astype(object)
    llm = RangeLog()
    _, steps = CocoonPipeline(llm).plan(fd.Cube.of(pdf), "durations")
    typed = {s.column for s in steps
             if s.step == "column_type" and s.detected}
    assert typed == {"duration", "runtime"}
    assert llm.reviewed == ["runtime"]


def test_duplicates_removed_without_row_id(spark):
    """A table with no ``row_id`` keeps one row of each duplicated
    content, and DuckDB keeps the same rows."""
    rows = [("x", "1"), ("x", "1"), ("y", "2"), (None, "3"), (None, "3"),
            ("z", None)] + [(f"v{i}", str(i)) for i in range(14)]
    pdf = pd.DataFrame(rows, columns=["a", "b"]).astype(object)
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, pdf), "pairs")
    assert "removed" in [s for s in rep.steps
                         if s.step == "duplication"][0].summary
    out = rep.cleaned.toPandas().astype(object)
    assert len(out) == len(pdf.drop_duplicates()) == 18
    assert_equivalent(rep.cleaned, rep.sql, cocoon_pairs=pdf)


def test_uniqueness_without_row_id_breaks_ties(spark):
    """Without ``row_id`` a should-be-unique key keeps its latest row;
    a tie on the order column is broken by every column, NULLs first,
    and a NULL order value loses, the same way on Spark and DuckDB."""
    n = 38
    rows = [(f"O{i:02d}", f"2020-01-{i % 28 + 1:02d}", f"{i}.0")
            for i in range(n)]
    # O00: a second row with the same time and a NULL amount;
    # O01: a second row with no time
    rows += [("O00", "2020-01-01", None), ("O01", None, "99.0")]
    pdf = pd.DataFrame(rows, columns=["order_id", "updated_time",
                                      "amount"]).astype(object)
    rep = CocoonPipeline(SimulatedLLM()).clean(
        to_spark_strings(spark, pdf), "orders")
    assert [s.summary for s in rep.steps if s.step == "uniqueness"] == [
        "deduplicated on order_id keeping latest updated_time"]
    out = rep.cleaned.toPandas().astype(object).set_index("order_id")
    assert len(out) == n and out.index.is_unique
    assert out.at["O00", "amount"] is None
    assert out.at["O01", "updated_time"] == "2020-01-02"
    assert_equivalent(rep.cleaned, rep.sql, cocoon_orders=pdf)


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


# ---------------------------------------------------------------------------
# planning statistics: folded, counted once, deterministic
# ---------------------------------------------------------------------------

STAGE_A = {f"clean_{n}" for n in ("string_outliers", "pattern_outliers",
                                  "dmv", "column_type", "numeric_outliers")}


@pytest.mark.parametrize(
    "name", ["hospital", "flights", "beers", "rayyan", "movies"])
def test_planning_statistics_match_the_sql(spark, monkeypatch, name):
    """The statistics folded from the input's value cube equal the
    reference statistics of the SQL they stand for: stage A's profiles
    equal the input's ``profile_table``, its folded frequency vectors
    the profile of the stage A SQL (for every column profiled
    exhaustively), stage B's joint counts (misplacement's pairs
    included) a ``groupBy`` over it and its FD candidates the reference
    reduction of those counts, and stage C's unique ratios and repeated
    rows the direct statistics of the stage A+B SQL."""
    import repro.core.pipeline as pipeline
    from repro.benchdata import load
    from repro.core.sql_emit import build_sql
    from repro.profiling import duplicate_rows, fd, profile_table
    from tests import reference_stats

    seen = {}

    def capture(key, fn):
        def wrapper(*args):
            out = fn(*args)
            seen.setdefault(key, (args, out))
            return out
        return wrapper

    monkeypatch.setattr(fd, "pair_joints", capture("joints", fd.pair_joints))
    monkeypatch.setattr(fd, "fd_candidates",
                        capture("cands", fd.fd_candidates))
    monkeypatch.setattr(pipeline, "profile_cube",
                        capture("profile", pipeline.profile_cube))
    monkeypatch.setattr(pipeline, "domain_pairs",
                        capture("freqs", pipeline.domain_pairs))
    monkeypatch.setattr(pipeline, "profile_cube_rows",
                        capture("rows", pipeline.profile_cube_rows))
    monkeypatch.setattr(pipeline, "build_sql",
                        capture("sql", pipeline.build_sql))
    df = load(name).spark_dirty(spark)
    CocoonPipeline(SimulatedLLM()).clean(df, name)

    all_cols = df.columns
    cols = [c for c in all_cols if c != "row_id"]
    view = f"cocoon_{name}"
    (_, pairs), joints = seen["joints"]
    _, (profs, repeated) = seen["rows"]
    (_, layers, _), _ = seen["sql"]
    stage_a = [l for l in layers if l.name in STAGE_A]
    # the dedupe layers of stage C are the only layers with keys
    stage_ab = [l for l in layers if not l.key_cols]
    df_a = spark.sql(build_sql(view, stage_a, all_cols))
    df_c = spark.sql(build_sql(view, stage_ab, all_cols))
    _, profiles = seen["profile"]
    (freqs,), _ = seen["freqs"]
    assert profiles == profile_table(df, cols)
    exhaustive = [c for c in cols
                  if profiles[c].n_distinct <= len(profiles[c].top_values)]
    assert exhaustive
    assert ({c: freqs[c] for c in exhaustive}
            == {c: p.top_values
                for c, p in profile_table(df_a, exhaustive).items()})
    want_joints = reference_stats.stack_joints(df_a, pairs)
    assert ([{(a, b): n for a, b, n in j.tuples()} for j in joints]
            == [{(a, b): n for a, b, n in j} for j in want_joints])
    (fd_pairs, _), cands = seen["cands"]
    by_pair = dict(zip(pairs, want_joints))
    want_cands = reference_stats.list_fd_candidates(
        fd_pairs, [by_pair[p] for p in fd_pairs])
    assert cands == want_cands
    assert ([reference_stats.normalized_groups(c) for c in cands]
            == [reference_stats.normalized_groups(c) for c in want_cands])
    want_profs, want_repeated = reference_stats.profile_rows(df_c, cols)
    assert ({c: p.unique_ratio for c, p in profs.items()}
            == {c: p.unique_ratio for c, p in want_profs.items()})
    assert sorted(repeated) == sorted(want_repeated)
    assert (duplicate_rows(repeated, cols)[0]
            == reference_stats.duplicate_rows(df_c, subset=cols)[0])


def test_planning_runs_one_spark_action_and_caches_only_the_input(
        spark, monkeypatch):
    """One value cube of the input serves stages A, B and C, and the
    only statement built and handed to Spark is the final one. Each
    content column's rows are coded once: every other ``factorize``
    call codes a column's distinct values."""
    from pyspark.sql.classic.dataframe import DataFrame as ClassicDataFrame

    import repro.core.pipeline as pipeline
    from repro.benchdata import load
    from repro.profiling import fd

    bench = load("movies")
    df = bench.spark_dirty(spark)
    actions, cached, statements, coded = [], [], [], []
    monkeypatch.setattr(fd, "factorize", lambda values, _orig=(
        fd.factorize): coded.append(len(values)) or _orig(values))
    monkeypatch.setattr(type(spark), "sql", lambda self, sql, _orig=type(
        spark).sql: statements.append(sql) or _orig(self, sql))
    monkeypatch.setattr(pipeline, "build_sql", lambda *args, _orig=(
        pipeline.build_sql): statements.append(args) or _orig(*args))
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
    report = CocoonPipeline(SimulatedLLM()).clean(df, "movies")
    assert actions == ["toPandas"]
    assert coded.count(len(bench.dirty)) == len(df.columns) - 1 == 17
    assert [type(s) for s in statements] == [tuple, str]
    assert statements[1] == report.sql
    assert cached and all(d is df for d in cached)


def test_prompt_samples_do_not_depend_on_partitioning(spark):
    """More than five tied duplicate rows and swapped value pairs: the
    prompts show the same five, whatever order Spark scans rows in."""
    class PromptLog(SimulatedLLM):
        def __init__(self):
            super().__init__()
            self.prompts: list[str] = []

        def review_duplication(self, *args):
            out = super().review_duplication(*args)
            self.prompts.append(out.prompt)
            return out

        def review_misplacement(self, *args):
            out = super().review_misplacement(*args)
            self.prompts.append(out.prompt)
            return out

    langs = ["eng", "fre", "ger", "spa"]
    countries = ["USA", "France", "Germany", "Spain"]
    rows = [(langs[i % 4], countries[i % 4], f"p{i}") for i in range(60)]
    # eight swapped rows, each value pair once
    rows += [(countries[i % 4], langs[(i + i // 4) % 4], f"s{i}")
             for i in range(8)]
    # seven rows duplicated twice
    rows += [("eng", "USA", f"d{k}") for k in range(7) for _ in range(2)]
    pdf = pd.DataFrame(rows, columns=["language", "country", "name"])
    pdf.insert(0, "row_id", [str(i) for i in range(len(pdf))])
    df = to_spark_strings(spark, pdf.astype(object))
    logs = []
    for n in (1, 7):
        llm = PromptLog()
        CocoonPipeline(llm).clean(df.repartition(n), "people")
        logs.append(llm.prompts)
    assert logs[0] == logs[1]
    misplacement, duplication = logs[0]
    assert "In 8 rows" in misplacement
    assert ("[('eng', 'Spain'), ('eng', 'USA'), ('fre', 'France'), "
            "('fre', 'USA'), ('ger', 'France')]") in misplacement
    assert "contains 7 exactly duplicated rows" in duplication
    assert [f"name='d{k}'" in duplication for k in range(7)] == [
        True] * 5 + [False] * 2
