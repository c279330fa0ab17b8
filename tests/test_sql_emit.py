"""SQL emission: portability rules, builders and layer rendering."""
import duckdb
import pandas as pd
import pytest

from repro.core import sql_emit
from repro.core.counts import FDRepair, Swap
from repro.core.sql_emit import Layer, build_sql


# ---------------------------------------------------------------------------
# identifiers and literals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["city", "zip_code", "_x", "a1"])
def test_safe_ident_accepts(name):
    assert sql_emit.safe_ident(name) == name


@pytest.mark.parametrize("name", ["City", "1abc", "a-b", "a b", 'a"b', ""])
def test_safe_ident_rejects(name):
    with pytest.raises(ValueError):
        sql_emit.safe_ident(name)


def test_sql_str_escapes_quotes():
    assert sql_emit.sql_str("it's") == "'it''s'"


def test_sql_str_splices_backslashes():
    assert sql_emit.sql_str("Bost\\on") == "('Bost' || chr(92) || 'on')"
    assert (sql_emit.sql_str("\\it's\\")
            == "('' || chr(92) || 'it''s' || chr(92) || '')")


# ---------------------------------------------------------------------------
# expression builders (validated on DuckDB — same dialect Spark runs)
# ---------------------------------------------------------------------------

def _duck(expr_by_col: dict[str, str], pdf: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("t", pdf)
    sel = ", ".join(f"{e} AS {c}" for c, e in expr_by_col.items())
    try:
        return con.execute(f"SELECT {sel} FROM t").fetchdf()
    finally:
        con.close()


# value_case: the rewriting (mapping) and the nulling case of a value map

def test_mapping_case():
    expr = sql_emit.value_case("city", {"Birminghxm": "Birmingham",
                                        "B'ham": "Birmingham"})
    assert expr == ("CASE WHEN city = 'B''ham' THEN 'Birmingham'\n"
                    "        WHEN city = 'Birminghxm' THEN 'Birmingham'\n"
                    "        ELSE city END")
    out = _duck({"city": expr}, pd.DataFrame(
        {"city": ["Birminghxm", "Boston", None]}))
    assert list(out["city"]) == ["Birmingham", "Boston", None]


def test_null_case():
    expr = sql_emit.value_case("county", dict.fromkeys(["N/A", "--"]))
    assert expr == ("CASE WHEN county IN ('--', 'N/A') THEN NULL "
                    "ELSE county END")
    out = _duck({"county": expr}, pd.DataFrame(
        {"county": ["N/A", "Jefferson", "--"]}))
    assert list(out["county"]) == [None, "Jefferson", None]


def test_fd_repair_case_preserves_nulls():
    expr = sql_emit.fd_repair_case(
        FDRepair("zip", "city", {"35233": "Birmingham"}))
    out = _duck({"city": expr}, pd.DataFrame({
        "zip": ["35233", "35233", "10001"],
        "city": ["Tucson", None, "NYC"],
    }))
    assert list(out["city"]) == ["Birmingham", None, "NYC"]


def test_swap_case():
    a_expr, b_expr = sql_emit.swap_case(
        Swap("language", "country", ("USA",), ("English",)))
    out = _duck({"language": a_expr, "country": b_expr}, pd.DataFrame({
        "language": ["USA", "English", "USA"],
        "country": ["English", "USA", "France"],
    }))
    # row 3: only one side misplaced-looking -> untouched
    assert list(out["language"]) == ["English", "English", "USA"]
    assert list(out["country"]) == ["USA", "USA", "France"]


# ---------------------------------------------------------------------------
# layers and the nested-CTE statement
# ---------------------------------------------------------------------------

def _toy() -> pd.DataFrame:
    return pd.DataFrame({
        "row_id": ["0", "1", "2", "3"],
        "a": ["x", "x", "y", "y"],
        "b": ["1", "1", "2", "3"],
    })


def test_build_sql_empty_layers_is_identity():
    sql = build_sql("t", [], ["row_id", "a", "b"])
    con = duckdb.connect()
    con.register("t", _toy())
    assert len(con.execute(sql).fetchdf()) == 4


def test_project_layer_passes_untouched_columns():
    layer = Layer("l1", {"a": {"x": "z"}}, comments=["why"])
    sql = build_sql("t", [layer], ["row_id", "a", "b"])
    assert "-- why" in sql
    con = duckdb.connect()
    con.register("t", _toy())
    out = con.execute(sql).fetchdf()
    assert list(out["a"]) == ["z", "z", "y", "y"]
    assert list(out["b"]) == ["1", "1", "2", "3"]


def test_window_dedupe_layer_keeps_first_by_order():
    layer = Layer("dedupe", key_cols=["a", "b"])
    sql = build_sql("t", [layer], ["row_id", "a", "b"])
    assert "ORDER BY row_id)" in sql
    con = duckdb.connect()
    con.register("t", _toy())
    out = con.execute(sql).fetchdf().sort_values("row_id")
    assert list(out["row_id"]) == ["0", "2", "3"]


def test_window_dedupe_desc_order():
    layer = Layer("dedupe", key_cols=["a"], order_col="b")
    sql = build_sql("t", [layer], ["row_id", "a", "b"])
    assert "ORDER BY b DESC)" in sql
    con = duckdb.connect()
    con.register("t", _toy())
    out = con.execute(sql).fetchdf().sort_values("row_id")
    # keeps the max-b row per a-group
    assert set(out["row_id"]) == {"0", "3"} or set(out["row_id"]) == {"1", "3"}


def test_layers_nest_in_order():
    l1 = Layer("s1", {"a": {"x": "y"}})
    l2 = Layer("s2", {"a": {"y": "w"}})
    sql = build_sql("t", [l1, l2], ["row_id", "a", "b"])
    con = duckdb.connect()
    con.register("t", _toy())
    out = con.execute(sql).fetchdf()
    assert set(out["a"]) == {"w"}  # x -> y -> w through both layers


def test_window_dedupe_without_row_id_breaks_ties_by_every_column():
    """With no ``row_id`` the window orders by the layer's order column,
    then by every column with an explicit ``NULLS FIRST`` (DuckDB puts
    NULLs last by default, Spark first), so both engines keep the same
    row of a tied group."""
    layer = Layer("dedupe", key_cols=["a"], order_col="b")
    sql = build_sql("t", [layer], ["a", "b", "c"])
    assert ("ORDER BY b DESC, a NULLS FIRST, b NULLS FIRST, "
            "c NULLS FIRST)") in sql
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"a": ["x", "x", "x", "y"],
                                    "b": ["2", "2", "1", None],
                                    "c": ["p", None, "q", "r"]}))
    out = con.execute(sql).fetchdf().sort_values("a")
    assert out.astype(object).where(out.notna(), None).values.tolist() == [
        ["x", "2", None], ["y", None, "r"]]


def test_spark_and_duckdb_agree_on_emitted_sql(spark):
    """The same emitted SQL text must run identically on both engines."""
    from repro.benchdata.base import to_spark_strings
    from repro.oracle import assert_equivalent

    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2"],
        "city": ["Birminghxm", "Boston", "N/A"],
        "note": ["it's fine", None, "x"],
    })
    layers = [
        Layer("fixes", {"city": {"Birminghxm": "Birmingham"}}),
        Layer("dmv", {"city": {"N/A": None}}),
    ]
    sql = build_sql("emit_check", layers, ["row_id", "city", "note"])
    sdf = to_spark_strings(spark, pdf)
    sdf.createOrReplaceTempView("emit_check")
    assert_equivalent(spark.sql(sql), sql, emit_check=pdf)


def test_backslash_literals_agree_on_spark_and_duckdb(spark):
    """A backslash in a value-map key and target, a swap ``IN`` list and
    an FD-repair key: Spark and DuckDB read the same values, and the
    result is what the layers' fold computes."""
    from repro.benchdata.base import to_spark_strings
    from repro.core.sql_emit import fold_layers
    from repro.oracle import assert_equivalent
    from repro.profiling import fd
    from tests import reference_stats

    pdf = pd.DataFrame({
        "row_id": ["0", "1", "2", "3"],
        "city": ["Bost\\on", "C:\\dir", "Boston", None],
        "state": ["MA", "x\\", "Bost\\on", "MA"],
        "zip": ["0\\2", "x", "0\\2", "0\\2"],
    }).astype(object)
    values = {"Bost\\on": "Boston", "Boston": "Bo\\ston"}
    swap = Swap("city", "state", ("C:\\dir",), ("C:\\dir", "x\\"))
    repair = FDRepair("zip", "state", {"0\\2": "M\\A"})
    layers = [
        Layer("fixes", {"city": values}),
        Layer("swap", swap),
        Layer("fd", repair),
    ]
    cols = ["row_id", "city", "state", "zip"]
    sql = build_sql("emit_backslash", layers, cols)
    to_spark_strings(spark, pdf).createOrReplaceTempView("emit_backslash")
    got = spark.sql(sql)
    assert_equivalent(got, sql, emit_backslash=pdf)
    cube = fold_layers(fd.Cube.of(pdf), layers)
    want = [list(row) for row, _ in reference_stats.cube_rows(cube)]
    assert want == [
        ["0", "Boston", "M\\A", "0\\2"],
        ["1", "x\\", "C:\\dir", "x"],
        ["2", "Bo\\ston", "M\\A", "0\\2"],
        ["3", None, "M\\A", "0\\2"],
    ]
    assert (sorted(map(tuple, got.toPandas().astype(object).values.tolist()))
            == sorted(map(tuple, want)))
    spark.catalog.dropTempView("emit_backslash")
