"""Generator invariants for the five synthetic benchmarks."""
import pandas as pd
import pytest

from repro.benchdata import BENCHMARKS, ErrorType, load

SIZES = {  # paper §3.1 / Table 2 shapes (content columns, row counts)
    "hospital": (1000, 19),
    "flights": (2376, 7),
    "beers": (2410, 11),
    "rayyan": (1000, 11),
    "movies": (7390, 17),
}

_CACHE: dict[str, object] = {}


def bench(name: str):
    if name not in _CACHE:
        _CACHE[name] = load(name)
    return _CACHE[name]


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_shapes_match_paper(name):
    b = bench(name)
    rows, cols = SIZES[name]
    assert b.dirty.shape == (rows, cols + 1)  # + row_id
    assert b.clean.shape == b.dirty.shape
    assert list(b.dirty.columns) == list(b.clean.columns)
    assert b.dirty.columns[0] == "row_id"


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_row_ids_align(name):
    b = bench(name)
    assert list(b.dirty["row_id"]) == list(b.clean["row_id"])
    assert b.dirty["row_id"].is_unique


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_masked_cells_differ_between_dirty_and_clean(name):
    b = bench(name)
    d = b.dirty.set_index("row_id")
    c = b.clean.set_index("row_id")
    for rid, col, _etype in b.mask.itertuples(index=False):
        dv, cv = d.at[rid, col], c.at[rid, col]
        assert not (dv is None and cv is None)
        assert dv != cv, (rid, col, dv, cv)


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_unmasked_cells_equal(name):
    b = bench(name)
    masked = {(r, c) for r, c, _ in b.mask.itertuples(index=False)}
    d = b.dirty.set_index("row_id")
    c = b.clean.set_index("row_id")
    for col in d.columns:
        equal = (d[col] == c[col]) | (d[col].isna() & c[col].isna())
        for rid in d.index[~equal]:
            assert (rid, col) in masked, (rid, col, d.at[rid, col],
                                          c.at[rid, col])


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_mask_cells_unique(name):
    b = bench(name)
    assert not b.mask.duplicated(["row_id", "column"]).any()


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_deterministic(name):
    a, b = load(name), load(name)
    pd.testing.assert_frame_equal(a.dirty, b.dirty)
    pd.testing.assert_frame_equal(a.clean, b.clean)
    pd.testing.assert_frame_equal(a.mask, b.mask)


def test_hospital_error_distribution_matches_table2():
    assert bench("hospital").error_counts() == {
        "typo": 213, "fd": 331, "column_type": 3000, "dmv": 227}


def test_movies_error_distribution_matches_table2():
    assert bench("movies").error_counts() == {
        "typo": 184, "column_type": 14433, "dmv": 131, "misplacement": 938}


def test_hospital_type_columns_are_canonical():
    b = bench("hospital")
    em = b.clean["emergency_service"].dropna().unique()
    assert set(em) <= {"True", "False"}
    scores = b.clean["score"].dropna()
    assert scores.str.fullmatch(r"\d+\.\d").all()


def test_flights_ambiguity_structure():
    """Ambiguous flights must have no 2/3-majority on actual times."""
    b = bench("flights")
    d = b.dirty
    groups = d.groupby("flight")["act_arr_time"].value_counts()
    n_ambiguous = 0
    for f in d["flight"].unique():
        counts = groups[f].sort_values(ascending=False)
        if counts.iloc[0] / counts.sum() < 0.66:
            n_ambiguous += 1
    assert n_ambiguous >= 80  # the designed 90 ambiguous flights


def test_movies_misplacement_is_swap():
    b = bench("movies")
    d = b.dirty.set_index("row_id")
    c = b.clean.set_index("row_id")
    mis = b.mask[b.mask.error_type == ErrorType.MISPLACEMENT]
    rows = mis["row_id"].unique()
    assert len(rows) == 469
    for rid in rows[:20]:
        assert d.at[rid, "language"] == c.at[rid, "country"]
        assert d.at[rid, "country"] == c.at[rid, "language"]


def test_movies_scale_parameter():
    from repro.benchdata.movies import movies
    b = movies(scale=2)
    assert len(b.dirty) == 2 * 7390
    assert b.name == "movies_x2"
    counts = b.error_counts()
    assert counts["misplacement"] == 2 * 938


def test_dmv_cells_null_in_truth():
    b = bench("rayyan")
    c = b.clean.set_index("row_id")
    dmv = b.mask[b.mask.error_type == ErrorType.DMV]
    for rid, col, _ in dmv.itertuples(index=False):
        assert c.at[rid, col] is None or pd.isna(c.at[rid, col])


def test_no_backslashes_anywhere():
    """No value needs a backslash spliced in as ``chr(92)`` (sql_emit), so
    the benchmarks' SQL uses plain literals only."""
    for name in BENCHMARKS:
        b = bench(name)
        for df in (b.dirty, b.clean):
            for col in df.columns:
                vals = df[col].dropna().astype(str)
                assert not vals.str.contains("\\\\", regex=True).any(), (
                    name, col)


def test_to_spark_strings_preserves_nulls(spark):
    b = bench("rayyan")
    sdf = b.spark_dirty(spark)
    n_null = sdf.where(sdf.author_list.isNull()).count()
    assert n_null == int(b.dirty["author_list"].isna().sum())
    assert [f.dataType.simpleString() for f in sdf.schema.fields] == (
        ["string"] * len(b.dirty.columns))
