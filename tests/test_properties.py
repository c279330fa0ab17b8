"""Property-based tests (hypothesis) for the pure substrates."""
import string

import duckdb
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sql_emit
from repro.core.counts import fold, fold_counts
from repro.llm import knowledge as kb

settings.register_profile("repro", max_examples=50, deadline=None)
settings.load_profile("repro")

words = st.text(alphabet=string.ascii_letters + string.digits + " .%/-:'",
                min_size=0, max_size=20)
idents = st.from_regex(r"[a-z_][a-z0-9_]{0,10}", fullmatch=True)


@given(words, words)
def test_edit_distance_symmetric(a, b):
    assert kb.edit_distance(a, b, cap=5) == kb.edit_distance(b, a, cap=5)


@given(words)
def test_edit_distance_identity(a):
    assert kb.edit_distance(a, a) == 0


@given(words, words)
def test_edit_distance_bounded_by_cap(a, b):
    assert kb.edit_distance(a, b, cap=3) <= 3


@given(words, words)
def test_digit_only_diff_symmetric(a, b):
    assert kb.digit_only_diff(a, b) == kb.digit_only_diff(b, a)


@given(words)
def test_digit_only_diff_irreflexive(a):
    assert not kb.digit_only_diff(a, a)


@given(words)
def test_shape_regex_matches_its_value(v):
    import re
    assert re.fullmatch(kb.shape_to_regex(kb.shape_of(v))[1:-1], v)


@given(words)
def test_sql_str_roundtrips_through_duckdb(v):
    con = duckdb.connect()
    try:
        out = con.execute(f"SELECT {sql_emit.sql_str(v)} AS v").fetchone()[0]
    finally:
        con.close()
    assert out == v


@given(st.lists(st.tuples(words, st.integers(1, 100)), max_size=20),
       st.dictionaries(words, words, max_size=5))
def test_apply_mapping_preserves_mass(counts, mapping):
    uniq: dict[str, int] = {}
    for v, c in counts:
        uniq[v] = uniq.get(v, 0) + c
    counts_t = tuple(uniq.items())
    out = fold_counts(counts_t, mapping)
    assert sum(c for _, c in out) == sum(c for _, c in counts_t)


@given(st.lists(st.tuples(words, st.integers(1, 100)), max_size=20))
def test_remove_values_subset(counts):
    uniq = tuple({v: c for v, c in counts}.items())
    vals = [v for v, _ in uniq[:2]]
    out = fold_counts(uniq, dict.fromkeys(vals))
    assert all(v not in vals for v, _ in out)


@given(idents, st.dictionaries(words, st.none() | words, min_size=1,
                               max_size=8))
def test_mapping_case_emits_valid_duckdb_sql(col, mapping):
    """Any value map, rewriting, nulling or both, runs on DuckDB and
    does to each value what its fold into the statistics does."""
    expr = sql_emit.value_case(col, mapping)
    probes = list(dict.fromkeys([*mapping, "probe"]))
    rows = ", ".join(f"({sql_emit.sql_str(v)})" for v in probes)
    con = duckdb.connect()
    try:
        out = con.execute(f"SELECT {col}, {expr} FROM "
                          f"(VALUES {rows}) t({col})").fetchall()
    finally:
        con.close()
    assert dict(out) == {v: fold(v, [mapping]) for v in probes}


@given(st.integers(0, 59), st.integers(0, 23))
def test_duration_grammar_roundtrip(m, h):
    total = h * 60 + m
    if total == 0:
        return
    rendered = (f"{h} hour {m} min" if h else f"{m} min")
    assert kb.parse_duration_minutes(rendered) == float(total)


def _levenshtein(a: str, b: str) -> int:
    """Full-matrix Levenshtein distance: the reference for the banded DP."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# "İ".lower() is two characters long, so the lower-cased forms the
# string review compares can differ in length from the values
typo_text = st.text(alphabet="abcxİı .1", max_size=12)


@given(typo_text, typo_text, st.integers(1, 4))
def test_edit_distance_matches_full_matrix(a, b, cap):
    for x, y in ((a, b), (a.lower(), b.lower())):
        assert kb.edit_distance(x, y, cap=cap) == min(_levenshtein(x, y), cap)
