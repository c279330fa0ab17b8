"""Property-based tests (hypothesis) for the pure substrates, and for
the driver-side statistics against Spark."""
import string
from collections import Counter
from itertools import combinations

import duckdb
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.holoclean import holoclean_clean
from repro.core import sql_emit
from repro.core.counts import FDRepair, Swap, fold, fold_counts
from repro.core.sql_emit import Layer, fold_layers
from repro.llm import knowledge as kb
from repro.llm.client import _digit_heavy
from repro.profiling import fd, profile_cube, profile_cube_rows
from tests import reference_stats

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
    assert dict(out) == {v: fold(v, mapping) for v in probes}


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
# string review compares can differ in length from the values. A small
# alphabet makes the pieces of the pigeonhole filter recur in unrelated
# strings, and an edited copy keeps most of them: the filter both
# passes and rejects pairs.
TYPO_ALPHABET = "abİı .1"
typo_text = st.text(alphabet=TYPO_ALPHABET, max_size=40)


@st.composite
def edited(draw, text: str) -> str:
    """``text`` after up to five random single-character edits."""
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(TYPO_ALPHABET))
        op = draw(st.sampled_from(("sub", "del", "ins")))
        if op == "sub":
            text = text[:i] + ch + text[i + 1:]
        elif op == "del":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i:]
    return text


@settings(max_examples=300)
@given(typo_text.flatmap(lambda a: st.tuples(st.just(a),
                                             typo_text | edited(a))),
       st.integers(1, 4))
# no piece of "aaaabbbb" survives in "abababab": rejected by the filter
@example(("aaaabbbb", "abababab"), 2)
# "ab" survives in "abba ..": passes the filter, and the DP says far
@example(("abab1111", "abba...."), 4)
# three edits at cap 4: one of four pieces survives
@example(("aaaa bbbb 1111 ....", "aaxa bbb 1111 .x..."), 4)
def test_edit_distance_matches_full_matrix(pair, cap):
    a, b = pair
    for x, y in ((a, b), (b, a), (a.lower(), b.lower())):
        assert kb.edit_distance(x, y, cap=cap) == min(_levenshtein(x, y), cap)


#: ASCII, which the kernels translate by table, and non-ASCII
#: characters, which they classify one at a time: superscript two and
#: Arabic-Indic three are digits, one half is alphanumeric but no
#: digit, dotted I and sharp s are letters, and a combining acute is
#: none of them
kernel_text = (st.text(st.characters(max_codepoint=127), max_size=16)
               | st.text(st.characters(max_codepoint=127)
                         | st.sampled_from("²٣½İß\u0301"), max_size=16))


@settings(max_examples=300)
@given(kernel_text)
@example("12/01/2011")
@example("Straße ²½ 1٣")
@example("".join(map(chr, range(128))))
@example("\x1c\x1d\x1e\x1f")
def test_character_kernels_match_their_loops(v):
    assert kb.shape_of(v) == reference_stats.shape_of(v)
    assert kb.strip_digits(v) == reference_stats.strip_digits(v)
    assert _digit_heavy(v) == reference_stats.digit_heavy(v)


# ---------------------------------------------------------------------------
# the fold of a coded value cube against Spark over the rendered SQL
# ---------------------------------------------------------------------------

#: quotes, a backslash, non-ASCII and control characters, some of which
#: Spark's to_json escapes
cell_text = st.text(alphabet="ab'\"\\é Ａ😀\x00\x01\n\x1f\x7f", max_size=3)
FOLD_COLS = ["c0", "c1", "c2"]


@st.composite
def folded_tables(draw):
    """A small string table with NULLs and repeated rows, and a sequence
    of layers over values it holds, each carrying one decision: a value
    map (as ``{column: map}``), a swap or an FD repair."""
    pool = draw(st.lists(cell_text, min_size=1, max_size=4, unique=True))
    cell = st.none() | st.sampled_from(pool)
    rows = draw(st.lists(st.tuples(cell, cell, cell), max_size=12))
    values = st.lists(st.sampled_from(pool), min_size=1, unique=True)
    layers = []
    for k in range(draw(st.integers(0, 3))):
        a, b = draw(st.permutations(FOLD_COLS))[:2]
        kind = draw(st.sampled_from(["map", "swap", "fd"]))
        if kind == "map":
            decision = {a: draw(st.dictionaries(
                st.sampled_from(pool), cell, min_size=1))}
        elif kind == "swap":
            decision = Swap(a, b, tuple(draw(values)), tuple(draw(values)))
        else:
            decision = FDRepair(a, b, draw(st.dictionaries(
                st.sampled_from(pool), st.sampled_from(pool), min_size=1)))
        layers.append(Layer(f"l{k}", decision))
    return rows, layers


@st.composite
def coded_cells(draw):
    """A column's cells: short texts from a small pool, so values
    repeat, and NULLs."""
    pool = draw(st.lists(cell_text, min_size=1, max_size=4, unique=True))
    return draw(st.lists(st.none() | st.sampled_from(pool), max_size=12))


@given(coded_cells())
# pd.factorize would give '' and '\x00' one code
@example(["", "\x00", None, "\x00", ""])
def test_arrow_coder_matches_dict_reference(cells):
    """``fd.encode`` gives a Python ``dict``'s codes and values: values
    in first-seen order, NULL as ``-1``, whole strings compared."""
    codes, values = fd.encode(pa.array(cells, pa.string()))
    want_codes, want_values = reference_stats.factorize(cells)
    assert codes.tolist() == want_codes.tolist()
    assert values.tolist() == want_values.tolist()


@settings(max_examples=25)
@given(folded_tables())
# pd.factorize would give '' and '\x00' one code
@example(([(None, "", None), (None, "\x00", None)], []))
# every row of c0's 'x' and c1's 'y' is swapped out: their values stay
# in the columns' dictionaries with no row
@example(([("x", "y", None), ("x", "y", "z"), (None, "y", "x")],
          [Layer("l0", Swap("c0", "c1", ("x",), ("y",)))]))
# the repair writes 'z', which c1 never held, and leaves NULLs NULL
@example(([("a", "p", None), ("a", "q", "p"), ("a", None, None),
           ("b", "p", None), (None, "q", None)],
          [Layer("l0", FDRepair("c0", "c1", {"a": "z"}))]))
# a value map merges 'a' into 'b' (and nulls 'c'): rows that become
# equal are repeated rows
@example(([("a", "p", None), ("b", "p", None), ("c", "p", None),
           (None, "p", None)],
          [Layer("l0", {"c0": {"a": "b", "c": None}})]))
def test_cube_fold_matches_spark_over_the_sql(spark, table):
    """The driver fold of layers of value maps, swaps and FD repairs over
    a coded value cube (the pipeline's layer walk) gives the profiles
    and repeated rows (keys byte for byte) that Spark's ``to_json`` row
    profile gives over the same layers' SQL; the unfolded cube's rows
    are the Spark ``groupBy`` cube's (as a multiset) and its profiles
    are the unpivot reference's."""
    rows, layers = table
    df = spark.createDataFrame(rows, ", ".join(f"{c} string"
                                               for c in FOLD_COLS))
    df.createOrReplaceTempView("prop_fold")
    cube = fd.value_cube(df, FOLD_COLS)
    assert (Counter(reference_stats.cube_rows(cube))
            == reference_stats.groupby_value_cube(df, FOLD_COLS))
    assert profile_cube(cube) == reference_stats.profile_table(df, FOLD_COLS)
    profs, repeated = profile_cube_rows(fold_layers(cube, layers))
    sql = sql_emit.build_sql("prop_fold", layers, FOLD_COLS)
    want_profs, want_repeated = reference_stats.profile_rows(
        spark.sql(sql), FOLD_COLS)
    assert profs == want_profs
    assert sorted(repeated) == sorted(want_repeated)


@settings(max_examples=100)
@given(folded_tables(), st.randoms(use_true_random=False))
@example(([(None, "", None), (None, "\x00", None), ("a", "", "b")], []),
         None)
# a fold that makes rows equal: repeated rows of the folded cube
@example(([("a", "p", None), ("b", "p", None), ("a", "q", "x"),
           ("b", "q", "x"), (None, "p", None)],
          [Layer("l0", {"c0": {"a": "b"}})]), None)
def test_cube_statistics_do_not_depend_on_row_order(table, rnd):
    """The value cube's rows are in Spark's scan order, which depends on
    the partitioning, so every consumer must be order-free: permuting a
    cube's rows leaves its profiles, its row profile, its joints and FD
    candidates (groups included), and the row profile of its fold,
    unchanged."""
    rows, layers = table
    cube = fd.Cube.of(reference_stats.string_table(
        pd.DataFrame(rows, columns=FOLD_COLS, dtype=object)))
    order = list(range(len(cube.codes)))
    if rnd is None:
        order.reverse()
    else:
        rnd.shuffle(order)
    moved = fd.Cube(cube.columns, cube.values, cube.codes[order])
    pairs = list(combinations(FOLD_COLS, 2))

    def statistics(c):
        joints = fd.pair_joints(c, pairs)
        cands = fd.fd_candidates(pairs, joints, max_violation_rate=1.0)
        return (profile_cube(c), profile_cube_rows(c),
                [j.tuples() for j in joints], cands,
                [f.groups for f in cands],
                profile_cube_rows(fold_layers(c, layers)))

    assert statistics(moved) == statistics(cube)


#: FD constraints over the drawn tables' columns, repeats allowed
constraint_lists = st.lists(
    st.permutations(FOLD_COLS).map(lambda p: (p[0], p[1])), max_size=3)


@settings(max_examples=25)
@given(folded_tables().map(lambda table: table[0]), constraint_lists)
# a 1:1 tie: 'z' wins, as it sorts before 'é' by code point (Spark's
# binary UTF-8 order), whatever a locale's collation says
@example([("k", "é", None), ("k", "z", None)], [("c0", "c1")])
# the mode's share is exactly TAU (2 of 4): the group is repaired
@example([("k", "a", None), ("k", "a", None), ("k", "b", None),
          ("k", "c", None)], [("c0", "c1")])
# a NULL LHS matches no group, a NULL RHS stays NULL and counts for none
@example([(None, "b", None), ("k", None, None), ("k", "a", None),
          ("k", "a", None), ("k", "b", None)], [("c0", "c1")])
# the second constraint counts the first's repaired RHS: 'b' becomes
# 'a', whose group then holds 'x', 'x' and 'y'
@example([("k", "a", "x"), ("k", "a", "x"), ("k", "b", "y")],
         [("c0", "c1"), ("c1", "c2")])
def test_holoclean_sql_matches_the_dataframe_reference(spark, rows,
                                                       constraints):
    """HoloClean's plan, run by Spark as SQL, gives the rows of the
    DataFrame implementation it replaced (a ``groupBy``, a window and a
    join per constraint)."""
    df = spark.createDataFrame(rows, ", ".join(f"{c} string"
                                               for c in FOLD_COLS))
    got = holoclean_clean(df, constraints).collect()
    want = reference_stats.holoclean_reference(df, constraints).collect()
    assert Counter(map(tuple, got)) == Counter(map(tuple, want))
