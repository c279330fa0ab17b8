"""Entropy-based FD discovery (§2.1.6 substrate)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.benchdata.base import to_spark_strings
from repro.profiling import fd
from repro.profiling.fd import _entropy, violating_groups


def _discover(df, columns, **kw):
    """``discover_fds`` over the value cube of ``df``'s ``columns``."""
    return fd.discover_fds(fd.value_cube(df, columns), **kw)


def test_entropy_math():
    assert _entropy([]) == 0.0
    assert _entropy([10]) == 0.0
    assert _entropy([5, 5]) == pytest.approx(1.0)
    assert _entropy([1, 1, 1, 1]) == pytest.approx(2.0)


@pytest.fixture(scope="module")
def fd_frame(spark):
    rows = []
    zips = {"35233": "Birmingham", "10001": "NYC", "60601": "Chicago"}
    i = 0
    for z, city in zips.items():
        for _ in range(20):
            rows.append({"row_id": str(i), "zip": z, "city": city,
                         "noise": str(i % 7)})
            i += 1
    # 2 violations in one group
    rows[0]["city"] = "Tucson"
    rows[1]["city"] = "Boston"
    pdf = pd.DataFrame(rows).astype(object)
    return pdf, to_spark_strings(spark, pdf)


def test_discover_fd_finds_zip_city(fd_frame):
    _pdf, df = fd_frame
    cands = _discover(df, ["zip", "city", "noise"],
                      n_distinct={"zip": 3, "city": 5, "noise": 7},
                      total=60)
    pairs = {(c.lhs, c.rhs) for c in cands}
    assert ("zip", "city") in pairs
    zc = next(c for c in cands if (c.lhs, c.rhs) == ("zip", "city"))
    assert zc.n_violating_groups == 1
    assert zc.violation_rate == pytest.approx(2 / 60)
    assert 0 < zc.entropy_ratio < 0.35


def test_discover_fd_skips_random_pairs(fd_frame):
    _pdf, df = fd_frame
    cands = _discover(df, ["zip", "city", "noise"],
                      n_distinct={"zip": 3, "city": 5, "noise": 7},
                      total=60)
    pairs = {(c.lhs, c.rhs) for c in cands}
    assert ("noise", "city") not in pairs
    assert ("zip", "noise") not in pairs


def test_discover_fd_exact_fd_not_a_candidate(spark):
    # exact FDs have nothing to clean
    pdf = pd.DataFrame({
        "row_id": [str(i) for i in range(8)],
        "a": ["x", "x", "y", "y"] * 2,
        "b": ["1", "1", "2", "2"] * 2,
    })
    df = to_spark_strings(spark, pdf)
    cands = _discover(df, ["a", "b"], n_distinct={"a": 2, "b": 2},
                      total=8)
    assert cands == []


def test_discover_fd_prunes_high_cardinality(fd_frame, monkeypatch):
    _pdf, df = fd_frame
    monkeypatch.setattr(fd, "MAX_DISTINCT", 2)
    cands = _discover(df, ["zip", "city"],
                      n_distinct={"zip": 3, "city": 5}, total=60)
    assert cands == []


def test_discover_fd_exclude_lhs_values(fd_frame):
    _pdf, df = fd_frame
    cands = _discover(df, ["zip", "city"],
                      n_distinct={"zip": 3, "city": 5}, total=60,
                      exclude_lhs_values=frozenset({"35233"}))
    assert cands == []  # the only violating group was excluded


def _zip_city(df, **kw):
    cands = _discover(df, ["zip", "city"], n_distinct={"zip": 3, "city": 5},
                      total=60, **kw)
    return next(c for c in cands if (c.lhs, c.rhs) == ("zip", "city"))


def test_violating_groups(fd_frame):
    _pdf, df = fd_frame
    groups = violating_groups(_zip_city(df))
    assert set(groups) == {"35233"}
    assert groups["35233"][0] == ("Birmingham", 18)
    assert set(groups["35233"][1:]) == {("Tucson", 1), ("Boston", 1)}


def test_violating_groups_exclusion(fd_frame):
    # LHS values excluded at discovery never reach the repair prompt
    # (excluding the violating group drops the candidate: see above)
    _pdf, df = fd_frame
    cand = _zip_city(df, exclude_lhs_values=frozenset({"10001"}))
    assert set(violating_groups(cand)) == {"35233"}


def _reference_groups(df, lhs, rhs, *, exclude=frozenset(), max_groups=500):
    """Violating groups straight from a ``groupBy(lhs, rhs)`` on ``df``."""
    rows = (df.where(F.col(lhs).isNotNull() & F.col(rhs).isNotNull())
            .groupBy(lhs, rhs).count().collect())
    groups: dict[str, list[tuple[str, int]]] = {}
    for r in rows:
        if r[lhs] not in exclude:
            groups.setdefault(r[lhs], []).append((r[rhs], r["count"]))
    out = {k: sorted(v, key=lambda vc: (-vc[1], vc[0]))
           for k, v in sorted(groups.items()) if len(v) > 1}
    return dict(list(out.items())[:max_groups])


@pytest.fixture(scope="module")
def many_groups(spark):
    """zip -> city with violations in several groups, NULLs on both
    sides, and an "N/A" zip that lumps unrelated rows together."""
    cities = ["Birmingham", "Boston", "Chicago", "Denver", "Tucson",
              "Dover", "Reno"]
    rows = []
    for k, city in enumerate(cities):
        for i in range(20):
            rows.append((f"{35200 + k}", city))
    # group k (k = 1..4) has k rows with another group's city
    for k in range(1, 5):
        for i in range(k):
            rows[20 * k + i] = (rows[20 * k][0], cities[(k + i + 1) % 7])
    rows += [("N/A", c) for c in cities[:4]] * 2
    rows += [(None, "Boston"), ("35200", None), (None, None)]
    pdf = pd.DataFrame(
        [{"row_id": str(i), "zip": z, "city": c}
         for i, (z, c) in enumerate(rows)]).astype(object)
    return to_spark_strings(spark, pdf)


@pytest.mark.parametrize("exclude,max_groups", [
    (frozenset(), 500),
    (frozenset({"N/A"}), 500),
    (frozenset({"N/A", "35202"}), 500),
    (frozenset(), 2),
])
def test_violating_groups_match_groupby_reference(many_groups, monkeypatch,
                                                  exclude, max_groups):
    df = many_groups
    cands = _discover(df, ["zip", "city"],
                      n_distinct={"zip": 8, "city": 7}, total=151,
                      exclude_lhs_values=exclude or None)
    cand = next(c for c in cands if (c.lhs, c.rhs) == ("zip", "city"))
    want = _reference_groups(df, "zip", "city", exclude=exclude,
                             max_groups=max_groups)
    monkeypatch.setattr(fd, "MAX_GROUPS", max_groups)
    assert violating_groups(cand) == want
    assert cand.n_violating_groups == len(
        _reference_groups(df, "zip", "city", exclude=exclude))


def test_one_to_one_lhs_columns_tie_exactly(spark):
    # "key" and "code" name the same entities, so key -> name and
    # code -> name are the same FD: their ratios must be bit-equal and
    # (lhs, rhs) orders them, whatever order Spark returns rows in
    rng = np.random.default_rng(3)
    rows = []
    for k in range(40):
        size = int(rng.integers(3, 30))
        for i in range(size):
            name = f"name{k}" if i or k % 3 else f"name{k + 1}"
            rows.append({"key": f"k{k:02d}", "code": f"{97 - k}",
                         "name": name})
    pdf = pd.DataFrame(rows)
    pdf.insert(0, "row_id", [str(i) for i in range(len(pdf))])
    df = to_spark_strings(spark, pdf).repartition(7)
    cands = _discover(df, ["key", "code", "name"],
                      n_distinct={"key": 40, "code": 40, "name": 40},
                      total=len(pdf))
    to_name = [c for c in cands if c.rhs == "name"]
    assert [(c.lhs, c.rhs) for c in to_name] == [("code", "name"),
                                                 ("key", "name")]
    assert to_name[0].entropy_ratio == to_name[1].entropy_ratio
    assert (to_name[0].conditional_entropy
            == to_name[1].conditional_entropy)


def test_discover_fds_leaves_catalog_unchanged(spark, fd_frame):
    _pdf, df = fd_frame
    before = sorted(t.name for t in spark.catalog.listTables())
    _discover(df, ["zip", "city", "noise"],
              n_distinct={"zip": 3, "city": 5, "noise": 7}, total=60)
    assert sorted(t.name for t in spark.catalog.listTables()) == before


# ---------------------------------------------------------------------------
# value cube + marginalization against the stack reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name", ["hospital", "flights", "beers", "rayyan", "movies"])
def test_discover_fds_matches_stack_reference(spark, name):
    from repro.benchdata import load
    from repro.profiling import profile_table
    from tests.reference_stats import (
        normalized_groups,
        stack_discover_fds,
        stack_joints,
    )

    df = load(name).spark_dirty(spark)
    cols = [c for c in df.columns if c != "row_id"]
    profs = profile_table(df, cols)
    kw = dict(n_distinct={c: p.n_distinct for c, p in profs.items()},
              total=profs[cols[0]].total)
    pairs = fd.candidate_pairs(cols, **kw)
    cube = fd.value_cube(df, list(dict.fromkeys(
        c for p in pairs for c in p)))
    assert pairs and len(cube.rows) <= df.count()
    assert (_joint_dicts(fd.pair_joints(cube, pairs))
            == _joint_dicts(stack_joints(df, pairs)))
    got = _discover(df, cols, **kw)
    want = stack_discover_fds(df, cols, **kw)
    assert got == want
    assert ([normalized_groups(c) for c in got]
            == [normalized_groups(c) for c in want])


def _joint_dicts(joints):
    """Joints, as ``fd.pair_joints`` or the reference returns them, as
    ``{(a, b): rows}`` dicts."""
    return [{(a, b): n for a, b, n in (
        j.tuples() if isinstance(j, fd.Joint) else j)} for j in joints]


def test_value_cube_column_named_count(spark):
    from tests.reference_stats import stack_joints

    df = spark.createDataFrame(
        [("x", "1"), ("x", "1"), ("y", "2"), ("y", None)],
        "count string, n string")
    from tests.reference_stats import cube_rows

    cube = fd.value_cube(df, ["count", "n"])
    assert list(cube.columns) == ["count", "n"]
    assert sorted((a, b or "-", n) for (a, b), n in cube_rows(cube)) == [
        ("x", "1", 2), ("y", "-", 1), ("y", "2", 1)]
    pairs = [("count", "n"), ("n", "count")]
    assert (_joint_dicts(fd.pair_joints(cube, pairs))
            == _joint_dicts(stack_joints(df, pairs)))


def test_pair_joints_drop_nulls_all_null_column_and_empty_pair(spark):
    from tests.reference_stats import stack_joints

    df = spark.createDataFrame(
        [("a", None, "p"), ("a", None, None), ("b", None, "q"),
         (None, None, "q")],
        "x string, empty string, y string")
    pairs = [("x", "y"), ("x", "empty"), ("empty", "y")]
    cube = fd.value_cube(df, ["x", "empty", "y"])
    got = fd.pair_joints(cube, pairs)
    assert _joint_dicts(got) == _joint_dicts(stack_joints(df, pairs))
    assert [j.tuples() for j in got[1:]] == [[], []]
    assert sorted(got[0].tuples()) == [("a", "p", 1), ("b", "q", 1)]
    assert fd.fd_candidates(pairs, got) == []


def test_value_cube_of_no_rows(spark):
    df = spark.createDataFrame([], "x string, y string")
    cube = fd.value_cube(df, ["x", "y"])
    assert len(cube.codes) == len(cube.rows) == 0
    assert [j.tuples() for j in fd.pair_joints(cube, [("x", "y")])] == [[]]
    assert _discover(df, ["x", "y"], n_distinct={"x": 2, "y": 2},
                     total=10) == []


# ---------------------------------------------------------------------------
# the driver-side cube and the code-based reduction against the
# replaced Spark groupBy and string-tuple loop
# ---------------------------------------------------------------------------

def _cube_multiset(rows):
    """``(row, count)`` pairs as a multiset of rows, NULL as ``None``."""
    out = {}
    for row, n in rows:
        out[row] = out.get(row, 0) + n
    return out


def _assert_cube_matches_groupby(df, columns):
    from tests.reference_stats import cube_rows, groupby_value_cube

    cube = fd.value_cube(df, columns)
    assert list(cube.columns) == columns
    assert cube.rows.dtype == np.int64 and len(cube.rows) == len(cube.codes)
    got = _cube_multiset(cube_rows(cube))
    assert len(got) == len(cube.rows)  # the rows are distinct
    ref, ref_rows = groupby_value_cube(df, columns)
    assert got == _cube_multiset(zip(ref.itertuples(index=False, name=None),
                                     ref_rows.tolist()))


@pytest.mark.parametrize(
    "name", ["hospital", "flights", "beers", "rayyan", "movies"])
def test_value_cube_matches_groupby_reference(spark, name):
    from repro.benchdata import load

    df = load(name).spark_dirty(spark)
    _assert_cube_matches_groupby(df, [c for c in df.columns
                                      if c != "row_id"])


@pytest.mark.parametrize("rows", [
    [],
    [("a", None), ("a", None), ("b", None)],  # an all-NULL column
    [("", "x"), ("\x00", "x"), ("", "x"), (None, "x")],
    [("x", "1")] * 5 + [("y", "1")] * 2 + [(None, None)] * 3,
], ids=["no_rows", "all_null_column", "empty_vs_nul", "repeated_rows"])
def test_value_cube_edge_cases_match_groupby_reference(spark, rows):
    df = spark.createDataFrame(rows, "x string, count string")
    _assert_cube_matches_groupby(df, ["x", "count"])
    _assert_cube_matches_groupby(df, ["count"])


@pytest.fixture(scope="module")
def bench_joints(spark):
    """Per benchmark: the candidate pairs of its input, their joints
    and Raha+Baran's placeholder values."""
    from repro.baselines.raha_baran import placeholder_values
    from repro.benchdata import load
    from repro.profiling import profile_cube

    out = {}
    for name in ("hospital", "flights", "beers", "rayyan", "movies"):
        df = load(name).spark_dirty(spark)
        cols = [c for c in df.columns if c != "row_id"]
        cube = fd.value_cube(df, cols)
        profs = profile_cube(cube)
        pairs = fd.candidate_pairs(
            cols, n_distinct={c: p.n_distinct for c, p in profs.items()},
            total=profs[cols[0]].total)
        out[name] = (pairs, fd.pair_joints(cube, pairs),
                     placeholder_values(profs))
    return out


@pytest.mark.parametrize("rate", [0.45, 0.5])
@pytest.mark.parametrize("exclude", [False, True],
                         ids=["no_exclusion", "placeholders"])
@pytest.mark.parametrize(
    "name", ["hospital", "flights", "beers", "rayyan", "movies"])
def test_fd_candidates_match_list_reference(bench_joints, name, exclude,
                                            rate):
    """Bit-equal entropies and ratios, and equal groups (order
    included), as the loop over string tuples computes them."""
    from tests.reference_stats import list_fd_candidates

    pairs, joints, placeholders = bench_joints[name]
    kw = dict(max_violation_rate=rate,
              exclude_lhs_values=placeholders if exclude else None)
    got = fd.fd_candidates(pairs, joints, **kw)
    want = list_fd_candidates(pairs, [j.tuples() for j in joints], **kw)
    assert got == want
    assert [c.groups for c in got] == [c.groups for c in want]
