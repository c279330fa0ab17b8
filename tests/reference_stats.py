"""Reference implementations of the pipeline's table statistics.

These are the earlier, direct formulations: the value cube as a Spark
``groupBy`` over the columns with a row count; the column profiles from
one unpivot of the cells and one ``groupBy``; a column's codes from a
Python ``dict``; FD joint counts from a ``stack`` unpivot of every
column pair and one ``groupBy``, reduced to candidates by a loop over
``(a, b, rows)`` string tuples; the duplicate-row count from a
``groupBy`` over the row's columns; the one-pass row profile whose
row key is Spark's ``to_json``; and HoloClean's mode repair as a
``groupBy``, a ``row_number`` window and a join per constraint. The
tests check the value cube, its coder, its folds, the FD candidates,
the profiles derived from it and HoloClean's SQL against them.

It also keeps the simulated LLM's character-class kernels as
character loops over ``str.isdigit``, ``str.isalpha`` and
``str.isalnum``, which the tests check the ASCII fast paths against,
its typo search as a loop per value over length buckets with
``edit_distance`` on every candidate above the frequency floor, which
the tests check the batched search against, and its string review as
the chain of stages run on one value at a time, which the tests check
the review batched per prompt against.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.baselines.holoclean import TAU
from repro.llm import knowledge as kb
from repro.llm.client import SimulatedLLM, _concept_key
from repro.profiling import fd
from repro.profiling.column_profile import TOP_K, ColumnProfile


def _quote(column: str) -> str:
    return "`" + column.replace("`", "``") + "`"


#: a column pair's joint counts: (a value, b value, rows), no NULLs
TupleJoint = list[tuple[str, str, int]]


def groupby_value_cube(df: DataFrame, columns: list[str]
                       ) -> Counter[tuple[str | None, ...]]:
    """``fd.value_cube``'s rows as a multiset (NULL as ``None``), from
    one Spark ``groupBy`` over ``columns`` with a row count, collected
    through Arrow; the columns are named by position, so a data column
    called ``count`` cannot collide."""
    keys = [f"_{i}" for i in range(len(columns))]
    cube = (
        df.select(*[F.col(_quote(c)).cast("string").alias(k)
                    for c, k in zip(columns, keys)])
        .groupBy(*keys).count()
        .toPandas()
    )
    return Counter(dict(zip(cube[keys].itertuples(index=False, name=None),
                            cube["count"].tolist())))


def string_table(frame: pd.DataFrame) -> pa.Table:
    """A frame's columns as an Arrow table of strings, NULL as ``None``:
    the shape ``fd.value_cube`` collects, for ``fd.Cube.of``."""
    return pa.table({c: pa.array(frame[c].tolist(), pa.string())
                     for c in frame.columns})


def cube_rows(cube: fd.Cube) -> list[tuple[str | None, ...]]:
    """A coded cube's rows, decoded to their values (NULL as ``None``)."""
    return [tuple(None if k < 0 else values[k]
                  for values, k in zip(cube.values, row))
            for row in cube.codes.tolist()]


def factorize(values: Iterable[str | None]) -> tuple[np.ndarray, np.ndarray]:
    """``fd.encode`` as a Python ``dict``: integer codes of the values,
    and the distinct non-NULL values in first-seen order; ``None`` gets
    code ``-1``, as with ``pd.factorize``.

    ``pd.factorize`` itself hashes an all-string column as C strings,
    which end at the first NUL character, so ``''`` and ``'\\x00'`` would
    share a code; a ``dict`` compares whole Python strings.
    """
    index: dict[str, int] = {}
    codes = [-1 if v is None else index.setdefault(v, len(index))
             for v in values]
    return np.array(codes, dtype=np.int64), np.array(list(index),
                                                     dtype=object)


def _profiles(cells: Iterable[tuple[str, str | None, int]],
              columns: list[str], top_k: int) -> dict[str, ColumnProfile]:
    """Every column's profile from its ``(column, value, count)`` cells,
    one per distinct value, NULL included.

    A column's ``total`` is the sum of its counts, ``nulls`` its NULL
    cell's count and ``n_distinct`` its number of non-NULL cells. Its
    top values are the non-NULL cells ordered by ``(-count, value)``:
    Python's code-point order of ``str`` equals Spark's binary UTF-8
    order, so ties break as a Spark sort would.
    """
    nulls = dict.fromkeys(columns, 0)
    groups: dict[str, list[tuple[str, int]]] = {c: [] for c in columns}
    for c, v, n in cells:
        if v is None:
            nulls[c] = n
        else:
            groups[c].append((v, n))
    return {
        c: ColumnProfile(
            name=c,
            total=nulls[c] + sum(n for _, n in groups[c]),
            nulls=nulls[c],
            n_distinct=len(groups[c]),
            top_values=tuple(heapq.nsmallest(
                top_k, groups[c], key=lambda vn: (-vn[1], vn[0]))),
        )
        for c in columns
    }


def profile_table(df: DataFrame, columns: list[str], *,
                  top_k: int = TOP_K) -> dict[str, ColumnProfile]:
    """``profile_cube`` of ``df``'s value cube, in one Spark job: the
    table is unpivoted to ``(column, value)`` cells, NULL cells
    included, and one ``groupBy`` counts them; each profile is derived
    on the driver from the ``(column, value, count)`` rows."""
    counts = (
        df.unpivot(ids=[], values=columns,
                   variableColumnName="__col", valueColumnName="__val")
        .groupBy("__col", "__val").count()
        .toPandas()
    )
    return _profiles(zip(counts["__col"].tolist(), counts["__val"].tolist(),
                         counts["count"].tolist()), columns, top_k)


def stack_joints(df: DataFrame,
                 pairs: list[tuple[str, str]]) -> list[TupleJoint]:
    """Each pair's joint counts over ``df``, NULLs dropped: one row per
    ``(pair, a, b)`` from a ``stack`` unpivot and one ``groupBy``."""
    stack = ", ".join(
        f"{k}, CAST({_quote(a)} AS STRING), CAST({_quote(b)} AS STRING)"
        for k, (a, b) in enumerate(pairs))
    counts = (
        df.selectExpr(f"stack({len(pairs)}, {stack}) AS (pair, a, b)")
        .where("a IS NOT NULL AND b IS NOT NULL")
        .groupBy("pair", "a", "b").count()
        .toPandas()
    )
    joints: list[TupleJoint] = [[] for _ in pairs]
    for k, va, vb, c in zip(counts["pair"].tolist(), counts["a"].tolist(),
                            counts["b"].tolist(), counts["count"].tolist()):
        joints[k].append((va, vb, c))
    return joints


def _entropy(counts: list[int]) -> float:
    n = sum(counts)
    if n == 0:
        return 0.0
    return -math.fsum((c / n) * math.log2(c / n) for c in counts if c)


def _candidate(
    lhs: str, rhs: str, joint: TupleJoint, *,
    max_violation_rate: float,
    exclude_lhs_values: frozenset[str] | None,
) -> fd.FDCandidate | None:
    """``lhs -> rhs`` from its joint counts ``(lhs value, rhs value, n)``."""
    if exclude_lhs_values:
        joint = [j for j in joint if j[0] not in exclude_lhs_values]
    if not joint:
        return None
    marg_a: dict[str, int] = {}
    marg_b: dict[str, int] = {}
    groups: fd.Groups = {}
    for va, vb, c in joint:
        marg_a[va] = marg_a.get(va, 0) + c
        marg_b[vb] = marg_b.get(vb, 0) + c
        groups.setdefault(va, []).append((vb, c))
    n = sum(marg_a.values())
    h_a = _entropy(list(marg_a.values()))
    h_b = _entropy(list(marg_b.values()))
    h_ab = _entropy([c for _, _, c in joint])
    cond = max(0.0, h_ab - h_a)
    ratio = cond / h_b if h_b > 0 else 0.0
    violating = {k: v for k, v in groups.items() if len(v) > 1}
    viol_rows = sum(sum(c for _, c in v) - max(c for _, c in v)
                    for v in violating.values())
    rate = viol_rows / n if n else 0.0
    if (violating and ratio <= fd.MAX_ENTROPY_RATIO
            and rate <= max_violation_rate):
        return fd.FDCandidate(lhs, rhs, cond, ratio, rate, len(violating),
                              violating)
    return None


def list_fd_candidates(
    pairs: list[tuple[str, str]],
    joints: list[TupleJoint],
    *,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[fd.FDCandidate]:
    """``fd.fd_candidates`` as a loop over each joint's string tuples."""
    out: list[fd.FDCandidate] = []
    for (a, b), joint in zip(pairs, joints):
        for lhs, rhs, rows in ((a, b, joint),
                               (b, a, [(vb, va, c) for va, vb, c in joint])):
            cand = _candidate(lhs, rhs, rows,
                              max_violation_rate=max_violation_rate,
                              exclude_lhs_values=exclude_lhs_values)
            if cand is not None:
                out.append(cand)
    out.sort(key=lambda f: (f.entropy_ratio, f.lhs, f.rhs))
    return out


def stack_discover_fds(
    df: DataFrame,
    columns: list[str],
    *,
    n_distinct: dict[str, int],
    total: int,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[fd.FDCandidate]:
    """``discover_fds`` over ``df``'s ``columns``, from
    :func:`stack_joints` and :func:`list_fd_candidates`."""
    pairs = fd.candidate_pairs(columns, n_distinct=n_distinct, total=total)
    if not pairs:
        return []
    return list_fd_candidates(pairs, stack_joints(df, pairs),
                              max_violation_rate=max_violation_rate,
                              exclude_lhs_values=exclude_lhs_values)


def duplicate_rows(
    df: DataFrame, *, subset: list[str] | None = None, sample: int = 5
) -> tuple[int, list[str]]:
    """Count of surplus exactly-duplicated rows, plus sample renderings
    of the most repeated rows (ties in no particular order)."""
    cols = subset if subset is not None else df.columns
    groups = (
        df.groupBy(*cols)
        .agg(F.count(F.lit(1)).alias("_cnt"))
        .where(F.col("_cnt") > 1)
    )
    agg = groups.agg(
        F.coalesce(F.sum(F.col("_cnt") - 1), F.lit(0)).alias("surplus")
    ).collect()[0]
    surplus = int(agg["surplus"])
    examples: list[str] = []
    if surplus:
        for r in groups.orderBy(F.desc("_cnt")).limit(sample).collect():
            examples.append(
                ", ".join(f"{c}={r[c]!r}" for c in cols) + f" (x{r['_cnt']})"
            )
    return surplus, examples


def normalized_groups(cand: fd.FDCandidate) -> dict[str, list]:
    """A candidate's violating groups, independent of row order."""
    return {k: sorted(v) for k, v in cand.groups.items()}


def profile_rows(
    df: DataFrame, columns: list[str],
) -> tuple[dict[str, ColumnProfile], list[tuple[str, int]]]:
    """Profiles without top values, and every repeated row, in one job.

    ``df`` is unpivoted to ``(column, value)`` cells and one ``groupBy``
    counts them. Besides the columns' cells, each row contributes one
    cell holding the row itself, ``to_json(array(<columns>))``: an
    injective key in which NULLs group together as they do in a
    ``GROUP BY``. Only keys seen more than once leave Spark. Returns the
    profiles (``top_k=0``) and the repeated rows as ``(key, count)``.
    """
    label = "__row"
    while label in columns:
        label = "_" + label
    cells = [F.col(_quote(c)) for c in columns]
    keyed = df.select(*cells, F.to_json(F.array(*cells)).alias(label))
    counts = (
        keyed.unpivot(ids=[], values=columns + [label],
                      variableColumnName="__col", valueColumnName="__val")
        .groupBy("__col", "__val").count()
        .where((F.col("__col") != label) | (F.col("count") > 1))
        .toPandas()
    )
    is_row = counts["__col"] == label
    cols, rows = counts[~is_row], counts[is_row]
    return (_profiles(zip(cols["__col"].tolist(), cols["__val"].tolist(),
                          cols["count"].tolist()), columns, top_k=0),
            list(zip(rows["__val"].tolist(), rows["count"].tolist())))


def holoclean_reference(dirty: DataFrame,
                        constraints: list[tuple[str, str]]) -> DataFrame:
    """``holoclean_clean`` with the DataFrame API: per constraint, one
    aggregation and a window compute the (lhs, mode) table of the
    groups to repair, which is joined back and applied with a
    null-preserving conditional."""
    df = dirty
    for lhs, rhs in constraints:
        pair = (
            df.where(F.col(lhs).isNotNull() & F.col(rhs).isNotNull())
            .groupBy(lhs, rhs)
            .agg(F.count(F.lit(1)).alias("_cnt"))
        )
        w = Window.partitionBy(lhs)
        modes = (
            pair.withColumn("_total", F.sum("_cnt").over(w))
            .withColumn(
                "_rank",
                F.row_number().over(w.orderBy(F.desc("_cnt"), F.asc(rhs))),
            )
            .where(F.col("_rank") == 1)
            .where(F.col("_cnt") / F.col("_total") >= TAU)
            .where(F.col("_cnt") < F.col("_total"))  # has violations
            .select(
                F.col(lhs).alias("_lhs_v"),
                F.col(rhs).alias("_mode_v"),
            )
        )
        df = (
            df.join(modes, df[lhs] == modes["_lhs_v"], "left")
            .withColumn(
                rhs,
                F.when(
                    F.col("_mode_v").isNotNull() & F.col(rhs).isNotNull(),
                    F.col("_mode_v"),
                ).otherwise(F.col(rhs)),
            )
            .drop("_lhs_v", "_mode_v")
        )
    return df


# ---------------------------------------------------------------------------
# the simulated LLM's character-class kernels, one character at a time
# ---------------------------------------------------------------------------

def shape_of(value: str) -> str:
    """``knowledge.shape_of``: digits -> "9", letters -> "a", runs of
    "a" collapsed, every other character kept."""
    out = []
    for ch in value:
        if ch.isdigit():
            out.append("9")
        elif ch.isalpha():
            out.append("a")
        else:
            out.append(ch)
    collapsed: list[str] = []
    for ch in out:
        if ch == "a" and collapsed and collapsed[-1] == "a":
            continue
        collapsed.append(ch)
    return "".join(collapsed)


def strip_digits(value: str) -> str:
    """``knowledge.strip_digits``: ``value`` without its digits."""
    return "".join(ch for ch in value if not ch.isdigit())


def digit_heavy(v: str) -> bool:
    """``client._digit_heavy``: more than half of the alphanumerics are
    digits."""
    alnum = [c for c in v if c.isalnum()]
    if not alnum:
        return False
    return sum(c.isdigit() for c in alnum) / len(alnum) > 0.5


# ---------------------------------------------------------------------------
# the simulated LLM's typo search, one value at a time
# ---------------------------------------------------------------------------

def typo_buckets(values: Iterable[tuple[str | None, int]]
                 ) -> dict[int, list[tuple[int, str, str, str]]]:
    """A prompt's typo candidates by the length of their lower-cased
    form, most frequent first: ``(frequency, value, lower-cased,
    digit-stripped)``."""
    by_len: dict[int, list[tuple[int, str, str, str]]] = {}
    for v, c in values:
        if v is None:
            continue
        low = v.lower()
        by_len.setdefault(len(low), []).append(
            (c, v, low, kb.strip_digits(v)))
    for bucket in by_len.values():
        bucket.sort(key=lambda e: -e[0])
    return by_len


def typo_target(value: str, freq: int,
                by_len: dict[int, list[tuple[int, str, str, str]]]
                ) -> str | None:
    """``SimulatedLLM._typo_targets(pairs, queries)`` for one query row
    ``(value, freq)`` of the prompt's list that ``by_len`` buckets:
    every candidate in the length window above the frequency floor,
    nearest first, then most frequent; ``None`` on a tie."""
    budget = kb.typo_budget(value)
    low = value.lower()
    stripped = kb.strip_digits(value)
    floor = freq * SimulatedLLM.MIN_FREQ_RATIO
    scored: list[tuple[int, int, str]] = []
    for n in range(len(low) - budget, len(low) + budget + 1):
        for cfreq, cand, cand_low, cand_stripped in by_len.get(n, ()):
            if cfreq < floor:
                break  # buckets are most frequent first
            if cand == value or cand_stripped == stripped:
                continue  # differing numbers are distinct values
            d = kb.edit_distance(low, cand_low, cap=budget + 1)
            if d <= budget:
                scored.append((d, -cfreq, cand))
    if not scored:
        return None
    scored.sort()
    at_min = [s for s in scored if s[0] == scored[0][0]]
    if digit_heavy(value) and len(at_min) > 1:
        return None
    if len(at_min) > 1 and at_min[0][1] == at_min[1][1]:
        return None
    return at_min[0][2]


# ---------------------------------------------------------------------------
# the simulated LLM's string review, one value at a time
# ---------------------------------------------------------------------------

def concept_groups(values: Iterable[tuple[str | None, int]]
                   ) -> dict[tuple[str, object], tuple[int, str]]:
    """Each concept key of a prompt's values -> (group size, most
    common form, ties to the largest form)."""
    groups: dict[tuple[str, object], list[tuple[str, int]]] = {}
    for v, c in values:
        if v is not None and (ck := _concept_key(v)) is not None:
            groups.setdefault(ck, []).append((v, c))
    return {ck: (len(g), max(g, key=lambda vc: (vc[1], vc[0]))[0])
            for ck, g in groups.items()}


def string_fix(value: str | None, freq: int,
               by_len: dict[int, list[tuple[int, str, str, str]]],
               concepts: dict[tuple[str, object], tuple[int, str]],
               memo: dict[str, str | None] | None = None) -> str | None:
    """``SimulatedLLM._string_fixes(values)``'s entry for one
    ``(value, freq)`` of the prompt's ``values``: the stages in order
    (DMV/boolean skip, concept group, typo target, digit-heavy, words),
    the first that decides ends the chain. ``by_len`` and ``concepts``
    are :func:`typo_buckets` and :func:`concept_groups` of ``values``."""
    if value is None or kb.is_dmv_token(value) or kb.boolean_token(value) is not None:
        return None
    ck = _concept_key(value)
    if ck is not None:
        size, rep = concepts.get(ck, (0, None))
        return rep if size > 1 and rep != value else None
    best = typo_target(value, freq, by_len)
    if best is not None:
        return best
    if digit_heavy(value):
        return None
    return kb.fix_words(value, memo)
