"""Entropy-based functional-dependency discovery (paper §2.1.6).

Following Baran/the paper, only single-attribute FDs ``A -> B`` are
considered. The statistical strength of a candidate is its conditional
entropy ``H(B|A) = H(A,B) - H(A)`` (the entropy measurement of Beskales
et al. the paper cites): ``0`` means the FD holds exactly; small values
mean a few violating groups.

Every statistic is reduced from a value cube, the table's content
columns dictionary-encoded row for row as one :class:`Cube`:

1. :func:`value_cube`: **one** Spark scan and no aggregate, and no
   PySpark ``Column``: one ``selectExpr`` casts the columns to string
   inside Spark and ``toArrow()`` collects them. :meth:`Cube.of` codes
   each Arrow column once (:func:`encode`, one ``dictionary_encode``).
   Every later pass reads these codes: a fold that rewrites values
   codes only the column's distinct values (:meth:`Cube.recoded`),
   never its rows again. No pass depends on the order of the cube's
   rows, and each sums over them.
2. :func:`pair_joints`: each pair's joint counts, counted from the
   cube's code pairs (rows with a NULL on either side dropped).
   ``H(A,B)`` is symmetric, so one pair's :class:`Joint` serves both
   directions.
3. :func:`fd_candidates`: the reduction to candidates on integer codes:
   marginals, group maxima and violating groups are ``bincount`` and
   ``maximum.at`` reductions, and strings are only looked up for an
   accepted candidate's groups. Entropies are exactly rounded sums
   (:func:`math.fsum`), so the result does not depend on row order:
   mathematically tied candidates get bit-equal ratios and are ordered
   by ``(lhs, rhs)``.

:func:`discover_fds` composes :func:`candidate_pairs` (the pruned pair
lattice), :func:`pair_joints` and :func:`fd_candidates` over a cube;
Raha+Baran calls it with the cube it also profiles from.
``CocoonPipeline`` calls the parts itself: it folds the stage A
cleaning into its cube before counting joints. Each candidate carries
its violating groups, which :func:`violating_groups` formats for the
repair prompt without another Spark job.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

Groups = dict[str, list[tuple[str, int]]]

#: a column with more distinct values is too near-unique to be an LHS
#: and too high-cardinality to be an RHS
MAX_DISTINCT = 1000
#: the largest H(B|A) / H(B) of a candidate
MAX_ENTROPY_RATIO = 0.35
#: violating groups :func:`violating_groups` returns per candidate
MAX_GROUPS = 500


@dataclass(frozen=True)
class FDCandidate:
    """A statistically strong single-attribute FD candidate."""

    lhs: str
    rhs: str
    conditional_entropy: float
    #: H(B|A) / H(B) in [0, 1]: 0 = exact FD, 1 = A tells nothing about B
    entropy_ratio: float
    #: fraction of non-null rows whose RHS differs from their group's mode
    violation_rate: float
    n_violating_groups: int
    #: LHS value -> its (RHS value, count) pairs, for every LHS group
    #: with more than one RHS value
    groups: Groups = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class Joint:
    """A column pair's joint counts, NULLs dropped: one entry per
    distinct ``(a, b)`` value pair, as codes into each column's values."""

    a: np.ndarray
    b: np.ndarray
    rows: np.ndarray
    #: the distinct values ``a`` and ``b`` index
    a_values: np.ndarray
    b_values: np.ndarray

    def swapped(self) -> Joint:
        """The same counts as a ``(b, a)`` joint, entries in this order."""
        return Joint(self.b, self.a, self.rows, self.b_values, self.a_values)

    def tuples(self) -> list[tuple[str, str, int]]:
        """Every entry as ``(a value, b value, rows)``."""
        return list(zip(self.a_values[self.a].tolist(),
                        self.b_values[self.b].tolist(), self.rows.tolist()))


def _entropy(counts: np.ndarray | list[int]) -> float:
    """Entropy of a distribution given by its counts; zeros are skipped.

    Each distinct count's term is computed once and repeated by its
    multiplicity. :func:`math.fsum` is exactly rounded, so the result is
    the sum over every count, bit for bit, in any order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    values, mult = np.unique(counts[counts > 0], return_counts=True)
    n = int(values @ mult)
    if n == 0:
        return 0.0
    return -math.fsum(t for c, m in zip(values.tolist(), mult.tolist())
                      for t in repeat((c / n) * math.log2(c / n), m))


def _quote(column: str) -> str:
    return "`" + column.replace("`", "``") + "`"


def _sums(codes: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Per code, the sum of its joint entries' ``rows``."""
    # float sums of integer counts are exact below 2**53 rows
    return np.bincount(codes, weights=rows, minlength=size).astype(np.int64)


def _candidate(
    lhs: str, rhs: str, joint: Joint, *,
    max_violation_rate: float,
    exclude_lhs_values: frozenset[str] | None,
) -> FDCandidate | None:
    """``lhs -> rhs`` from its joint counts, ``lhs`` being ``joint.a``."""
    ca, cb, rows = joint.a, joint.b, joint.rows
    size = len(joint.a_values)
    if exclude_lhs_values:
        # placeholder LHS values create fake groups
        keep = ~isin(joint.a_values, exclude_lhs_values)[ca]
        ca, cb, rows = ca[keep], cb[keep], rows[keep]
    # an LHS group with more than one RHS value violates the FD
    violating = np.bincount(ca, minlength=size) > 1
    if not violating.any():
        return None
    marg_a = _sums(ca, rows, size)
    top = np.zeros(size, dtype=np.int64)
    np.maximum.at(top, ca, rows)
    n = int(marg_a.sum())
    cond = max(0.0, _entropy(rows) - _entropy(marg_a))
    h_b = _entropy(_sums(cb, rows, len(joint.b_values)))
    # normalize by H(B): an FD over a high-cardinality RHS tolerates
    # more absolute conditional entropy from its dirty violations
    ratio = cond / h_b if h_b > 0 else 0.0
    rate = int((marg_a - top).sum()) / n
    if ratio > MAX_ENTROPY_RATIO or rate > max_violation_rate:
        return None
    hit = violating[ca]
    groups: Groups = {}
    for va, vb, c in zip(joint.a_values[ca[hit]].tolist(),
                         joint.b_values[cb[hit]].tolist(),
                         rows[hit].tolist()):
        groups.setdefault(va, []).append((vb, c))
    return FDCandidate(lhs, rhs, cond, ratio, rate, int(violating.sum()),
                       groups)


def candidate_pairs(
    columns: list[str], *, n_distinct: dict[str, int], total: int,
) -> list[tuple[str, str]]:
    """The unordered column pairs whose FDs are worth measuring.

    ``n_distinct`` (from the column profiles) prunes the pair lattice:
    a useful LHS groups rows (not near-unique) and a useful RHS is
    low-cardinality enough to have a mode.
    """
    cand = [
        c for c in columns
        if 2 <= n_distinct.get(c, total) <= min(MAX_DISTINCT, int(total * 0.9))
    ]
    return [(a, b) for i, a in enumerate(cand) for b in cand[i + 1:]]


def encode(values: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes of an Arrow string array, and its distinct non-NULL
    values in first-seen order: NULL gets code ``-1``. One
    ``dictionary_encode``; Arrow compares whole strings, so ``''`` and
    ``'\\x00'`` get two codes."""
    coded = pc.dictionary_encode(values)
    return (coded.indices.fill_null(-1).to_numpy(),
            coded.dictionary.to_numpy(zero_copy_only=False))


def isin(values: np.ndarray, keep: Iterable[str]) -> np.ndarray:
    """Per distinct value of a column, whether it is in ``keep``, plus
    a last ``False`` for NULL's ``-1``: indexed by the column's codes,
    it marks the rows that hold one of ``keep``."""
    keep = set(keep)
    return np.array([v in keep for v in values.tolist()] + [False])


def distinct_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A code matrix's distinct rows and each one's number of rows.

    Each row is compared as one opaque byte string (a void view), which
    sorts faster than ``np.unique(axis=0)``'s column-by-column order;
    the rows come out in the order of their bytes, which no caller
    relies on.
    """
    codes = np.ascontiguousarray(codes)
    keys = codes.view(np.dtype((np.void, codes.itemsize * codes.shape[1])))
    _, first, counts = np.unique(keys.reshape(-1), return_index=True,
                                 return_counts=True)
    return codes[first], counts


@dataclass(frozen=True, eq=False)
class Cube:
    """A value cube: a table's columns, dictionary-encoded row for row.

    ``values[j]`` holds column ``j``'s distinct values, and
    ``codes[i, j]`` is row ``i``'s code in that column: an index into
    ``values[j]``, or ``-1`` for NULL. A column's values are distinct
    and never NULL, so equal rows have equal codes. A fold may leave a
    value that no row holds; marginals skip it. The rows are in no
    particular order, and equal rows are not merged: every statistic
    read from a cube is a sum over its rows.
    """

    columns: list[str]
    values: list[np.ndarray]
    codes: np.ndarray

    @classmethod
    def of(cls, table: pa.Table) -> Cube:
        """The cube of an Arrow table of string columns: each column is
        coded once (:func:`encode`)."""
        codes = np.empty((table.num_rows, table.num_columns), dtype=np.int64)
        values = []
        for j, col in enumerate(table.columns):
            codes[:, j], col_values = encode(col.combine_chunks())
            values.append(col_values)
        return cls(table.column_names, values, codes)

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A column's codes and its distinct values."""
        j = self.columns.index(name)
        return self.codes[:, j], self.values[j]

    def recoded(self, changes: dict[str, tuple[np.ndarray, np.ndarray]]
                ) -> Cube:
        """This cube with the named columns' codes and values replaced.

        The new values may repeat and may hold ``None``: they are coded
        (:func:`encode`, a pass over the values, not the rows) and the
        codes remapped, so each distinct value keeps one code and
        ``None`` becomes NULL.
        """
        codes, values = self.codes.copy(), list(self.values)
        for name, (col_codes, col_values) in changes.items():
            j = self.columns.index(name)
            remap, values[j] = encode(pa.array(col_values, pa.string()))
            codes[:, j] = np.append(remap, -1)[col_codes]
        return Cube(self.columns, values, codes)


def value_cube(df: DataFrame, columns: list[str]) -> Cube:
    """The value cube of ``df``'s ``columns``: each row's values, coded.

    One Spark scan and no aggregate: one ``selectExpr`` casts the
    columns to string inside Spark, so every type keeps Spark's
    rendering (the double ``1.0`` is ``'1.0'``, not ``'1'``), and
    ``toArrow()`` collects them; the driver codes them
    (:meth:`Cube.of`). No PySpark ``Column`` is built, and the collect
    is Arrow whatever ``spark.sql.execution.arrow.pyspark.enabled``
    says. Rows are not deduplicated, in Spark or on the driver: a
    table's rows are distinct or nearly so, and every statistic sums
    over rows anyway. The Spark columns are named by position, so any
    column name is safe.
    With no column, Spark's Arrow result has no row, and neither has
    the cube.

    The whole projection is one driver result, bounded by
    ``spark.driver.maxResultSize`` (1 GB by default): about 290 bytes
    of Arrow per Movies-shaped row (21.6 MB at Movies x10).
    """
    table = df.selectExpr(*[f"CAST({_quote(c)} AS STRING) AS _{i}"
                            for i, c in enumerate(columns)]).toArrow()
    return Cube.of(table.rename_columns(columns))


def pair_joints(cube: Cube, pairs: list[tuple[str, str]]) -> list[Joint]:
    """Each pair's joint counts, counted from a value cube's codes.

    A cube row with a NULL in either column of a pair is dropped from
    that pair. Each pair's entries are its distinct code pairs, in code
    order.
    """
    out: list[Joint] = []
    for a, b in pairs:
        (ca, ua), (cb, ub) = cube.column(a), cube.column(b)
        keep = (ca >= 0) & (cb >= 0)
        width = max(len(ub), 1)
        key, rows = np.unique(ca[keep] * width + cb[keep],
                              return_counts=True)
        out.append(Joint(key // width, key % width, rows, ua, ub))
    return out


def fd_candidates(
    pairs: list[tuple[str, str]],
    joints: list[Joint],
    *,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[FDCandidate]:
    """Both directions of every pair, reduced to FD candidates.

    Candidates are returned strongest (lowest entropy ratio) first;
    exact FDs with no violating group are dropped — there is nothing
    to clean.
    """
    out: list[FDCandidate] = []
    for (a, b), joint in zip(pairs, joints):
        for lhs, rhs, j in ((a, b, joint), (b, a, joint.swapped())):
            fd = _candidate(lhs, rhs, j,
                            max_violation_rate=max_violation_rate,
                            exclude_lhs_values=exclude_lhs_values)
            if fd is not None:
                out.append(fd)
    out.sort(key=lambda f: (f.entropy_ratio, f.lhs, f.rhs))
    return out


def discover_fds(
    cube: Cube,
    *,
    n_distinct: dict[str, int],
    total: int,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[FDCandidate]:
    """Find statistically strong FD candidates among a value cube's
    columns, without a Spark job.

    :func:`candidate_pairs`, then :func:`pair_joints` and
    :func:`fd_candidates`.
    """
    pairs = candidate_pairs(cube.columns, n_distinct=n_distinct, total=total)
    return fd_candidates(pairs, pair_joints(cube, pairs),
                         max_violation_rate=max_violation_rate,
                         exclude_lhs_values=exclude_lhs_values)


def violating_groups(cand: FDCandidate) -> Groups:
    """RHS value distribution of every LHS group violating ``cand``.

    Returns ``{lhs_value: [(rhs_value, count), ...]}`` ordered by LHS
    value, counts descending with a deterministic tie-break on value,
    and at most ``MAX_GROUPS`` groups — the exact structure the §2.1.6
    repair prompt shows the LLM. The groups are the ones
    :func:`discover_fds` found, so LHS values it excluded stay out.
    """
    out = {
        k: sorted(v, key=lambda vc: (-vc[1], vc[0]))
        for k, v in sorted(cand.groups.items())
    }
    if len(out) > MAX_GROUPS:
        out = dict(list(out.items())[:MAX_GROUPS])
    return out
