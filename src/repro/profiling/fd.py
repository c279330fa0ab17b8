"""Entropy-based functional-dependency discovery (paper §2.1.6).

Following Baran/the paper, only single-attribute FDs ``A -> B`` are
considered. The statistical strength of a candidate is its conditional
entropy ``H(B|A) = H(A,B) - H(A)`` (the entropy measurement of Beskales
et al. the paper cites): ``0`` means the FD holds exactly; small values
mean a few violating groups.

:func:`discover_fds` prunes the pair lattice (:func:`candidate_pairs`)
and composes three parts:

1. :func:`value_cube`: **one** Spark aggregation, a ``groupBy`` over
   every candidate column with a row count, collected through Arrow.
   It has at most one row per input row, however many pairs there are.
2. :func:`pair_joints`: each pair's joint counts, marginalized from the
   cube on the driver with vectorized pandas/numpy (rows with a NULL on
   either side dropped). ``H(A,B)`` is symmetric, so one pair's joint
   counts serve both directions.
3. :func:`fd_candidates`: the reduction to candidates, with exactly
   rounded sums (:func:`math.fsum`), so the result does not depend on
   row order: mathematically tied candidates get bit-equal ratios and
   are ordered by ``(lhs, rhs)``.

``CocoonPipeline`` calls the parts itself: it builds the cube over the
input table and folds the stage A cleaning into it before
marginalizing. Each candidate carries its violating groups, which
:func:`violating_groups` formats for the repair prompt without another
Spark job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

Groups = dict[str, list[tuple[str, int]]]
#: a column pair's joint counts: (a value, b value, rows), no NULLs
Joint = list[tuple[str, str, int]]

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


def _entropy(counts: list[int]) -> float:
    n = sum(counts)
    if n == 0:
        return 0.0
    return -math.fsum((c / n) * math.log2(c / n) for c in counts if c)


def _quote(column: str) -> str:
    return "`" + column.replace("`", "``") + "`"


def _candidate(
    lhs: str, rhs: str, joint: list[tuple[str, str, int]], *,
    max_violation_rate: float,
    exclude_lhs_values: frozenset[str] | None,
) -> FDCandidate | None:
    """``lhs -> rhs`` from its joint counts ``(lhs value, rhs value, n)``."""
    if exclude_lhs_values:
        # placeholder LHS values create fake groups
        joint = [j for j in joint if j[0] not in exclude_lhs_values]
    if not joint:
        return None
    marg_a: dict[str, int] = {}
    marg_b: dict[str, int] = {}
    groups: Groups = {}
    for va, vb, c in joint:
        marg_a[va] = marg_a.get(va, 0) + c
        marg_b[vb] = marg_b.get(vb, 0) + c
        groups.setdefault(va, []).append((vb, c))
    n = sum(marg_a.values())
    h_a = _entropy(list(marg_a.values()))
    h_b = _entropy(list(marg_b.values()))
    h_ab = _entropy([c for _, _, c in joint])
    cond = max(0.0, h_ab - h_a)
    # normalize by H(B): an FD over a high-cardinality RHS tolerates
    # more absolute conditional entropy from its dirty violations
    ratio = cond / h_b if h_b > 0 else 0.0
    violating = {k: v for k, v in groups.items() if len(v) > 1}
    viol_rows = sum(sum(c for _, c in v) - max(c for _, c in v)
                    for v in violating.values())
    rate = viol_rows / n if n else 0.0
    if violating and ratio <= MAX_ENTROPY_RATIO and rate <= max_violation_rate:
        return FDCandidate(lhs, rhs, cond, ratio, rate, len(violating),
                           violating)
    return None


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


def value_cube(df: DataFrame,
               columns: list[str]) -> tuple[pd.DataFrame, np.ndarray]:
    """Every distinct combination of ``columns``' values and its rows.

    One Spark ``groupBy`` collected through Arrow. Returns the
    combinations (values cast to string, NULL as ``None``) as a pandas
    frame with ``columns`` as its columns, and their row counts. The
    Spark columns are named by position, so a data column called
    ``count`` cannot collide with the count.
    """
    keys = [f"_{i}" for i in range(len(columns))]
    cube = (
        df.select(*[F.col(_quote(c)).cast("string").alias(k)
                    for c, k in zip(columns, keys)])
        .groupBy(*keys).count()
        .toPandas()
    )
    return (cube[keys].set_axis(columns, axis=1),
            cube["count"].to_numpy(dtype=np.int64))


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes of a cube column's values, and its distinct non-NULL
    values in first-seen order: ``None`` gets code ``-1``, as with
    ``pd.factorize``.

    ``pd.factorize`` itself hashes an all-string column as C strings,
    which end at the first NUL character, so ``''`` and ``'\\x00'`` would
    share a code; a ``dict`` compares whole Python strings.
    """
    index: dict[str, int] = {}
    codes = np.fromiter(
        (-1 if v is None else index.setdefault(v, len(index))
         for v in values), dtype=np.int64, count=len(values))
    return codes, np.array(list(index), dtype=object)


def pair_joints(cube: pd.DataFrame, rows: np.ndarray,
                pairs: list[tuple[str, str]]) -> list[Joint]:
    """Each pair's joint counts, marginalized from a value cube.

    ``cube`` and ``rows`` are as :func:`value_cube` returns them. A cube
    row with a NULL in either column of a pair is dropped from that
    pair. Each column is factorized once; each pair is then one pandas
    ``groupBy`` over integer codes.
    """
    codes = {c: factorize(cube[c].to_numpy())
             for c in dict.fromkeys(c for p in pairs for c in p)}
    out: list[Joint] = []
    for a, b in pairs:
        (ca, ua), (cb, ub) = codes[a], codes[b]
        keep = (ca >= 0) & (cb >= 0)
        joint = (pd.Series(rows[keep])
                 .groupby(ca[keep].astype(np.int64) * len(ub) + cb[keep])
                 .sum())
        key = joint.index.to_numpy()
        out.append(list(zip(ua[key // len(ub)].tolist(),
                            ub[key % len(ub)].tolist(),
                            joint.tolist())))
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
        for lhs, rhs, rows in ((a, b, joint),
                               (b, a, [(vb, va, c) for va, vb, c in joint])):
            fd = _candidate(lhs, rhs, rows,
                            max_violation_rate=max_violation_rate,
                            exclude_lhs_values=exclude_lhs_values)
            if fd is not None:
                out.append(fd)
    out.sort(key=lambda f: (f.entropy_ratio, f.lhs, f.rhs))
    return out


def discover_fds(
    df: DataFrame,
    columns: list[str],
    *,
    n_distinct: dict[str, int],
    total: int,
    max_violation_rate: float = 0.45,
    exclude_lhs_values: frozenset[str] | None = None,
) -> list[FDCandidate]:
    """Find statistically strong FD candidates among ``columns``.

    :func:`candidate_pairs`, then :func:`value_cube` over their columns,
    :func:`pair_joints` and :func:`fd_candidates`.
    """
    pairs = candidate_pairs(columns, n_distinct=n_distinct, total=total)
    if not pairs:
        return []
    cube, rows = value_cube(df, list(dict.fromkeys(c for p in pairs
                                                   for c in p)))
    return fd_candidates(pairs, pair_joints(cube, rows, pairs),
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
