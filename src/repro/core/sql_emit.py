"""Commented-SQL emission in the portable Spark ∩ DuckDB dialect.

The paper's output artifact is "a set of well-commented SQL queries"
(§2.2, Fig. 5), each produced from a decision the LLM made. A
:class:`Layer` carries one such decision as a value, not as SQL text: a
value map per column (:data:`~repro.core.counts.ValueMap`), a
:class:`~repro.core.counts.Swap`, an :class:`~repro.core.counts.FDRepair`
or a dedupe window's keys and order. :meth:`Layer.render` is the one
place a decision becomes a CTE of ``CASE WHEN`` / ``IN`` / window
expressions, and :func:`build_sql` nests the layers into one
statement. :func:`fold_layers` walks the same layers over a coded value
cube, which gives the statistics of the cleaned table without running
the SQL.

The dialect is deliberately restricted so the exact same text runs on
Spark (Catalyst, the production path) and on DuckDB (the correctness
oracle): unquoted snake_case identifiers, single-quoted literals with
``''`` escaping, ``CASE WHEN``, ``IN`` lists and ``row_number() OVER``
with an explicit NULL order where the engines' defaults differ. A
backslash, which the two engines read differently inside a literal, is
spliced in as ``chr(92)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.counts import FDRepair, Swap, ValueMap, fold_cube
from repro.profiling.fd import Cube

_IDENT_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def safe_ident(name: str) -> str:
    """Validate an identifier for unquoted use in both dialects."""
    if not _IDENT_RE.match(name):
        raise ValueError(
            f"identifier {name!r} is not portable unquoted SQL; "
            "benchmark schemas must use snake_case names"
        )
    return name


def sql_str(value: str) -> str:
    """A string literal valid in both dialects.

    Spark reads a backslash in a literal as an escape and DuckDB as
    itself, so backslashes are concatenated in as ``chr(92)``, inside
    parentheses so the expression can stand where a literal does
    (``= ...``, ``IN (...)``).
    """
    parts = ["'" + p.replace("'", "''") + "'" for p in value.split("\\")]
    if len(parts) == 1:
        return parts[0]
    return "(" + " || chr(92) || ".join(parts) + ")"


def value_case(column: str, values: ValueMap) -> str:
    """``CASE WHEN col IN (...) THEN NULL ELSE col END`` for a map that
    only nulls (§2.1.3), else ``CASE WHEN col = 'bad' THEN 'good' ...
    ELSE col END`` (Fig. 3)."""
    c = safe_ident(column)
    if all(new is None for new in values.values()):
        lst = ", ".join(sql_str(v) for v in sorted(values))
        return f"CASE WHEN {c} IN ({lst}) THEN NULL ELSE {c} END"
    whens = "\n        ".join(
        f"WHEN {c} = {sql_str(old)} THEN "
        + ("NULL" if new is None else sql_str(new))
        for old, new in sorted(values.items())
    )
    return f"CASE {whens}\n        ELSE {c} END"


def fd_repair_case(repair: FDRepair) -> str:
    """Rewrite the RHS of every repaired FD group to its true value."""
    l, r = safe_ident(repair.lhs), safe_ident(repair.rhs)
    # "AND r IS NOT NULL" preserves NULLs (e.g. from the DMV layer) inside
    # repaired groups — the FD fixes wrong values, it does not impute.
    whens = "\n        ".join(
        f"WHEN {l} = {sql_str(k)} AND {r} IS NOT NULL THEN {sql_str(v)}"
        for k, v in sorted(repair.mapping.items())
    )
    return f"CASE {whens}\n        ELSE {r} END"


def swap_case(swap: Swap) -> tuple[str, str]:
    """Expressions swapping two columns back where both hold the other's
    values (misplacement repair). Returns ``(expr_for_a, expr_for_b)``."""
    a, b = safe_ident(swap.a), safe_ident(swap.b)
    a_in = ", ".join(sql_str(v) for v in sorted(swap.a_off))
    b_in = ", ".join(sql_str(v) for v in sorted(swap.b_off))
    cond = f"{a} IN ({a_in}) AND {b} IN ({b_in})"
    return (
        f"CASE WHEN {cond} THEN {b} ELSE {a} END",
        f"CASE WHEN {cond} THEN {a} ELSE {b} END",
    )


#: the surrogate key; excluded from row identity, orders dedupe windows
ROW_ID = "row_id"

#: what a project layer decides: a value map per column, a swap or an
#: FD repair
Decision = dict[str, ValueMap] | Swap | FDRepair


@dataclass
class Layer:
    """One CTE of the cleaning pipeline, and the decision it applies.

    A project layer holds its ``decision``, which :meth:`render` alone
    turns into SQL and :func:`fold_layers` folds into a value cube;
    untouched columns pass through. A dedupe layer has ``key_cols``
    instead and keeps one row per key group: the one with the largest
    ``order_col`` when it has one, ties broken by the smallest
    ``row_id``. It serves both §2.1.7 duplication (keys = all content
    columns) and §2.1.8 uniqueness (keys = the key column). Without a
    ``row_id``, ties are broken by every column, each ``NULLS FIRST``:
    Spark and DuckDB put NULLs at opposite ends of an ascending sort.
    """

    name: str
    decision: Decision = field(default_factory=dict)
    comments: list[str] = field(default_factory=list)
    key_cols: list[str] = field(default_factory=list)
    order_col: str | None = None

    def render(self, source: str, columns: list[str]) -> str:
        comment = "".join(f"    -- {line}\n" for line in self.comments)
        cols = [safe_ident(c) for c in columns]
        if not self.key_cols:
            d = self.decision
            if isinstance(d, Swap):
                exprs = dict(zip((d.a, d.b), swap_case(d)))
            elif isinstance(d, FDRepair):
                exprs = {d.rhs: fd_repair_case(d)}
            else:
                exprs = {c: value_case(c, m) for c, m in d.items()}
            sel = ",\n        ".join(
                f"{exprs[c]} AS {c}" if c in exprs else c for c in cols)
            return f"{comment}    SELECT {sel}\n    FROM {source}"
        keys = ", ".join(safe_ident(k) for k in self.key_cols)
        by = [f"{safe_ident(self.order_col)} DESC"] if self.order_col else []
        if ROW_ID in columns:
            by.append(ROW_ID)
        else:
            by += [f"{c} NULLS FIRST" for c in cols]
        order, cols = ", ".join(by), ", ".join(cols)
        return (
            f"{comment}    SELECT {cols} FROM (\n"
            f"        SELECT {cols},\n"
            f"            row_number() OVER (PARTITION BY {keys} "
            f"ORDER BY {order}) AS _rn\n"
            f"        FROM {source}\n"
            f"    ) {self.name}_ranked WHERE _rn = 1"
        )


def build_sql(source_table: str, layers: list[Layer],
              columns: list[str]) -> str:
    """Nest ``layers`` into one WITH-statement over ``source_table``."""
    cols = ", ".join(safe_ident(c) for c in columns)
    if not layers:
        return f"SELECT {cols} FROM {safe_ident(source_table)}"
    parts = []
    prev = safe_ident(source_table)
    for layer in layers:
        body = layer.render(prev, columns)
        parts.append(f"{safe_ident(layer.name)} AS (\n{body}\n)")
        prev = layer.name
    return "WITH " + ",\n".join(parts) + f"\nSELECT {cols} FROM {prev}"


def fold_layers(cube: Cube, layers: list[Layer]) -> Cube:
    """``cube`` as the project ``layers``, in order, rewrite its rows,
    without running their SQL: each layer's value maps fold as
    :func:`~repro.core.counts.fold_cube`, a swap or an FD repair by its
    own ``fold``."""
    for layer in layers:
        d = layer.decision
        cube = fold_cube(cube, d) if isinstance(d, dict) else d.fold(cube)
    return cube
