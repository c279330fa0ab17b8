"""Commented-SQL emission in the portable Spark ∩ DuckDB dialect.

The paper's output artifact is "a set of well-commented SQL queries"
(§2.2, Fig. 5). Every cleaning decision becomes a CTE layer of ``CASE
WHEN`` / ``IN`` / window expressions; :func:`build_sql` nests the layers
into one statement. The dialect is deliberately restricted so the exact
same text runs on Spark (Catalyst, the production path) and on DuckDB
(the correctness oracle): unquoted snake_case identifiers, single-quoted
literals with ``''`` escaping, ``CASE WHEN``, ``IN`` lists and
``row_number() OVER``. A backslash, which the two engines read
differently inside a literal, is spliced in as ``chr(92)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.counts import FDRepair, Swap, ValueMap

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


@dataclass
class Layer:
    """One CTE of the cleaning pipeline.

    ``kind`` is ``"project"`` (per-column expressions in ``exprs``;
    untouched columns pass through), ``"window_dedupe"`` (keep one row
    per ``key_cols`` group, first by ``order_col`` ascending) — used for
    both §2.1.7 duplication (keys = all content columns) and §2.1.8
    uniqueness (keys = the key column).
    """

    name: str
    kind: str = "project"
    comments: list[str] = field(default_factory=list)
    exprs: dict[str, str] = field(default_factory=dict)
    key_cols: list[str] = field(default_factory=list)
    order_col: str | None = None
    order_desc: bool = False

    def render(self, source: str, columns: list[str]) -> str:
        comment = "".join(f"    -- {line}\n" for line in self.comments)
        if self.kind == "project":
            sel = ",\n        ".join(
                f"{self.exprs[c]} AS {safe_ident(c)}" if c in self.exprs
                else safe_ident(c)
                for c in columns
            )
            return f"{comment}    SELECT {sel}\n    FROM {source}"
        if self.kind == "window_dedupe":
            keys = ", ".join(safe_ident(k) for k in self.key_cols)
            order = safe_ident(self.order_col) if self.order_col else (
                safe_ident(columns[0])
            )
            if self.order_desc:
                order += " DESC"
            cols = ", ".join(safe_ident(c) for c in columns)
            return (
                f"{comment}    SELECT {cols} FROM (\n"
                f"        SELECT {cols},\n"
                f"            row_number() OVER (PARTITION BY {keys} "
                f"ORDER BY {order}) AS _rn\n"
                f"        FROM {source}\n"
                f"    ) {self.name}_ranked WHERE _rn = 1"
            )
        raise ValueError(f"unknown layer kind {self.kind!r}")


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
