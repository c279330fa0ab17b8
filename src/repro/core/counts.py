"""Driver-side bookkeeping of value frequencies between steps.

The pipeline profiles each column once with Spark, then threads the
(value, count) vector through the per-column steps, folding each step's
value map into it (:func:`fold_counts`) — §2.1's ordering constraint
("only after typos are fixed can we detect the patterns") is
implemented by these updates, not by re-scanning the table after every
step.

Table-level statistics are folded the same way: each column's stage A
value maps are kept in layer order, and :func:`fold_cube` passes a
value cube of the input through them, which gives the cube of the
column-cleaned table without evaluating its SQL. The table-level row
rewrites, misplacement's :class:`Swap` and the FD step's
:class:`FDRepair`, fold the cube further, to the repaired table. Each
decision is one value that :mod:`repro.core.sql_emit` renders as a SQL
layer and that folds the cube as that layer rewrites rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.profiling.fd import factorize

Counts = tuple[tuple[str, int], ...]
#: one step's decision for one column, and the SQL layer that applies
#: it: value -> new value, or -> None to null it
ValueMap = dict[str, str | None]


def fold_counts(counts: Counts, values: ValueMap) -> Counts:
    """A frequency vector after one cleaning layer: rewritten values
    merge their counts, values mapped to ``None`` drop out."""
    merged: dict[str, int] = {}
    for v, c in counts:
        w = fold(v, [values])
        if w is not None:
            merged[w] = merged.get(w, 0) + c
    return tuple(sorted(merged.items(), key=lambda vc: (-vc[1], vc[0])))


def fold(value: str | None, maps: list[ValueMap]) -> str | None:
    """``value`` after a column's layers, applied as the SQL applies
    them: one lookup per layer, and NULL stays NULL."""
    for m in maps:
        if value is None:
            break
        value = m.get(value, value)
    return value


def fold_cube(cube: pd.DataFrame,
              maps: dict[str, list[ValueMap]]) -> pd.DataFrame:
    """``cube`` with every column's values folded through its maps.

    Each distinct value is folded once. Cube rows that become equal are
    not merged: their counts add up when the cube is marginalized.
    """
    out = {}
    for c in cube.columns:
        codes, uniques = factorize(cube[c].to_numpy())
        folded = [fold(v, maps.get(c, [])) for v in uniques] + [None]
        out[c] = np.array(folded, dtype=object)[codes]
    return pd.DataFrame(out, columns=cube.columns)


@dataclass(frozen=True)
class Swap:
    """Swap two columns' cells back in every row where ``a`` holds one
    of ``a_off`` and ``b`` one of ``b_off`` (misplacement, §2.1)."""

    a: str
    b: str
    #: ``a``'s values that belong in ``b``, and ``b``'s that belong in
    #: ``a``; never NULL
    a_off: tuple[str, ...]
    b_off: tuple[str, ...]

    def fold(self, cube: pd.DataFrame) -> pd.DataFrame:
        """``cube`` with the swap applied; NULL is in neither list."""
        a, b = cube[self.a].to_numpy(), cube[self.b].to_numpy()
        hit = (cube[self.a].isin(self.a_off).to_numpy()
               & cube[self.b].isin(self.b_off).to_numpy())
        out = cube.copy()
        out[self.a], out[self.b] = np.where(hit, b, a), np.where(hit, a, b)
        return out


@dataclass(frozen=True)
class FDRepair:
    """Rewrite ``rhs`` to ``mapping[lhs]`` in every row whose ``lhs``
    is a repaired group and whose ``rhs`` is not NULL (§2.1.6)."""

    lhs: str
    rhs: str
    #: LHS value -> the group's true RHS value
    mapping: dict[str, str]

    def fold(self, cube: pd.DataFrame) -> pd.DataFrame:
        """``cube`` with the repair applied; a NULL LHS matches no
        group and a NULL RHS stays NULL."""
        new = cube[self.lhs].map(self.mapping).to_numpy()
        rhs = cube[self.rhs].to_numpy()
        hit = pd.notna(new) & pd.notna(rhs)
        out = cube.copy()
        out[self.rhs] = np.where(hit, new, rhs)
        return out
