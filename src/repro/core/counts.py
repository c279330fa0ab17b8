"""Driver-side bookkeeping of value frequencies between steps.

The pipeline profiles each column once with Spark, then threads the
(value, count) vector through the per-column steps, folding each step's
mapping into it — §2.1's ordering constraint ("only after typos are
fixed can we detect the patterns") is implemented by these updates, not
by re-scanning the table after every step.

Table-level statistics are folded the same way: each column's stage A
steps are recorded as value maps in layer order (a value mapped to
``None`` is nulled), and :func:`fold_cube` passes a value cube of the
input through them, which gives the cube of the column-cleaned table
without evaluating its SQL.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

Counts = tuple[tuple[str, int], ...]
#: one cleaning layer of one column: value -> new value, or -> None
ValueMap = dict[str, str | None]


def apply_mapping(counts: Counts, mapping: dict[str, str]) -> Counts:
    """Fold a value->value cleaning map into a frequency vector."""
    if not mapping:
        return counts
    merged: dict[str, int] = {}
    for v, c in counts:
        merged[mapping.get(v, v)] = merged.get(mapping.get(v, v), 0) + c
    return tuple(sorted(merged.items(), key=lambda vc: (-vc[1], vc[0])))


def remove_values(counts: Counts, values: list[str] | tuple[str, ...]) -> Counts:
    """Drop values (e.g. ones nulled as DMVs) from a frequency vector."""
    drop = set(values)
    return tuple((v, c) for v, c in counts if v not in drop)


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
        codes, uniques = pd.factorize(cube[c].to_numpy())
        folded = [fold(v, maps.get(c, [])) for v in uniques] + [None]
        out[c] = np.array(folded, dtype=object)[codes]
    return pd.DataFrame(out, columns=cube.columns)
