"""Driver-side bookkeeping of value frequencies between steps.

The pipeline profiles each column once from the input's value cube,
then threads the (value, count) vector through the per-column steps,
folding each step's value map into it (:func:`fold_counts`) — §2.1's
ordering constraint ("only after typos are fixed can we detect the
patterns") is implemented by these updates, not by re-scanning the
table after every step.

Table-level statistics are folded the same way, from the decisions the
SQL layers carry (:class:`~repro.core.sql_emit.Layer`): a layer's value
maps (:func:`fold_cube`), misplacement's :class:`Swap` and the FD step's
:class:`FDRepair` each pass the input's coded value cube
(:class:`~repro.profiling.fd.Cube`) on as that layer rewrites its rows,
which gives the cube of the cleaned table without evaluating its SQL
(:func:`~repro.core.sql_emit.fold_layers` walks the layers). A fold
selects rows on their codes and rewrites a column's distinct values,
never the rows' strings; the folded cube keeps one row per input row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.profiling.fd import Cube, isin

Counts = tuple[tuple[str, int], ...]
#: one step's decision for one column: value -> new value, or -> None
#: to null it
ValueMap = dict[str, str | None]


def fold_counts(counts: Counts, values: ValueMap) -> Counts:
    """A frequency vector after one cleaning layer: rewritten values
    merge their counts, values mapped to ``None`` drop out."""
    merged: dict[str, int] = {}
    for v, c in counts:
        w = fold(v, values)
        if w is not None:
            merged[w] = merged.get(w, 0) + c
    return tuple(sorted(merged.items(), key=lambda vc: (-vc[1], vc[0])))


def fold(value: str | None, values: ValueMap) -> str | None:
    """``value`` after one layer's map, applied as the SQL applies it:
    one lookup, and NULL stays NULL."""
    return None if value is None else values.get(value, value)


def fold_cube(cube: Cube, maps: dict[str, ValueMap]) -> Cube:
    """``cube`` with each named column's values folded through its map,
    as one project layer's value maps rewrite them.

    Each column's distinct values are folded, once each, and its codes
    follow them (:meth:`~repro.profiling.fd.Cube.recoded`). Cube rows
    that become equal stay separate rows, as in the table the SQL
    gives.
    """
    return cube.recoded({
        c: (codes, np.array([fold(v, maps[c]) for v in values.tolist()],
                            dtype=object))
        for c, codes, values in zip(cube.columns, cube.codes.T, cube.values)
        if maps.get(c)})


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

    def fold(self, cube: Cube) -> Cube:
        """``cube`` with the swap applied; NULL is in neither list. Each
        column's values are extended by the other's, which its swapped
        rows' codes then index."""
        (ca, va), (cb, vb) = cube.column(self.a), cube.column(self.b)
        hit = isin(va, self.a_off)[ca] & isin(vb, self.b_off)[cb]
        return cube.recoded({
            self.a: (np.where(hit, len(va) + cb, ca), np.append(va, vb)),
            self.b: (np.where(hit, len(vb) + ca, cb), np.append(vb, va)),
        })


@dataclass(frozen=True)
class FDRepair:
    """Rewrite ``rhs`` to ``mapping[lhs]`` in every row whose ``lhs``
    is a repaired group and whose ``rhs`` is not NULL (§2.1.6)."""

    lhs: str
    rhs: str
    #: LHS value -> the group's true RHS value
    mapping: dict[str, str]

    def fold(self, cube: Cube) -> Cube:
        """``cube`` with the repair applied; a NULL LHS matches no
        group and a NULL RHS stays NULL. The RHS values are extended by
        each LHS value's repair (``None`` for none), which a repaired
        row's code then indexes by its LHS code."""
        (cl, vl), (cr, vr) = cube.column(self.lhs), cube.column(self.rhs)
        new = np.array([self.mapping.get(v) for v in vl.tolist()],
                       dtype=object)
        hit = isin(vl, self.mapping)[cl] & (cr >= 0)
        return cube.recoded({
            self.rhs: (np.where(hit, len(vr) + cl, cr),
                       np.append(vr, new))})
