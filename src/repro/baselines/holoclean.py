"""HoloClean-style baseline: constraint-driven probabilistic repair.

HoloClean (Rekatsinas et al.) detects cells violating user-supplied
denial constraints and repairs them by probabilistic inference over
candidate values. For single-attribute FD constraints — the form the
paper supplies ground truth for — the MAP repair collapses to the
group's posterior mode, applied when the mode is sufficiently probable
(``TAU``). The defining trait the paper measures is preserved: errors
not expressible as constraint violations (unit inconsistency, format
drift, open typos) are invisible to it.

Planning reads one value cube of the input
(:func:`~repro.profiling.fd.value_cube`), as Cocoon, Raha+Baran and
RetClean do: each constraint's repair is an
:class:`~repro.core.counts.FDRepair` layer, planned from the cube's
joint counts and folded into the cube before the next constraint is
counted (:func:`holoclean_plan`). Spark runs the layers as one SQL
statement. The paper's Movies footnote (HoloClean runs out of memory
there) needs no row cap: no constraint covers Movies, so no cube is
collected, the plan is empty and its rows pass through.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.counts import FDRepair
from repro.core.sql_emit import Layer, build_sql
from repro.profiling.fd import Cube, pair_joints, value_cube

#: the smallest share of its group the mode needs to be applied
TAU = 0.5


def holoclean_plan(cube: Cube,
                   constraints: list[tuple[str, str]]) -> list[Layer]:
    """One FD repair layer per constraint that has a group to repair.

    Each ``(lhs, rhs)`` constraint is counted on the cube as the earlier
    constraints' repairs left it. A group (its rows with neither side
    NULL) is repaired to its mode, the most frequent RHS with ties to
    the smallest in code-point order, when the mode holds at least
    ``TAU`` of the group and not all of it.
    """
    layers = []
    for i, (lhs, rhs) in enumerate(constraints):
        groups: dict[str, list[tuple[str, int]]] = {}
        for key, value, n in pair_joints(cube, [(lhs, rhs)])[0].tuples():
            groups.setdefault(key, []).append((value, n))
        mapping = {}
        for key, vcs in groups.items():
            mode, count = min(vcs, key=lambda vc: (-vc[1], vc[0]))
            total = sum(n for _, n in vcs)
            if count / total >= TAU and count < total:
                mapping[key] = mode
        if mapping:
            repair = FDRepair(lhs, rhs, mapping)
            layers.append(Layer(
                f"holoclean_{i}", repair,
                comments=[f"constraint {lhs} -> {rhs}: {len(mapping)} "
                          "groups repaired to their mode"]))
            cube = repair.fold(cube)
    return layers


def holoclean_clean(dirty: DataFrame,
                    constraints: list[tuple[str, str]]) -> DataFrame:
    """Repair FD-constraint violations to the group mode: the layers
    :func:`holoclean_plan` plans from one value cube of ``dirty``'s
    content columns, run by Spark as one SQL statement. With no
    constraint there is nothing to count, and no cube is collected."""
    layers = []
    if constraints:
        cols = [c for c in dirty.columns if c != "row_id"]
        layers = holoclean_plan(value_cube(dirty, cols), constraints)
    view = "holoclean_input"
    dirty.createOrReplaceTempView(view)
    return dirty.sparkSession.sql(
        build_sql(view, layers, list(dirty.columns)))


#: Ground-truth denial constraints per benchmark (the paper: "Holoclean
#: additionally takes denial constraints as input, for which we provide
#: the ground truth"). Movies has no usable single-attribute FDs — the
#: classic benchmark's constraints do not transfer to its sampled rows.
CONSTRAINTS: dict[str, list[tuple[str, str]]] = {
    "hospital": [
        ("zip", "city"),
        ("zip", "state"),
        ("measure_code", "measure_name"),
    ],
    "flights": [
        ("flight", "sched_dep_time"),
        ("flight", "act_dep_time"),
        ("flight", "sched_arr_time"),
        ("flight", "act_arr_time"),
    ],
    "beers": [
        ("brewery_id", "brewery_name"),
        ("brewery_id", "city"),
        ("brewery_id", "state"),
    ],
    "rayyan": [
        ("journal_issn", "journal_title"),
        ("journal_issn", "journal_abbreviation"),
    ],
    "movies": [],
}
