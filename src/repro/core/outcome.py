"""The result types of the cleaning steps (§2.1).

Each per-column ``clean_*`` function (§2.1.1-§2.1.5) returns a
:class:`ColumnOutcome`, whose value map ``CocoonPipeline.plan`` puts
into that step's SQL layer and folds into the column's frequency
vector. Each table-level step (misplacement, FDs, duplication,
uniqueness) returns a :class:`TableOutcome`: its layers, each carrying
one decision (a swap, an FD repair or a dedupe window), and its audit
entries, which the pipeline appends as they are. Decisions become SQL
text only when :func:`~repro.core.sql_emit.build_sql` renders the
layers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.counts import ValueMap
from repro.core.sql_emit import Layer


@dataclass(frozen=True)
class StepReport:
    """One detection/cleaning decision, for the HIL report (§2.2)."""

    step: str
    column: str | None
    detected: bool
    summary: str


@dataclass(frozen=True)
class ColumnOutcome:
    """What one step decided for one column.

    ``values`` maps each value the step rewrites to its new value, or to
    ``None`` to null it; empty when the step changes nothing.
    """

    detected: bool
    #: one-line ``StepReport`` text
    summary: str
    #: the LLM reasoning that goes into the SQL layer's comment
    comment: str = ""
    values: ValueMap = field(default_factory=dict)


@dataclass(frozen=True)
class TableOutcome:
    """What one table-level step decided.

    ``layers`` are the layers to append, in order; ``steps`` are the
    reports to record. A step that emits no layer still records one
    report.
    """

    layers: tuple[Layer, ...]
    steps: tuple[StepReport, ...]
