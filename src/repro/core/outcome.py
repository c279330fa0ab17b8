"""The one result type of the per-column steps (§2.1.1-§2.1.5).

Each per-column ``clean_*`` function returns a :class:`ColumnOutcome`;
``CocoonPipeline.clean`` is the only place that turns one into a SQL
layer expression and folds it into the column's frequency vector.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ColumnOutcome:
    """What one step decided for one column.

    ``mapping`` rewrites values (value -> value); ``nulled`` lists values
    set to NULL. A step fills at most one of them.
    """

    detected: bool
    #: one-line ``StepReport`` text
    summary: str
    #: the LLM reasoning that goes into the SQL layer's comment
    comment: str = ""
    mapping: dict[str, str] = field(default_factory=dict)
    nulled: tuple[str, ...] = ()
