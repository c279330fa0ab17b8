"""Cocoon core: the paper's contribution.

The pipeline (:mod:`repro.core.pipeline`) decomposes cleaning exactly as
the paper's Figure 1 does: per-column string outliers -> pattern
outliers -> disguised missing values -> column type -> numeric outliers
(the order §2.1 mandates), then table-level cross-column misplacement,
functional dependencies, duplication and column uniqueness. Every step
pairs statistical detection (Spark aggregations from
:mod:`repro.profiling`) with semantic detection/cleaning (an
:class:`repro.llm.LLMClient`), and emits commented SQL
(:mod:`repro.core.sql_emit`) that Spark executes — and that the DuckDB
oracle re-executes in tests. Per-column steps return a
:class:`ColumnOutcome`, table-level steps a :class:`TableOutcome`.
"""
from repro.core.outcome import ROW_ID, ColumnOutcome, StepReport, TableOutcome
from repro.core.pipeline import CleanReport, CocoonPipeline

__all__ = ["ROW_ID", "CleanReport", "CocoonPipeline", "ColumnOutcome",
           "StepReport", "TableOutcome"]
