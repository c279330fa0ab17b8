"""The Cocoon cleaning pipeline (paper Figure 1).

``CocoonPipeline.clean`` decomposes cleaning along the paper's two
dimensions. Per column, it runs a five-entry step table in the
§2.1-mandated order: string outliers -> pattern outliers -> disguised
missing values -> column type -> numeric outliers. Every entry returns
a :class:`~repro.core.outcome.ColumnOutcome` (values to rewrite or to
null, plus summary and reasoning); one loop turns each outcome into a
commented SQL layer and folds it into the column's frequency vector.
Then table-level: misplacement -> functional dependencies over the
column-cleaned data, then duplication -> column uniqueness over the
repaired data. Each of these returns a
:class:`~repro.core.outcome.TableOutcome` (its finished SQL layers and
report entries), which one loop per stage appends. Every step couples
Spark statistical detection with LLM semantic detection/cleaning; the
final artifact is one nested-CTE statement that Spark executes (and the
DuckDB oracle re-executes in tests).

The input table must be all-string columns plus a ``row_id`` surrogate
key — the CSV-benchmark shape the paper evaluates on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core import counts as counts_util
from repro.core import sql_emit
from repro.core.column_type import clean_column_type
from repro.core.dmv import clean_dmv
from repro.core.duplication import clean_duplication
from repro.core.functional_dependency import clean_fds
from repro.core.misplacement import clean_misplacement
from repro.core.numeric_outliers import clean_numeric_outliers
from repro.core.outcome import ROW_ID, StepReport
from repro.core.pattern_outliers import clean_pattern_outliers
from repro.core.sql_emit import Layer, build_sql
from repro.core.string_outliers import clean_string_outliers
from repro.core.uniqueness import clean_uniqueness
from repro.llm.client import LLMClient
from repro.profiling.column_profile import profile_table

#: top values profiled per column; a column with more distinct values
#: skips the steps that need an exhaustive value list
MAX_DISTINCT = 5000


@dataclass
class CleanReport:
    """The pipeline's full output: data, SQL artifact and audit trail."""

    cleaned: DataFrame
    sql: str
    steps: list[StepReport] = field(default_factory=list)
    llm_calls: int = 0
    view: str = ""


class CocoonPipeline:
    def __init__(self, llm: LLMClient) -> None:
        self.llm = llm

    # ------------------------------------------------------------------

    def clean(self, df: DataFrame, table_name: str = "data") -> CleanReport:
        spark = df.sparkSession
        view = f"cocoon_{table_name}"
        df = df.cache()
        df.createOrReplaceTempView(view)
        all_cols = list(df.columns)
        cols = [c for c in all_cols if c != ROW_ID]
        calls0 = getattr(self.llm, "calls", 0)
        report = CleanReport(cleaned=df, sql="", view=view)

        # ---- stage A: the per-column step table -----------------------
        # Built per call so each entry is looked up in this module's
        # namespace when clean() runs (tracing wraps these names).
        steps = (
            ("string_outliers", clean_string_outliers),
            ("pattern_outliers", clean_pattern_outliers),
            ("dmv", clean_dmv),
            ("column_type", clean_column_type),
            ("numeric_outliers", clean_numeric_outliers),
        )
        step_layers = {name: Layer(f"clean_{name}") for name, _ in steps}
        counts_by_col: dict[str, tuple[tuple[str, int], ...]] = {}
        covered: dict[str, bool] = {}
        profiles = profile_table(df, cols, top_k=MAX_DISTINCT)
        total = profiles[cols[0]].total

        for c in cols:
            prof = profiles[c]
            counts = prof.top_values
            covered[c] = prof.n_distinct <= len(counts)
            kwargs = {}
            for name, step in steps:
                if name == "column_type":
                    # Counted once, after the DMV step: the numeric step
                    # gets the same figure, so it skips a column whose
                    # renderings the type step merged.
                    kwargs["n_distinct"] = (len(counts) if covered[c]
                                            else prof.n_distinct)
                out = step(c, counts, self.llm, **kwargs)
                report.steps.append(
                    StepReport(name, c, out.detected, out.summary))
                layer = step_layers[name]
                if out.mapping:
                    layer.exprs[c] = sql_emit.mapping_case(c, out.mapping)
                    counts = counts_util.apply_mapping(counts, out.mapping)
                elif out.nulled:
                    layer.exprs[c] = sql_emit.null_case(c, list(out.nulled))
                    counts = counts_util.remove_values(counts, out.nulled)
                else:
                    continue
                layer.comments.append(f"{c}: {out.comment}")
            counts_by_col[c] = counts

        layers = [l for l in step_layers.values() if l.exprs]

        # ---- stage B: misplacement and FDs over the column-cleaned data.
        # Swaps come first: misplacement is a row-local structural fix,
        # and FD group repairs would otherwise overwrite the swap
        # evidence in the repaired column.
        df_a = spark.sql(build_sql(view, layers, all_cols)).cache()
        n_distinct = {
            c: (len(counts_by_col[c]) if covered[c] else MAX_DISTINCT + 1)
            for c in cols
        }
        for out in (clean_misplacement(df_a, counts_by_col, self.llm),
                    clean_fds(df_a, cols, self.llm, n_distinct=n_distinct,
                              total=total)):
            layers.extend(out.layers)
            report.steps.extend(out.steps)
        df_a.unpersist()

        # ---- stage C: duplication and uniqueness over repaired data ----
        df_b = spark.sql(build_sql(view, layers, all_cols)).cache()
        for out in (clean_duplication(df_b, table_name, cols, self.llm),
                    clean_uniqueness(cols, {
                        c: p.unique_ratio for c, p in
                        profile_table(df_b, cols, top_k=0).items()},
                        self.llm)):
            layers.extend(out.layers)
            report.steps.extend(out.steps)
        df_b.unpersist()

        report.sql = build_sql(view, layers, all_cols)
        report.cleaned = spark.sql(report.sql)
        report.llm_calls = getattr(self.llm, "calls", 0) - calls0
        return report
