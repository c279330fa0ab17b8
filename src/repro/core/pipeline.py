"""The Cocoon cleaning pipeline (paper Figure 1).

``CocoonPipeline.clean`` decomposes cleaning along the paper's two
dimensions. Per column, it runs a five-entry step table in the
§2.1-mandated order: string outliers -> pattern outliers -> disguised
missing values -> column type -> numeric outliers. Every entry returns
a :class:`~repro.core.outcome.ColumnOutcome` (values to rewrite or to
null, plus summary and reasoning); one loop turns each outcome into a
commented SQL layer and folds it into the column's frequency vector.
Then table-level: misplacement -> functional dependencies ->
duplication -> column uniqueness, each with its own plan type. Every
step couples Spark statistical detection with LLM semantic
detection/cleaning; the final artifact is one nested-CTE statement that
Spark executes (and the DuckDB oracle re-executes in tests).

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
from repro.core.pattern_outliers import clean_pattern_outliers
from repro.core.sql_emit import Layer, build_sql
from repro.core.string_outliers import clean_string_outliers
from repro.core.uniqueness import clean_uniqueness
from repro.llm.client import LLMClient
from repro.profiling.column_profile import profile_table
from repro.profiling.duplicates import unique_ratios

#: top values profiled per column; a column with more distinct values
#: skips the steps that need an exhaustive value list
MAX_DISTINCT = 5000
ROW_ID = "row_id"


@dataclass(frozen=True)
class StepReport:
    """One detection/cleaning decision, for the HIL report (§2.2)."""

    step: str
    column: str | None
    detected: bool
    summary: str


@dataclass
class CleanReport:
    """The pipeline's full output: data, SQL artifact and audit trail."""

    cleaned: DataFrame
    sql: str
    steps: list[StepReport] = field(default_factory=list)
    layers: list[Layer] = field(default_factory=list)
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
        mis = clean_misplacement(df_a, counts_by_col, self.llm)
        swapped_cols: set[str] = set()
        for j, swap in enumerate(mis.swaps):
            if {swap.col_a, swap.col_b} & swapped_cols:
                continue
            swapped_cols |= {swap.col_a, swap.col_b}
            a_expr, b_expr = sql_emit.swap_case(
                swap.col_a, swap.col_b,
                swap.a_offending, swap.b_offending)
            layer = Layer(f"clean_misplacement_{j}")
            layer.exprs[swap.col_a] = a_expr
            layer.exprs[swap.col_b] = b_expr
            layer.comments.append(
                f"{swap.col_a} <-> {swap.col_b}: {swap.n_evidence} rows "
                "hold each other's values; swap them back")
            layers.append(layer)
            report.steps.append(StepReport(
                "misplacement", f"{swap.col_a}/{swap.col_b}", True,
                f"swapped {swap.n_evidence} misplaced value pairs"))
        if not mis.swaps:
            report.steps.append(StepReport(
                "misplacement", None, False, "no misplaced columns"))

        n_distinct = {
            c: (len(counts_by_col[c]) if covered[c] else MAX_DISTINCT + 1)
            for c in cols
        }
        fd = clean_fds(df_a, cols, self.llm, n_distinct=n_distinct,
                       total=total)
        for i, plan in enumerate(fd.repairs):
            layer = Layer(f"clean_fd_{i}")
            layer.exprs[plan.rhs] = sql_emit.fd_repair_case(
                plan.lhs, plan.rhs, plan.mapping)
            layer.comments.append(
                f"FD {plan.lhs} -> {plan.rhs} (H={plan.conditional_entropy:.3f}): "
                f"repaired {len(plan.mapping)} groups, abstained on "
                f"{len(plan.abstained)} ambiguous groups")
            layers.append(layer)
            report.steps.append(StepReport(
                "functional_dependency", plan.rhs, True,
                f"{plan.lhs} -> {plan.rhs}: repaired "
                f"{len(plan.mapping)} groups, abstained "
                f"{len(plan.abstained)}"))
        if not fd.repairs:
            report.steps.append(StepReport(
                "functional_dependency", None, False,
                "no meaningful FD with repairable violations"))
        df_a.unpersist()

        # ---- stage C: duplication and uniqueness over repaired data ----
        df_b = spark.sql(build_sql(view, layers, all_cols)).cache()
        dup = clean_duplication(df_b, table_name, cols, self.llm)
        report.steps.append(StepReport(
            "duplication", None, dup.detected,
            (f"{dup.surplus} surplus duplicate rows"
             + ("; removed" if dup.should_dedupe else "; acceptable"))
            if dup.detected else "no duplicate rows"))
        if dup.should_dedupe:
            layers.append(Layer(
                "clean_duplication", kind="window_dedupe",
                comments=[dup.review.reasoning],
                key_cols=cols, order_col=ROW_ID))

        uq = clean_uniqueness(cols, unique_ratios(df_b, cols), self.llm)
        for plan in uq.plans:
            layers.append(Layer(
                f"clean_uniqueness_{plan.column}", kind="window_dedupe",
                comments=[plan.review.reasoning],
                key_cols=[plan.column],
                order_col=plan.order_by or ROW_ID,
                order_desc=plan.order_by is not None))
            report.steps.append(StepReport(
                "uniqueness", plan.column, True,
                f"deduplicated on {plan.column} keeping "
                + (f"latest {plan.order_by}" if plan.order_by
                   else "first row")))
        if not uq.plans:
            report.steps.append(StepReport(
                "uniqueness", None, False,
                "no should-be-unique column with duplicates"))
        df_b.unpersist()

        report.sql = build_sql(view, layers, all_cols)
        report.layers = layers
        report.cleaned = spark.sql(report.sql)
        report.llm_calls = getattr(self.llm, "calls", 0) - calls0
        return report
