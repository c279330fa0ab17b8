"""The Cocoon cleaning pipeline (paper Figure 1).

``CocoonPipeline.clean`` decomposes cleaning along the paper's two
dimensions. Per column, it runs a five-entry step table in the
§2.1-mandated order: string outliers -> pattern outliers -> disguised
missing values -> column type -> numeric outliers. Every entry returns
a :class:`~repro.core.outcome.ColumnOutcome` (one value map, plus
summary and reasoning); one loop renders each value map as a commented
SQL layer, folds it into the column's frequency vector and keeps it as
the column's next value map. Then table-level:
misplacement -> functional dependencies over the column-cleaned data,
then duplication -> column uniqueness over the repaired data. Each of
these returns a :class:`~repro.core.outcome.TableOutcome` (its finished
SQL layers and report entries), which one loop per stage appends.
Every step couples Spark statistical detection with LLM semantic
detection/cleaning; the final artifact is one nested-CTE statement that
Spark executes (and the DuckDB oracle re-executes in tests).

Planning runs one Spark job, and only the input is cached: a
:func:`~repro.profiling.fd.value_cube` of the input over every content
column, the distinct rows with their counts (a scan with no aggregate,
deduplicated on the driver). Every statistic the three stages read is
derived from it on the driver:

* stage A: each column's profile is the cube's marginal
  (:func:`~repro.profiling.profile_cube`);
* stage B: the stage A value maps are folded into the cube
  (:func:`~repro.core.counts.fold_cube`), which gives the joint counts
  of the column-cleaned table without evaluating its SQL; they are
  reduced to FD candidates on integer codes
  (:func:`~repro.profiling.fd.fd_candidates`);
* stage C: the stage B swaps and FD repairs fold it further, and the
  unique ratios and the duplicate rows of the repaired table are read
  from it (:func:`~repro.profiling.profile_cube_rows`).

SQL is built and handed to Spark once, for the final statement.

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
from repro.core.misplacement import clean_misplacement, domain_pairs
from repro.core.numeric_outliers import clean_numeric_outliers
from repro.core.outcome import ROW_ID, StepReport
from repro.core.pattern_outliers import clean_pattern_outliers
from repro.core.sql_emit import Layer, build_sql
from repro.core.string_outliers import clean_string_outliers
from repro.core.uniqueness import clean_uniqueness
from repro.llm.client import LLMClient
from repro.profiling import fd
# profile_table is the one-job profile of a frame, which Cocoon no
# longer calls; it stays importable here, where perfbench/layers.py
# traces it
from repro.profiling.column_profile import (  # noqa: F401
    TOP_K,
    profile_cube,
    profile_cube_rows,
    profile_table,
)


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
        maps: dict[str, list[counts_util.ValueMap]] = {c: [] for c in cols}
        covered: dict[str, bool] = {}
        # planning's one Spark job: every statistic below is derived
        # from this cube on the driver
        cube, rows = fd.value_cube(df, cols)
        profiles = profile_cube(cube, rows)
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
                if not out.values:
                    continue
                layer = step_layers[name]
                layer.exprs[c] = sql_emit.value_case(c, out.values)
                layer.comments.append(f"{c}: {out.comment}")
                counts = counts_util.fold_counts(counts, out.values)
                maps[c].append(out.values)
            counts_by_col[c] = counts

        layers = [l for l in step_layers.values() if l.exprs]

        # ---- stage B: misplacement and FDs over the column-cleaned data,
        # from the input's value cube folded through stage A.
        # Swaps come first: misplacement is a row-local structural fix,
        # and FD group repairs would otherwise overwrite the swap
        # evidence in the repaired column.
        n_distinct = {
            c: (len(counts_by_col[c]) if covered[c] else TOP_K + 1)
            for c in cols
        }
        fd_pairs = fd.candidate_pairs(cols, n_distinct=n_distinct,
                                      total=total)
        swaps = domain_pairs(counts_by_col)
        pairs = list(dict.fromkeys(fd_pairs + [(p.a, p.b) for p in swaps]))
        cube = counts_util.fold_cube(cube, maps)
        joints = dict(zip(pairs, fd.pair_joints(cube, rows, pairs)))
        for out in (clean_misplacement(swaps, joints, self.llm),
                    clean_fds(fd.fd_candidates(
                        fd_pairs, [joints[p] for p in fd_pairs]),
                        self.llm)):
            layers.extend(out.layers)
            report.steps.extend(out.steps)
            for rewrite in out.rewrites:
                cube = rewrite.fold(cube)

        # ---- stage C: duplication and uniqueness over repaired data,
        # from the cube folded through stages A and B
        col_profiles, repeated = profile_cube_rows(cube, rows)
        for out in (clean_duplication(table_name, cols, repeated, self.llm),
                    clean_uniqueness(cols, {
                        c: p.unique_ratio for c, p in col_profiles.items()},
                        self.llm)):
            layers.extend(out.layers)
            report.steps.extend(out.steps)

        report.sql = build_sql(view, layers, all_cols)
        report.cleaned = spark.sql(report.sql)
        report.llm_calls = getattr(self.llm, "calls", 0) - calls0
        return report
