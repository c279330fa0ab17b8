"""The Cocoon cleaning pipeline (paper Figure 1).

``CocoonPipeline.plan`` decomposes cleaning along the paper's two
dimensions, from a value cube of the input and with no Spark job. Per
column, it runs a five-entry step table in the §2.1-mandated order:
string outliers -> pattern outliers -> disguised missing values ->
column type -> numeric outliers. Every entry returns a
:class:`~repro.core.outcome.ColumnOutcome` (one value map, plus summary
and reasoning); one loop puts each value map into that step's layer
and folds it into the column's frequency vector. Then table-level:
misplacement -> functional dependencies over the column-cleaned data,
then duplication -> column uniqueness over the repaired data. Each of
these returns a :class:`~repro.core.outcome.TableOutcome` (its layers
and report entries), which the pipeline appends. Every step couples
statistical detection with LLM semantic detection/cleaning. A layer
carries its decision, not SQL text (:class:`~repro.core.sql_emit.Layer`):
the same layers fold the cube between stages and render the final
artifact, one nested-CTE statement that Spark executes (and the DuckDB
oracle re-executes in tests).

``CocoonPipeline.clean`` runs one Spark job, and only the input is
cached: a :func:`~repro.profiling.fd.value_cube` of the input over
every content column, one :class:`~repro.profiling.fd.Cube` (a scan
with no aggregate, projected by one ``selectExpr`` and collected with
``toArrow()``, so planning builds no PySpark ``Column``): the input's
content columns, each Arrow column dictionary-encoded once into integer
codes over its distinct values, row for row. ``plan`` derives every
statistic the three stages read from those codes on the driver, no
pass codes a column's rows again, and none depends on the order of the
cube's rows:

* stage A: each column's profile is the cube's marginal
  (:func:`~repro.profiling.profile_cube`), and the row count is the
  cube's number of rows;
* stage B: the cube is folded through the stage A layers
  (:func:`~repro.core.sql_emit.fold_layers`), which gives the joint
  counts of the column-cleaned table without evaluating its SQL; they
  are reduced to FD candidates on integer codes
  (:func:`~repro.profiling.fd.fd_candidates`);
* stage C: the stage B layers (swaps and FD repairs) fold it further,
  and the unique ratios and the duplicate rows of the repaired table
  are read from it (:func:`~repro.profiling.profile_cube_rows`).

SQL is built and handed to Spark once, for the final statement.

The input table must be all-string columns, usually with a ``row_id``
surrogate key — the CSV-benchmark shape the paper evaluates on. The
table is registered as the view ``cocoon_<name>``, the name lower-cased
and every character outside ``[a-z0-9_]`` replaced by ``_``, so that
any name gives a portable SQL identifier.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core.column_type import clean_column_type
from repro.core.counts import fold_counts
from repro.core.dmv import clean_dmv
from repro.core.duplication import clean_duplication
from repro.core.functional_dependency import clean_fds
from repro.core.misplacement import clean_misplacement, domain_pairs
from repro.core.numeric_outliers import clean_numeric_outliers
from repro.core.outcome import StepReport
from repro.core.pattern_outliers import clean_pattern_outliers
from repro.core.sql_emit import ROW_ID, Layer, build_sql, fold_layers
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

    def plan(self, cube: fd.Cube, table_name: str = "data"
             ) -> tuple[list[Layer], list[StepReport]]:
        """The cleaning layers, in order, and the step reports for the
        table whose content columns ``cube`` codes; no Spark job."""
        # ---- stage A: the per-column step table -----------------------
        # Built per call so each entry is looked up in this module's
        # namespace when plan() runs (tracing wraps these names).
        steps = (
            ("string_outliers", clean_string_outliers),
            ("pattern_outliers", clean_pattern_outliers),
            ("dmv", clean_dmv),
            ("column_type", clean_column_type),
            ("numeric_outliers", clean_numeric_outliers),
        )
        step_layers = {name: Layer(f"clean_{name}") for name, _ in steps}
        reports: list[StepReport] = []
        counts_by_col: dict[str, tuple[tuple[str, int], ...]] = {}
        # each column's distinct values after stage A, TOP_K + 1 when
        # they were not all profiled (too many for an FD side)
        n_distinct: dict[str, int] = {}
        cols = cube.columns
        profiles = profile_cube(cube)

        for c in cols:
            prof = profiles[c]
            counts = prof.top_values
            covered = prof.n_distinct <= len(counts)
            kwargs = {}
            for name, step in steps:
                if name == "column_type":
                    # Counted once, after the DMV step: the numeric step
                    # gets the same figure, so it skips a column whose
                    # renderings the type step merged.
                    kwargs["n_distinct"] = (len(counts) if covered
                                            else prof.n_distinct)
                out = step(c, counts, self.llm, **kwargs)
                reports.append(StepReport(name, c, out.detected, out.summary))
                if not out.values:
                    continue
                layer = step_layers[name]
                layer.decision[c] = out.values
                layer.comments.append(f"{c}: {out.comment}")
                counts = fold_counts(counts, out.values)
            counts_by_col[c] = counts
            n_distinct[c] = len(counts) if covered else TOP_K + 1

        layers = [l for l in step_layers.values() if l.decision]

        # ---- stage B: misplacement and FDs over the column-cleaned data,
        # from the input's value cube folded through stage A.
        # Swaps come first: misplacement is a row-local structural fix,
        # and FD group repairs would otherwise overwrite the swap
        # evidence in the repaired column.
        fd_pairs = fd.candidate_pairs(cols, n_distinct=n_distinct,
                                      total=len(cube.codes))
        swaps = domain_pairs(counts_by_col)
        pairs = list(dict.fromkeys(fd_pairs + [(p.a, p.b) for p in swaps]))
        cube = fold_layers(cube, layers)
        joints = dict(zip(pairs, fd.pair_joints(cube, pairs)))
        outs = [clean_misplacement(swaps, joints, self.llm),
                clean_fds(fd.fd_candidates(
                    fd_pairs, [joints[p] for p in fd_pairs]), self.llm)]

        # ---- stage C: duplication and uniqueness over repaired data,
        # from the cube folded through stages A and B
        cube = fold_layers(cube, [l for out in outs for l in out.layers])
        col_profiles, repeated = profile_cube_rows(cube)
        outs += [clean_duplication(table_name, cols, repeated, self.llm),
                 clean_uniqueness(cols, {
                     c: p.unique_ratio for c, p in col_profiles.items()},
                     self.llm)]
        for out in outs:
            layers.extend(out.layers)
            reports.extend(out.steps)
        return layers, reports

    def clean(self, df: DataFrame, table_name: str = "data") -> CleanReport:
        """Plan from one value cube of ``df`` (planning's one Spark job)
        and hand the layers' SQL to Spark over the cached input."""
        view = "cocoon_" + re.sub(r"[^a-z0-9_]", "_", table_name.lower())
        df = df.cache()
        df.createOrReplaceTempView(view)
        calls0 = getattr(self.llm, "calls", 0)
        layers, steps = self.plan(fd.value_cube(
            df, [c for c in df.columns if c != ROW_ID]), table_name)
        sql = build_sql(view, layers, list(df.columns))
        return CleanReport(df.sparkSession.sql(sql), sql, steps,
                           getattr(self.llm, "calls", 0) - calls0, view)
