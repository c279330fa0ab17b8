"""Reproduction harnesses for the paper's Tables 1-3.

Each ``run_table*`` returns a pandas frame holding our measured numbers
next to the paper's, and ``format_table`` renders the same rows the
paper reports. ``jobs/run_table*.py`` are the spark-submit entrypoints;
``benchmarks/bench_table*.py`` time them.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import (
    cleanagent_clean,
    holoclean_clean,
    raha_baran_clean,
    retclean_clean,
)
from repro.baselines.holoclean import CONSTRAINTS
from repro.benchdata import Benchmark, ErrorType, load
from repro.core import CocoonPipeline
from repro.evalharness.metrics import repair_metrics
from repro.llm import SimulatedLLM

SYSTEMS = ("holoclean", "raha_baran", "cleanagent", "retclean", "cocoon")
DATASETS = ("hospital", "flights", "beers", "rayyan", "movies")

#: The paper's Table 1 (P, R, F) — * = first-1000-row sample (OOM / 2MB cap).
PAPER_TABLE1: dict[tuple[str, str], tuple[float, float, float]] = {
    ("hospital", "holoclean"): (1.00, 0.46, 0.63),
    ("hospital", "raha_baran"): (0.91, 0.60, 0.72),
    ("hospital", "cleanagent"): (0.00, 0.00, 0.00),
    ("hospital", "retclean"): (0.00, 0.00, 0.00),
    ("hospital", "cocoon"): (0.87, 0.93, 0.90),
    ("flights", "holoclean"): (0.73, 0.34, 0.47),
    ("flights", "raha_baran"): (0.84, 0.61, 0.70),
    ("flights", "cleanagent"): (0.00, 0.00, 0.00),
    ("flights", "retclean"): (0.00, 0.00, 0.00),
    ("flights", "cocoon"): (0.91, 0.42, 0.57),
    ("beers", "holoclean"): (0.05, 0.04, 0.04),
    ("beers", "raha_baran"): (0.97, 0.96, 0.96),
    ("beers", "cleanagent"): (0.00, 0.00, 0.00),
    ("beers", "retclean"): (0.00, 0.00, 0.00),
    ("beers", "cocoon"): (0.99, 0.96, 0.97),
    ("rayyan", "holoclean"): (0.53, 0.67, 0.59),
    ("rayyan", "raha_baran"): (0.83, 0.35, 0.50),
    ("rayyan", "cleanagent"): (0.00, 0.00, 0.00),
    ("rayyan", "retclean"): (0.52, 0.48, 0.50),
    ("rayyan", "cocoon"): (0.88, 0.84, 0.86),
    ("movies", "holoclean"): (0.00, 0.00, 0.00),
    ("movies", "raha_baran"): (0.85, 0.75, 0.80),
    ("movies", "cleanagent"): (0.00, 0.00, 0.00),
    ("movies", "retclean"): (0.00, 0.00, 0.00),
    ("movies", "cocoon"): (0.91, 0.83, 0.87),
}

#: The paper's Table 2 error distributions ("-" = absent).
PAPER_TABLE2: dict[str, dict[str, object]] = {
    "hospital": {"size": "1000 x 19", "typo": 213, "fd": 331,
                 "column_type": 3000, "inconsistency": None, "dmv": 227,
                 "misplacement": None},
    "movies": {"size": "7390 x 17", "typo": 184, "fd": None,
               "column_type": 14433, "inconsistency": None, "dmv": 131,
               "misplacement": 938},
}

#: The paper's Table 3 (column-type + DMV errors now scored).
PAPER_TABLE3: dict[tuple[str, str], tuple[float, float, float]] = {
    ("hospital", "holoclean"): (1.00, 0.13, 0.24),
    ("hospital", "raha_baran"): (1.00, 0.97, 0.98),
    ("hospital", "cleanagent"): (0.00, 0.00, 0.00),
    ("hospital", "retclean"): (0.00, 0.00, 0.00),
    ("hospital", "cocoon"): (0.99, 0.99, 0.99),
    ("movies", "holoclean"): (0.00, 0.00, 0.00),
    ("movies", "raha_baran"): (0.57, 0.55, 0.56),
    ("movies", "cleanagent"): (0.00, 0.00, 0.00),
    ("movies", "retclean"): (0.00, 0.00, 0.00),
    ("movies", "cocoon"): (0.96, 0.91, 0.93),
}

#: CleanAgent caps inputs at 2 MB (paper Table 1 footnote): it sees only
#: the first 1000 Movies rows. HoloClean, which runs out of memory on
#: Movies in the paper, needs no cap here: no constraint covers Movies,
#: so it repairs nothing there either way.
SAMPLED_SYSTEMS = {"cleanagent"}
SAMPLE_ROWS = 1000


def run_system(system: str, bench: Benchmark, dirty: DataFrame) -> DataFrame:
    """Run one cleaning system over the Spark view of a benchmark."""
    sampled = bench.name.startswith("movies") and system in SAMPLED_SYSTEMS
    max_rows = SAMPLE_ROWS if sampled else None
    if system == "cocoon":
        return CocoonPipeline(SimulatedLLM()).clean(dirty, bench.name).cleaned
    if system == "holoclean":
        return holoclean_clean(dirty, CONSTRAINTS.get(bench.name, []))
    if system == "raha_baran":
        return raha_baran_clean(bench, dirty)
    if system == "cleanagent":
        return cleanagent_clean(dirty, max_rows=max_rows)
    if system == "retclean":
        return retclean_clean(dirty)
    raise ValueError(f"unknown system {system!r}")


def _score_all(
    spark: SparkSession,
    datasets: tuple[str, ...],
    exclude_types: tuple[str, ...],
    paper: dict[tuple[str, str], tuple[float, float, float]],
) -> pd.DataFrame:
    rows = []
    for ds in datasets:
        bench = load(ds)
        dirty = bench.spark_dirty(spark).cache()
        truth = bench.spark_clean(spark)
        mask = bench.spark_mask(spark)
        for system in SYSTEMS:
            cleaned = run_system(system, bench, dirty)
            m = repair_metrics(dirty, cleaned, truth, mask,
                               exclude_types=exclude_types)
            pp, pr, pf = paper.get((ds, system), (None, None, None))
            rows.append({
                "dataset": ds, "system": system,
                "P": m.precision, "R": m.recall, "F": m.f1,
                "paper_P": pp, "paper_R": pr, "paper_F": pf,
                "n_errors": m.n_errors, "n_changed": m.n_changed,
                "n_correct": m.n_correct_changes,
            })
        dirty.unpersist()
    return pd.DataFrame(rows)


def run_table1(spark: SparkSession,
               datasets: tuple[str, ...] = DATASETS) -> pd.DataFrame:
    """Table 1: P/R/F per system per benchmark, paper scoring convention
    (column-type and DMV cells excluded)."""
    return _score_all(spark, datasets, ErrorType.TABLE1_EXCLUDED,
                      PAPER_TABLE1)


def run_table2() -> pd.DataFrame:
    """Table 2: error-type distribution of Hospital and Movies."""
    rows = []
    for ds in ("hospital", "movies"):
        bench = load(ds)
        counts = bench.error_counts()
        n_rows, n_cols = bench.dirty.shape
        paper = PAPER_TABLE2[ds]
        row = {"dataset": ds, "size": f"{n_rows} x {n_cols - 1}",
               "paper_size": paper["size"]}
        for et in ("typo", "fd", "column_type", "inconsistency", "dmv",
                   "misplacement"):
            row[et] = counts.get(et, 0) or None
            row[f"paper_{et}"] = paper[et]
        rows.append(row)
    return pd.DataFrame(rows)


def run_table3(spark: SparkSession,
               datasets: tuple[str, ...] = ("hospital", "movies")
               ) -> pd.DataFrame:
    """Table 3 (Appendix B): column-type and DMV errors are scored."""
    return _score_all(spark, datasets, (), PAPER_TABLE3)


def format_table(df: pd.DataFrame, title: str) -> str:
    """Render a measured-vs-paper table as fixed-width text."""
    out = [title]
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        out.append(df.round(2).to_string(index=False))
    return "\n".join(out)
