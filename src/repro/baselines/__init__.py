"""Simplified reimplementations of the paper's four baselines.

Each preserves the characteristic mechanism and failure mode the paper
measures (see DESIGN.md §2): HoloClean repairs only what user-supplied
constraints cover; Raha+Baran learns statistical detection/correction
models helped by 20 ground-truth labeled cells; CleanAgent standardizes
formats (which the benchmarks do not score as repairs); RetClean without
lake tables degrades to conservative foundation-model typo fixes on
long-text cells. Raha+Baran and RetClean emit their repairs through the
same portable-SQL layers as Cocoon (``sql_emit.value_case`` and
``build_sql``); HoloClean and CleanAgent use the DataFrame API. Spark
executes all four.
"""
from repro.baselines.cleanagent import cleanagent_clean
from repro.baselines.holoclean import holoclean_clean
from repro.baselines.raha_baran import raha_baran_clean
from repro.baselines.retclean import retclean_clean

__all__ = [
    "cleanagent_clean",
    "holoclean_clean",
    "raha_baran_clean",
    "retclean_clean",
]
