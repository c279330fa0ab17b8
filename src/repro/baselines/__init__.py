"""Simplified reimplementations of the paper's four baselines.

Each preserves the characteristic mechanism and failure mode the paper
measures (see DESIGN.md §2): HoloClean repairs only what user-supplied
constraints cover; Raha+Baran learns statistical detection/correction
models helped by 20 ground-truth labeled cells; CleanAgent standardizes
formats (which the benchmarks do not score as repairs); RetClean without
lake tables degrades to conservative foundation-model typo fixes on
long-text cells. Raha+Baran and RetClean profile one value cube of the
input, as Cocoon does, and their repairs are decisions carried by the
same layers as Cocoon's (``sql_emit.Layer``: a value map per column, a
swap or an FD repair), which ``build_sql`` renders as portable SQL;
HoloClean and CleanAgent use the DataFrame API. Spark executes all
four.
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
