"""Cross-column value misplacement (Rayyan/Movies error class, Table 2).

The paper's real-world benchmarks contain "value misplacement errors
like the county was incorrectly entered in the city column". Detection
is statistical + semantic: each column's dominant semantic domain is
inferred from its value distribution (knowledge-base classification of
the profiled values); for column pairs with distinct domains, a Spark
scan counts rows where *both* cells hold the other column's domain.
The LLM confirms the misplacement and cleaning swaps the cells back via
paired ``CASE WHEN`` expressions.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.outcome import StepReport, TableOutcome
from repro.core.sql_emit import Layer, swap_case
from repro.llm import knowledge as kb
from repro.llm.client import LLMClient, ValueCounts

#: rows that must hold each other's values before the LLM is asked
MIN_EVIDENCE_ROWS = 3
#: a column has a dominant domain when at least this share of its rows
#: is classifiable and at least MIN_PURITY of those share one domain
MIN_CLASSIFIED = 0.5
MIN_PURITY = 0.8


def _dominant_domain(counts: ValueCounts) -> str | None:
    """The semantic domain a column's values predominantly belong to."""
    by_domain: dict[str, int] = {}
    total = 0
    for v, c in counts:
        total += c
        d = kb.domain_of(v)
        if d is not None:
            by_domain[d] = by_domain.get(d, 0) + c
    if not by_domain or total == 0:
        return None
    classified = sum(by_domain.values())
    top, top_c = max(by_domain.items(), key=lambda kv: kv[1])
    if classified / total >= MIN_CLASSIFIED and top_c / classified >= MIN_PURITY:
        return top
    return None


def clean_misplacement(
    df: DataFrame,
    counts_by_col: dict[str, ValueCounts],
    llm: LLMClient,
) -> TableOutcome:
    """One swap layer per confirmed pair of misplaced columns.

    Every pair with enough evidence is reviewed, but a confirmed swap
    that shares a column with an earlier one is not emitted: the first
    swap already moved that column's values.
    """
    domains = {
        c: d for c, counts in counts_by_col.items()
        if (d := _dominant_domain(counts)) is not None
    }
    cols = sorted(domains)
    layers: list[Layer] = []
    steps: list[StepReport] = []
    swapped_cols: set[str] = set()
    n_confirmed = 0
    for i, a in enumerate(cols):
        for b in cols[i + 1:]:
            da, db = domains[a], domains[b]
            if da == db:
                continue
            a_off = sorted(v for v, _ in counts_by_col[a]
                           if kb.domain_of(v) == db)
            b_off = sorted(v for v, _ in counts_by_col[b]
                           if kb.domain_of(v) == da)
            if not a_off or not b_off:
                continue
            hits = df.where(F.col(a).isin(a_off) & F.col(b).isin(b_off))
            sample = [(r[a], r[b]) for r in hits.limit(5).collect()]
            n = hits.count()
            if n < MIN_EVIDENCE_ROWS:
                continue
            if not llm.review_misplacement(a, b, n, sample).swapped:
                continue
            # numbered among all confirmed swaps, skipped ones included
            name = f"clean_misplacement_{n_confirmed}"
            n_confirmed += 1
            if {a, b} & swapped_cols:
                continue
            swapped_cols |= {a, b}
            a_expr, b_expr = swap_case(a, b, a_off, b_off)
            layers.append(Layer(
                name, exprs={a: a_expr, b: b_expr},
                comments=[f"{a} <-> {b}: {n} rows hold each other's "
                          "values; swap them back"]))
            steps.append(StepReport(
                "misplacement", f"{a}/{b}", True,
                f"swapped {n} misplaced value pairs"))
    if not steps:
        steps.append(StepReport(
            "misplacement", None, False, "no misplaced columns"))
    return TableOutcome(tuple(layers), tuple(steps))
