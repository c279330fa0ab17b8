"""Cross-column value misplacement (Rayyan/Movies error class, Table 2).

The paper's real-world benchmarks contain "value misplacement errors
like the county was incorrectly entered in the city column". Detection
is statistical + semantic: each column's dominant semantic domain is
inferred from its value distribution (knowledge-base classification of
the profiled values). :func:`domain_pairs` lists the column pairs with
distinct domains whose values each stray into the other's domain; the
evidence is the pair's joint counts (from the pipeline's value cube):
rows where *both* cells hold the other column's domain. The LLM
confirms the misplacement and cleaning swaps the cells back: each
confirmed :class:`~repro.core.counts.Swap` is one layer, which renders
as paired ``CASE WHEN`` expressions.
"""
from __future__ import annotations

from repro.core.counts import Swap
from repro.core.outcome import StepReport, TableOutcome
from repro.core.sql_emit import Layer
from repro.llm import knowledge as kb
from repro.llm.client import LLMClient, ValueCounts
from repro.profiling.fd import Joint

#: rows that must hold each other's values before the LLM is asked
MIN_EVIDENCE_ROWS = 3
#: value pairs the review prompt shows
SAMPLE = 5
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


def domain_pairs(counts_by_col: dict[str, ValueCounts]) -> list[Swap]:
    """The candidate swaps to review, in review order (by column names):
    every pair of columns with distinct dominant domains, each holding
    values of the other's domain (sorted in ``a_off`` and ``b_off``)."""
    domains = {
        c: d for c, counts in counts_by_col.items()
        if (d := _dominant_domain(counts)) is not None
    }
    cols = sorted(domains)
    out = []
    for i, a in enumerate(cols):
        for b in cols[i + 1:]:
            da, db = domains[a], domains[b]
            if da == db:
                continue
            a_off = tuple(sorted(v for v, _ in counts_by_col[a]
                                 if kb.domain_of(v) == db))
            b_off = tuple(sorted(v for v, _ in counts_by_col[b]
                                 if kb.domain_of(v) == da))
            if a_off and b_off:
                out.append(Swap(a, b, a_off, b_off))
    return out


def clean_misplacement(
    pairs: list[Swap],
    joints: dict[tuple[str, str], Joint],
    llm: LLMClient,
) -> TableOutcome:
    """One swap layer per confirmed pair of misplaced columns.

    ``joints`` holds each pair's joint counts over the column-cleaned
    table. Every pair with enough evidence is reviewed, but a confirmed
    swap that shares a column with an earlier one is not emitted: the
    first swap already moved that column's values. The prompt shows
    the most frequent offending value pairs, ties ordered by value.
    """
    layers: list[Layer] = []
    steps: list[StepReport] = []
    swapped_cols: set[str] = set()
    n_confirmed = 0
    for p in pairs:
        a, b = p.a, p.b
        a_off, b_off = set(p.a_off), set(p.b_off)
        hits = sorted(((va, vb, n) for va, vb, n in joints[a, b].tuples()
                       if va in a_off and vb in b_off),
                      key=lambda h: (-h[2], h[0], h[1]))
        n = sum(h[2] for h in hits)
        if n < MIN_EVIDENCE_ROWS:
            continue
        sample = [(va, vb) for va, vb, _ in hits[:SAMPLE]]
        if not llm.review_misplacement(a, b, n, sample).swapped:
            continue
        # numbered among all confirmed swaps, skipped ones included
        name = f"clean_misplacement_{n_confirmed}"
        n_confirmed += 1
        if {a, b} & swapped_cols:
            continue
        swapped_cols |= {a, b}
        layers.append(Layer(
            name, p, comments=[f"{a} <-> {b}: {n} rows hold each other's "
                      "values; swap them back"]))
        steps.append(StepReport(
            "misplacement", f"{a}/{b}", True,
            f"swapped {n} misplaced value pairs"))
    if not steps:
        steps.append(StepReport(
            "misplacement", None, False, "no misplaced columns"))
    return TableOutcome(tuple(layers), tuple(steps))
