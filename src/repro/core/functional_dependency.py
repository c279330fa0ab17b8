"""Functional dependencies (§2.1.6).

Statistical detection: entropy-ranked single-attribute FD candidates
(:mod:`repro.profiling.fd`; the pipeline reduces them from its folded
value cube, Raha+Baran calls ``discover_fds`` over its own). Semantic
detection: the LLM reviews whether each statistically strong FD is
meaningful. Semantic cleaning: the LLM maps every violating group to
its true RHS value — or abstains when no confident majority exists (the
behaviour behind the paper's Flights discussion). Cleaning is one layer
per repaired FD, carrying its :class:`~repro.core.counts.FDRepair`,
which renders as a ``CASE WHEN``.
"""
from __future__ import annotations

from repro.core.counts import FDRepair
from repro.core.outcome import StepReport, TableOutcome
from repro.core.sql_emit import Layer
from repro.llm.client import LLMClient
# discover_fds is this step's statistical detection as one call over a
# value cube; it stays importable here, where perfbench/layers.py
# traces it
from repro.profiling.fd import (  # noqa: F401
    FDCandidate,
    discover_fds,
    violating_groups,
)

#: FD repair layers emitted at most
MAX_FDS = 10


def clean_fds(cands: list[FDCandidate], llm: LLMClient) -> TableOutcome:
    """Review FD candidates strongest-first and repair violating groups.

    Each RHS column is repaired by at most one FD (the statistically
    strongest) so layers never fight over a column.
    """
    layers: list[Layer] = []
    steps: list[StepReport] = []
    repaired_rhs: set[str] = set()
    for cand in cands:
        lhs, rhs = cand.lhs, cand.rhs
        if len(layers) >= MAX_FDS or rhs in repaired_rhs:
            continue
        if not llm.review_fd(lhs, rhs, cand.conditional_entropy).meaningful:
            continue
        groups = violating_groups(cand)
        if not groups:
            continue
        repair = llm.repair_fd(lhs, rhs, groups)
        if not repair.mapping:
            continue
        repaired_rhs.add(rhs)
        n_fixed, n_abstained = len(repair.mapping), len(repair.abstained)
        layers.append(Layer(
            f"clean_fd_{len(layers)}", FDRepair(lhs, rhs, repair.mapping),
            comments=[f"FD {lhs} -> {rhs} "
                      f"(H={cand.conditional_entropy:.3f}): repaired "
                      f"{n_fixed} groups, abstained on {n_abstained} "
                      "ambiguous groups"]))
        steps.append(StepReport(
            "functional_dependency", rhs, True,
            f"{lhs} -> {rhs}: repaired {n_fixed} groups, abstained "
            f"{n_abstained}"))
    if not steps:
        steps.append(StepReport(
            "functional_dependency", None, False,
            "no meaningful FD with repairable violations"))
    return TableOutcome(tuple(layers), tuple(steps))
