"""Functional dependencies (§2.1.6).

Statistical detection: entropy-ranked single-attribute FD candidates
(:func:`repro.profiling.discover_fds`). Semantic detection: the LLM
reviews whether each statistically strong FD is meaningful. Semantic
cleaning: the LLM maps every violating group to its true RHS value — or
abstains when no confident majority exists (the behaviour behind the
paper's Flights discussion). Cleaning is a per-FD ``CASE WHEN`` layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.llm.client import LLMClient
from repro.llm.types import LLMResponse
from repro.profiling.fd import discover_fds, violating_groups


@dataclass
class FDRepairPlan:
    lhs: str
    rhs: str
    conditional_entropy: float
    mapping: dict[str, str]
    abstained: tuple[str, ...]


@dataclass
class FDStepResult:
    repairs: list[FDRepairPlan] = field(default_factory=list)
    responses: list[LLMResponse] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.repairs)


def clean_fds(
    df: DataFrame,
    columns: list[str],
    llm: LLMClient,
    *,
    n_distinct: dict[str, int],
    total: int,
    max_fds: int = 10,
) -> FDStepResult:
    """Review FD candidates strongest-first and plan group repairs.

    Each RHS column is repaired by at most one FD (the statistically
    strongest) so layers never fight over a column.
    """
    result = FDStepResult()
    repaired_rhs: set[str] = set()
    cands = discover_fds(df, columns, n_distinct=n_distinct, total=total)
    for cand in cands:
        if len(result.repairs) >= max_fds or cand.rhs in repaired_rhs:
            continue
        review = llm.review_fd(cand.lhs, cand.rhs, cand.conditional_entropy)
        result.responses.append(review)
        if not review.meaningful:
            continue
        groups = violating_groups(cand)
        if not groups:
            continue
        repair = llm.repair_fd(cand.lhs, cand.rhs, groups)
        result.responses.append(repair)
        if repair.mapping:
            repaired_rhs.add(cand.rhs)
            result.repairs.append(
                FDRepairPlan(
                    lhs=cand.lhs,
                    rhs=cand.rhs,
                    conditional_entropy=cand.conditional_entropy,
                    mapping=dict(repair.mapping),
                    abstained=repair.abstained,
                )
            )
    return result
