"""Raha+Baran-style baseline: ML detection + label-driven correction.

Raha (error detection) + Baran (error correction) combine statistical
detection strategies with correction models transfer-learned from a
small labeled sample — the paper supplies ground truth for 20 cells.
The container has no sklearn, so the gradient-boosting ensembles are
replaced by the deterministic decisions they drive (DESIGN.md §2); the
correction *models* are the faithful part:

* **value models**: token-level rewrite rules mined from the labeled
  (dirty -> clean) pairs (e.g. "ounce" -> "oz", "yes" -> "True" — the
  Appendix B observation that Raha partially solves yes/no casts but
  not higher-cardinality transformations falls out of this);
* **vicinity models**: mode repair of statistically-discovered FD
  groups, with *no* semantic gate and a low confidence bar — on
  Flights this gains recall over Cocoon but pays precision, the
  paper's crossover;
* **domain models**: rare value -> nearest frequent same-column donor;
* **cross-column swap**: activated when a labeled correction equals the
  row's value in another column; applied where a value is much more
  frequent in the other column than its own.

The defining failure mode is preserved: open-vocabulary typo
*correction* (Rayyan titles) has no donor and no rule, so recall stays
low there.

Planning runs one Spark job, as Cocoon's does: a value cube of the input
(:func:`~repro.profiling.fd.value_cube`) gives every column's profile
(its marginals) and the FD statistics of the vicinity models
(:func:`~repro.profiling.fd.discover_fds` over the same cube). Every
repair is a decision carried by the same layers Cocoon uses
(:class:`~repro.core.sql_emit.Layer`): a value map per column, a
:class:`~repro.core.counts.Swap` or an
:class:`~repro.core.counts.FDRepair`, rendered as portable SQL and
executed by Spark.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.benchdata.base import Benchmark
from repro.core.counts import FDRepair, Swap
from repro.core.sql_emit import Layer, build_sql
from repro.llm import knowledge as kb
# profile_table is the one-job profile of a frame, which Raha+Baran no
# longer calls; it stays importable here, where perfbench/layers.py
# traces it
from repro.profiling.column_profile import (  # noqa: F401
    ColumnProfile,
    profile_cube,
    profile_table,
)
from repro.profiling.fd import discover_fds, value_cube, violating_groups

#: ground-truth cells labeled for the correction models (the paper's 20)
N_LABELS = 20
#: seed of the labeled-cell draw
SEED = 7


def _token_rules(labels: list[tuple[str, str]]) -> dict[str, str]:
    """Mine single-token rewrite rules from labeled (dirty, clean) pairs."""
    rules: dict[str, str] = {}
    for bad, good in labels:
        if bad is None or good is None:
            continue
        tb, tg = bad.split(" "), good.split(" ")
        if len(tb) != len(tg):
            continue
        diffs = [(x, y) for x, y in zip(tb, tg) if x != y]
        if len(diffs) == 1:
            rules[diffs[0][0]] = diffs[0][1]
    return rules


def _apply_tokens(value: str, rules: dict[str, str]) -> str:
    return " ".join(rules.get(t, t) for t in value.split(" "))


def placeholder_values(profiles: dict[str, ColumnProfile]) -> frozenset[str]:
    """Raha's null-pattern detector: strings recurring across >= 3
    different columns are placeholders ("N/A", "-"). Their fake FD groups
    are excluded from the vicinity statistics."""
    col_sets: dict[str, set[str]] = {}
    for c, prof in profiles.items():
        for v, _cnt in prof.top_values:
            col_sets.setdefault(v, set()).add(c)
    return frozenset(v for v, cs in col_sets.items() if len(cs) >= 3)


def raha_baran_clean(bench: Benchmark, dirty: DataFrame) -> DataFrame:
    """Clean ``dirty`` (the Spark view of ``bench.dirty``)."""
    spark = dirty.sparkSession
    rng = np.random.default_rng(SEED)
    cols = [c for c in dirty.columns if c != "row_id"]

    # the 20 ground-truth labeled cells the paper grants this baseline
    mask = bench.mask.reset_index(drop=True)
    picks = rng.choice(len(mask), size=min(N_LABELS, len(mask)),
                       replace=False)
    d_idx = bench.dirty.set_index("row_id")
    t_idx = bench.clean.set_index("row_id")
    labels: list[tuple[str, str, str, str]] = []  # row_id, col, dirty, clean
    for i in picks:
        rid, col, _etype = mask.iloc[int(i)]
        labels.append((rid, col, d_idx.at[rid, col], t_idx.at[rid, col]))

    # the one Spark job: the profiles and the FD statistics below are
    # both reduced from this cube on the driver
    cube = value_cube(dirty, cols)
    profiles = profile_cube(cube)
    layers: list[Layer] = []

    # --- value models: token rules per column -------------------------
    value_layer = Layer("baran_value_models")
    for col in cols:
        col_labels = [(d, c) for _rid, lcol, d, c in labels if lcol == col]
        rules = _token_rules(col_labels)
        if not rules:
            continue
        mapping = {}
        for v, _cnt in profiles[col].top_values:
            fixed = _apply_tokens(v, rules)
            if fixed != v:
                mapping[v] = fixed
        if mapping:
            value_layer.decision[col] = mapping
            value_layer.comments.append(
                f"{col}: token rules learned from labels: {rules}")
    if value_layer.decision:
        layers.append(value_layer)

    # --- domain models: rare value -> nearest frequent donor ----------
    domain_layer = Layer("baran_domain_models")
    for col in cols:
        counts = profiles[col].top_values
        lower = {v: v.lower() for v, _ in counts}
        initial = {v: v[:1].lower() for v, _ in counts}
        digitless = {v: kb.strip_digits(v) for v, _ in counts}
        mapping: dict[str, str] = {}
        for v, c in counts:
            donors = []
            budget = kb.typo_budget(v)
            # counts are count-descending: donors are a prefix
            for cand, cc in counts:
                if cc < c * 3:
                    break
                # cheap pre-filters before the edit distance: compatible
                # length and (first char kept — Baran's char features
                # weight the word start heavily)
                if abs(len(cand) - len(v)) > budget:
                    continue
                if initial[v] != initial[cand]:
                    continue
                # values differing only in digits are distinct values
                # (kb.digit_only_diff), not typos
                if digitless[v] == digitless[cand]:
                    continue
                d = kb.edit_distance(lower[v], lower[cand], cap=budget + 1)
                if d <= budget:
                    donors.append((d, -cc, cand))
            if donors:
                donors.sort()
                best = [x for x in donors if x[0] == donors[0][0]]
                if len(best) == 1:
                    mapping[v] = best[0][2]
        if mapping:
            domain_layer.decision[col] = mapping
            domain_layer.comments.append(
                f"{col}: {len(mapping)} rare values mapped to frequent "
                "donors")
    if domain_layer.decision:
        layers.append(domain_layer)

    # --- cross-column swap rule (learned from labels) -----------------
    swap_pairs: set[tuple[str, str]] = set()
    for rid, lcol, _d, truth_v in labels:
        for other in cols:
            if other != lcol and d_idx.at[rid, other] == truth_v:
                swap_pairs.add(tuple(sorted((lcol, other))))
    freq = {c: dict(profiles[c].top_values) for c in cols}
    for k, (a, b) in enumerate(sorted(swap_pairs)):
        a_off = sorted(
            v for v, c in profiles[a].top_values
            if freq[b].get(v, 0) > 3 * c
        )
        b_off = sorted(
            v for v, c in profiles[b].top_values
            if freq[a].get(v, 0) > 3 * c
        )
        if not a_off or not b_off:
            continue
        layers.append(Layer(
            f"baran_swap_{k}", Swap(a, b, tuple(a_off), tuple(b_off)),
            comments=[f"swap rule learned from labels: {a} <-> {b}"]))

    # --- vicinity models: mode repair of statistical FD groups --------
    n_distinct = {c: profiles[c].n_distinct for c in cols}
    cands = discover_fds(
        cube, n_distinct=n_distinct, total=len(cube.codes),
        max_violation_rate=0.5,
        exclude_lhs_values=placeholder_values(profiles),
    )
    repaired_rhs: set[str] = set()
    for i, cand in enumerate(cands):
        if cand.rhs in repaired_rhs or len(repaired_rhs) >= 12:
            continue
        groups = violating_groups(cand)
        mapping = {}
        for key, vcs in groups.items():
            vcs = sorted(vcs, key=lambda vc: (-vc[1], vc[0]))
            mode, mode_c = vcs[0]
            # dominance gate: near-balanced groups (two colliding
            # entities, 18 vs 17) carry no repair signal, while genuine
            # violations are mode-heavy (17 vs 1) or at least skewed
            # (the 5/4/2/1 Flights mixtures)
            if len(vcs) > 1 and mode_c < 1.2 * vcs[1][1]:
                continue
            if mode_c / sum(c for _, c in vcs) >= 0.3:
                mapping[key] = mode
        if mapping:
            repaired_rhs.add(cand.rhs)
            layers.append(Layer(
                f"baran_vicinity_{i}", FDRepair(cand.lhs, cand.rhs, mapping),
                comments=[f"vicinity model {cand.lhs} -> {cand.rhs}: mode "
                          f"repair of {len(mapping)} groups"]))

    view = f"raha_baran_{bench.name}"
    dirty.createOrReplaceTempView(view)
    return spark.sql(build_sql(view, layers, list(dirty.columns)))
