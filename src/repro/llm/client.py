"""LLM client protocol and the deterministic simulator.

:class:`SimulatedLLM` answers every prompt the Cocoon pipeline issues
(§2.1 of the paper) using only the rendered prompt inputs — column
names, value samples with frequencies, statistical profiles — plus the
world knowledge in :mod:`repro.llm.knowledge`. It is deterministic, so
the reproduced tables are stable across runs.
"""
from __future__ import annotations

import math
import string
from typing import Protocol, Sequence

import numpy as np

from repro.llm import knowledge as kb
from repro.llm import prompts
from repro.llm.types import (
    DMVReview,
    DuplicationReview,
    FDRepair,
    FDReview,
    MisplacementReview,
    NumericRangeReview,
    PatternReview,
    StringOutlierMapping,
    StringOutlierReview,
    TypeSuggestion,
    UniquenessReview,
)

ValueCounts = list[tuple[str, int]]


class LLMClient(Protocol):
    """The semantic-reasoning surface Cocoon needs from a model."""

    def review_string_outliers(self, column: str, values: ValueCounts) -> StringOutlierReview: ...
    def map_string_outliers(self, column: str, unusual: list[str], frequent: ValueCounts) -> StringOutlierMapping: ...
    def review_patterns(self, column: str, values: ValueCounts) -> PatternReview: ...
    def review_dmv(self, column: str, values: ValueCounts) -> DMVReview: ...
    def suggest_type(self, column: str, current_type: str, values: ValueCounts) -> TypeSuggestion: ...
    def review_numeric_range(self, column: str, lo: float, hi: float) -> NumericRangeReview: ...
    def review_fd(self, lhs: str, rhs: str, conditional_entropy: float) -> FDReview: ...
    def repair_fd(self, lhs: str, rhs: str, groups: dict[str, ValueCounts]) -> FDRepair: ...
    def review_duplication(self, table: str, n_dupes: int, sample: list[str]) -> DuplicationReview: ...
    def review_uniqueness(self, column: str, unique_ratio: float, other_columns: list[str]) -> UniquenessReview: ...
    def review_misplacement(self, col_a: str, col_b: str, n_evidence: int, sample: list[tuple[str, str]]) -> MisplacementReview: ...


#: ASCII letters and digits, which are all of an ASCII string's
#: ``str.isalnum`` characters (``bytes.translate`` deletes them)
_ASCII_ALNUM = (string.ascii_letters + string.digits).encode()


def _digit_heavy(v: str) -> bool:
    """Whether most of ``v``'s alphanumeric characters are digits."""
    if v.isascii():
        b = v.encode()
        alnum = len(b) - len(b.translate(None, _ASCII_ALNUM))
        digits = len(b) - len(b.translate(None, kb.ASCII_DIGITS))
    else:
        alnum = sum(c.isalnum() for c in v)
        digits = len(v) - len(kb.strip_digits(v))  # every digit is alphanumeric
    return alnum > 0 and digits / alnum > 0.5


def _concept_key(value: str) -> tuple[str, object] | None:
    """Group values that denote the same real-world concept."""
    lang = kb.canonical_language(value)
    if lang is not None:
        return ("language", lang)
    vol = kb.parse_volume_oz(value)
    if vol is not None:
        return ("volume_oz", vol)
    state = kb.canonical_state(value)
    if state is not None:
        return ("us_state", state)
    return None


#: count-matrix cells the typo search compares at once (4 MiB of int32)
_PAIR_CELLS = 1 << 20


def _code_points(text: str) -> np.ndarray:
    """``text``'s code points, one per character (a lone surrogate too)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype="<u4")


class SimulatedLLM:
    """Deterministic stand-in for the paper's Claude 3.5 calls.

    The class constants mirror the judgement thresholds a
    prompt-engineered LLM effectively applies: ``MIN_FREQ_RATIO`` for
    "this rare value looks like a typo of that common value",
    ``FD_CONFIDENCE`` for "the true value of this FD group is
    determinable" (below it the model abstains — the behaviour behind
    the paper's Flights discussion), and ``TYPE_COVERAGE`` for "enough
    values parse as this semantic type".
    """

    MIN_FREQ_RATIO = 4.0
    FD_CONFIDENCE = 0.66
    TYPE_COVERAGE = 0.95

    def __init__(self) -> None:
        self.calls = 0  # prompt counter, reported in cleaning summaries
        # the last string-review list and its decisions (_fixes)
        self._last_review: tuple[tuple, dict] | None = None
        # each word's dictionary repair (knowledge.fix_words)
        self._word_fixes: dict[str, str | None] = {}

    # -- string outliers (§2.1.1, Figs. 2-3) --------------------------------

    def _fixes(self, values: ValueCounts) -> dict[tuple[str, int], str | None]:
        """:meth:`_string_fixes` of ``values``, kept for the last list
        asked, so the cleaning prompt over the list the review just
        answered reuses its decisions."""
        key = tuple(values)
        if self._last_review is None or self._last_review[0] != key:
            self._last_review = (key, self._string_fixes(key))
        return self._last_review[1]

    def _string_fixes(self, values: ValueCounts
                      ) -> dict[tuple[str, int], str | None]:
        """The corrected form of each non-NULL ``(value, frequency)`` of
        a prompt's ``values``, or ``None`` where it looks fine.

        Each value passes the stages below in order and stops at the
        first that decides it. Each stage runs once over the values
        that reach it: the typo search as one join (:meth:`_typo_targets`,
        only over values whose frequency floor the list's top frequency
        reaches), and the dictionary repair as one scan for the words
        :func:`knowledge.fix_words` looks up (each new one is repaired
        once, into the model's memo), after which ``fix_words`` runs
        only on the values that hold a word with a repair.
        """
        pairs = [(v, c) for v, c in values if v is not None]
        keys = [_concept_key(v) for v, _ in pairs]
        groups: dict[tuple[str, object], list[tuple[str, int]]] = {}
        for ck, vc in zip(keys, pairs):
            if ck is not None:
                groups.setdefault(ck, []).append(vc)
        #: concept key -> most common form, for groups of two or more
        reps = {ck: max(g, key=lambda vc: (vc[1], vc[0]))[0]
                for ck, g in groups.items() if len(g) > 1}
        fixes: list[str | None] = [None] * len(pairs)
        typo_stage = []
        for i, ((v, _), ck) in enumerate(zip(pairs, keys)):
            if kb.is_dmv_token(v) or kb.boolean_token(v) is not None:
                continue
            # inconsistent representation of a known concept -> most
            # common form
            if ck is not None:
                if reps.get(ck, v) != v:
                    fixes[i] = reps[ck]
                continue
            typo_stage.append(i)
        # frequency-based typo of a much more common same-column value
        top = max((c for _, c in pairs), default=0)
        searched = [i for i in typo_stage
                    if math.ceil(pairs[i][1] * self.MIN_FREQ_RATIO) <= top]
        if searched:
            for i, best in zip(searched, self._typo_targets(pairs, searched)):
                fixes[i] = best
        # open-vocabulary dictionary typo (titles, names, free text)
        texts = {i: pairs[i][0] for i in typo_stage
                 if fixes[i] is None and not _digit_heavy(pairs[i][0])}
        memo = self._word_fixes
        repaired = []
        for word in dict.fromkeys(
                kb.LOOKED_UP_WORD_RE.findall("\n".join(texts.values()))):
            low = word.lower()
            if low not in memo:
                memo[low] = kb._dictionary_fix(low)
            if memo[low] is not None:
                repaired.append(word)
        if repaired:
            # a value that holds no repaired word, not even as a
            # substring, is one fix_words would leave alone
            for i, v in texts.items():
                if any(word in v for word in repaired):
                    fixes[i] = kb.fix_words(v, memo)
        return dict(zip(pairs, fixes))

    def _typo_targets(self, pairs: list[tuple[str, int]],
                      queries: Sequence[int]) -> list[str | None]:
        """For each row of ``queries``, the value of ``pairs`` (a
        prompt's non-NULL ``(value, frequency)`` list) that the row's
        value is most likely a typo of, or ``None``.

        A candidate is at least ``MIN_FREQ_RATIO`` times as frequent,
        does not differ only in digits, and its lower-cased form is
        within the query's typo budget of the query's. The entries are
        sorted by ``(length, -frequency)`` of their lower-cased forms
        and keyed by one integer over both fields, and the candidates
        are found as one join: per length offset within the budget, two
        ``searchsorted`` calls give each query its range of entries of
        that length above its frequency floor. A pair is then rejected
        when its character counts alone put it over the budget: one
        edit moves the surplus and the deficit of one histogram against
        the other by at most one each, so max(surplus, deficit) =
        (L1 + |length difference|) / 2 bounds the edit distance from
        below (the q = 1 count filter of Gravano et al., VLDB 2001).
        :func:`knowledge.edit_distance` runs only on the pairs left.
        """
        lows = [v.lower() for v, _ in pairs]
        order = sorted(range(len(pairs)),
                       key=lambda i: (len(lows[i]), -pairs[i][1]))
        values = [pairs[i][0] for i in order]
        lows = [lows[i] for i in order]
        freqs = np.array([pairs[i][1] for i in order], dtype=np.int64)
        lens = np.array([len(t) for t in lows], dtype=np.int64)
        # digit-stripped form ids: equal ids, equal stripped forms
        ids: dict[str, int] = {}
        stripped = np.array([ids.setdefault(kb.strip_digits(v), len(ids))
                             for v in values], dtype=np.int64)
        # each lower-cased form's character counts over the list's
        # alphabet (empty when every form is)
        alphabet, col = np.unique(_code_points("".join(lows)),
                                  return_inverse=True)
        width = max(1, len(alphabet))
        row = np.repeat(np.arange(len(lows)), lens)
        counts = np.bincount(row * width + col, minlength=len(lows) * width
                             ).reshape(len(lows), width).astype(np.int32)
        top = int(freqs.max())
        span = top - int(freqs.min()) + 1
        keys = lens * span + (top - freqs)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        rows = rank[np.asarray(queries, dtype=np.int64)]
        budgets = np.array([kb.typo_budget(values[r]) for r in rows.tolist()],
                           dtype=np.int64)
        # each query's last key offset within a length: its floor
        floors = np.ceil(freqs[rows] * self.MIN_FREQ_RATIO)
        stop = np.clip(top - floors, -1, span - 1).astype(np.int64)
        qs, cs = [], []
        # a candidate whose length differs by more than the budget is
        # more than the budget away
        top_budget = int(budgets.max())
        for delta in range(-top_budget, top_budget + 1):
            base = (lens[rows] + delta) * span
            lo = np.searchsorted(keys, base)
            hi = np.searchsorted(keys, base + stop, side="right")
            size = np.where(budgets >= abs(delta), hi - lo, 0)
            q = np.repeat(np.arange(len(size)), size)
            qs.append(q)
            cs.append(np.arange(len(q)) + np.repeat(lo - np.cumsum(size)
                                                    + size, size))
        q, c = np.concatenate(qs), np.concatenate(cs)
        # differing numbers are distinct values, not typos (this also
        # drops the query itself)
        keep = stripped[c] != stripped[rows[q]]
        q, c = q[keep], c[keep]
        bound = np.abs(lens[rows[q]] - lens[c])
        step = max(1, _PAIR_CELLS // width)
        for s in range(0, len(q), step):
            part = slice(s, s + step)
            bound[part] += np.abs(counts[rows[q[part]]]
                                  - counts[c[part]]).sum(axis=1)
        keep = bound <= 2 * budgets[q]
        scored: list[list[tuple[int, int, str]]] = [[] for _ in budgets]
        budget_of, row_of = budgets.tolist(), rows.tolist()
        for qi, ci in zip(q[keep].tolist(), c[keep].tolist()):
            budget = budget_of[qi]
            d = kb.edit_distance(lows[row_of[qi]], lows[ci], cap=budget + 1)
            if d <= budget:
                scored[qi].append((d, -int(freqs[ci]), values[ci]))
        return [self._closest(values[r], s) for r, s in zip(row_of, scored)]

    @staticmethod
    def _closest(value: str, scored: list[tuple[int, int, str]]) -> str | None:
        """The nearest, then most frequent, of ``scored``'s
        ``(distance, -frequency, candidate)``; ``None`` on a tie."""
        if not scored:
            return None
        scored.sort()
        top_d = scored[0][0]
        at_min = [s for s in scored if s[0] == top_d]
        if _digit_heavy(value) and len(at_min) > 1:
            return None  # two digit-strings equally close: truly ambiguous
        if len(at_min) > 1 and at_min[0][1] == at_min[1][1]:
            return None
        return at_min[0][2]

    def review_string_outliers(self, column: str,
                               values: ValueCounts) -> StringOutlierReview:
        self.calls += 1
        prompt = prompts.string_outlier_detection(column, values)
        fixes = self._fixes(values)
        unusual = [v for v, c in values
                   if v is not None and fixes[v, c] is not None]
        if unusual:
            reasoning = (
                f"{len(unusual)} values look like typos or inconsistent "
                f"representations, e.g. {unusual[:5]!r}."
            )
            summary = f"{len(unusual)} values are unusual because they are typos or inconsistent representations."
        else:
            reasoning = "The sampled values are consistent and plausible."
            summary = "No unusual values."
        return StringOutlierReview(
            prompt=prompt, reasoning=reasoning,
            unusual=bool(unusual), summary=summary,
            unusual_values=tuple(unusual),
        )

    def map_string_outliers(self, column: str, unusual: list[str],
                            frequent: ValueCounts) -> StringOutlierMapping:
        """Map each of ``unusual`` to its correct form, decided over the
        ``frequent`` list it was reviewed in. A value that is not in
        ``frequent`` is kept (the prompt's "or keep it if actually
        acceptable"): it gets no mapping entry."""
        self.calls += 1
        prompt = prompts.string_outlier_cleaning(column, unusual, frequent)
        fixes, freq_of = self._fixes(frequent), dict(frequent)
        mapping: dict[str, str] = {}
        for v in unusual:
            fixed = fixes.get((v, freq_of.get(v)))
            if fixed is not None and fixed != v:
                mapping[v] = fixed
        reasoning = (
            f"Mapped {len(mapping)} erroneous values to the most common "
            "correct representation."
        )
        return StringOutlierMapping(prompt=prompt, reasoning=reasoning,
                                    mapping=mapping)

    # -- pattern outliers (§2.1.2) ------------------------------------------

    def review_patterns(self, column: str,
                        values: ValueCounts) -> PatternReview:
        self.calls += 1
        shape_by_value: dict[str, str] = {}
        shapes: dict[str, int] = {}
        for v, c in values:
            if v is None or kb.is_dmv_token(v):
                continue
            s = shape_by_value[v] = kb.shape_of(v)
            shapes[s] = shapes.get(s, 0) + c
        shape_counts = sorted(shapes.items(), key=lambda kv: -kv[1])
        prompt = prompts.pattern_review(column, shape_counts)
        patterns = tuple(kb.shape_to_regex(s) for s, _ in shape_counts)
        mapping: dict[str, str] = {}
        if len(shape_counts) > 1:
            majority = shape_counts[0][0]
            for v, s in shape_by_value.items():
                if s == majority:
                    continue
                fixed = self._reshape(v, majority)
                if fixed is not None and fixed != v:
                    mapping[v] = fixed
        reasoning = (
            f"Found {len(shape_counts)} value shapes; "
            f"{len(mapping)} values can be normalized to the dominant "
            f"pattern {shape_counts[0][0]!r}." if shape_counts else
            "Column has no non-null values."
        )
        return PatternReview(
            prompt=prompt, reasoning=reasoning, patterns=patterns,
            inconsistent=bool(mapping), mapping=mapping,
        )

    @staticmethod
    def _reshape(value: str, target_shape: str) -> str | None:
        """Convert ``value`` to ``target_shape`` when safely possible."""
        # stray alphabetic junk glued to an otherwise-conforming value
        stripped = value.strip().rstrip("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ# ")
        if stripped != value and kb.shape_of(stripped) == target_shape:
            return stripped
        # ISO date <-> US date conversion
        iso = kb.ISO_DATE_RE.match(value.strip())
        if iso and target_shape in ("99/99/9999", "9/9/9999"):
            return f"{int(iso.group(2)):02d}/{int(iso.group(3)):02d}/{iso.group(1)}"
        us = kb.US_DATE_RE.match(value.strip())
        if us and target_shape == "9999-99-99":
            return f"{us.group(3)}-{int(us.group(1)):02d}-{int(us.group(2)):02d}"
        return None

    # -- disguised missing values (§2.1.3) ----------------------------------

    def review_dmv(self, column: str, values: ValueCounts) -> DMVReview:
        self.calls += 1
        prompt = prompts.dmv_review(column, values)
        dmv = tuple(v for v, _ in values if v is not None and kb.is_dmv_token(v))
        reasoning = (
            f"Values {list(dmv)!r} are placeholders that semantically mean "
            "the value is missing." if dmv else
            "No disguised missing values."
        )
        return DMVReview(prompt=prompt, reasoning=reasoning, dmv_values=dmv)

    # -- column type (§2.1.4) -----------------------------------------------

    _KEEP_VARCHAR_KEYWORDS = ("id", "code", "key", "zip", "phone", "issn",
                              "pagination", "address")

    def suggest_type(self, column: str, current_type: str,
                     values: ValueCounts) -> TypeSuggestion:
        self.calls += 1
        prompt = prompts.type_review(column, current_type, values)
        vals = [(v, c) for v, c in values
                if v is not None and not kb.is_dmv_token(v)]

        def _done(target: str, mapping: dict[str, str], why: str) -> TypeSuggestion:
            return TypeSuggestion(prompt=prompt, reasoning=why,
                                  target_type=target, mapping=mapping)

        name_parts = column.lower().replace("-", "_").split("_")
        if not vals or any(k in name_parts for k in self._KEEP_VARCHAR_KEYWORDS):
            return _done("VARCHAR", {},
                         "Identifier-like column: keep as text to preserve "
                         "leading zeros and formatting.")
        total = sum(c for _, c in vals)

        def _covers(parse) -> bool:
            return sum(c for v, c in vals if parse(v) is not None) / total >= self.TYPE_COVERAGE

        if all(kb.boolean_token(v) is not None for v, _ in vals):
            mapping = {v: str(kb.boolean_token(v)) for v, _ in vals
                       if v not in ("True", "False")}
            return _done("BOOLEAN", mapping,
                         "Values form a yes/no vocabulary: semantically a "
                         "boolean.")
        for parse, why in (
            (kb.parse_duration_minutes, "durations; convert to minutes as DOUBLE"),
            (kb.parse_percent, "percentages; convert to DOUBLE"),
            (kb.parse_count, "counts with a unit noun; convert to DOUBLE"),
            (kb.parse_rating, "x/y ratings; keep the numerator as DOUBLE"),
        ):
            if any(parse(v) is not None for v, _ in vals) and _covers(parse):
                mapping = {}
                for v, _ in vals:
                    x = parse(v)
                    if x is not None and f"{x:.1f}" != v:
                        mapping[v] = f"{x:.1f}"
                return _done("DOUBLE", mapping, f"Values are {why}.")
        if all(kb.parse_volume_oz(v) is not None for v, _ in vals):
            return _done("VARCHAR", {},
                         "Quantities carry a unit; keep the text form.")
        if all(kb.is_int_string(v) for v, _ in vals):
            if any(v.strip().startswith("0") and len(v.strip()) > 1 for v, _ in vals):
                return _done("VARCHAR", {}, "Digits with leading zeros are "
                             "codes, not numbers.")
            return _done("INTEGER", {}, "All values are integers.")
        if all(kb.is_float_string(v) or kb.is_int_string(v) for v, _ in vals):
            return _done("DOUBLE", {}, "All values are numeric.")
        if all(kb.is_date_string(v) for v, _ in vals):
            return _done("DATE", {}, "All values are calendar dates.")
        return _done("VARCHAR", {}, "Free-form text.")

    # -- numeric outliers (§2.1.5) ------------------------------------------

    _RANGES: tuple[tuple[tuple[str, ...], float, float], ...] = (
        (("score", "percent", "pct"), 0.0, 100.0),
        (("abv",), 0.0, 20.0),
        (("ibu",), 0.0, 200.0),
        (("rating",), 0.0, 10.0),
        (("year",), 1880.0, 2035.0),
        (("duration", "minutes", "runtime"), 0.0, 1000.0),
        (("age",), 0.0, 120.0),
    )

    def review_numeric_range(self, column: str, lo: float,
                             hi: float) -> NumericRangeReview:
        self.calls += 1
        prompt = prompts.numeric_range_review(column, lo, hi)
        cname = column.lower()
        for keys, rlo, rhi in self._RANGES:
            if any(k in cname for k in keys):
                return NumericRangeReview(
                    prompt=prompt,
                    reasoning=f"A {keys[0]} is only plausible in "
                              f"[{rlo}, {rhi}].",
                    has_range=True, lo=rlo, hi=rhi,
                )
        return NumericRangeReview(
            prompt=prompt,
            reasoning="No universally valid range for this column.",
            has_range=False,
        )

    # -- functional dependencies (§2.1.6) -----------------------------------

    @staticmethod
    def _fd_meaningful(lhs: str, rhs: str) -> bool:
        l, r = lhs.lower(), rhs.lower()
        if "zip" in l and any(k in r for k in ("city", "state", "county")):
            return True
        l_parts = l.split("_")
        if l_parts[-1] in ("code", "id", "key", "number"):
            prefix = "_".join(l_parts[:-1])
            if prefix and r.startswith(prefix):
                return True  # measure_code -> measure_name
            if l_parts[-1] in ("id", "code") and any(
                k in r for k in ("name", "city", "state", "country")
            ):
                return True  # brewery_id -> city
        if "flight" in l and any(k in r for k in ("time", "date")):
            return True
        if "issn" in l and ("journal" in r or "abbrev" in r):
            return True
        return False

    def review_fd(self, lhs: str, rhs: str,
                  conditional_entropy: float) -> FDReview:
        self.calls += 1
        prompt = prompts.fd_review(lhs, rhs, conditional_entropy)
        ok = self._fd_meaningful(lhs, rhs)
        reasoning = (
            f"{lhs} determines {rhs} for real-world entities." if ok else
            f"No real-world rule forces {lhs} to determine {rhs}; the "
            "statistical signal is likely coincidental."
        )
        return FDReview(prompt=prompt, reasoning=reasoning, meaningful=ok)

    def repair_fd(self, lhs: str, rhs: str,
                  groups: dict[str, ValueCounts]) -> FDRepair:
        self.calls += 1
        prompt = prompts.fd_repair(lhs, rhs, groups)
        mapping: dict[str, str] = {}
        abstained: list[str] = []
        for key, vcs in groups.items():
            vcs = sorted(vcs, key=lambda vc: (-vc[1], vc[0]))
            mode, mode_c = vcs[0]
            total = sum(c for _, c in vcs)
            support = mode_c
            for v, c in vcs[1:]:
                # minority values that are letter-level typos of the mode
                # support it; digit-for-digit differences (times, amounts)
                # are distinct real values, not typos
                if (not kb.digit_only_diff(v, mode)
                        and kb.edit_distance(v.lower(), mode.lower(),
                                             cap=kb.typo_budget(v) + 1)
                        <= kb.typo_budget(v)):
                    support += c
            if total > 0 and support / total >= self.FD_CONFIDENCE:
                mapping[key] = mode
            else:
                abstained.append(key)
        reasoning = (
            f"{len(mapping)} groups have a determinable true value; "
            f"{len(abstained)} groups are ambiguous (no confident "
            "majority), so the true value cannot be determined and they "
            "are preserved."
        )
        return FDRepair(prompt=prompt, reasoning=reasoning, mapping=mapping,
                        abstained=tuple(abstained))

    # -- duplication (§2.1.7) -----------------------------------------------

    def review_duplication(self, table: str, n_dupes: int,
                           sample: list[str]) -> DuplicationReview:
        self.calls += 1
        prompt = prompts.duplication_review(table, n_dupes, sample)
        acceptable = any(k in table.lower() for k in ("log", "event", "sensor"))
        reasoning = (
            "Repeated rows are expected for coarse-grained logging data."
            if acceptable else
            "Exact duplicate rows have no semantic justification here; "
            "they are erroneous."
        )
        return DuplicationReview(prompt=prompt, reasoning=reasoning,
                                 acceptable=acceptable)

    # -- column uniqueness (§2.1.8) -----------------------------------------

    def review_uniqueness(self, column: str, unique_ratio: float,
                          other_columns: list[str]) -> UniquenessReview:
        self.calls += 1
        prompt = prompts.uniqueness_review(column, unique_ratio, other_columns)
        name = column.lower()
        keyish = name.endswith(("id", "key")) or name in ("row", "rowid")
        should = keyish and unique_ratio >= 0.95
        order_by = None
        if should:
            for c in other_columns:
                if any(k in c.lower() for k in ("updated", "time", "date")):
                    order_by = c
                    break
        reasoning = (
            f"{column} is a key-like column with near-unique values; "
            "duplicates should be deduplicated keeping the latest record."
            if should else
            f"{column} need not be unique."
        )
        return UniquenessReview(prompt=prompt, reasoning=reasoning,
                                should_be_unique=should, order_by=order_by)

    # -- cross-column misplacement ------------------------------------------

    def review_misplacement(self, col_a: str, col_b: str, n_evidence: int,
                            sample: list[tuple[str, str]]) -> MisplacementReview:
        self.calls += 1
        prompt = prompts.misplacement_review(col_a, col_b, n_evidence, sample)
        swapped = n_evidence >= 3
        reasoning = (
            f"{n_evidence} rows hold {col_b}-like values in {col_a} and "
            f"{col_a}-like values in {col_b}: the fields were entered into "
            "the wrong columns and should be swapped back."
            if swapped else "Too little evidence of misplacement."
        )
        return MisplacementReview(prompt=prompt, reasoning=reasoning,
                                  swapped=swapped)
