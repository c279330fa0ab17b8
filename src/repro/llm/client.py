"""LLM client protocol and the deterministic simulator.

:class:`SimulatedLLM` answers every prompt the Cocoon pipeline issues
(§2.1 of the paper) using only the rendered prompt inputs — column
names, value samples with frequencies, statistical profiles — plus the
world knowledge in :mod:`repro.llm.knowledge`. It is deterministic, so
the reproduced tables are stable across runs.
"""
from __future__ import annotations

import copy
import math
import string
from typing import Protocol

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


class _Strings:
    """Values with their frequencies and what the typo search reads of
    them: the lower-cased forms and their lengths, the ids of the
    digit-stripped forms in ``stripped`` (new forms get new ids), and
    each lower-cased form's character counts over ``alphabet``, with its
    count of characters outside it."""

    def __init__(self, values: list[str], freqs: list[int], lows: list[str],
                 alphabet: np.ndarray, stripped: dict[str, int]) -> None:
        self.values = values
        self.freqs = np.array(freqs, dtype=np.int64)
        self.lows = lows
        self.lens = np.array([len(t) for t in lows], dtype=np.int64)
        self.stripped = np.array(
            [stripped.setdefault(kb.strip_digits(v), len(stripped))
             for v in values], dtype=np.int64)
        cps = _code_points("".join(lows))
        col = np.searchsorted(alphabet, cps)
        known = col < len(alphabet)
        known[known] = alphabet[col[known]] == cps[known]
        row = np.repeat(np.arange(len(lows)), self.lens)
        counts = np.bincount(row[known] * len(alphabet) + col[known],
                             minlength=len(lows) * len(alphabet))
        self.counts = counts.reshape(len(lows), len(alphabet)).astype(np.int32)
        self.outside = np.bincount(row[~known], minlength=len(lows))

    def take(self, rows: list[int]) -> _Strings:
        """These strings' ``rows``, without encoding them again."""
        part = copy.copy(self)
        part.values = [self.values[i] for i in rows]
        part.lows = [self.lows[i] for i in rows]
        for name in ("freqs", "lens", "stripped", "counts", "outside"):
            setattr(part, name, getattr(self, name)[rows])
        return part


class _StringIndex:
    """One string-review prompt's value list, indexed once for every value.

    Holds each value's concept key, each concept group's size and most
    common form, and ``fixes``: the decision for each ``(value,
    frequency)``, filled for all of the list's non-NULL values by the
    first question on the index (:meth:`SimulatedLLM._fixes`), so
    the cleaning prompt over the same list reuses the review's
    decisions.

    The typo candidates, every non-NULL value, are ``pairs`` ``(value,
    frequency)`` with their lower-cased forms ``lows``, sorted by
    ``(length, -frequency)`` of the lower-cased forms; ``top`` is the
    highest frequency. A value has a typo candidate only if ``top``
    reaches its frequency floor, so what the search reads is built by
    :meth:`arrays` when the first value that passes is searched:
    ``entries`` (:class:`_Strings` over the list's own code points, in
    the order of ``pairs``) and ``keys``, one integer per entry over
    both sort fields, so two ``searchsorted`` calls find the entries of
    one length above a frequency floor.
    """

    def __init__(self, values: tuple[tuple[str, int], ...]) -> None:
        self.values = values
        self.fixes: dict[tuple[str, int], str | None] | None = None
        self.concept_keys: dict[str, tuple[str, object] | None] = {}
        groups: dict[tuple[str, object], list[tuple[str, int]]] = {}
        cands = []
        for v, c in values:
            if v is None:
                continue
            ck = self.concept_key(v)
            if ck is not None:
                groups.setdefault(ck, []).append((v, c))
            low = v.lower()
            cands.append((len(low), c, v, low))
        #: concept key -> (group size, representative form)
        self.concepts = {
            ck: (len(g), max(g, key=lambda vc: (vc[1], vc[0]))[0])
            for ck, g in groups.items()
        }
        cands.sort(key=lambda e: (e[0], -e[1]))
        self.pairs = [(v, c) for _, c, v, _ in cands]
        self.lows = [low for _, _, _, low in cands]
        self.top = max((c for _, c, _, _ in cands), default=0)
        self.entries: _Strings | None = None

    def concept_key(self, value: str) -> tuple[str, object] | None:
        """``value``'s :func:`_concept_key`, computed once per value."""
        if value not in self.concept_keys:
            self.concept_keys[value] = _concept_key(value)
        return self.concept_keys[value]

    def arrays(self) -> _Strings:
        """``entries``, built with ``alphabet``, the digit-stripped form
        ids ``stripped`` and ``keys`` on the first call."""
        if self.entries is None:
            self.alphabet = np.unique(_code_points("".join(self.lows)))
            #: digit-stripped form -> id
            self.stripped: dict[str, int] = {}
            self.entries = _Strings([v for v, _ in self.pairs],
                                    [c for _, c in self.pairs], self.lows,
                                    self.alphabet, self.stripped)
            freqs = self.entries.freqs
            self.span = self.top - int(freqs.min(initial=0)) + 1
            self.keys = self.entries.lens * self.span + (self.top - freqs)
        return self.entries


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
        self._string_index: _StringIndex | None = None
        # each word's dictionary repair (knowledge.fix_words)
        self._word_fixes: dict[str, str | None] = {}

    # -- string outliers (§2.1.1, Figs. 2-3) --------------------------------

    def _index(self, values: ValueCounts) -> _StringIndex:
        """The index of ``values``, rebuilt only when the list changes."""
        key = tuple(values)
        if self._string_index is None or self._string_index.values != key:
            self._string_index = _StringIndex(key)
        return self._string_index

    def _fixes(self, index: _StringIndex,
               asked: list[tuple[str, int]]) -> list[str | None]:
        """The corrected form of each asked ``(value, frequency)``, or
        ``None`` where it looks fine. The first question on an index
        decides all of its values as one batch; the asked values outside
        the list are a batch of their own."""
        if index.fixes is None:
            index.fixes = dict(zip(index.pairs,
                                   self._string_fixes(index, index.pairs)))
        fixes = index.fixes
        new = list(dict.fromkeys(q for q in asked if q not in fixes))
        if new:
            fixes.update(zip(new, self._string_fixes(index, new)))
        return [fixes[q] for q in asked]

    def _string_fixes(self, index: _StringIndex,
                      queries: list[tuple[str, int]]) -> list[str | None]:
        """The corrected form of each ``(value, frequency)`` of
        ``queries`` (``index.pairs`` itself, or values outside the
        list), or ``None`` where it looks fine.

        Each value passes the stages below in order and stops at the
        first that decides it. Each stage runs once over the values
        that reach it: the typo search as one join (:meth:`_typo_targets`,
        only over values whose frequency floor ``top`` reaches), and the
        dictionary repair as one scan for the words
        :func:`knowledge.fix_words` looks up (each new one is repaired
        once, into the model's memo), after which ``fix_words`` runs
        only on the values that hold a word with a repair.
        """
        fixes: list[str | None] = [None] * len(queries)
        typo_stage = []
        for i, (v, _) in enumerate(queries):
            if v is None or kb.is_dmv_token(v) or kb.boolean_token(v) is not None:
                continue
            # inconsistent representation of a known concept -> most
            # common form
            ck = index.concept_key(v)
            if ck is not None:
                size, rep = index.concepts.get(ck, (0, None))
                if size > 1 and rep != v:
                    fixes[i] = rep
                continue
            typo_stage.append(i)
        # frequency-based typo of a much more common same-column value
        searched = [i for i in typo_stage
                    if math.ceil(queries[i][1] * self.MIN_FREQ_RATIO)
                    <= index.top]
        if searched:
            entries = index.arrays()
            if queries is index.pairs:  # the rows of entries
                batch = entries.take(searched)
            else:
                batch = _Strings([queries[i][0] for i in searched],
                                 [queries[i][1] for i in searched],
                                 [queries[i][0].lower() for i in searched],
                                 index.alphabet, index.stripped)
            for i, best in zip(searched, self._typo_targets(index, batch)):
                fixes[i] = best
        # open-vocabulary dictionary typo (titles, names, free text)
        texts = {i: queries[i][0] for i in typo_stage
                 if fixes[i] is None and not _digit_heavy(queries[i][0])}
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
        return fixes

    def _typo_targets(self, index: _StringIndex,
                      queries: _Strings) -> list[str | None]:
        """For each query, the value of ``index`` that it is most likely
        a typo of, or ``None``.

        A candidate is at least ``MIN_FREQ_RATIO`` times as frequent,
        does not differ only in digits, and its lower-cased form is
        within the query's typo budget of the query's. The candidates
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
        own = index.arrays()
        if not own.values or not queries.values:
            return [None] * len(queries.values)
        budgets = np.array([kb.typo_budget(v) for v in queries.values],
                           dtype=np.int64)
        floors = np.ceil(queries.freqs * self.MIN_FREQ_RATIO)
        # each query's last key offset within a length: its floor
        stop = np.clip(index.top - floors, -1, index.span - 1).astype(np.int64)
        qs, cs = [], []
        # a candidate whose length differs by more than the budget is
        # more than the budget away
        top_budget = int(budgets.max())
        for delta in range(-top_budget, top_budget + 1):
            base = (queries.lens + delta) * index.span
            lo = np.searchsorted(index.keys, base)
            hi = np.searchsorted(index.keys, base + stop, side="right")
            size = np.where(budgets >= abs(delta), hi - lo, 0)
            q = np.repeat(np.arange(len(size)), size)
            qs.append(q)
            cs.append(np.arange(len(q)) + np.repeat(lo - np.cumsum(size)
                                                    + size, size))
        q, c = np.concatenate(qs), np.concatenate(cs)
        # differing numbers are distinct values, not typos (this also
        # drops the query itself)
        keep = own.stripped[c] != queries.stripped[q]
        q, c = q[keep], c[keep]
        bound = np.abs(queries.lens[q] - own.lens[c]) + queries.outside[q]
        step = max(1, _PAIR_CELLS // max(1, len(index.alphabet)))
        for s in range(0, len(q), step):
            part = slice(s, s + step)
            bound[part] += np.abs(queries.counts[q[part]]
                                  - own.counts[c[part]]).sum(axis=1)
        keep = bound <= 2 * budgets[q]
        scored: list[list[tuple[int, int, str]]] = [[] for _ in budgets]
        budget_of = budgets.tolist()
        for qi, ci in zip(q[keep].tolist(), c[keep].tolist()):
            budget = budget_of[qi]
            d = kb.edit_distance(queries.lows[qi], own.lows[ci],
                                 cap=budget + 1)
            if d <= budget:
                scored[qi].append((d, -int(own.freqs[ci]), own.values[ci]))
        return [self._closest(v, s) for v, s in zip(queries.values, scored)]

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
        asked = [(v, c) for v, c in values if v is not None]
        unusual = [v for (v, _), fix in zip(asked, self._fixes(
            self._index(values), asked)) if fix is not None]
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
        self.calls += 1
        prompt = prompts.string_outlier_cleaning(column, unusual, frequent)
        freq_of = dict(frequent)
        asked = [(v, freq_of.get(v, 1)) for v in unusual]
        mapping: dict[str, str] = {}
        for v, fixed in zip(unusual, self._fixes(self._index(frequent), asked)):
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
