"""The string review (§2.1.1) decides exactly like a brute-force scan of
the prompt's value list; its review batched per prompt decides exactly
like the chain of stages run on one value at a time, and its batched
typo search answers exactly what a loop per value over length buckets
answers (``tests/reference_stats.py``), on drawn lists and on every
prompt that the five benchmarks' plans send. A value that the cleaning
prompt is asked about from outside its list is kept. (``edit_distance``
itself is checked against a full-matrix Levenshtein in
``test_properties.py``.)"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.llm import SimulatedLLM
from repro.llm import knowledge as kb
from repro.llm.client import _concept_key, _digit_heavy
from tests.reference_stats import (concept_groups, string_fix, typo_buckets,
                                   typo_target)

MIN_FREQ_RATIO = SimulatedLLM.MIN_FREQ_RATIO


# -- the reference: rescan every value for every value ----------------------

def _oracle_fix(value, values, freq):
    if value is None or kb.is_dmv_token(value) or kb.boolean_token(value) is not None:
        return None
    ck = _concept_key(value)
    if ck is not None:
        group = [(v, c) for v, c in values if _concept_key(v) == ck]
        if len(group) > 1:
            rep = max(group, key=lambda vc: (vc[1], vc[0]))[0]
            if rep != value:
                return rep
        return None
    cands = [(v, c) for v, c in values if v is not None]
    best = _oracle_typo_target(value, cands, freq)
    if best is not None:
        return best
    if not _digit_heavy(value):
        fixed = kb.fix_words(value)
        if fixed is not None:
            return fixed
    return None


def _oracle_typo_target(value, cands, freq):
    budget = kb.typo_budget(value)
    scored = []
    for cand, cfreq in cands:
        if cand == value or cfreq < freq * MIN_FREQ_RATIO:
            continue
        if kb.digit_only_diff(value, cand):
            continue
        d = kb.edit_distance(value.lower(), cand.lower(), cap=budget + 1)
        if d <= budget:
            scored.append((d, -cfreq, cand))
    if not scored:
        return None
    scored.sort()
    top_d = scored[0][0]
    at_min = [s for s in scored if s[0] == top_d]
    if _digit_heavy(value) and len(at_min) > 1:
        return None
    if len(at_min) > 1 and at_min[0][1] == at_min[1][1]:
        return None
    return at_min[0][2]


# -- generated prompt value lists -------------------------------------------

VOCAB = ("Birmingham", "Boston", "Chicago", "randomized trial",
         "Shadow River", "111 patients", "10:30 p.m.", "AMI-1", "Pale Ale",
         "İstanbul", "Ale", "ox", "NYC", "AMI-12", "2020-01-01")
RENDERINGS = ("English", "eng", "ENGLISH", "french", "fre", "French",
              "Alabama", "AL", "al", "New York", "NY", "12 oz", "12.0 oz",
              "12 ounce", "N/A", "yes")
#: values the index must take as they are: a lone surrogate, NUL, the
#: empty string, backslashes, and forms whose lower() changes length
ODD = ("\ud800x", "\ud800xy", "\x00", "\x00a", "", "\\", "a\\b", "İ", "i̇",
       "I")


@st.composite
def typos(draw):
    word = draw(st.sampled_from(VOCAB))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(word)))
        ch = draw(st.sampled_from("aexİ17 \\"))
        op = draw(st.sampled_from(("sub", "del", "ins", "dup")))
        if op == "sub":
            word = word[:i] + ch + word[i + 1:]
        elif op == "del":
            word = word[:i] + word[i + 1:]
        elif op == "ins":
            word = word[:i] + ch + word[i:]
        else:
            word = word[:i + 1] + word[i:]
    return word


#: case-only variants, at edit distance 0 once lower-cased
recased = st.builds(lambda w, f: f(w), st.sampled_from(VOCAB),
                    st.sampled_from((str.upper, str.lower, str.swapcase)))
#: numbers that differ only in digits, whose stripped forms are equal
renumbered = st.builds(lambda w, d: "".join(d if c.isdigit() else c
                                            for c in w),
                       st.sampled_from([w for w in VOCAB
                                        if any(c.isdigit() for c in w)]),
                       st.sampled_from("0259"))
#: frequencies with many ties (and 0, whose floor admits every value)
freqs = st.one_of(st.sampled_from((0, 1, 2, 4, 8, 16)), st.integers(0, 60))
words = st.one_of(st.sampled_from(VOCAB), st.sampled_from(RENDERINGS),
                  typos(), recased, renumbered, st.sampled_from(ODD))

values_st = st.dictionaries(
    words, freqs, min_size=1, max_size=40,
).flatmap(lambda d: st.permutations(list(d.items())))


@settings(max_examples=200, deadline=None)
@given(values_st, words)
def test_indexed_review_matches_brute_force(values, extra):
    want_unusual = tuple(v for v, c in values
                         if _oracle_fix(v, values, c) is not None)
    freq_of = dict(values)
    asked = list(want_unusual) + [extra]  # extra may be missing from the list
    want_map = {}
    for v in asked:
        if v not in freq_of:
            continue  # a value outside the list is kept
        fixed = _oracle_fix(v, values, freq_of[v])
        if fixed is not None and fixed != v:
            want_map[v] = fixed

    llm = SimulatedLLM()
    review = llm.review_string_outliers("col", values)
    assert review.unusual_values == want_unusual
    # the cleaning prompt over the same list reuses the review's decisions
    assert llm.map_string_outliers("col", asked, values).mapping == want_map
    assert (SimulatedLLM().map_string_outliers("col", asked, values).mapping
            == want_map)


def _batched(values):
    """The batched search's answer for each non-NULL ``(value, freq)``,
    all of them searched as one batch."""
    pairs = [(v, c) for v, c in values if v is not None]
    got = SimulatedLLM()._typo_targets(pairs, range(len(pairs)))
    return dict(zip(pairs, got))


def _looped(values):
    """The reference loop's answer for each non-NULL ``(value, freq)``."""
    by_len = typo_buckets(values)
    return {(v, c): typo_target(v, c, by_len) for v, c in values
            if v is not None}


@settings(max_examples=300, deadline=None)
@given(values_st, words)
# every lower-cased form empty: the count matrix has no columns
@example([("", 0)], "x")
def test_batched_typo_search_matches_the_loop(values, extra):
    """Every entry of a drawn list, searched as one batch, gets the
    loop's typo target; the review of the list decides as the chain
    does, and an outside value asked about is kept."""
    assert _batched(values) == _looped(values)
    by_len, concepts = typo_buckets(values), concept_groups(values)
    llm = SimulatedLLM()
    assert llm.review_string_outliers("col", values).unusual_values == tuple(
        v for v, c in values if string_fix(v, c, by_len, concepts) is not None)
    if extra not in dict(values):
        assert llm.map_string_outliers("col", [extra], values).mapping == {}


def test_odd_values_are_searched_like_the_loop():
    """A lone surrogate, NUL, the empty string and backslashes are
    searched without raising, as the loop decides; odd values asked
    about from outside the list are kept."""
    values = ([(v, 1) for v in ODD]
              + [(v, 50) for v in ("\ud800xz", "\x00b", "ab\\", "x", "\\\\")])
    assert _batched(values) == _looped(values)
    llm = SimulatedLLM()
    review = llm.review_string_outliers("col", values)
    by_len = typo_buckets(values)
    want = {v: typo_target(v, dict(values)[v], by_len)
            for v in review.unusual_values}
    assert want["\ud800xy"] == "\ud800xz" and want["\x00a"] == "\x00b"
    asked = list(review.unusual_values) + ["\ud801", "\\x", "\x00\x00"]
    got = llm.map_string_outliers("col", asked, values).mapping
    assert got == {v: t for v, t in want.items() if t is not None}


@pytest.mark.parametrize(
    "name", ["hospital", "rayyan", "beers", "flights", "movies"])
def test_benchmark_typo_searches_match_the_loop(monkeypatch, name):
    """Every prompt list a Spark-free plan of the benchmark reviews is
    searched as the loop searches it, the fixes the plan's review made
    in one batch per prompt are the chain's, for every value of the
    list, and the plan runs at most one typo search per list."""
    from repro.benchdata import load
    from repro.core.pipeline import CocoonPipeline
    from repro.profiling import fd
    from tests.reference_stats import string_table

    reviewed, searches = [], []
    string_fixes, typo_targets = (SimulatedLLM._string_fixes,
                                  SimulatedLLM._typo_targets)

    def recorded(self, values):
        fixes = string_fixes(self, values)
        reviewed.append((values, fixes))
        return fixes

    def counted(self, pairs, queries):
        searches.append(len(queries))
        return typo_targets(self, pairs, queries)

    monkeypatch.setattr(SimulatedLLM, "_string_fixes", recorded)
    monkeypatch.setattr(SimulatedLLM, "_typo_targets", counted)
    cube = fd.Cube.of(string_table(load(name).dirty.drop(columns="row_id")))
    CocoonPipeline(SimulatedLLM()).plan(cube, name)
    assert reviewed
    assert len(searches) <= len(reviewed)
    memo = {}
    for values, fixes in reviewed:
        assert _batched(values) == _looped(values)
        by_len, concepts = typo_buckets(values), concept_groups(values)
        assert fixes == {(v, c): string_fix(v, c, by_len, concepts, memo)
                         for v, c in values if v is not None}


def test_outside_value_is_kept():
    """The cleaning prompt maps an in-list typo and keeps a value that
    is not in its list, however close to a frequent value it is."""
    values = [("Birmingham", 40), ("Birminghm", 1), ("Boston", 30)]
    mapping = SimulatedLLM().map_string_outliers(
        "city", ["Birminghm", "Bostn"], values).mapping
    assert mapping == {"Birminghm": "Birmingham"}


@pytest.mark.parametrize(
    "name", ["hospital", "rayyan", "beers", "flights", "movies"])
def test_cleaning_prompts_ask_only_about_their_lists_values(monkeypatch,
                                                            name):
    """Every value a Spark-free plan of the benchmark asks the cleaning
    prompt to map is in that prompt's ``frequent`` list, so keeping an
    outside value changes no plan."""
    from repro.benchdata import load
    from repro.core.pipeline import CocoonPipeline
    from repro.profiling import fd
    from tests.reference_stats import string_table

    asked = []
    map_string_outliers = SimulatedLLM.map_string_outliers

    def recorded(self, column, unusual, frequent):
        asked.append((unusual, {v for v, _ in frequent}))
        return map_string_outliers(self, column, unusual, frequent)

    monkeypatch.setattr(SimulatedLLM, "map_string_outliers", recorded)
    cube = fd.Cube.of(string_table(load(name).dirty.drop(columns="row_id")))
    CocoonPipeline(SimulatedLLM()).plan(cube, name)
    assert asked
    for unusual, frequent in asked:
        assert set(unusual) <= frequent


# -- the review batched per prompt against the chain per value ---------------

#: dictionary words of four letters, which ``fix_words`` never looks up,
#: and of five or more
DICT_WORDS = ("care", "Lake", "pale", "trial", "study", "River", "heart",
              "hospital", "randomized", "cardiac")
#: misspellings with one dictionary repair, of five letters and more,
#: and one of four letters, which ``fix_words`` leaves alone
MISSPELT = ("stody", "Rivar", "hosspital", "randomised", "Hospitall", "lagr")
#: what a word can stand next to: a ``.`` (an abbreviation), digits,
#: ``_``, non-ASCII letters, line and record separators, nothing
GLUE = (" ", ".", ". ", "_", "é", "İ", "7", "42", "-", "\n", "\x1c",
        "\x1d", "\x1e", "\x1f", "")
CASES = (str, str.upper, str.lower, str.capitalize, str.swapcase)
#: values that are mostly digits, odd strings, and language/state
#: renderings that a concept group decides
OTHERS = ("2011-12-01", "10:30 a.m.", "AB12345", "111 patients",
          "\x1c\x1d\x1e\x1f", "", "\x00", "\ud800x", "English", "eng",
          "AL")


def _text(words):
    parts = st.lists(st.tuples(st.sampled_from(words), st.sampled_from(GLUE)),
                     min_size=1, max_size=4)
    return st.builds(lambda ps, case: case("".join(w + g for w, g in ps)),
                     parts, st.sampled_from(CASES))


clean_text = st.one_of(_text(DICT_WORDS), st.sampled_from(OTHERS),
                       typos(), recased)
misspelt_text = _text(DICT_WORDS + MISSPELT)


@st.composite
def review_lists(draw):
    """A prompt's ``(value, freq)`` list: clean texts, at most one value
    holding a misspelling, and frequencies either spread (0 included)
    or so flat that no value reaches another's frequency floor."""
    freq = draw(st.sampled_from((freqs, st.integers(1, 3))))
    values = draw(st.dictionaries(clean_text, freq, min_size=1, max_size=30))
    odd = draw(st.none() | misspelt_text)
    if odd is not None:
        values[odd] = draw(freq)
    return draw(st.permutations(list(values.items())))


@settings(max_examples=300, deadline=None)
@given(review_lists(), misspelt_text | clean_text)
def test_batched_review_matches_the_chain(values, extra):
    """The review and the cleaning prompt over a drawn list decide every
    value as the chain run on that value alone does, and keep an
    outside value."""
    by_len, concepts = typo_buckets(values), concept_groups(values)
    freq_of = dict(values)

    def fix(v):
        return string_fix(v, freq_of[v], by_len, concepts)

    want_unusual = tuple(v for v, _ in values if fix(v) is not None)
    asked = list(want_unusual) + [extra]  # extra may be missing from the list
    want_map = {v: fix(v) for v in asked
                if v in freq_of and fix(v) not in (None, v)}
    llm = SimulatedLLM()
    assert llm.review_string_outliers("col", values).unusual_values == want_unusual
    assert llm.map_string_outliers("col", asked, values).mapping == want_map


def test_no_value_reaching_the_floor_builds_no_arrays(monkeypatch):
    """A list whose top frequency is under every value's floor is
    reviewed without the typo search, which builds the arrays, also for
    a list of one value."""
    def searched(self, pairs, queries):
        raise AssertionError(f"searched {pairs!r}")

    monkeypatch.setattr(SimulatedLLM, "_typo_targets", searched)
    for values in ([("BIRMINGHAM", 4)],
                   [("Birmingham", 3), ("Birminghm", 1), ("Boston", 2)]):
        llm = SimulatedLLM()
        assert llm.review_string_outliers("col", values).unusual_values == ()
