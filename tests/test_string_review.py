"""The indexed string review (§2.1.1) decides exactly like a brute-force
scan of the prompt's value list. (``edit_distance`` itself is checked
against a full-matrix Levenshtein in ``test_properties.py``.)"""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import SimulatedLLM
from repro.llm import knowledge as kb
from repro.llm.client import _concept_key, _digit_heavy

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
         "İstanbul")
RENDERINGS = ("English", "eng", "ENGLISH", "french", "fre", "French",
              "Alabama", "AL", "al", "New York", "NY", "12 oz", "12.0 oz",
              "12 ounce", "N/A", "yes")


@st.composite
def typos(draw):
    word = draw(st.sampled_from(VOCAB))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(word)))
        ch = draw(st.sampled_from("aexİ1 "))
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


values_st = st.dictionaries(
    st.one_of(st.sampled_from(VOCAB), st.sampled_from(RENDERINGS), typos()),
    st.integers(1, 60), min_size=1, max_size=40,
).flatmap(lambda d: st.permutations(list(d.items())))


@settings(max_examples=200, deadline=None)
@given(values_st, typos())
def test_indexed_review_matches_brute_force(values, extra):
    want_unusual = tuple(v for v, c in values
                         if _oracle_fix(v, values, c) is not None)
    freq_of = dict(values)
    asked = list(want_unusual) + [extra]  # extra may be missing from the list
    want_map = {}
    for v in asked:
        fixed = _oracle_fix(v, values, freq_of.get(v, 1))
        if fixed is not None and fixed != v:
            want_map[v] = fixed

    llm = SimulatedLLM()
    review = llm.review_string_outliers("col", values)
    assert review.unusual_values == want_unusual
    # the cleaning prompt over the same list reuses the review's index
    assert llm.map_string_outliers("col", asked, values).mapping == want_map
    assert (SimulatedLLM().map_string_outliers("col", asked, values).mapping
            == want_map)
