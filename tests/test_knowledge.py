"""Unit tests for the semantic knowledge base."""
import pytest

from repro.llm import SimulatedLLM
from repro.llm import knowledge as kb


# ---------------------------------------------------------------------------
# edit distance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b,d", [
    ("abc", "abc", 0),
    ("abc", "abd", 1),
    ("abc", "ab", 1),
    ("abc", "abcd", 1),
    ("kitten", "sitting", 3),
    ("", "a", 1),
    ("flaw", "lawn", 2),
    ("cofffee", "coffee", 1),
])
def test_edit_distance(a, b, d):
    assert kb.edit_distance(a, b, cap=5) == d
    assert kb.edit_distance(b, a, cap=5) == d


def test_edit_distance_cap():
    assert kb.edit_distance("aaaaaaa", "bbbbbbb", cap=3) == 3
    assert kb.edit_distance("short", "muchlongerstring", cap=2) == 2


@pytest.mark.parametrize("v,budget", [("ab", 1), ("abcdef", 1),
                                      ("abcdefg", 2), ("x" * 30, 2)])
def test_typo_budget(v, budget):
    assert kb.typo_budget(v) == budget


# ---------------------------------------------------------------------------
# digit_only_diff
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b,expected", [
    ("111 patients", "113 patients", True),
    ("10:30 p.m.", "10:31 p.m.", True),
    ("85%", "95%", True),
    ("1999", "2000", True),
    ("Birminghxm", "Birmingham", False),
    ("100x4", "10004", False),
    ("7:10 a.m.x", "7:10 a.m.", False),
    ("same", "same", False),  # equal strings are not a diff at all
    ("12 oz", "12.0 oz", False),  # differs in '.', not only digits
])
def test_digit_only_diff(a, b, expected):
    assert kb.digit_only_diff(a, b) is expected


# ---------------------------------------------------------------------------
# typo candidates, through the simulator's string review (§2.1.1)
# ---------------------------------------------------------------------------

def _typo_fix(values: list[tuple[str, int]]) -> tuple[tuple[str, ...], dict]:
    """The values the string review flags and the mapping the cleaning
    prompt then returns for them."""
    llm = SimulatedLLM()
    review = llm.review_string_outliers("col", values)
    fix = llm.map_string_outliers("col", list(review.unusual_values), values)
    return review.unusual_values, fix.mapping


def test_best_typo_candidate_prefers_frequent_close_value():
    # the nearest frequent value wins, even over a more frequent one a
    # further edit away
    values = [("Birmingxxx", 50), ("Birmingham", 18), ("Boston", 12),
              ("Birminghxm", 1)]
    assert _typo_fix(values) == (("Birminghxm",),
                                 {"Birminghxm": "Birmingham"})


def test_best_typo_candidate_respects_freq_ratio():
    # a candidate must be at least 4x as frequent as the suspect
    assert _typo_fix([("abce", 3), ("abcd", 1)]) == ((), {})
    assert _typo_fix([("abce", 4), ("abcd", 1)]) == (("abcd",),
                                                     {"abcd": "abce"})


def test_best_typo_candidate_ambiguous_ties_abstain():
    values = [("word", 20), ("wore", 20), ("worx", 1)]
    assert _typo_fix(values) == ((), {})
    mapping = SimulatedLLM().map_string_outliers("col", ["worx"], values)
    assert mapping.mapping == {}


def test_best_typo_candidate_no_match():
    values = [("completely", 100), ("zzz", 1)]
    assert _typo_fix(values) == ((), {})
    mapping = SimulatedLLM().map_string_outliers("col", ["zzz"], values)
    assert mapping.mapping == {}


# ---------------------------------------------------------------------------
# dictionary word fixes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,fixed", [
    ("randomizzed controlled trial", "randomized controlled trial"),
    ("Randomizzed controlled trial", "Randomized controlled trial"),
    ("SCREENINGG cohort", "SCREENING cohort"),
])
def test_fix_words_repairs_doubled_letters(text, fixed):
    assert kb.fix_words(text) == fixed


@pytest.mark.parametrize("text", [
    "randomized controlled trial",       # all words fine
    "Acute Care Hospitals",              # plural of dictionary word
    "Am. J. Card. Surg.",                # abbreviations are not typos
    "Robert Almeida",                    # proper nouns, no neighbour
    "abc 123",                           # short tokens skipped
])
def test_fix_words_leaves_clean_text_alone(text):
    assert kb.fix_words(text) is None


# ---------------------------------------------------------------------------
# unit grammars
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v,minutes", [
    ("90 min", 90.0),
    ("100 min", 100.0),
    ("1 hour 40 min", 100.0),
    ("1 hr. 30 min.", 90.0),
    ("2 hours 5 minutes", 125.0),
    ("3 hour 0 min", 180.0),
    ("45 minutes", 45.0),
])
def test_parse_duration(v, minutes):
    assert kb.parse_duration_minutes(v) == minutes


@pytest.mark.parametrize("v", ["ninety", "min 90", "", "12 oz", "7.5/10"])
def test_parse_duration_rejects(v):
    assert kb.parse_duration_minutes(v) is None


@pytest.mark.parametrize("v,x", [("85%", 85.0), ("7.5 %", 7.5), ("100%", 100.0)])
def test_parse_percent(v, x):
    assert kb.parse_percent(v) == x


def test_parse_percent_rejects():
    assert kb.parse_percent("85") is None
    assert kb.parse_percent("%85") is None


@pytest.mark.parametrize("v,x", [("91 patients", 91.0), ("3 reviews", 3.0)])
def test_parse_count(v, x):
    assert kb.parse_count(v) == x


def test_parse_count_rejects():
    assert kb.parse_count("patients 91") is None
    assert kb.parse_count("91") is None


@pytest.mark.parametrize("v,x", [
    ("12.0 oz", 12.0), ("12 ounce", 12.0), ("12.0 OZ", 12.0),
    ("16 ounces", 16.0), ("32.0 oz.", 32.0),
])
def test_parse_volume(v, x):
    assert kb.parse_volume_oz(v) == x


@pytest.mark.parametrize("v,x", [("7.8/10", 7.8), ("3/5", 3.0)])
def test_parse_rating(v, x):
    assert kb.parse_rating(v) == x


def test_parse_rating_rejects():
    assert kb.parse_rating("7.8") is None


@pytest.mark.parametrize("v,ok", [
    ("123", True), ("-5", True), ("1.5", False), ("abc", False),
])
def test_is_int_string(v, ok):
    assert kb.is_int_string(v) is ok


@pytest.mark.parametrize("v,ok", [
    ("1.5", True), ("-2.25", True), ("123", False), ("1.", False),
])
def test_is_float_string(v, ok):
    assert kb.is_float_string(v) is ok


@pytest.mark.parametrize("v,ok", [
    ("12/01/2011", True), ("2011-12-01", True), ("1/1/2000", True),
    ("2011/12/01", False), ("12-01-2011", False),
])
def test_is_date_string(v, ok):
    assert kb.is_date_string(v) is ok


# ---------------------------------------------------------------------------
# semantic domains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v,code", [
    ("English", "eng"), ("eng", "eng"), ("FRENCH", "fre"),
    ("german", "ger"), ("Chinese", "chi"),
])
def test_canonical_language(v, code):
    assert kb.canonical_language(v) == code


def test_canonical_language_rejects():
    assert kb.canonical_language("USA") is None
    assert kb.canonical_language("Birmingham") is None


@pytest.mark.parametrize("v,abbr", [
    ("Alabama", "AL"), ("AL", "AL"), ("new york", "NY"), ("tx", "TX"),
])
def test_canonical_state(v, abbr):
    assert kb.canonical_state(v) == abbr


@pytest.mark.parametrize("v,dom", [
    ("eng", "language"), ("English", "language"),
    ("USA", "country"), ("France", "country"),
    ("Birmingham", "city"), ("AL", "us_state"),
    ("Jefferson", "county"),
    ("xyzzy", None), ("", None),
])
def test_domain_of(v, dom):
    assert kb.domain_of(v) == dom


@pytest.mark.parametrize("v", ["N/A", "n/a", "null", "NULL", "-", "--",
                               "?", "unknown", "Missing", "9999"])
def test_dmv_tokens(v):
    assert kb.is_dmv_token(v)


@pytest.mark.parametrize("v", ["Birmingham", "0", "valid", "na ok"])
def test_non_dmv_tokens(v):
    assert not kb.is_dmv_token(v)


@pytest.mark.parametrize("v,b", [
    ("yes", True), ("no", False), ("Y", True), ("N", False),
    ("true", True), ("FALSE", False), ("1", True), ("0", False),
])
def test_boolean_token(v, b):
    assert kb.boolean_token(v) is b


def test_boolean_token_rejects():
    assert kb.boolean_token("maybe") is None


# ---------------------------------------------------------------------------
# shape patterns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("v,shape", [
    ("12/01/2011", "99/99/9999"),
    ("Birmingham", "a"),
    ("New York", "a a"),
    ("AMI-1", "a-9"),
    ("85%", "99%"),
    ("100x4", "999a9"),
])
def test_shape_of(v, shape):
    assert kb.shape_of(v) == shape


def test_shape_to_regex():
    import re
    rx = kb.shape_to_regex(kb.shape_of("12/01/2011"))
    assert rx == r"^\d{2}/\d{2}/\d{4}$"
    assert re.match(rx, "12/01/2011")
    assert not re.match(rx, "1/1/2011")


def test_shape_roundtrip_matches_value():
    import re
    for v in ("Birmingham", "85%", "AMI-1", "205-555-0134", "7:10 a.m."):
        assert re.match(kb.shape_to_regex(kb.shape_of(v)), v), v
