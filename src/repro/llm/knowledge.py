"""Semantic knowledge base backing :class:`repro.llm.SimulatedLLM`.

This module encodes the *general real-world knowledge* the paper credits
the LLM with: language names and their MARC-style codes, US states,
countries and cities, disguised-missing-value vocabularies, boolean
vocabularies, unit grammars (durations, volumes, percents, counts,
ratings) and a compact English domain dictionary. Everything here is
world knowledge — none of it is derived from any benchmark's error mask.

The benchmark generators in :mod:`repro.benchdata` draw their *clean*
vocabulary from the same lists, which simply models the fact that real
datasets contain real-world entities that a real LLM knows about.
"""
from __future__ import annotations

import re
import string

# ---------------------------------------------------------------------------
# Vocabularies
# ---------------------------------------------------------------------------

#: Language name -> MARC-ish bibliographic code (the Rayyan convention from
#: the paper's Example 1: "English" -> "eng", "French" -> "fre", ...).
LANGUAGE_CODES: dict[str, str] = {
    "english": "eng",
    "french": "fre",
    "german": "ger",
    "chinese": "chi",
    "spanish": "spa",
    "italian": "ita",
    "japanese": "jpn",
    "korean": "kor",
    "russian": "rus",
    "portuguese": "por",
    "dutch": "dut",
    "arabic": "ara",
    "hindi": "hin",
    "turkish": "tur",
    "polish": "pol",
    "swedish": "swe",
    "danish": "dan",
    "norwegian": "nor",
}

LANGUAGE_NAMES: frozenset[str] = frozenset(LANGUAGE_CODES)
LANGUAGE_CODE_SET: frozenset[str] = frozenset(LANGUAGE_CODES.values())

#: US state name -> USPS abbreviation.
US_STATES: dict[str, str] = {
    "alabama": "AL", "alaska": "AK", "arizona": "AZ", "arkansas": "AR",
    "california": "CA", "colorado": "CO", "connecticut": "CT",
    "delaware": "DE", "florida": "FL", "georgia": "GA", "hawaii": "HI",
    "idaho": "ID", "illinois": "IL", "indiana": "IN", "iowa": "IA",
    "kansas": "KS", "kentucky": "KY", "louisiana": "LA", "maine": "ME",
    "maryland": "MD", "massachusetts": "MA", "michigan": "MI",
    "minnesota": "MN", "mississippi": "MS", "missouri": "MO",
    "montana": "MT", "nebraska": "NE", "nevada": "NV",
    "new hampshire": "NH", "new jersey": "NJ", "new mexico": "NM",
    "new york": "NY", "north carolina": "NC", "north dakota": "ND",
    "ohio": "OH", "oklahoma": "OK", "oregon": "OR", "pennsylvania": "PA",
    "rhode island": "RI", "south carolina": "SC", "south dakota": "SD",
    "tennessee": "TN", "texas": "TX", "utah": "UT", "vermont": "VT",
    "virginia": "VA", "washington": "WA", "west virginia": "WV",
    "wisconsin": "WI", "wyoming": "WY",
}
US_STATE_ABBRS: frozenset[str] = frozenset(US_STATES.values())

COUNTRIES: tuple[str, ...] = (
    "USA", "UK", "France", "Germany", "China", "Spain", "Italy", "Japan",
    "South Korea", "Russia", "Brazil", "Netherlands", "India", "Turkey",
    "Poland", "Sweden", "Denmark", "Norway", "Canada", "Australia",
    "Mexico", "Argentina", "Egypt", "Ireland", "New Zealand",
)
COUNTRY_SET: frozenset[str] = frozenset(c.lower() for c in COUNTRIES)

CITIES: tuple[str, ...] = (
    "Birmingham", "Dothan", "Boaz", "Florence", "Gadsden", "Opp",
    "Anchorage", "Phoenix", "Tucson", "Little Rock", "Sacramento",
    "Denver", "Hartford", "Dover", "Tampa", "Atlanta", "Honolulu",
    "Boise", "Chicago", "Indianapolis", "Des Moines", "Wichita",
    "Louisville", "New Orleans", "Portland", "Baltimore", "Boston",
    "Detroit", "Minneapolis", "Jackson", "Kansas City", "Billings",
    "Omaha", "Reno", "Concord", "Newark", "Albuquerque", "Buffalo",
    "Charlotte", "Fargo", "Cleveland", "Tulsa", "Salem", "Pittsburgh",
    "Providence", "Columbia", "Memphis", "Houston", "Provo",
    "Burlington", "Richmond", "Seattle", "Madison", "Cheyenne",
)
CITY_SET: frozenset[str] = frozenset(c.lower() for c in CITIES)

COUNTIES: tuple[str, ...] = (
    "Jefferson", "Houston County", "Marshall", "Lauderdale", "Etowah",
    "Covington", "Maricopa", "Pima", "Pulaski", "Cook", "Harris",
    "Kings County", "Wayne County", "Dallas County", "Clark County",
    "Orange County", "Fulton", "Hennepin", "Cuyahoga", "Allegheny",
)
COUNTY_SET: frozenset[str] = frozenset(c.lower() for c in COUNTIES)

#: Strings that *look* present but semantically mean "missing" (FAHES-style).
DMV_TOKENS: frozenset[str] = frozenset({
    "n/a", "na", "n.a.", "null", "none", "nil", "missing", "unknown",
    "-", "--", "---", "?", "??", "empty", "not available", "not avail",
    "not applicable", "unk", "9999", "-999", "tbd", "#n/a", "(null)",
    "not listed",
})

TRUE_TOKENS: frozenset[str] = frozenset({"yes", "y", "true", "t", "1"})
FALSE_TOKENS: frozenset[str] = frozenset({"no", "n", "false", "f", "0"})

#: Compact English/domain dictionary used for open-vocabulary typo review
#: (systematic-review & movie domains, plus generic data vocabulary).
DICTIONARY_WORDS: tuple[str, ...] = (
    # medical / systematic-review vocabulary (Rayyan-like)
    "randomized", "controlled", "trial", "study", "systematic", "review",
    "analysis", "clinical", "patients", "treatment", "therapy", "cancer",
    "diabetes", "cardiac", "vaccine", "infection", "chronic", "acute",
    "outcomes", "cohort", "screening", "intervention", "placebo",
    "efficacy", "safety", "pediatric", "surgical", "hypertension",
    "disease", "syndrome", "journal", "medicine", "health", "lancet",
    "nature", "science", "research", "international", "american",
    "european", "global", "public", "quarterly", "annals", "archives",
    # movie domain (Movies-like)
    "shadow", "river", "night", "garden", "silent", "broken", "golden",
    "winter", "summer", "letters", "return", "secret", "stolen", "city",
    "dreams", "storm", "empire", "voyage", "legacy", "crimson", "hidden",
    "kingdom", "midnight", "forgotten", "eternal", "paradise", "thunder",
    "horizon", "destiny", "whisper", "fortune", "courage", "journey",
    "mirror", "island", "castle", "harbor", "memory", "justice", "freedom",
    # hospital domain
    "hospital", "medical", "center", "regional", "community", "memorial",
    "general", "baptist", "university", "county", "clinic", "heart",
    "attack", "failure", "pneumonia", "surgery", "infection", "care",
    "street", "avenue", "drive", "road", "boulevard", "north", "south",
    "east", "west", "saint", "valley", "lake", "spring", "grove",
    # beers domain
    "brewing", "brewery", "company", "ale", "lager", "stout", "porter",
    "pilsner", "india", "pale", "amber", "wheat", "double", "imperial",
    "session", "blonde", "brown", "craft", "works", "house",
)
DICTIONARY: frozenset[str] = frozenset(DICTIONARY_WORDS)

# ---------------------------------------------------------------------------
# Edit distance & typo reasoning
# ---------------------------------------------------------------------------


def edit_distance(a: str, b: str, cap: int = 3) -> int:
    """Levenshtein distance capped at ``cap``: returns ``min(d, cap)``.

    Only a distance below ``cap`` matters, and a cell ``(i, j)`` of the
    DP matrix is at least ``|i - j|``, so only the diagonal band of
    half-width ``cap - 1`` is computed (Ukkonen, 1985); cells outside
    it stand in as ``cap``. A row whose band minimum reaches ``cap``
    ends the scan.

    Before the DP, ``a`` is cut into ``cap`` disjoint pieces: ``cap - 1``
    edits touch at most ``cap - 1`` of them, so a distance below ``cap``
    leaves one piece intact in ``b`` (the pigeonhole filter of
    Wu and Manber, 1992). An empty piece always passes.
    """
    if a == b:
        return 0
    if abs(len(a) - len(b)) >= cap:
        return cap
    n = len(a)
    for i in range(cap):
        if a[i * n // cap:(i + 1) * n // cap] in b:
            break
    else:
        return cap
    k = cap - 1
    m = len(b)
    prev = [j if j <= k else cap for j in range(m + 1)]
    for i, ca in enumerate(a, 1):
        cur = [cap] * (m + 1)
        if i <= k:
            cur[0] = i
        best = cur[0]
        for j in range(max(1, i - k), min(m, i + k) + 1):
            c = min(prev[j] + 1, cur[j - 1] + 1,
                    prev[j - 1] + (ca != b[j - 1]))
            cur[j] = c
            if c < best:
                best = c
        if best >= cap:
            return cap
        prev = cur
    return min(prev[m], cap)


def typo_budget(value: str) -> int:
    """Maximum plausible edit distance for ``value`` to be a typo."""
    return 1 if len(value) <= 6 else 2


#: the ten ASCII digits, which are all of an ASCII string's
#: ``str.isdigit`` characters (``bytes.translate`` deletes them)
ASCII_DIGITS = string.digits.encode()


def strip_digits(value: str) -> str:
    """``value`` without its digit characters."""
    if value.isascii():
        return value.encode().translate(None, ASCII_DIGITS).decode()
    return "".join(ch for ch in value if not ch.isdigit())


def digit_only_diff(a: str, b: str) -> bool:
    """True when ``a`` and ``b`` differ only in digit characters.

    "111 patients" vs "113 patients", "10:30 p.m." vs "10:31 p.m.":
    numbers that differ are distinct real values, not typos — a human
    (or LLM) does not "correct" 111 to 113. By contrast "Birminghxm" vs
    "Birmingham" or "100x4" vs "10004" differ in non-digit characters
    and remain typo evidence.
    """
    return a != b and strip_digits(a) == strip_digits(b)


_WORD_RE = re.compile(r"[A-Za-z]+")
#: the most edits :func:`fix_words` repairs in one word
MAX_EDITS = 1

#: Dictionary bucketed by word length for cheap candidate pre-filtering.
_DICT_BY_LEN: dict[int, tuple[str, ...]] = {}
for _w in DICTIONARY_WORDS:
    _DICT_BY_LEN.setdefault(len(_w), ())
    _DICT_BY_LEN[len(_w)] += (_w,)


def _dict_candidates(word: str) -> list[str]:
    out: list[str] = []
    for ln in range(len(word) - MAX_EDITS, len(word) + MAX_EDITS + 1):
        out.extend(_DICT_BY_LEN.get(ln, ()))
    return out


def _dictionary_fix(word: str) -> str | None:
    """The repair of lower-cased ``word``, or ``None`` to keep it.

    Dictionary words (plural-aware: "hospitals"/"outcomes" are fine) and
    words with no unique neighbour within ``MAX_EDITS`` edits are kept.
    """
    if word in DICTIONARY or word.removesuffix("s") in DICTIONARY:
        return None
    hits = [d for d in _dict_candidates(word)
            if edit_distance(word, d, cap=MAX_EDITS + 1) <= MAX_EDITS]
    same_first = [h for h in hits if h[0] == word[0]]
    pool = same_first or hits
    return pool[0] if len(set(pool)) == 1 else None


def fix_words(text: str,
              memo: dict[str, str | None] | None = None) -> str | None:
    """Dictionary-based word-level typo repair.

    Each alphabetic token not in :data:`DICTIONARY` is replaced by its
    unique dictionary neighbour within ``MAX_EDITS`` edits (same first
    letter preferred, as humans rarely mistype the first letter). Returns
    the repaired string, or ``None`` when nothing needed fixing or a
    token had no unambiguous repair.

    ``memo`` keeps each lower-cased word's repair between calls; its
    owner decides how long it lives (a :class:`~repro.llm.SimulatedLLM`
    keeps one per instance, so every fresh model does the same work).
    """
    memo = {} if memo is None else memo
    changed = False

    def _fix(m: re.Match[str]) -> str:
        nonlocal changed
        w = m.group(0)
        if len(w) < 5:
            return w
        if m.end() < len(text) and text[m.end()] == ".":
            return w  # abbreviation ("Card." in "Am. J. Card. Surg.")
        low = w.lower()
        if low not in memo:
            memo[low] = _dictionary_fix(low)
        fixed = memo[low]
        if fixed is None:
            return w
        changed = True
        if w.isupper():
            return fixed.upper()
        if w[0].isupper():
            return fixed.capitalize()
        return fixed

    out = _WORD_RE.sub(_fix, text)
    return out if changed else None


#: the words :func:`fix_words` looks up: maximal runs of at least five
#: ASCII letters that no ``.`` follows (found in one pass over many
#: values joined by ``"\n"``, which is no letter)
LOOKED_UP_WORD_RE = re.compile(r"(?<![A-Za-z])[A-Za-z]{5,}(?![A-Za-z.])")


# ---------------------------------------------------------------------------
# Unit / representation grammars
# ---------------------------------------------------------------------------

_DURATION_RE = re.compile(
    r"^\s*(?:(\d+)\s*(?:h|hr|hrs|hour|hours)\.?\s*)?"
    r"(?:(\d+)\s*(?:m|min|mins|minute|minutes)\.?\s*)?$",
    re.IGNORECASE,
)


def parse_duration_minutes(value: str) -> float | None:
    """Parse "90 min", "1 hour 40 min", "1 hr. 30 min." -> minutes."""
    m = _DURATION_RE.match(value)
    if not m or (m.group(1) is None and m.group(2) is None):
        return None
    hours = int(m.group(1) or 0)
    mins = int(m.group(2) or 0)
    return float(hours * 60 + mins)


_PERCENT_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*%\s*$")


def parse_percent(value: str) -> float | None:
    m = _PERCENT_RE.match(value)
    return float(m.group(1)) if m else None


_COUNT_RE = re.compile(r"^\s*(\d+)\s+[A-Za-z]+\s*$")


def parse_count(value: str) -> float | None:
    """Parse "91 patients" / "12 reviews" -> 91.0 / 12.0."""
    m = _COUNT_RE.match(value)
    return float(m.group(1)) if m else None


_VOLUME_RE = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*(oz\.?|ounces?)\s*$", re.IGNORECASE
)


def parse_volume_oz(value: str) -> float | None:
    m = _VOLUME_RE.match(value)
    return float(m.group(1)) if m else None


_RATING_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*/\s*(\d+(?:\.\d+)?)\s*$")


def parse_rating(value: str) -> float | None:
    """Parse "7.8/10" -> 7.8."""
    m = _RATING_RE.match(value)
    return float(m.group(1)) if m else None


_INT_RE = re.compile(r"^\s*-?\d+\s*$")
_FLOAT_RE = re.compile(r"^\s*-?\d+\.\d+\s*$")
#: month/day/year and ISO dates; the groups are the fields in order
US_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
ISO_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_DATE_RES = (US_DATE_RE, ISO_DATE_RE)


def is_int_string(v: str) -> bool:
    return bool(_INT_RE.match(v))


def is_float_string(v: str) -> bool:
    return bool(_FLOAT_RE.match(v))


def is_date_string(v: str) -> bool:
    return any(r.match(v.strip()) for r in _DATE_RES)


# ---------------------------------------------------------------------------
# Semantic value domains (for inconsistency + misplacement reasoning)
# ---------------------------------------------------------------------------


def canonical_language(value: str) -> str | None:
    """Map any known representation of a language to its code."""
    v = value.strip().lower()
    if v in LANGUAGE_CODE_SET:
        return v
    return LANGUAGE_CODES.get(v)


def canonical_state(value: str) -> str | None:
    """Map a state name or abbreviation to the USPS abbreviation."""
    v = value.strip()
    if v.upper() in US_STATE_ABBRS:
        return v.upper()
    return US_STATES.get(v.lower())


def domain_of(value: str) -> str | None:
    """Classify a value into a semantic domain, if recognizable.

    Order matters: specific vocabularies win over broad ones. Used both
    to spot misplaced values and to decide which column a value belongs
    to when two columns appear swapped.
    """
    v = value.strip().lower()
    if not v:
        return None
    if v in LANGUAGE_CODE_SET or v in LANGUAGE_NAMES:
        return "language"
    if v in COUNTRY_SET:
        return "country"
    if v in COUNTY_SET:
        return "county"
    if v in CITY_SET:
        return "city"
    if value.strip().upper() in US_STATE_ABBRS or v in US_STATES:
        return "us_state"
    return None


def is_dmv_token(value: str) -> bool:
    return value.strip().lower() in DMV_TOKENS


def boolean_token(value: str) -> bool | None:
    v = value.strip().lower()
    if v in TRUE_TOKENS:
        return True
    if v in FALSE_TOKENS:
        return False
    return None


# ---------------------------------------------------------------------------
# Shape patterns (for pattern-outlier reasoning)
# ---------------------------------------------------------------------------

#: an ASCII character's shape class: digit -> "9", letter -> "a"
_ASCII_SHAPE = "".join("9" if c.isdigit() else "a" if c.isalpha() else c
                       for c in map(chr, range(128)))
_LETTER_RUN = re.compile("a{2,}")


def shape_of(value: str) -> str:
    """Collapse a value to its character-class shape, e.g. "99/99/9999"."""
    if value.isascii():
        classes = value.translate(_ASCII_SHAPE)
    else:
        classes = "".join("9" if ch.isdigit() else "a" if ch.isalpha() else ch
                          for ch in value)
    # run-length collapse of letters only: shapes of words shouldn't depend
    # on word length, but digit-group lengths are semantically meaningful
    return _LETTER_RUN.sub("a", classes)


def shape_to_regex(shape: str) -> str:
    """Render a shape as an anchored, human-meaningful regex."""
    parts: list[str] = []
    i = 0
    while i < len(shape):
        ch = shape[i]
        if ch == "9":
            j = i
            while j < len(shape) and shape[j] == "9":
                j += 1
            parts.append(rf"\d{{{j - i}}}" if j - i > 1 else r"\d")
            i = j
        elif ch == "a":
            parts.append("[A-Za-z]+")
            i += 1
        else:
            parts.append(re.escape(ch))
            i += 1
    return "^" + "".join(parts) + "$"
