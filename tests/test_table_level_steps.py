"""Direct tests for the table-level core steps (duplication,
misplacement) on the statistics the pipeline gives them: repeated rows
and folded joint counts, built here from plain rows. Each returns a
``TableOutcome``: the layers, each carrying its decision, and the step
reports the pipeline appends."""
import json
from collections import Counter

import pandas as pd

from repro.core import StepReport
from repro.core.counts import Swap
from repro.core.duplication import clean_duplication
from repro.core.misplacement import (
    _dominant_domain,
    clean_misplacement,
    domain_pairs,
)
from repro.llm import SimulatedLLM
from repro.profiling import fd
from tests import reference_stats

LLM = SimulatedLLM()


def _repeated(rows, cols):
    """``profile_cube_rows``' repeated rows: (JSON row key, count > 1)."""
    keys = Counter(json.dumps([r[c] for c in cols]) for r in rows)
    return [(k, n) for k, n in keys.items() if n > 1]


def _joints(rows, pairs):
    """Each pair's joint counts, marginalized from the rows' value
    cube."""
    keys = [(p.a, p.b) for p in pairs]
    cube = fd.Cube.of(reference_stats.string_table(
        pd.DataFrame(rows).astype(object)))
    return dict(zip(keys, fd.pair_joints(cube, keys)))


def _misplacement(rows, counts, llm=LLM):
    pairs = domain_pairs(counts)
    return clean_misplacement(pairs, _joints(rows, pairs), llm)


# ---------------------------------------------------------------------------
# duplication (§2.1.7)
# ---------------------------------------------------------------------------

def test_duplication_detected_and_deduped():
    rows = [{"a": "x", "b": "1"}, {"a": "x", "b": "1"},
            {"a": "y", "b": "2"}]
    r = clean_duplication("orders", ["a", "b"],
                          _repeated(rows, ["a", "b"]), LLM)
    (layer,) = r.layers
    assert layer.decision == {}
    # no order column: the window keeps the first copy by row_id
    assert (layer.key_cols, layer.order_col) == (["a", "b"], None)
    assert "ORDER BY row_id)" in layer.render("t", ["row_id", "a", "b"])
    assert r.steps == (StepReport("duplication", None, True,
                                  "1 surplus duplicate rows; removed"),)


def test_duplication_acceptable_for_log_tables():
    rows = [{"a": "x", "b": "1"}, {"a": "x", "b": "1"}]
    r = clean_duplication("sensor_log", ["a", "b"],
                          _repeated(rows, ["a", "b"]), LLM)
    assert r.layers == ()
    assert r.steps == (StepReport("duplication", None, True,
                                  "1 surplus duplicate rows; acceptable"),)


def test_duplication_none():
    rows = [{"a": "x", "b": "1"}, {"a": "y", "b": "1"}]
    llm = SimulatedLLM()
    r = clean_duplication("t", ["a", "b"], _repeated(rows, ["a", "b"]), llm)
    assert r.layers == () and llm.calls == 0
    assert r.steps == (StepReport("duplication", None, False,
                                  "no duplicate rows"),)


# ---------------------------------------------------------------------------
# misplacement domain inference
# ---------------------------------------------------------------------------

def test_dominant_domain_pure_column():
    counts = (("eng", 400), ("fre", 100))
    assert _dominant_domain(counts) == "language"


def test_dominant_domain_with_minority_pollution():
    counts = (("English", 400), ("USA", 40))
    assert _dominant_domain(counts) == "language"


def test_dominant_domain_unclassifiable():
    assert _dominant_domain((("widget", 10), ("gadget", 5))) is None


def test_dominant_domain_mixed_no_purity():
    counts = (("eng", 100), ("USA", 100))
    assert _dominant_domain(counts) is None


def test_clean_misplacement_detects_swapped_pair():
    rows = [{"row_id": str(i),
             "language": "USA" if i < 5 else "eng",
             "country": "eng" if i < 5 else "USA",
             "other": "zzz"} for i in range(30)]
    counts = {
        "language": (("eng", 25), ("USA", 5)),
        "country": (("USA", 25), ("eng", 5)),
        "other": (("zzz", 30),),
    }
    r = _misplacement(rows, counts)
    (layer,) = r.layers
    assert not layer.key_cols and layer.name == "clean_misplacement_0"
    assert layer.decision == Swap("country", "language", ("eng",), ("USA",))
    cond = "country IN ('eng') AND language IN ('USA')"
    assert layer.render("t", ["country", "language", "other"]).endswith(
        f"SELECT CASE WHEN {cond} THEN language ELSE country END AS country,"
        f"\n        CASE WHEN {cond} THEN country ELSE language END "
        "AS language,\n        other\n    FROM t")
    assert r.steps == (StepReport("misplacement", "country/language", True,
                                  "swapped 5 misplaced value pairs"),)


def test_clean_misplacement_requires_row_cooccurrence():
    # offending values never co-occur in the same row -> no swap
    rows = [{"row_id": str(i),
             "language": "USA" if i < 2 else "eng",
             "country": "eng" if i >= 28 else "USA"} for i in range(30)]
    counts = {
        "language": (("eng", 28), ("USA", 2)),
        "country": (("USA", 28), ("eng", 2)),
    }
    r = _misplacement(rows, counts)
    assert r.layers == ()
    assert r.steps == (StepReport("misplacement", None, False,
                                  "no misplaced columns"),)


def test_clean_misplacement_skips_swap_sharing_a_column():
    # rows 0-4 swap language<->country, rows 5-9 swap country<->state:
    # both pairs are reviewed, only the first swap is emitted
    def row(i):
        if i < 5:
            return ("USA", "eng", "Texas")
        if i < 10:
            return ("eng", "Texas", "USA")
        return ("eng", "USA", "Texas")

    rows = [dict(zip(("row_id", "language", "country", "state"),
                     (str(i),) + row(i))) for i in range(60)]
    counts = {
        "language": (("eng", 55), ("USA", 5)),
        "country": (("USA", 50), ("eng", 5), ("Texas", 5)),
        "state": (("Texas", 55), ("USA", 5)),
    }
    llm = SimulatedLLM()
    r = _misplacement(rows, counts, llm)
    assert llm.calls == 2
    (layer,) = r.layers
    assert layer.decision == Swap("country", "language", ("eng",), ("USA",))
    assert r.steps == (StepReport("misplacement", "country/language", True,
                                  "swapped 5 misplaced value pairs"),)
