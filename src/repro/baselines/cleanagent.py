"""CleanAgent-style baseline: LLM-agent format standardization.

CleanAgent (Qi & Wang) standardizes column formats (dates, phones,
emails) via Dataprep-style type functions. The paper's finding — near
zero precision/recall on repair benchmarks — follows from its mechanism:
its edits are format rewrites, not error repairs, so they rarely match
the ground truth cell values. We reproduce exactly that: recognized
phone columns are rewritten to "(XXX) XXX-XXXX", ISO dates to US
format and US dates to ISO, 12-hour clock times to 24-hour "HH:MM".

``max_rows`` reproduces the paper's 2 MB input cap (Movies is processed
as its first 1000 rows).
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

#: the share of a column's non-NULL values that must match a format for
#: the column to be standardized
MAJORITY = 0.6


def _phone(c: Column) -> Column:
    return F.concat(F.lit("("), F.substring(c, 1, 3), F.lit(") "),
                    F.substring(c, 5, 8))


def _iso_to_us(c: Column) -> Column:
    return F.concat(F.substring(c, 6, 2), F.lit("/"), F.substring(c, 9, 2),
                    F.lit("/"), F.substring(c, 1, 4))


def _us_to_iso(c: Column) -> Column:
    parts = F.split(c, "/")
    return F.concat(parts.getItem(2), F.lit("-"),
                    F.lpad(parts.getItem(0), 2, "0"), F.lit("-"),
                    F.lpad(parts.getItem(1), 2, "0"))


def _clock24(c: Column) -> Column:
    hm = F.split(F.split(c, " ").getItem(0), ":")
    h = hm.getItem(0).cast("int")
    h24 = F.when(c.rlike(r"p\.m\.$"), (h % 12) + 12).otherwise(h % 12)
    return F.concat(F.lpad(h24.cast("string"), 2, "0"), F.lit(":"),
                    hm.getItem(1))


#: recognized format -> its standardization, tried in this order
FORMATS = {
    r"^\d{3}-\d{3}-\d{4}$": _phone,
    r"^\d{4}-\d{2}-\d{2}$": _iso_to_us,
    r"^\d{1,2}/\d{1,2}/\d{4}$": _us_to_iso,
    r"^\d{1,2}:\d{2} (a\.m\.|p\.m\.)$": _clock24,
}


def cleanagent_clean(dirty: DataFrame, *,
                     max_rows: int | None = None) -> DataFrame:
    """Standardize each column to the first format that ``MAJORITY`` of
    its values match, all shares measured in one Spark job."""
    scoped, rest = dirty, None
    if max_rows is not None:
        in_scope = F.col("row_id").cast("long") < max_rows
        scoped, rest = dirty.where(in_scope), dirty.where(~in_scope)

    cols = [c for c in dirty.columns if c != "row_id"]
    checks = [(col, fmt) for col in cols for fmt in FORMATS]
    shares = scoped.agg(*[
        F.avg(F.col(col).rlike(fmt).cast("double")).alias(f"s{k}")
        for k, (col, fmt) in enumerate(checks)
    ]).collect()[0] if checks else ()
    chosen = {}
    for (col, fmt), share in zip(checks, shares):
        if col not in chosen and (share or 0.0) >= MAJORITY:
            chosen[col] = fmt
    for col, fmt in chosen.items():
        c = F.col(col)
        scoped = scoped.withColumn(
            col, F.when(c.rlike(fmt), FORMATS[fmt](c)).otherwise(c))

    return scoped.unionByName(rest) if rest is not None else scoped
