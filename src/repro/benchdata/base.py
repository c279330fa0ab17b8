"""Benchmark container and Spark conversion helpers."""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StringType, StructField, StructType


class ErrorType:
    """Cell-level error classes (paper Table 2)."""

    TYPO = "typo"
    FD = "fd"
    COLUMN_TYPE = "column_type"
    INCONSISTENCY = "inconsistency"
    DMV = "dmv"
    MISPLACEMENT = "misplacement"

    #: excluded from Table 1 scoring (paper §3.1 "Evaluation"), counted
    #: again in Table 3 (Appendix B).
    TABLE1_EXCLUDED = (COLUMN_TYPE, DMV)


@dataclass
class Benchmark:
    """A dirty table, its ground truth, and the tagged error mask.

    ``dirty`` and ``clean`` are all-string pandas frames sharing a
    ``row_id`` column; ``None`` is a real NULL. ``mask`` has one row per
    erroneous cell: ``row_id``, ``column``, ``error_type``.
    """

    name: str
    dirty: pd.DataFrame
    clean: pd.DataFrame
    mask: pd.DataFrame

    def error_counts(self) -> dict[str, int]:
        return self.mask.groupby("error_type").size().to_dict()

    def spark_dirty(self, spark: SparkSession) -> DataFrame:
        return to_spark_strings(spark, self.dirty)

    def spark_clean(self, spark: SparkSession) -> DataFrame:
        return to_spark_strings(spark, self.clean)

    def spark_mask(self, spark: SparkSession) -> DataFrame:
        return to_spark_strings(spark, self.mask)


def to_spark_strings(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Convert an all-string pandas frame to Spark, preserving NULLs."""
    schema = StructType([StructField(c, StringType()) for c in pdf.columns])
    clean = pdf.astype(object).where(pd.notnull(pdf), None)
    return spark.createDataFrame(clean, schema=schema)
