"""Which ``repro`` attributes the traced run wraps, and the per-layer
metrics computed from the spans they record.

Every target is the attribute a caller looks up at call time, so the
patch is seen: the step functions in ``repro.core.pipeline``'s
namespace, ``discover_fds``/``violating_groups`` in both modules that
call them, ``SimulatedLLM``'s public methods, the prompt renderers in
``repro.llm.prompts`` and the actions of pyspark's classic
``DataFrame``. (``pyspark.sql.DataFrame`` is only the shared parent
class in pyspark 4; the instances Spark Classic returns are
``pyspark.sql.classic.dataframe.DataFrame``.)
"""
from __future__ import annotations

import inspect
import re
from statistics import median

from perfbench.tracer import Span, Tracer, self_times

#: pipeline step function -> step name in the metric names
STEPS = {
    "clean_string_outliers": "string_outliers",
    "clean_pattern_outliers": "pattern_outliers",
    "clean_dmv": "dmv",
    "clean_column_type": "column_type",
    "clean_numeric_outliers": "numeric_outliers",
    "clean_fds": "fd",
    "clean_misplacement": "misplacement",
    "clean_duplication": "duplication",
    "clean_uniqueness": "uniqueness",
}

DATAFRAME_ACTIONS = (
    "collect", "count", "toPandas", "toArrow", "take", "first", "head",
    "tail", "isEmpty", "show", "toLocalIterator", "foreach",
    "foreachPartition",
)

PROFILING = ("discover_fds", "violating_groups", "profile_table",
             "duplicate_rows")

#: span-name prefixes whose self times split plan_s
SELF_SPLIT = ("core", "profiling", "llm", "sql_emit", "baselines")


def _sql_attrs(span: Span, args: tuple, sql: str) -> None:
    """``build_sql(view, layers, columns)``: size of the statement."""
    span.attrs["layers"] = len(args[1])
    span.attrs["bytes"] = len(sql.encode())
    span.attrs["when_branches"] = len(re.findall(r"\bWHEN\b", sql))


def targets() -> list[tuple[object, str, str, str]]:
    """``(owner, attribute, span name, kind)`` of everything traced.

    Kind ``prompt`` only counts the characters the attribute returns.
    """
    from pyspark.sql.classic.dataframe import DataFrame
    from pyspark.sql.readwriter import DataFrameWriter

    import repro.baselines.raha_baran as raha_baran
    import repro.core.duplication as duplication
    import repro.core.functional_dependency as functional_dependency
    import repro.core.pipeline as pipeline
    import repro.llm.prompts as prompts
    from repro.llm.client import SimulatedLLM

    out = [(pipeline.CocoonPipeline, "clean", "core.pipeline", "layer")]
    out += [(pipeline, fn, f"core.{step}", "layer")
            for fn, step in STEPS.items()]
    for module in (pipeline, raha_baran):
        out.append((module, "profile_table", "profiling.profile_table",
                    "layer"))
        out.append((module, "build_sql", "sql_emit.build_sql", "layer"))
    for module in (functional_dependency, raha_baran):
        out += [(module, fn, f"profiling.{fn}", "layer")
                for fn in ("discover_fds", "violating_groups")]
    out.append((duplication, "duplicate_rows", "profiling.duplicate_rows",
                "layer"))
    out += [(SimulatedLLM, name, f"llm.{name}", "llm")
            for name, _ in inspect.getmembers(SimulatedLLM, inspect.isfunction)
            if not name.startswith("_")]
    out += [(prompts, name, f"prompts.{name}", "prompt")
            for name, fn in inspect.getmembers(prompts, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == prompts.__name__]
    out += [(DataFrame, name, "spark.action", "action")
            for name in DATAFRAME_ACTIONS]
    out.append((DataFrameWriter, "save", "spark.action", "action"))
    return out


def install(tracer: Tracer) -> None:
    """Patch every target; undo with ``tracer.restore()``."""
    for owner, attr, name, kind in targets():
        if kind == "prompt":
            tracer.count_chars(owner, attr)
        else:
            tracer.wrap(owner, attr, name, kind, on_result=(
                _sql_attrs if name == "sql_emit.build_sql" else None))


def _subtree(spans: list[Span]) -> dict[int, list[Span]]:
    """Each span's descendants (including itself)."""
    by_parent: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)
    out: dict[int, list[Span]] = {}
    for s in reversed(spans):  # children are recorded after parents
        out[s.id] = [s] + [d for k in by_parent.get(s.id, [])
                           for d in out[k.id]]
    return out


def pass_metrics(spans: list[Span], jobs: dict[int, int]) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's tables.

    ``spans`` are the pass's spans: one ``bench.plan`` and one
    ``bench.exec`` root per table, their descendants, and the pass's
    ``bench.check`` spans.
    """
    sub = _subtree(spans)
    self_t = self_times(spans)
    measured = [s for s in spans if s.name in ("bench.plan", "bench.exec")]
    inside = [d for r in measured for d in sub[r.id]]
    m: dict[str, float] = {}

    def total(name: str, pool=inside) -> float:
        return sum(s.duration for s in pool if s.name == name)

    def n_jobs(name: str) -> int:
        return sum(jobs.get(d.id, 0) for s in inside if s.name == name
                   for d in sub[s.id])

    for fn in PROFILING:
        m[f"profiling.{fn}.s"] = total(f"profiling.{fn}")
        m[f"profiling.{fn}.jobs"] = n_jobs(f"profiling.{fn}")
    m["profiling.violating_groups.calls"] = sum(
        s.name == "profiling.violating_groups" for s in inside)

    llm = [s for s in inside if s.kind == "llm"]
    m["llm.s"] = sum(s.duration for s in llm)
    m["llm.calls"] = len(llm)
    m["llm.string_outliers.s"] = sum(
        s.duration for s in llm if s.name.endswith("_string_outliers"))

    for step in STEPS.values():
        steps = [s for s in inside if s.name == f"core.{step}"]
        kids = [d for s in steps for d in sub[s.id]]
        spark_s = sum(d.duration for d in kids if d.kind == "action")
        llm_s = sum(d.duration for d in kids if d.kind == "llm")
        s_total = sum(s.duration for s in steps)
        m[f"core.{step}.s"] = s_total
        m[f"core.{step}.spark_s"] = spark_s
        m[f"core.{step}.llm_s"] = llm_s
        m[f"core.{step}.driver_s"] = s_total - spark_s - llm_s
    m["core.pipeline.self_s"] = sum(
        self_t[s.id] for s in inside if s.name == "core.pipeline")

    builds = [s for s in inside if s.name == "sql_emit.build_sql"]
    m["sql_emit.build_sql.s"] = sum(s.duration for s in builds)
    # the statement that runs is the last one each plan builds
    finals = [[d for d in sub[r.id] if d.name == "sql_emit.build_sql"][-1]
              for r in measured if r.name == "bench.plan"
              and any(d.name == "sql_emit.build_sql" for d in sub[r.id])]
    m["sql_emit.bytes"] = sum(s.attrs["bytes"] for s in finals)
    m["sql_emit.when_branches"] = sum(s.attrs["when_branches"]
                                      for s in finals)
    m["sql_emit.layers"] = sum(s.attrs["layers"] for s in finals)

    # self time by layer inside the plan roots; the parts sum to plan_s
    plan = [d for r in measured if r.name == "bench.plan" for d in sub[r.id]]
    for layer in SELF_SPLIT:
        m[f"self.{layer}_s"] = sum(self_t[s.id] for s in plan
                                   if s.name.startswith(f"{layer}."))
    m["self.unattributed_s"] = sum(self_t[s.id] for s in plan
                                   if s.name == "bench.plan")

    m["spark.jobs"] = sum(jobs.get(s.id, 0) for s in inside)
    m["spark.action_s"] = sum(s.duration for s in inside
                              if s.kind == "action")
    m["evalharness.repair_metrics.s"] = total("evalharness.repair_metrics",
                                              spans)
    m["oracle.s"] = total("oracle.assert_equivalent", spans)
    m["baselines.raha_baran.s"] = total("baselines.raha_baran")
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
