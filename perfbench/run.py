"""Cocoon benchmark: planning and execution latency, LLM cost and F1.

One closed-loop client: one Python process, one local SparkSession, the
workload's tables cleaned one after another. Run from the root of a
checkout (it imports ``repro`` from ``src/``)::

    python3 perfbench/run.py --workload cocoon_movies --seed 0 --seconds 10 --trace 0

``--trace 0`` patches nothing and prints the end-to-end metrics;
``--trace 1`` wraps the ``repro`` layers (see ``layers.py``) and prints
the per-layer metrics instead. The last line of standard output is one
JSON object; the lines before it print every metric with its unit.
See ``README.md`` for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import re
import shlex
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = HERE / ".work"


@dataclass(frozen=True)
class Workload:
    system: str  # "cocoon" or "raha_baran"
    tables: tuple[str, ...]


WORKLOADS = {
    "cocoon_movies": Workload("cocoon", ("movies",)),
    "raha_baran_hospital": Workload("raha_baran", ("hospital",)),
}

#: (system, table) -> (Table 1 F1 to 4 places, LLM calls) at --seed 0,
#: i.e. at each generator's default seed. The other paper tables, for a
#: workload that adds them: Cocoon Hospital 1.0000/145, Flights
#: 0.5504/44, Beers 1.0000/57, Rayyan 0.9986/67; Raha+Baran Flights
#: 0.5919.
RECORDED = {
    ("cocoon", "movies"): (0.9362, 91),
    ("raha_baran", "hospital"): (0.6347, 0),
}

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SETUP_REPS = 3  # input conversions per table; setup reports the median
EXEC_REPS = 21  # full materializations per table; exec reports the median


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="added to every generator's default seed (>= 0)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="keep starting passes over the tables until this "
                         "much time has been measured (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


# -- Spark -----------------------------------------------------------------

def configure_spark(run_dir: Path) -> Path:
    """Launch settings that must be in place before the JVM starts.

    Every file Spark, the JVM and Python write goes under ``run_dir``;
    the Spark log goes to a file so codegen fallbacks can be counted.
    """
    log = run_dir / "spark.log"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    java_opts = " ".join([
        f"-Dlog4j2.configurationFile={(HERE / 'log4j2.properties').as_uri()}",
        f"-Dperfbench.log={log}",
        f"-Djava.io.tmpdir={tmp}",
        # a heap that never grows: peak RSS then repeats between runs
        f"-Xms{DRIVER_MEMORY}",
        # no hsperfdata files in the system temp directory
        "-XX:-UsePerfData",
    ])
    confs = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        # the status tracker must still know every job of the run
        "spark.ui.retainedJobs": "100000",
        "spark.sql.warehouse.dir": str(run_dir / "warehouse"),
    }
    args = ["--master", MASTER, "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", java_opts]
    for k, v in confs.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["SPARK_LOCAL_DIRS"] = str(run_dir / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    return log


def start_session():
    from pyspark.sql import SparkSession

    # the settings of the repository's test session (conftest.py)
    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of ``pids``."""
    kb = 0
    for pid in pids:
        status = Path(f"/proc/{pid}/status").read_text()
        kb += int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))
    return kb / 1024


def codegen_fallbacks(log: Path) -> int:
    """Log records of generated code that Janino failed to compile."""
    if not log.exists():
        return 0
    record = re.compile(r"^\d\d/\d\d/\d\d \d\d:\d\d:\d\d ")
    return sum(1 for line in log.read_text(errors="replace").splitlines()
               if record.match(line) and "failed to compile" in line.lower())


# -- inputs and checks -----------------------------------------------------

def start_generation(tables: tuple[str, ...], seed: int,
                     out: Path) -> subprocess.Popen:
    """Start ``perfbench.generate`` with a fixed hash seed (see there)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return subprocess.Popen([sys.executable, "-m", "perfbench.generate",
                             str(out), str(seed), *tables], cwd=ROOT, env=env)


def load_inputs(proc: subprocess.Popen, out: Path) -> dict:
    if proc.wait() != 0:
        raise RuntimeError(f"input generation exited with {proc.returncode}")
    with open(out, "rb") as f:
        return pickle.load(f)


def code_digest() -> str:
    """Digest of ``src/``: outputs may only differ between different code."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Fingerprints:
    """Outputs seen for one (workload, seed) on one version of ``src/``.

    At ``--seed 0`` outputs are checked against :data:`RECORDED`. At every
    seed they must equal what earlier passes of this run and earlier runs
    on the same code produced (kept under ``perfbench/.work``).
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.path = WORK / "fingerprints" / f"{code_digest()}-{workload}-{seed}.json"
        self.seen: dict[str, dict] = (
            json.loads(self.path.read_text()) if self.path.exists() else {})

    def check(self, table: str, fp: dict) -> None:
        if table not in self.seen:
            self.seen[table] = fp
        elif self.seen[table] != fp:
            raise AssertionError(
                f"{table}: output differs from an earlier run of the same "
                f"code and seed: {fp} != {self.seen[table]}")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))


def frame_digest(df) -> str:
    pdf = df.toPandas()
    pdf = pdf[sorted(pdf.columns)].astype(str)
    pdf = pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
    return hashlib.sha256(pdf.to_csv(index=False).encode()).hexdigest()


# -- the run ---------------------------------------------------------------

class Bench:
    def __init__(self, args: argparse.Namespace, spark, tracer,
                 benches: dict) -> None:
        # imported here, not inside the timed plan() calls
        from repro.baselines import raha_baran_clean
        from repro.core import CocoonPipeline
        from repro.llm import SimulatedLLM

        self.raha_baran_clean = raha_baran_clean
        self.cocoon = lambda: CocoonPipeline(SimulatedLLM())
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.benches = benches
        self.spark = spark
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.oracle_failures = 0
        self.fingerprints = Fingerprints(args.workload, args.seed)

    def op(self, label: str, fn):
        """Run one operation; a failure is counted, printed and skipped."""
        self.attempted += 1
        try:
            return fn(), True
        except Exception:  # noqa: BLE001 - counted in fail_ratio
            self.failed += 1
            print(f"FAILED {label}", file=sys.stderr)
            traceback.print_exc()
            return None, False

    def setup(self) -> float:
        """Convert and cache each table SETUP_REPS times; returns the sum
        over tables of the median conversion time."""
        tr, times = self.tr, {t: [] for t in self.workload.tables}
        self.frames = {}
        tr.run = "setup"
        for _ in range(SETUP_REPS):
            for t in self.workload.tables:
                if t in self.frames:
                    self.frames[t].unpersist()
                with tr.span("benchdata.to_spark") as s:
                    df = self.benches[t].spark_dirty(self.spark).cache()
                    df.count()
                self.frames[t] = df
                times[t].append(s.duration)
        return sum(median(v) for v in times.values())

    def plan(self, table: str):
        df = self.frames[table]
        if self.workload.system == "cocoon":
            rep = self.cocoon().clean(df, table)
            return rep.cleaned, rep
        with self.tr.span("baselines.raha_baran"):
            return self.raha_baran_clean(self.benches[table], df), None

    def execute(self, cleaned) -> float:
        times = []
        for _ in range(EXEC_REPS):
            t0 = time.perf_counter()
            cleaned.write.format("noop").mode("overwrite").save()
            times.append(time.perf_counter() - t0)
        return median(times)

    def check(self, table: str, cleaned, rep):
        """Oracle, F1 and recorded/repeated outputs; returns the scores."""
        from repro.benchdata import ErrorType
        from repro.evalharness.metrics import repair_metrics
        from repro.oracle import assert_equivalent

        bench, tr = self.benches[table], self.tr
        fp = {}
        if rep is not None:
            with tr.span("oracle.assert_equivalent"):
                try:
                    assert_equivalent(rep.cleaned, rep.sql,
                                      **{rep.view: bench.dirty})
                except Exception:
                    self.oracle_failures += 1
                    raise
            fp["llm_calls"] = rep.llm_calls
            fp["sql_sha256"] = hashlib.sha256(rep.sql.encode()).hexdigest()
        else:
            fp["rows_sha256"] = frame_digest(cleaned)
        with tr.span("evalharness.repair_metrics"):
            m = repair_metrics(
                self.frames[table], cleaned, bench.spark_clean(self.spark),
                bench.spark_mask(self.spark),
                exclude_types=ErrorType.TABLE1_EXCLUDED)
        fp["f1"] = m.f1
        if self.args.seed == 0:
            f1, calls = RECORDED[(self.workload.system, table)]
            got = (round(m.f1, 4), fp.get("llm_calls", 0))
            if got != (f1, calls):
                raise AssertionError(
                    f"{table}: (f1, llm_calls) = {got}, recorded {(f1, calls)}")
        self.fingerprints.check(table, fp)
        return m, fp.get("llm_calls", 0)

    def one_pass(self, p: int) -> dict:
        tr = self.tr
        out = {"plan_s": 0.0, "exec_s": 0.0, "n_errors": 0, "n_changed": 0,
               "n_correct": 0, "llm_calls": 0, "rows": 0, "complete": True}
        for t in self.workload.tables:
            tr.run = f"{p}/{t}/plan"
            with tr.span("bench.plan") as s:
                planned, ok = self.op(f"plan {t}", lambda: self.plan(t))
            out["plan_s"] += s.duration
            if not ok:
                out["complete"] = False
                continue
            cleaned, rep = planned
            tr.run = f"{p}/{t}/exec"
            with tr.span("bench.exec"):
                exec_s, ok = self.op(f"exec {t}", lambda: self.execute(cleaned))
            out["complete"] &= ok
            out["exec_s"] += exec_s or 0.0
            tr.run = f"{p}/{t}/check"
            with tr.span("bench.check"):
                res, ok = self.op(f"check {t}",
                                  lambda: self.check(t, cleaned, rep))
            out["complete"] &= ok
            if ok:
                m, calls = res
                out["n_errors"] += m.n_errors
                out["n_changed"] += m.n_changed
                out["n_correct"] += m.n_correct_changes
                out["llm_calls"] += calls
            out["rows"] += len(self.benches[t].dirty)
            print(f"  pass {p} {t}: plan {s.duration:.3f} s, exec "
                  f"{exec_s or float('nan'):.3f} s, f1 "
                  f"{res[0].f1 if ok else float('nan'):.4f}", flush=True)
        return out

    def measure(self) -> list[dict]:
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < self.args.seconds:
            passes.append(self.one_pass(len(passes)))
        return passes


#: the end-to-end metrics in the JSON result of an untraced run. F1, LLM
#: calls and prompt characters are checked exactly instead (see README).
E2E_RESULT = ("setup_s", "plan_s", "exec_s", "rows_per_s", "peak_rss_mb")


def micro_f1(p: dict) -> float:
    prec = p["n_correct"] / p["n_changed"] if p["n_changed"] else 0.0
    rec = p["n_correct"] / p["n_errors"] if p["n_errors"] else 0.0
    return 2 * prec * rec / (prec + rec) if prec + rec else 0.0


def end_to_end(setup_s: float, passes: list[dict], rss: float,
               fail_ratio: float) -> dict:
    plan_s = median(p["plan_s"] for p in passes)
    exec_s = median(p["exec_s"] for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "plan_s": (plan_s, "s"),
        "exec_s": (exec_s, "s"),
        "rows_per_s": (passes[0]["rows"] / (plan_s + exec_s), "1/s"),
        "llm_calls": (passes[0]["llm_calls"], "count"),
        "f1": (micro_f1(passes[0]), "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "fail_ratio": (fail_ratio, "ratio"),
    }


def per_layer(tracer, n_passes: int, setup_m: dict, log: Path,
              oracle_failures: int) -> dict:
    from perfbench import layers

    jobs = tracer.job_counts()
    per_pass = []
    for p in range(n_passes):
        spans = [s for s in tracer.spans if s.run.startswith(f"{p}/")]
        m = layers.pass_metrics(spans, jobs)
        m["llm.prompt_chars"] = sum(v for k, v in tracer.prompt_chars.items()
                                    if k.startswith(f"{p}/"))
        m["trace.overhead_s"] = sum(
            v for k, v in tracer.overhead.items()
            if k.startswith(f"{p}/") and not k.endswith("/check"))
        m["trace.plan_s"] = sum(s.duration for s in spans
                                if s.name == "bench.plan")
        per_pass.append(m)
    m = layers.median_metrics(per_pass)
    m.update(setup_m)
    m["spark.codegen_fallbacks"] = codegen_fallbacks(log)
    m["oracle.failures"] = oracle_failures
    return {k: (v, _unit(k)) for k, v in sorted(m.items())}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("chars"):
        return "chars"
    return "count"


def make_tracer(trace: bool, spark_context):
    """The run's tracer; with ``trace`` false it patches nothing."""
    from perfbench.tracer import Tracer

    tracer = Tracer(spark_context if trace else None)
    if trace:
        from perfbench import layers
        layers.install(tracer)
    return tracer


def run(args: argparse.Namespace, run_dir: Path, log: Path):
    """Set up, measure and check; returns the end-to-end metrics, the
    per-layer metrics (traced runs only) and the operation counts."""
    tables = WORKLOADS[args.workload].tables
    out = run_dir / "inputs.pickle"
    # the generator runs while the JVM starts
    t0 = time.perf_counter()
    gen = start_generation(tables, args.seed, out)
    try:
        spark = start_session()
    except BaseException:
        gen.wait()
        raise
    try:
        inputs = load_inputs(gen, out)
        startup_s = time.perf_counter() - t0
        sc = spark.sparkContext
        tracer = make_tracer(bool(args.trace), sc)
        try:
            bench = Bench(args, spark, tracer,
                          {t: b for t, (b, _) in inputs.items()})
            to_spark_s = bench.setup()
            passes = bench.measure()
        finally:
            tracer.restore()
        setup_s = startup_s + to_spark_s
        setup_m = {
            "benchdata.generate_s": sum(g for _, g in inputs.values()),
            "benchdata.to_spark_s": to_spark_s,
        }
        complete = [p for p in passes if p["complete"]]
        rss = peak_rss_mb([os.getpid(),
                           sc._jvm.java.lang.ProcessHandle.current().pid()])
        e2e, layer_m = {}, {}
        if complete:
            e2e = end_to_end(setup_s, complete, rss,
                             bench.failed / bench.attempted)
            if args.trace:
                layer_m = per_layer(tracer, len(passes), setup_m, log,
                                    bench.oracle_failures)
                e2e["llm_prompt_chars"] = layer_m["llm.prompt_chars"]
        if bench.failed == 0:
            bench.fingerprints.save()
        return e2e, layer_m, bench.attempted, bench.failed
    finally:
        stop_session(spark)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        log = configure_spark(run_dir)
        e2e, layer_m, attempted, failed = run(args, run_dir, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for k, (v, unit) in (e2e | layer_m).items():
        print(f"  {k:38s} {v:>18.6f} {unit}")
    if e2e and not args.trace:
        print(f"  {'llm_prompt_chars':38s} {'(with --trace 1)':>18s} chars")
    if args.trace:
        result = layer_m
    else:
        result = {k: e2e[k] for k in E2E_RESULT if k in e2e}
    ok = failed == 0 and bool(result)
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
