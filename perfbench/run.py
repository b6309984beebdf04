"""SparkER benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload blast-blocker --seed 7 --seconds 1 --trace 0
    python3 perfbench/run.py --workload all --seed 7

A run starts a local Spark session with the settings in ``SESSION``,
generates the workload's inputs from ``--seed``, and then runs
iterations back to back until ``--seconds`` have passed (at least one).
Every iteration's outputs are checked; an iteration that raises or fails
a check counts as failed. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see tracing.py).
The last line of standard output is one JSON object; every metric is
also printed on its own line with its unit, and a fuller record
(environment, quartiles, spans) is written under ``.bench_out/``.

``--workload all`` runs every workload untraced and then traced, each in
a fresh process, and prints the end-to-end metrics and tracing overhead.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics, metric_names, read_event_log  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fixed session settings; they equal the test session's (conftest.py).
SESSION = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
DRIVER_MEMORY = "2g"
# setup_s takes the median of this many input generations.
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("profiles_per_s", "1/s"),
    ("recall", "ratio"), ("precision", "ratio"), ("peak_rss_mb", "MB"),
]


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _configure_env(run_dir: Path) -> None:
    """Keep every file Spark, the JVM and Python write inside the checkout."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Without this, each JVM (launcher and driver) writes /tmp/hsperfdata_*.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{_cores()}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"),
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "pyspark-shell",
    ])


def _start_session(run_dir: Path, trace: bool):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("sparker-bench")
    for k, v in SESSION.items():
        b = b.config(k, v)
    b = (
        b.config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(run_dir / "tmp"))
        .config("spark.sql.warehouse.dir", str(run_dir / "warehouse"))
    )
    if trace:
        log_dir = run_dir / "eventlog"
        log_dir.mkdir()
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", log_dir.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _vm_hwm_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _stop_session(spark) -> None:
    """Stop Spark, then the JVM gateway process, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3 if xs else []
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], statistics.median(xs), q[2]]


def _environment(spark) -> dict:
    sc = spark.sparkContext
    return {
        "cores": _cores(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": DRIVER_MEMORY,
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "session": dict(SESSION),
    }


def _loop(spark, wl, ins, args, tracer) -> tuple[list[float], int, object]:
    """Closed loop, one client: run and check iterations back to back
    until ``args.seconds`` have passed. Returns the times of the iterations
    that passed their checks, the number attempted, and the last passing
    result."""
    iter_s: list[float] = []
    attempted = 0
    first_digest = last = None
    t_measure = time.perf_counter()
    while True:
        attempted += 1
        try:
            t = time.perf_counter()
            if tracer:
                with tracer.root(args.workload):
                    res = wl.iterate(spark, ins)
            else:
                res = wl.iterate(spark, ins)
            dt = time.perf_counter() - t
            wl.check(ins, res)
            if first_digest is None:
                first_digest = res.digest
            elif res.digest != first_digest:
                raise AssertionError("outputs differ from the first iteration's")
            iter_s.append(dt)
            last = res
        except Exception:  # any failure is counted, reported, and the loop goes on
            traceback.print_exc()
        if time.perf_counter() - t_measure >= args.seconds:
            return iter_s, attempted, last


def run_one(args, wl) -> tuple[dict, Path]:
    """One process, one workload ``wl``: set up, loop, check, report."""
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    _configure_env(run_dir)
    spark = _start_session(run_dir, bool(args.trace))
    tracer = Tracer(spark) if args.trace else None
    try:
        session_s = time.perf_counter() - T_START
        env = _environment(spark)

        gen_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ins = wl.setup(spark, args.seed)
            gen_s.append(time.perf_counter() - t)
        setup_s = session_s + statistics.median(gen_s)

        if tracer:
            tracer.install()

        iter_s, attempted, last = _loop(spark, wl, ins, args, tracer)
        failed = attempted - len(iter_s)

        jvm_pid = spark._jvm.ProcessHandle.current().pid()
        peak_rss_mb = _vm_hwm_mb("self") + _vm_hwm_mb(jvm_pid)
    finally:
        if tracer:
            tracer.uninstall()
        _stop_session(spark)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "session_s": session_s, "input_gen_s": gen_s,
        "first_iteration_s": iter_s[0] if iter_s else None,
        "iteration_s": iter_s, "wall_s_quartiles": _quartiles(iter_s),
        "samples": len(iter_s), "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
    }
    if tracer:
        tracer.dump(run_dir / "spans.json")
        log = read_event_log(run_dir / "eventlog")
        shutil.rmtree(run_dir / "eventlog")
        values = layer_metrics(tracer.spans, log, n_iter=attempted)
        metrics = {n: {"value": values[n], "unit": u} for n, u in metric_names()}
        record["absent_layers"] = tracer.absent
        record["absent_functions"] = tracer.absent_functions
    else:
        wall_s = statistics.median(iter_s) if iter_s else None
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "profiles_per_s": ins.ds.n_profiles / wall_s if wall_s else None,
            "recall": last.recall if last else None,
            "precision": last.precision if last else None,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        record["quality_extra"] = last.extra if last else {}
    shutil.rmtree(run_dir / "tmp", ignore_errors=True)
    record["metrics"] = metrics
    path = run_dir / "result.json"
    path.write_text(json.dumps(record, indent=1))
    return record, path


def _print_result(record: dict, path: Path) -> None:
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    for name, value in record.get("quality_extra", {}).items():
        print(f"{name} {value} ratio")
    print(f"error_rate {record['error_rate']} ratio")
    print(f"record {path}")
    print(json.dumps({
        "correct": record["failed"] == 0 and record["samples"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def run_all(args, names) -> int:
    """Every workload untraced, then traced, each in a fresh process; the
    combined record goes to ``.bench_out/all-seed<seed>.json``."""
    combined: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    lines = []
    ok = True
    for name in names:
        recs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            path = next(ln.split(" ", 1)[1] for ln in proc.stdout.splitlines()
                        if ln.startswith("record "))
            recs[trace] = json.loads(Path(path).read_text())
        untraced, traced = recs[0], recs[1]
        ok &= untraced["failed"] == 0 and traced["failed"] == 0
        wall = untraced["metrics"]["wall_s"]["value"]  # None if every iteration failed
        overhead = traced["metrics"]["trace.wall_s"]["value"] - wall if wall else None
        combined["environment"] = untraced["environment"]
        combined["workloads"][name] = {
            "end_to_end": untraced["metrics"],
            "quality_extra": untraced["quality_extra"],
            "error_rate": untraced["error_rate"],
            "iteration_s": untraced["iteration_s"],
            "first_iteration_s": untraced["first_iteration_s"],
            "wall_s_quartiles": untraced["wall_s_quartiles"],
            "samples": untraced["samples"],
            "session_s": untraced["session_s"],
            "input_gen_s": untraced["input_gen_s"],
            "trace_overhead_s": overhead,
            "absent_layers": traced["absent_layers"],
            "absent_functions": traced["absent_functions"],
            "per_layer": traced["metrics"],
        }
        for metric, m in untraced["metrics"].items():
            lines.append(f"{name}.{metric} {m['value']} {m['unit']}")
        for metric, value in untraced["quality_extra"].items():
            lines.append(f"{name}.{metric} {value} ratio")
        lines.append(f"{name}.error_rate {untraced['error_rate']} ratio")
        lines.append(f"{name}.trace_overhead_s {overhead} s")
        unattributed = traced["metrics"]["trace.unattributed_s"]["value"]
        lines.append(f"{name}.trace.unattributed_s {unattributed} s")
    OUT.mkdir(exist_ok=True)
    out = OUT / f"all-seed{args.seed}.json"
    out.write_text(json.dumps(combined, indent=1))
    print("\n".join(lines))
    print(f"record {out}")
    return 0 if ok else 1


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"SparkER sources not found at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    record, path = run_one(args, WORKLOADS[args.workload])
    _print_result(record, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
