"""Span tracing for the traced benchmark run, from outside the program.

``Tracer.install`` wraps each public function of every layer in
``LAYERS`` at run time (``src/`` is never edited). A wrapper opens a
span around the call, points the Spark job group at the span, and
materialises a returned DataFrame inside the span, so lazy plans are
charged to the layer that built them rather than to the next one. Spans
stay in memory and are written out when the run ends.

Job, task, task-time and shuffle counts come from the session's event
log, grouped by job group (one group per span). All spans run on the
driver's one Python thread, so children never overlap and a span's self
time is its duration minus the sum of its children's durations.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

# layer -> (module, public functions). A function that no longer exists
# makes its layer absent, not an error.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "core.profiles": ("repro.core.profiles", ("load_clean_clean",)),
    "core.tokens": ("repro.core.tokens", ("tokenize",)),
    "looseschema.partitioning": (
        "repro.looseschema.partitioning", ("partition_attributes", "manual_partition"),
    ),
    "looseschema.minhash": (
        "repro.looseschema.minhash",
        ("signatures", "band_buckets", "candidate_pairs", "estimated_similarity"),
    ),
    "graph.connected_components": (
        "repro.graph.connected_components", ("connected_components",),
    ),
    "looseschema.entropy": ("repro.looseschema.entropy", ("cluster_entropies",)),
    "core.blocking": (
        "repro.core.blocking", ("token_blocking", "loose_schema_blocking", "candidate_pairs"),
    ),
    "core.purging": ("repro.core.purging", ("purge_blocks",)),
    "core.filtering": ("repro.core.filtering", ("filter_blocks",)),
    # build_graph is wrapped only to count graph edges for kept_frac; its
    # span is a child of the meta_blocking span of the same layer.
    "core.meta_blocking": ("repro.core.meta_blocking", ("meta_blocking", "build_graph")),
    "core.broadcast_mb": ("repro.core.broadcast_mb", ("meta_blocking_broadcast",)),
    "matching.similarity": ("repro.matching.similarity", ("add_similarities",)),
    "matching.matcher": ("repro.matching.matcher", ("threshold_matcher",)),
    "core.clusterer": ("repro.core.clusterer", ("cluster_entities",)),
    "debug.sampling": ("repro.debug.sampling", ("debug_sample", "restrict_to_sample")),
    "debug.evaluation": (
        "repro.debug.evaluation",
        ("pair_metrics", "lost_pairs", "explain_lost_pair", "cluster_pair_metrics"),
    ),
}

# per-layer metric suffix -> unit
SUFFIXES = {
    "self_s": "s", "rows": "count", "jobs": "count", "tasks": "count",
    "task_s": "s", "driver_s": "s", "shuffle_mb": "MB",
}
# ratio metric -> (layer, base): rows out of the layer over its input
# rows, or over the rows of its ``build_graph`` child (graph edges).
RATIOS = {
    "core.purging.kept_frac": ("core.purging", "input"),
    "core.filtering.kept_frac": ("core.filtering", "input"),
    "core.meta_blocking.kept_frac": ("core.meta_blocking", "build_graph"),
    "matching.matcher.match_frac": ("matching.matcher", "input"),
}
# Layers whose wrapper counts the rows of its first DataFrame argument,
# before the span opens, as the base of a ratio.
COUNT_INPUT = {layer for layer, base in RATIOS.values() if base == "input"}
ROOT_LAYER = "iteration"
# Modules whose by-name imports of a layer function are patched too.
PATCH_MODULES = ("repro", "workloads")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{layer}.{s}", unit) for layer in LAYERS for s, unit in SUFFIXES.items()]
    out += [(r, "ratio") for r in RATIOS]
    out += [
        ("failed_tasks", "count"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
    return out


@dataclass
class Span:
    id: int
    layer: str
    fn: str
    parent: int | None
    start: float  # epoch seconds, comparable with event-log timestamps
    end: float = 0.0
    rows: int | None = None
    rows_in: int | None = None
    children_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.children_s


@dataclass
class Tracer:
    spark: object
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    absent_functions: list[str] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans -------------------------------------------------------------
    def _open(self, layer: str, fn: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(
            id=len(self.spans), layer=layer, fn=fn,
            parent=parent.id if parent else None, start=time.time(),
        )
        self.spans.append(s)
        self._stack.append(s)
        self.spark.sparkContext.setJobGroup(f"span-{s.id}", f"{layer}:{fn}")
        return s

    def _close(self, s: Span) -> None:
        s.end = time.time()
        self._stack.pop()
        sc = self.spark.sparkContext
        if self._stack:
            p = self._stack[-1]
            p.children_s += s.dur
            sc.setJobGroup(f"span-{p.id}", f"{p.layer}:{p.fn}")
        else:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)

    @contextmanager
    def root(self, name: str):
        """One root span around a whole iteration; its self time is the
        traced time no layer span covers."""
        s = self._open(ROOT_LAYER, name)
        try:
            yield s
        finally:
            self._close(s)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, layer: str, fn_name: str, fn):
        from pyspark.sql import DataFrame

        def wrapper(*args, **kwargs):
            rows_in = None
            if layer in COUNT_INPUT:
                first = next((a for a in args if isinstance(a, DataFrame)), None)
                rows_in = first.count() if first is not None else None
            s = self._open(layer, fn_name)
            try:
                out = fn(*args, **kwargs)
                if isinstance(out, DataFrame):
                    out = out.localCheckpoint(eager=True)
                    s.rows = out.count()
                s.rows_in = rows_in
                return out
            finally:
                self._close(s)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn_name
        return wrapper

    def install(self) -> None:
        """Wrap every layer function, in its own module and wherever a
        module named in ``PATCH_MODULES`` imported it by name."""
        for layer, (mod_name, fns) in LAYERS.items():
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(layer)
                continue
            found = False
            for fn_name in fns:
                orig = getattr(mod, fn_name, None)
                if not callable(orig):
                    self.absent_functions.append(f"{mod_name}.{fn_name}")
                    continue
                found = True
                w = self._wrap(layer, fn_name, orig)
                for m in list(sys.modules.values()):
                    name = getattr(m, "__name__", "")
                    if name.split(".")[0] not in PATCH_MODULES:
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, w)
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "absent_layers": self.absent,
            "absent_functions": self.absent_functions,
            "spans": [asdict(s) | {"self_s": s.self_s} for s in self.spans],
        }, indent=1))


# -- event log ---------------------------------------------------------------
def read_event_log(log_dir: Path) -> dict:
    """Per job group: jobs (with [start, end] ms), tasks, executor run
    time and shuffle bytes written; plus the count of failed tasks."""
    files = [p for p in log_dir.iterdir() if p.is_file()]
    if len(files) != 1:
        raise RuntimeError(f"expected one event log in {log_dir}, found {files}")
    stage_group: dict[int, str | None] = {}
    jobs: dict[int, dict] = {}
    groups: dict[str | None, dict] = {}
    failed = 0

    def g(group):
        return groups.setdefault(group, _empty_group())

    with files[0].open() as fh:
        for line in fh:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                jobs[ev["Job ID"]] = {"group": group, "start": ev["Submission Time"]}
                for sid in ev.get("Stage IDs", []):
                    stage_group.setdefault(sid, group)
            elif kind == "SparkListenerJobEnd":
                j = jobs.get(ev["Job ID"])
                if j is not None:
                    j["end"] = ev["Completion Time"]
                    g(j["group"])["jobs"].append((j["start"], j["end"]))
            elif kind == "SparkListenerStageSubmitted":
                sid = ev["Stage Info"]["Stage ID"]
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                if group is not None:
                    stage_group[sid] = group
            elif kind == "SparkListenerTaskEnd":
                info = ev.get("Task Info", {})
                if info.get("Failed") or info.get("Killed"):
                    failed += 1
                tm = ev.get("Task Metrics") or {}
                acc = g(stage_group.get(ev["Stage ID"]))
                acc["tasks"] += 1
                acc["task_ms"] += tm.get("Executor Run Time", 0)
                acc["shuffle_bytes"] += (tm.get("Shuffle Write Metrics") or {}).get(
                    "Shuffle Bytes Written", 0
                )
    return {"groups": groups, "failed_tasks": failed}


def _empty_group() -> dict:
    return {"jobs": [], "tasks": 0, "task_ms": 0, "shuffle_bytes": 0}


def _union_s(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def layer_metrics(spans: list[Span], log: dict, n_iter: int) -> dict[str, float]:
    """Per-layer metrics, averaged over ``n_iter`` traced iterations.

    ``rows`` counts only a layer's outermost spans (a same-layer child,
    such as ``pair_metrics`` inside ``cluster_pair_metrics``, re-counts
    rows its parent already returns). ``driver_s`` is self time during
    which none of the span's own Spark jobs was running.
    """
    by_id = {s.id: s for s in spans}
    acc = {layer: dict.fromkeys(SUFFIXES, 0.0) for layer in LAYERS}
    ratio_num = dict.fromkeys(RATIOS, 0.0)
    ratio_den = dict.fromkeys(RATIOS, 0.0)
    root_self = root_wall = 0.0
    for s in spans:
        grp = log["groups"].get(f"span-{s.id}", _empty_group())
        job_s = _union_s([(a / 1000, b / 1000) for a, b in grp["jobs"]])
        if s.layer == ROOT_LAYER:
            root_self += s.self_s
            root_wall += s.dur
            continue
        parent = by_id.get(s.parent)
        outermost = parent is None or parent.layer != s.layer
        a = acc[s.layer]
        a["self_s"] += s.self_s
        a["rows"] += (s.rows or 0) if outermost else 0
        a["jobs"] += len(grp["jobs"])
        a["tasks"] += grp["tasks"]
        a["task_s"] += grp["task_ms"] / 1000
        a["driver_s"] += max(0.0, s.self_s - job_s)
        a["shuffle_mb"] += grp["shuffle_bytes"] / (1 << 20)
        for name, (layer, base) in RATIOS.items():
            if layer != s.layer:
                continue
            if base == "input" and s.rows_in is not None and outermost:
                ratio_num[name] += s.rows or 0
                ratio_den[name] += s.rows_in
            elif base == "build_graph":
                if s.fn == "build_graph":
                    ratio_den[name] += s.rows or 0
                elif outermost:
                    ratio_num[name] += s.rows or 0
    n = max(1, n_iter)
    out = {
        f"{layer}.{suf}": v / n for layer, d in acc.items() for suf, v in d.items()
    }
    for name in RATIOS:
        out[name] = ratio_num[name] / ratio_den[name] if ratio_den[name] else 0.0
    out["failed_tasks"] = float(log["failed_tasks"])
    out["trace.wall_s"] = root_wall / n
    out["trace.unattributed_s"] = root_self / n
    return out
