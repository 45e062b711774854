#!/usr/bin/env python3
"""Host-time benchmark of the Constable simulator.

Run from the repository root:

    python3 perfbench/run.py --workload full_1t --seed 1 --seconds 40 --trace 0

It builds the simulator and perfbench/passes.cc in Release mode under
.bench_build/perfbench, then runs passes of one workload until --seconds
have elapsed (at least two rounds). Each pass runs in fresh processes with
fresh trace-cache and checkpoint directories.

Workloads (scale, seeds and layer map in workloads.json; BENCHMARK.json
gives why each timed workload is there):

  full_1t       full-fidelity cells of a seeded, category-stratified trace
                subset, one thread, no trace cache
  figset_2t     the 19 fig*/table* binaries in sequence on 2 threads over
                the 90-trace suite, after filling an empty trace cache
  sampled_long  phase-sampled cells over long traces from a trace cache,
                2 forked shard workers

BENCHMARK.json times full_1t and figset_2t. sampled_long runs only on
request: on a shared 4-vCPU guest its 2-worker sweep swings with host
steal by more than the 0.25 bound allows. Its layers (trace cache,
sim.sample, sim.shard) are still measured: full_1t's traced run adds one
traced sampled_long pass at "probe" scale.

--trace 0 prints the end-to-end metrics. wall_s (mean pass time) and
sim_mops (all passes' simulated instructions over their time after
set-up) pool every pass, because host speed drifts within a run; setup_s
and peak_rss_mb are medians over the passes. --trace 1 alternates
untraced passes with traced ones and prints the per-layer metrics, a
per-layer self-time table and the tracing overhead. Traced processes
record their spans through the program's own observability tier
(common/obs.hh; the figure binaries through CONSTABLE_TRACE_OUT); run.py
puts their traces and its own spans on one timeline and writes it as
Chrome trace-event JSON (Perfetto loads it) under .bench_build/perfbench-out/.

Every pass is checked: per-cell result hashes (full_1t, sampled_long) or
per-binary stdout digests (figset_2t) must equal a 1-thread, unsharded
reference computed once per checkout and stored under
.bench_build/perfbench-ref/. Mismatches, crashes and nonzero exits count
as failed operations. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
WORK = OUT / "perfbench-work"
REFS = OUT / "perfbench-ref"
TRACE_OUT = OUT / "perfbench-out"
TMP = OUT / "tmp"
CONFIG = json.loads((BENCH_DIR / "workloads.json").read_text())
PRESETS = CONFIG["presets"]
FIGSET = CONFIG["figset_binaries"]

PASS_TIMEOUT_S = 150
# Passes stop once --seconds have elapsed, counted from after the build and
# the reference, and at least two rounds have run; no round starts that
# would end past this budget, so a run stays inside 180 s.
RUN_BUDGET_S = 140

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_mops": "Mops/s",
                    "peak_rss_mb": "MB"}

EXACT_COUNTS = [
    "cpu.sim_cycles", "cpu.sim_insts", "cpu.issue_events",
    "predictor.branch_mispredicts", "core.loads_eliminated",
    "core.sld_lookups", "core.amt_invalidations", "mem.l1d_misses",
    "mem.llc_misses", "vp.eves_predictions", "vp.flushes", "power.dyn_uj",
    "sim.speedup.constable", "sim.speedup.eves-constable",
]


def preset_metric(preset):
    return "cpu.run_s." + preset.replace("+", "-")


def per_layer_units():
    units = {"cpu.run_s": "s"}
    units.update({preset_metric(p): "s" for p in PRESETS})
    units.update({
        "cpu.ns_per_op": "ns", "cpu.construct_s": "s",
        "trace.generate_s": "s", "trace.save_s": "s", "trace.load_s": "s",
        "trace.load_mb": "MB", "trace.cache_misses": "count",
        "inspector.inspect_s": "s",
        "sim.sample.select_s": "s", "sim.sample.cell_s": "s",
        "sim.sample.coverage": "frac", "sim.sample.windows": "count",
        "sim.experiment.cells_written": "count",
    })
    units.update({"bench.%s_s" % b: "s" for b in FIGSET})
    units.update({"sim.batch.cpu_util": "frac", "sim.shard.busy_frac": "frac"})
    units.update({c: "count" for c in EXACT_COUNTS})
    units.update({"power.dyn_uj": "uJ", "sim.speedup.constable": "ratio",
                  "sim.speedup.eves-constable": "ratio",
                  "perfbench.trace_overhead_s": "s"})
    return units


PER_LAYER_UNITS = per_layer_units()


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def digests_fingerprint(digests):
    """figset_2t's fingerprint: one digest over the per-binary digests."""
    return digest(json.dumps(digests, sort_keys=True).encode())


# ------------------------------------------------------------- processes

def clean_env(**extra):
    """The caller's environment minus every CONSTABLE_* knob, with temporary
    files kept inside the checkout, plus extra."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CONSTABLE_")}
    env["TMPDIR"] = str(TMP)
    env.update({k: str(v) for k, v in extra.items()})
    return env


def steal_seconds():
    """Machine-wide steal time from /proc/stat (0 where unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# Process groups of children still running, killed if the benchmark is
# itself terminated.
RUNNING = set()


def terminate(signum, frame):
    for pid in list(RUNNING):
        Proc.kill(pid)
        os.waitpid(pid, 0)
    sys.exit(128 + signum)


class Proc:
    """One finished child: exit code, output path, host times and rusage
    (CPU and system seconds, peak RSS and context switches, each covering
    the waited descendants too, so forked shard workers count)."""

    def __init__(self, cmd, out_path, env, timeout=PASS_TIMEOUT_S):
        self.cmd = cmd
        self.out_path = Path(out_path)
        self.t0 = time.monotonic()
        steal0 = steal_seconds()
        with open(self.out_path, "wb") as out, \
                open(str(self.out_path) + ".err", "wb") as err:
            child = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                     cwd=ROOT, start_new_session=True)
        RUNNING.add(child.pid)
        timer = threading.Timer(timeout, self.kill, [child.pid])
        timer.start()
        try:
            _, status, ru = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
            RUNNING.discard(child.pid)
        self.t1 = time.monotonic()
        child.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.steal = steal_seconds() - steal0
        self.cpu = ru.ru_utime + ru.ru_stime
        self.sys = ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.ctx = ru.ru_nvcsw + ru.ru_nivcsw

    @staticmethod
    def kill(pid):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    @property
    def wall(self):
        return self.t1 - self.t0

    def stdout(self):
        return self.out_path.read_bytes()

    def error(self):
        tail = Path(str(self.out_path) + ".err").read_text(errors="replace")
        return "%s exited %d: %s" % (Path(self.cmd[0]).name, self.rc,
                                     tail.strip()[-600:])

    def json(self):
        """The pass runner's one-line JSON result; BenchError on failure."""
        if self.rc != 0:
            raise BenchError(self.error())
        lines = self.stdout().decode(errors="replace").strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            raise BenchError("%s printed no result" % self.cmd[0])


# ------------------------------------------------------------ build, host

def build():
    """Configure (cheap once cached), then (re)build the pass runner and the
    figures; configuring every time picks up renamed or added targets."""
    env = clean_env(CCACHE_DISABLE="1", CCACHE_DIR=OUT / "ccache")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release", "-DCONSTABLE_SANITIZE="],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
              "perfbench_passes", *FIGSET]]
    for cmd in steps:
        p = Proc(cmd, OUT / "build.log", env, timeout=850)
        if p.rc != 0:
            sys.stderr.write(p.stdout().decode(errors="replace")[-4000:])
            raise BenchError("build failed: " + p.error())


def code_hash():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "bench", "tools", "perfbench"):
        files += [p for p in (ROOT / d).rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------- workloads

class Workload:
    """Shared state of one benchmark invocation."""

    def __init__(self, name, seed, scale_name, code, timeline):
        self.name = name
        self.seed = seed
        self.scale_name = scale_name
        self.scale = CONFIG["workloads"][name]["scale"][scale_name]
        self.code = code
        self.timeline = timeline
        self.runner = BUILD / "perfbench_passes"
        self.work = WORK / ("%s-%d" % (name, os.getpid()))
        self.traces = self.work / "traces"
        self.dirs = 0

    # -- helpers

    def fresh_dir(self, name):
        """A new, empty directory under the run's work directory, which is
        deleted only when the run ends: deleting a pass's thousands of
        checkpoint files just before the next pass slows that pass's own
        file-system calls by seconds."""
        self.dirs += 1
        d = self.work / ("%s-%d" % (name, self.dirs))
        d.mkdir(parents=True)
        return d

    def drive(self, tag, *args, traced=False):
        """Run the pass runner. Returns the process, its JSON result and,
        when traced, its spans, which also join the timeline."""
        cmd = [str(self.runner), *map(str, args)]
        trace_out = self.work / ("%s.trace.json" % tag)
        if traced:
            cmd += ["--trace-out", trace_out]
        p = Proc(cmd, self.work / ("%s.out" % tag), clean_env())
        j = p.json()
        spans = []
        if traced:
            spans = self.timeline.merge(trace_out, j["obs_epoch"],
                                        "perfbench_passes " + args[0])
        return p, j, spans

    def spec_args(self):
        return ["--seed", self.seed, "--traces", self.scale["traces"],
                "--ops", self.scale["ops"], "--presets", ",".join(PRESETS)]

    def ops_per_pass(self):
        if self.name == "figset_2t":
            return len(FIGSET)
        return self.scale["traces"] * len(PRESETS)

    def ref_path(self):
        seed = "" if self.name == "figset_2t" else "-seed%d" % self.seed
        return REFS / ("%s%s-%s-%s.json" % (self.name, seed, self.scale_name,
                                           self.code))

    # -- per-workload preparation, passes and reference

    def prepare(self, traced):
        """Untimed work a run needs before its passes (sampled_long fills
        the trace cache its passes read). Returns the spans recorded."""
        self.work.mkdir(parents=True, exist_ok=True)
        if self.name != "sampled_long":
            return []
        return self.drive("fill", "sampled", *self.sampled_args(), "--fill",
                          1, traced=traced)[2]

    def sampled_args(self):
        return [*self.spec_args(), "--cache", self.traces,
                "--sample", self.scale["sample"]]

    def run_pass(self, traced):
        return {"full_1t": self.full_pass, "figset_2t": self.figset_pass,
                "sampled_long": self.sampled_pass}[self.name](traced)

    def full_pass(self, traced):
        extra = ["--decompose", 1] if traced else []
        p, j, spans = self.drive("full", "full", *self.spec_args(), *extra,
                                 traced=traced)
        rec = pass_record(p, j, spans)
        rec["layers"] = {"sim.batch.cpu_util": p.cpu / (2 * p.wall)}
        return rec

    def sampled_pass(self, traced):
        ckpt = self.fresh_dir("ckpt")
        p, j, spans = self.drive(
            "sampled", "sampled", *self.sampled_args(), "--ckpt", ckpt,
            "--shards", self.scale["shards"], traced=traced)
        rec = pass_record(p, j, spans)
        cost = sum(float(c.read_text()) for c in ckpt.rglob("*.rr.cost"))
        rec["layers"] = {
            "sim.shard.busy_frac":
                cost / (self.scale["shards"] * j["sweep_s"]),
            "sim.batch.cpu_util": p.cpu / (2 * p.wall),
            "sim.experiment.cells_written":
                float(len(list(ckpt.rglob("cell-*.rr")))),
            "trace.cache_misses": j["cache_misses"],
            "trace.load_mb": j["load_mb"],
        }
        if traced:
            # The traced pass also runs the same cells decomposed into
            # per-module calls on one thread, which is what the per-layer
            # times come from; its fingerprint must match the shards'.
            rec["decomposed"] = self.reference(traced=True)
            rec["spans"] = rec["decomposed"]["spans"]
            rec["t1"] = rec["decomposed"]["t1"]
        return rec

    def figset_setup(self, tag, cache, threads, traced=False):
        """Fill an empty trace cache for the figure binaries."""
        args = ["figset-setup", "--ops", self.scale["ops"], "--cache", cache,
                "--threads", threads]
        if self.scale.get("suite_limit"):
            args += ["--suite-limit", self.scale["suite_limit"]]
        if traced:
            args += ["--decompose", 1]
        return self.drive(tag, *args, traced=traced)

    def figset_pass(self, traced):
        cache = self.fresh_dir("cache")
        ckpt = self.fresh_dir("ckpt")
        threads = self.scale["threads"]
        setup, setup_j, setup_spans = self.figset_setup("setup", cache,
                                                        threads, traced)
        outputs = {}
        for b in FIGSET:
            env = self.figset_env(cache, ckpt, threads)
            trace_out = self.work / ("%s.trace.json" % b)
            if traced:
                env["CONSTABLE_TRACE_OUT"] = str(trace_out)
            p = Proc([str(self.bin(b))], self.work / ("%s.out" % b), env)
            outputs[b] = p
            if traced:
                self.timeline.add("bench." + b, "bench", p.t0, p.t1)
                # Binaries that run no experiment write no trace. A trace's
                # obs epoch is the binary's start-up, a few ms after the
                # spawn; its spans are placed from the spawn, so they sit
                # inside the binary's bench span.
                if p.rc == 0 and trace_out.is_file():
                    self.timeline.merge(trace_out, p.t0, b)
        procs = [setup, *outputs.values()]
        t0, t1 = setup.t0, procs[-1].t1
        if traced:
            self.timeline.add("perfbench.setup", "perfbench", setup.t0,
                              setup.t1)
        cells = self.drive("cells", "cells", "--dir", ckpt)[1]
        if cells["bad"]:
            raise BenchError("%d unreadable checkpoint cells" % cells["bad"])
        digests = {b: digest(p.stdout()) if p.rc == 0 else "exit %d" % p.rc
                   for b, p in outputs.items()}
        cpu = sum(p.cpu for p in procs)
        rec = {
            "wall": t1 - t0, "setup": setup.t1 - t0,
            "insts": cells["counts"]["cpu.sim_insts"], "cpu": cpu,
            "rss_mb": max(p.rss_mb for p in procs),
            "ctx": sum(p.ctx for p in procs),
            "sys": sum(p.sys for p in procs),
            "steal": sum(p.steal for p in procs),
            "digests": digests,
            "errors": [p.error() for p in outputs.values() if p.rc != 0],
            "fingerprint": digests_fingerprint(digests),
            "counts": cells["counts"], "spans": setup_spans,
            "t0": t0, "t1": t1,
        }
        rec["layers"] = {
            "sim.batch.cpu_util": cpu / (threads * rec["wall"]),
            "sim.experiment.cells_written": cells["cells"],
            "trace.cache_misses": setup_j["cache_misses"],
            "trace.load_mb": sum(f.stat().st_size for f in cache.iterdir())
            / 1e6,
        }
        rec["layers"].update({"bench.%s_s" % b: p.wall
                              for b, p in outputs.items()})
        return rec

    def figset_env(self, cache, ckpt, threads):
        env = dict(CONSTABLE_TRACE_OPS=self.scale["ops"],
                   CONSTABLE_TRACE_DIR=cache, CONSTABLE_THREADS=threads,
                   CONSTABLE_PROGRESS_SEC=0)
        if ckpt:
            env["CONSTABLE_CHECKPOINT_DIR"] = ckpt
        if self.scale.get("suite_limit"):
            env["CONSTABLE_SUITE_LIMIT"] = self.scale["suite_limit"]
        return clean_env(**env)

    def bin(self, name):
        return BUILD / "constable" / "bench" / name

    def reference(self, traced=False):
        """The 1-thread, unsharded reference: for full_1t and sampled_long
        the cells decomposed into direct module calls, for figset_2t the 19
        binaries on one thread with no checkpoint directory."""
        if self.name == "figset_2t":
            cache = self.fresh_dir("ref-cache")
            self.figset_setup("ref-setup", cache, 1)
            env = self.figset_env(cache, None, 1)
            digests = {}
            for b in FIGSET:
                p = Proc([str(self.bin(b))], self.work / ("ref-%s.out" % b),
                         env)
                if p.rc != 0:
                    raise BenchError("reference run: " + p.error())
                digests[b] = digest(p.stdout())
            return {"digests": digests,
                    "fingerprint": digests_fingerprint(digests)}
        cmd = "full" if self.name == "full_1t" else "sampled"
        args = self.spec_args() if cmd == "full" else self.sampled_args()
        p, j, spans = self.drive("reference", cmd, *args, "--decompose",
                                 1, traced=traced)
        return {"fingerprint": j["fingerprint"], "cells": j["cells"],
                "counts": j["counts"], "spans": spans,
                "t0": p.t0, "t1": p.t1,
                "sample_windows": j.get("sample_windows", 0),
                "sample_coverage": j.get("sample_coverage", 0)}

    def load_or_make_reference(self):
        path = self.ref_path()
        if path.exists():
            return json.loads(path.read_text()), False
        log("computing the 1-thread unsharded reference (once per checkout)")
        ref = self.reference()
        ref.pop("spans", None)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ref, sort_keys=True))
        tmp.replace(path)
        return ref, True


def pass_record(p, j, spans):
    return {"wall": p.wall, "setup": j["setup_end"] - p.t0,
            "insts": j["counts"]["cpu.sim_insts"], "cpu": p.cpu,
            "rss_mb": p.rss_mb, "ctx": p.ctx, "sys": p.sys, "steal": p.steal,
            "fingerprint": j["fingerprint"], "cells": j["cells"],
            "counts": j["counts"], "spans": spans,
            "golden_failures": j["golden_failures"],
            "sample_windows": j.get("sample_windows", 0),
            "sample_coverage": j.get("sample_coverage", 0),
            "t0": p.t0, "t1": p.t1}


def failed_ops(rec, ref):
    """Operations of one pass that disagree with the reference."""
    if "digests" in rec:
        return sum(1 for b in FIGSET
                   if rec["digests"].get(b) != ref["digests"].get(b))
    cells, want = rec["cells"], ref["cells"]
    bad = sum(1 for a, b in zip(cells, want) if a != b)
    return bad + abs(len(cells) - len(want))


# ------------------------------------------------------------ spans/trace

class Timeline:
    """Chrome trace events of one run on one CLOCK_MONOTONIC timeline (in
    microseconds): the trace each traced process wrote through the
    program's obs tier, plus the benchmark's own spans (passes, set-up,
    figure binaries) on a lane of its own."""

    LANE = (os.getpid(), 0)

    def __init__(self):
        self.events = [self.process_name(os.getpid(), "perfbench run.py")]

    @staticmethod
    def process_name(pid, label):
        return {"ph": "M", "name": "process_name", "pid": pid,
                "args": {"name": label}}

    def add(self, name, cat, t0, t1):
        self.events.append({"ph": "X", "name": name, "cat": cat,
                            "pid": self.LANE[0], "tid": self.LANE[1],
                            "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6})

    def merge(self, path, epoch, label):
        """Add the trace obsWriteTrace() wrote to path, whose timestamps
        count from the monotonic second epoch. Returns its spans."""
        events = json.loads(Path(path).read_text())["traceEvents"]
        for e in events:
            if "ts" in e:
                e["ts"] += epoch * 1e6
        if events:
            self.events.append(self.process_name(events[0]["pid"], label))
        self.events += events
        return [e for e in events if e["ph"] == "X"]

    def self_times(self):
        """Self time per layer (span category; the program's own spans
        keep theirs, such as "cell" for Experiment cells), in seconds: each
        span's duration minus the part of it its child spans cover. A
        span's parent is the innermost span enclosing it on its own lane.
        The outermost spans of a worker lane (pool thread, shard) hang
        under the innermost enclosing span of their process's main lane,
        else, like a main lane's, under the benchmark's."""
        lanes = defaultdict(list)
        main_tid = {}
        for e in self.events:
            if e["ph"] == "X":
                lanes[(e["pid"], e["tid"])].append(e)
            elif e["name"] == "thread_name" and e["args"]["name"] == "main":
                main_tid[e["pid"]] = e["tid"]

        def enclosing(spans, lo, hi):
            return min((m for m in spans
                        if m["ts"] <= lo and m["ts"] + m["dur"] >= hi),
                       key=lambda m: m["dur"], default=None)

        children = defaultdict(list)
        for lane, spans in lanes.items():
            main = lanes.get((lane[0], main_tid.get(lane[0])), [])
            stack = []
            for e in sorted(spans, key=lambda e: (e["ts"], -e["dur"])):
                end = e["ts"] + e["dur"]
                while stack and stack[-1]["ts"] + stack[-1]["dur"] < end:
                    stack.pop()
                parent = stack[-1] if stack else None
                if parent is None and spans is not main:
                    parent = enclosing(main, e["ts"], end)
                if parent is None and lane != self.LANE:
                    parent = enclosing(lanes[self.LANE], e["ts"], end)
                if parent is not None:
                    children[id(parent)].append((e["ts"], end))
                stack.append(e)
        out = defaultdict(float)
        for lane in lanes.values():
            for e in lane:
                covered, mark = 0.0, e["ts"]
                for lo, hi in sorted(children[id(e)]):
                    lo, hi = max(lo, mark), min(hi, e["ts"] + e["dur"])
                    if hi > lo:
                        covered += hi - lo
                        mark = hi
                out[e["cat"]] += (e["dur"] - covered) / 1e6
        return out

    def write(self, path):
        origin = min(e["ts"] for e in self.events if "ts" in e)
        events = [dict(e, ts=round(e["ts"] - origin, 3)) if "ts" in e else e
                  for e in self.events]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def kind_seconds(spans):
    """Seconds per span kind (the name up to its first space, "cpu.run"),
    and per preset for the cpu.run cells ("cpu.run baseline@trace #3")."""
    sums = defaultdict(float)
    for e in spans:
        kind, _, detail = e["name"].partition(" ")
        sums[kind] += e["dur"] / 1e6
        if kind == "cpu.run":
            sums[preset_metric(detail.split("@")[0])] += e["dur"] / 1e6
    return sums


def layer_metrics(rec, fill_spans):
    """Per-layer metrics of one traced pass; fill_spans are those of the
    untimed trace-cache fill before the passes (sampled_long)."""
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    m.update(rec.get("layers", {}))
    sums = kind_seconds(rec["spans"] + fill_spans)
    for key in ("cpu.run", "cpu.construct", "trace.generate", "trace.save",
                "trace.load", "inspector.inspect", "sim.sample.select",
                "sim.sample.cell"):
        m[key + "_s"] = sums[key]
    for p in PRESETS:
        m[preset_metric(p)] = sums[preset_metric(p)]
    counts = rec["counts"]
    src = rec.get("decomposed", rec)
    m["sim.sample.windows"] = src.get("sample_windows", 0.0)
    m["sim.sample.coverage"] = src.get("sample_coverage", 0.0)
    for c in EXACT_COUNTS:
        m[c] = counts.get(c, 0.0)
    if m["cpu.run_s"] > 0:
        m["cpu.ns_per_op"] = m["cpu.run_s"] * 1e9 / counts["cpu.sim_insts"]
    return m


# ----------------------------------------------------------------- the run

def run(args):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no simulator sources next to perfbench/ (expected "
                         "CMakeLists.txt and src/ in %s)" % ROOT)
    if args.workload not in CONFIG["workloads"]:
        raise BenchError("unknown workload '%s'" % args.workload)
    TMP.mkdir(parents=True, exist_ok=True)
    build()
    code = code_hash()
    wl = Workload(args.workload, args.seed, args.scale, code, Timeline())
    info = json.loads(subprocess.run(
        [str(wl.runner), "info"], capture_output=True, text=True,
        check=True).stdout.strip().splitlines()[-1])
    if info["build_type"] != "Release" or info["sanitize"] or \
            not info["ndebug"]:
        raise BenchError("refusing to time a %s build (sanitize='%s')" %
                         (info["build_type"], info["sanitize"]))
    provenance = {
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                 "compiler": info["compiler"],
                 "build_type": info["build_type"],
                 "sanitize": info["sanitize"] or "none"},
        "code": {"commit": git_commit(), "tree_sha256": code},
        "scale": {"workload": wl.name, "scale": args.scale,
                  "seed": args.seed, "presets": PRESETS, **wl.scale},
        "layers": CONFIG["workloads"][wl.name]["layers"],
    }
    log("provenance: " + json.dumps(provenance, sort_keys=True))

    try:
        return measure(wl, args)
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)


def measure(wl, args):
    fill_spans = wl.prepare(args.trace)
    ref, made = wl.load_or_make_reference()

    start = time.monotonic()
    untraced, traced, errors = [], [], []
    layer_runs = []
    kinds = [False, True] if args.trace else [False]
    rounds = 0
    while True:
        for is_traced in kinds:
            try:
                rec = wl.run_pass(is_traced)
            except BenchError as e:
                errors.append(str(e))
                continue
            (traced if is_traced else untraced).append(rec)
            if is_traced:
                wl.timeline.add("perfbench.pass", "perfbench", rec["t0"],
                                rec["t1"])
                layer_runs.append(layer_metrics(rec, fill_spans))
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= 2 and (elapsed >= args.seconds or
                            elapsed + elapsed / rounds > RUN_BUDGET_S):
            break

    probe_metrics, probe_ops, probe_failed = {}, 0, 0
    if args.trace and wl.name == "full_1t":
        probe_metrics, probe_ops, probe_failed = sampled_probe(wl)
    attempted = probe_ops + len(errors) * wl.ops_per_pass()
    failed = probe_failed + len(errors) * wl.ops_per_pass()
    log("%-6s %9s %9s %9s %9s %8s %8s %8s %9s %s" % (
        "pass", "wall_s", "setup_s", "sim_mops", "rss_mb", "cpu_s", "sys_s",
        "steal_s", "ctxsw", "fingerprint"))
    for i, rec in enumerate(untraced + traced):
        attempted += wl.ops_per_pass()
        failed += failed_ops(rec, ref) + rec.get("golden_failures", 0)
        if "decomposed" in rec:
            attempted += wl.ops_per_pass()
            failed += failed_ops(rec["decomposed"], ref)
        mops = rec["insts"] / (rec["wall"] - rec["setup"]) / 1e6
        log("%-6s %9.4f %9.4f %9.3f %9.1f %8.2f %8.2f %8.2f %9d %s" % (
            ("U%d" if i < len(untraced) else "T%d") % i, rec["wall"],
            rec["setup"], mops, rec["rss_mb"], rec["cpu"], rec["sys"],
            rec["steal"], rec["ctx"], rec["fingerprint"]))
        errors += rec.get("errors", [])
    for e in errors:
        log("error: " + e)
    log("reference fingerprint %s (%s)" % (
        ref["fingerprint"], "computed now" if made else "stored"))
    log("operations: %d attempted, %d failed" % (attempted, failed))
    if not untraced:
        raise BenchError("no pass completed")

    if not args.trace:
        metrics = {
            "wall_s": statistics.mean(r["wall"] for r in untraced),
            "setup_s": median([r["setup"] for r in untraced]),
            "sim_mops": sum(r["insts"] for r in untraced) /
            sum(r["wall"] - r["setup"] for r in untraced) / 1e6,
            "peak_rss_mb": median([r["rss_mb"] for r in untraced]),
        }
        units = END_TO_END_UNITS
    else:
        if not traced:
            raise BenchError("no traced pass completed")
        metrics = {k: median([m[k] for m in layer_runs])
                   for k in PER_LAYER_UNITS}
        metrics["perfbench.trace_overhead_s"] = (
            median([r["wall"] for r in traced]) -
            median([r["wall"] for r in untraced]))
        metrics.update(probe_metrics)
        units = PER_LAYER_UNITS
        report_trace(wl, metrics)
    for k in units:
        log("%-34s %16.6f %s" % (k, metrics[k], units[k]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


# Per-layer metrics full_1t's traced run takes from its sampled_long probe.
PROBE_METRICS = (
    "trace.save_s", "trace.load_s", "trace.load_mb", "trace.cache_misses",
    "sim.sample.select_s", "sim.sample.cell_s", "sim.sample.coverage",
    "sim.sample.windows", "sim.shard.busy_frac",
)


def sampled_probe(wl):
    """One traced sampled_long pass at probe scale over the same seed:
    fill a trace cache, run the cells on 2 forked shards, then decomposed
    on one thread. Returns its PROBE_METRICS, the cells attempted and the
    cells on which the two layouts disagree."""
    scale = "probe" if wl.scale_name == "default" else wl.scale_name
    probe = Workload("sampled_long", wl.seed, scale, wl.code, wl.timeline)
    ops = 2 * probe.ops_per_pass()
    try:
        fill = probe.prepare(True)
        rec = probe.sampled_pass(True)
    except BenchError as e:
        log("error: sampled probe: %s" % e)
        return {}, ops, ops
    finally:
        shutil.rmtree(probe.work, ignore_errors=True)
    start = min([e["ts"] / 1e6 for e in fill] + [rec["t0"]])
    wl.timeline.add("perfbench.sampled_probe", "perfbench", start, rec["t1"])
    m = layer_metrics(rec, fill)
    return ({k: m[k] for k in PROBE_METRICS}, ops,
            failed_ops(rec, rec["decomposed"]))


def report_trace(wl, metrics):
    path = TRACE_OUT / ("trace-%s-seed%d.json" % (wl.name, wl.seed))
    wl.timeline.write(path)
    log("per-layer self time over all traced passes (s):")
    for layer, secs in sorted(wl.timeline.self_times().items(),
                              key=lambda kv: -kv[1]):
        log("  %-20s %10.4f" % (layer, secs))
    log("tracing overhead: %+.4f s per pass (traced minus untraced wall_s)"
        % metrics["perfbench.trace_overhead_s"])
    log("trace written to %s (%d events)" % (path.relative_to(ROOT),
                                            len(wl.timeline.events)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["default", "smoke"],
                    default="default",
                    help="smoke: tiny inputs for the benchmark's own tests")
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, terminate)
    try:
        result = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
