#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Runs one seeded workload through the `bp` binary built from this
checkout, checks every output for correctness, and prints the metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --make-references

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
is the separate traced run: it times a few untraced repetitions, then
runs the traced layer legs (`perfbench/tracer`) and prints per-layer self
times, the layer-sum-versus-wall accounting line, the tracing overhead
and the per-layer metrics. See perfbench/README.md.
"""

import argparse
import filecmp
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("paper_repro", "budget_sweep", "trace_replay")
DEFAULT_SEED = 1

PAPER_BENCHES = ["SPEC2K6-01", "SPEC2K6-04", "SPEC2K6-12", "MM-4",
                 "CLIENT02", "MM07", "WS03", "WS04"]
PAPER_INSTR = 500_000        # `bp report paper` / `bp sweep paper` default
REPORT_CELLS = 12 * 8
SWEEP_CELLS = 6 * 9 * 8
# The timed sweeps run at a fifth of the default budget: a repetition of
# about 1.5 s instead of 6 s gives a run enough repetitions for a steady
# median on this box. The full sweep runs once per run, untimed, against
# the committed artifacts.
SWEEP_INSTR = 100_000
SCENARIO_VARIANTS = 64       # the seed picks one of these; each has references
SCENARIO_TENANTS = 4
SCENARIO_TENANT_INSTR = 500_000
SCENARIO_PREDICTORS = 6      # `bp scenario`'s default predictor set
REPLAY_BENCHES = 12
REPLAY_INSTR = 5_000_000
REPLAY_CONFIGS = ("bimodal", "gshare")
JOBS = {"paper_repro": 2, "budget_sweep": 1, "trace_replay": 1}

MIN_REPS = 3
# Box-speed calibration (perfbench/calibrate.py): the kernel's
# seconds at the reference speed, and how many copies run at once for an
# unpinned workload (one per core of the 2-core box, so both cores' speed
# is sampled). A --jobs 1 workload is pinned to one core, and one copy
# runs on that core.
CAL_REF_S = 0.070
CAL_COPIES = 2
CAL_SHARE = 0.1
SETUP_REPEATS = 31
SETUP_CAL_CALLS = 5
PROGRESS = re.compile(rb"\[(\d+)/(\d+)\]")
SIM_LINE = re.compile(r"\((\d+) mispredictions / (\d+) instructions\)")


# The tracer binary, set by build(): it also holds the `--spawn` helper.
TRACER = None


class Fatal(Exception):
    """The benchmark cannot run here: no result is printed."""


class Tally:
    """Cells attempted and failed; every mismatch is a failed cell."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note=None):
        self.attempted += attempted
        self.failed += failed
        if failed and note and len(self.notes) < 20:
            self.notes.append(note)


class Cmd:
    """One finished `bp` command: wall clock from spawn to reap, exit
    code, peak RSS, and the arrival time of every `[k/N]` progress
    event on its standard error."""

    def __init__(self, argv, wall, rc, rss_kib, events, stdout, stderr):
        self.argv, self.wall, self.rc, self.rss_kib = argv, wall, rc, rss_kib
        self.events, self.stdout, self.stderr = events, stdout, stderr


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------- build

def target_dir():
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is the repository root here.
    return ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds `bp` and the tracer from this checkout's sources."""
    for need in ("Cargo.toml", "src/bin/bp.rs", "REPORT_paper.json", "SWEEP_paper.json"):
        if not (ROOT / need).is_file():
            raise Fatal(f"{ROOT / need} is missing: run from a full checkout of the repository")
    if shutil.which("cargo") is None:
        raise Fatal("cargo is not on PATH")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for argv in (["cargo", "build", "--release", "--offline", "--bin", "bp"],
                 ["cargo", "build", "--release", "--offline", "--manifest-path",
                  str(HERE / "tracer" / "Cargo.toml")]):
        p = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stderr[-4000:])
            raise Fatal(f"build failed: {' '.join(argv)}")
    global TRACER
    release = target_dir() / "release"
    TRACER = release / "perfbench-tracer"
    return release / "bp", TRACER


def pinned(cpus):
    """A `preexec_fn` that pins the child to `cpus` (None: no pinning)."""
    return None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))


def spawn(argv, cwd, cpus=None):
    """Runs `argv` through the tracer's `--spawn` helper, timestamping
    progress events as they arrive. The helper reports the command's
    own peak RSS: started straight from Python, a child's `ru_maxrss`
    would count the interpreter's resident size from before `exec`."""
    out_path, rss_path = Path(cwd) / ".stdout", Path(cwd) / ".maxrss"
    rss_path.unlink(missing_ok=True)
    events, err, pending = [], bytearray(), b""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in [TRACER, "--spawn", rss_path, "--", *argv]],
                             cwd=cwd, stdout=out, stderr=subprocess.PIPE,
                             preexec_fn=pinned(cpus))
        fd = p.stderr.fileno()
        while True:
            chunk = os.read(fd, 65536)
            now = time.perf_counter()
            if not chunk:
                break
            if len(err) < 1 << 20:
                err += chunk
            pending += chunk
            parts = re.split(rb"[\r\n]", pending)
            pending = parts.pop()
            for part in parts:
                m = PROGRESS.search(part)
                if m:
                    events.append((now - t0, int(m.group(1)), int(m.group(2))))
        p.wait()
        wall = time.perf_counter() - t0
        p.stderr.close()
    m = PROGRESS.search(pending)
    if m:
        events.append((wall, int(m.group(1)), int(m.group(2))))
    stdout = out_path.read_text(errors="replace")
    out_path.unlink()
    rss_kib = int(rss_path.read_text()) if rss_path.is_file() else 0
    rss_path.unlink(missing_ok=True)
    return Cmd(argv, wall, p.returncode, rss_kib, events, stdout,
               err.decode(errors="replace"))


def engine_stats(batches, span, jobs):
    """Worker busy share and tail from completion times.

    `batches` are the times (from the command's spawn) at which cells
    completed, with cells completing together merged. Until the
    `jobs`-th last completion every worker is taken to be busy; after
    each later completion one fewer is. The tail runs from the `jobs`-th
    last completion to the command's exit.
    """
    if not batches:
        return 0.0, span
    c = sorted(batches)
    m = len(c)
    k = max(m - jobs, 0)           # index of the jobs-th last completion
    busy = jobs * c[k]
    for i in range(k + 1, m):
        busy += (jobs - (i - k)) * (c[i] - c[i - 1])
    return busy, span - c[k]


def cmd_engine(cmd, jobs):
    times = []
    for t, _, _ in cmd.events:
        if not times or t - times[-1] > 0.001:
            times.append(t)
        else:
            times[-1] = t
    return engine_stats(times, cmd.wall, jobs)


def progress_complete(cmd, cells):
    return any(k == n == cells for _, k, n in cmd.events)


def sha256(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def json_cells_differ(new_path, ref_path, rows_key):
    """Counts per-cell MPKI differences between two report documents."""
    try:
        new = json.loads(Path(new_path).read_text())
        ref = json.loads(Path(ref_path).read_text())
    except (OSError, ValueError):
        return None
    diff = 0
    for a, b in zip(new.get(rows_key, []), ref.get(rows_key, [])):
        diff += sum(1 for x, y in zip(a["mpki"], b["mpki"]) if x != y)
    return diff


def compare_docs(tally, cells, pairs, rows_key):
    """Byte-compares each (new, reference) pair. A differing document
    fails the cells whose MPKI differ, or all its cells when the
    difference cannot be placed in a cell."""
    failed, notes = 0, []
    for new, ref in pairs:
        if Path(new).is_file() and filecmp.cmp(new, ref, shallow=False):
            continue
        diff = json_cells_differ(new, ref, rows_key) if str(new).endswith(".json") else None
        failed = max(failed, cells if not diff else diff)
        notes.append(f"{new} differs from {ref}")
    tally.add(cells, min(failed, cells), "; ".join(notes))


# ------------------------------------------------------------- workloads

def catalogue(bp):
    p = subprocess.run([str(bp), "list", "benchmarks"], capture_output=True, text=True)
    if p.returncode != 0:
        raise Fatal("bp list benchmarks failed")
    return [line.split("/", 1)[1] for line in p.stdout.split() if "/" in line]


def scenario_spec(variant, names):
    """The seeded scenario of one variant: 4 tenants from the catalogue,
    seeded bursts and a periodic partial context-switch flush."""
    rng = random.Random(f"perfbench-scenario-{variant}")
    burst_min = rng.choice([16, 32, 64])
    return {
        "name": f"perfbench_v{variant:02d}",
        "instructions": SCENARIO_TENANT_INSTR,
        "tenants": [{"benchmark": b} for b in rng.sample(names, SCENARIO_TENANTS)],
        "schedule": {"seeded_bursts": {"seed": rng.randrange(1, 1 << 31),
                                       "min": burst_min,
                                       "max": burst_min * rng.choice([4, 8, 16])}},
        # Partial flushes only: a full flush rebuilds every predictor, and
        # a seed drawing it would cost several times what the others do.
        "flush": {"period": rng.choice([25_000, 50_000, 100_000, 200_000]), "mode": "partial"},
    }


def replay_subset(seed, names):
    return random.Random(f"perfbench-replay-{seed}").sample(names, REPLAY_BENCHES)


def load_reference(name):
    path = REFERENCE_DIR / name
    if not path.is_file():
        raise Fatal(f"{path} is missing: run `python3 perfbench/run.py --make-references`")
    return json.loads(path.read_text())


def scenario_cells(doc):
    """Per-(predictor, tenant) mispredict counts of a scenario document."""
    return {p["name"]: [t["mispredicted"] for t in p["tenants"]] for p in doc["predictors"]}


class Workload:
    """One workload: `prepare` writes the seeded inputs, `rep` runs and
    checks one repetition, `verify` runs the once-per-run checks."""

    name = ""

    def __init__(self, bp, seed, work):
        self.bp, self.seed = bp, seed
        # A --jobs 1 workload runs pinned to one core, so the calibration
        # kernel measures the core its commands run on.
        self.cpus = {min(os.sched_getaffinity(0))} if JOBS[self.name] == 1 else None
        self.dir = work / self.name
        self.names = catalogue(bp)
        self.mpki = []

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def verify(self, tally):
        pass

    def tracer_args(self):
        raise NotImplementedError

    def check_tracer(self, tdir, cells, tally):
        raise NotImplementedError


class PaperRepro(Workload):
    name = "paper_repro"

    def prepare(self):
        super().prepare()
        self.variant = self.seed % SCENARIO_VARIANTS
        self.spec = scenario_spec(self.variant, self.names)
        self.scenario = self.dir / "scenario.json"
        self.scenario.write_text(json.dumps(self.spec, indent=2) + "\n")
        ref = load_reference("scenarios.json")
        if ref["instructions"] != SCENARIO_TENANT_INSTR:
            raise Fatal("scenario references were made at another instruction budget")
        self.ref = ref["variants"][str(self.variant)]

    def check_scenario(self, path, tally):
        cells = SCENARIO_PREDICTORS * SCENARIO_TENANTS
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            tally.add(cells, cells, f"{path} unreadable")
            return None
        got = scenario_cells(doc)
        failed = 0
        if doc["tenants"] != [t["benchmark"] for t in self.spec["tenants"]] \
                or self.ref["tenants"] != doc["tenants"]:
            failed = cells
        else:
            for name, want in self.ref["cells"].items():
                failed += sum(1 for a, b in zip(got.get(name, []), want) if a != b)
            failed += max(0, cells - sum(len(v) for v in got.values()))
        tally.add(cells, min(failed, cells), f"scenario variant {self.variant} mismatch")
        return doc

    def rep(self, tally):
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        report = spawn([self.bp, "report", "paper", "--jobs", JOBS[self.name], "--out-dir", out],
                       self.dir)
        if report.rc != 0 or not progress_complete(report, REPORT_CELLS):
            tally.add(REPORT_CELLS, REPORT_CELLS, f"bp report exited {report.rc}")
        else:
            compare_docs(tally, REPORT_CELLS,
                         [(out / f, ROOT / f) for f in ("REPORT_paper.json", "REPORT_paper.md")],
                         "predictors")
        scen = spawn([self.bp, "scenario", self.scenario, "--jobs", JOBS[self.name],
                      "--out-dir", out], self.dir)
        doc = None
        if scen.rc != 0:
            cells = SCENARIO_PREDICTORS * SCENARIO_TENANTS
            tally.add(cells, cells, f"bp scenario exited {scen.rc}")
        else:
            doc = self.check_scenario(out / f"SCENARIO_{self.spec['name']}.json", tally)
        if not self.mpki and report.rc == 0 and doc is not None:
            rows = json.loads((out / "REPORT_paper.json").read_text())["predictors"]
            self.mpki = [x for r in rows for x in r["mpki"]] + \
                [t["mpki"] for p in doc["predictors"] for t in p["tenants"]]
        instr_cells = REPORT_CELLS * PAPER_INSTR + \
            SCENARIO_PREDICTORS * SCENARIO_TENANTS * SCENARIO_TENANT_INSTR
        return [report, scen], instr_cells

    def tracer_args(self):
        return ["--benches", ",".join(PAPER_BENCHES), "--instr", PAPER_INSTR,
                "--scenario", self.scenario]

    def check_tracer(self, tdir, cells, tally):
        compare_docs(tally, REPORT_CELLS,
                     [(tdir / f, ROOT / f) for f in ("REPORT_paper.json", "REPORT_paper.md")],
                     "predictors")
        self.check_scenario(tdir / f"SCENARIO_{self.spec['name']}.json", tally)


class BudgetSweep(Workload):
    name = "budget_sweep"

    def prepare(self):
        super().prepare()
        ref = load_reference("sweep.json")
        if ref["instructions"] != SWEEP_INSTR:
            raise Fatal("sweep references were made at another instruction budget")
        self.ref = ref

    def check_sweep(self, out, tally):
        """The sweep documents at SWEEP_INSTR against the stored digests;
        a mismatch fails the cells whose MPKI differ, or all of them."""
        digests = [sha256(out / f) for f in ("SWEEP_paper.json", "SWEEP_paper.md")]
        if digests == [self.ref["json_sha256"], self.ref["md_sha256"]]:
            tally.add(SWEEP_CELLS, 0)
            return
        try:
            rows = json.loads((out / "SWEEP_paper.json").read_text())["rows"]
            got = [x for r in rows for x in r["mpki"]]
        except (OSError, ValueError, KeyError):
            got = []
        want = [x for r in self.ref["mpki"] for x in r]
        diff = sum(1 for x, y in zip(got, want) if x != y) + abs(len(want) - len(got))
        tally.add(SWEEP_CELLS, min(SWEEP_CELLS, diff or SWEEP_CELLS),
                  f"{out}/SWEEP_paper.* differ from reference/sweep.json")

    def rep(self, tally):
        cache, cold, warm = self.dir / "cache", self.dir / "cold", self.dir / "warm"
        for d in (cache, cold, warm):
            shutil.rmtree(d, ignore_errors=True)
        cmds = []
        for out, want in ((cold, f"cache: 0/{SWEEP_CELLS} cells hit, {SWEEP_CELLS} stored"),
                          (warm, f"cache: {SWEEP_CELLS}/{SWEEP_CELLS} cells hit, 0 stored")):
            cmd = spawn([self.bp, "sweep", "paper", "--jobs", JOBS[self.name],
                         "--instr", SWEEP_INSTR, "--cache", cache, "--out-dir", out],
                        self.dir, self.cpus)
            cmds.append(cmd)
            if cmd.rc != 0 or not progress_complete(cmd, SWEEP_CELLS):
                tally.add(SWEEP_CELLS, SWEEP_CELLS, f"bp sweep exited {cmd.rc}")
            elif want not in cmd.stderr:
                tally.add(SWEEP_CELLS, SWEEP_CELLS, f"expected '{want}' from {out.name} sweep")
            elif out is cold:
                self.check_sweep(cold, tally)
            else:
                compare_docs(tally, SWEEP_CELLS,
                             [(warm / f, cold / f) for f in ("SWEEP_paper.json", "SWEEP_paper.md")],
                             "rows")
        if not self.mpki and cmds[0].rc == 0:
            rows = json.loads((cold / "SWEEP_paper.json").read_text())["rows"]
            self.mpki = [x for r in rows for x in r["mpki"]]
        return cmds, SWEEP_CELLS * SWEEP_INSTR

    def verify(self, tally):
        """Once per run: the full `bp sweep paper` must regenerate the
        committed artifacts byte for byte."""
        full = self.dir / "full"
        cmd = spawn([self.bp, "sweep", "paper", "--jobs", JOBS[self.name], "--out-dir", full],
                    self.dir, self.cpus)
        if cmd.rc != 0:
            tally.add(SWEEP_CELLS, SWEEP_CELLS, f"full bp sweep exited {cmd.rc}")
        else:
            compare_docs(tally, SWEEP_CELLS,
                         [(full / f, ROOT / f) for f in ("SWEEP_paper.json", "SWEEP_paper.md")],
                         "rows")

    def tracer_args(self):
        # The last repetition's cache holds the entries `bp sweep` stored.
        return ["--benches", ",".join(PAPER_BENCHES), "--instr", SWEEP_INSTR,
                "--cache-src", self.dir / "cache"]

    def check_tracer(self, tdir, cells, tally):
        self.check_sweep(tdir, tally)


class TraceReplay(Workload):
    name = "trace_replay"

    def prepare(self):
        super().prepare()
        self.subset = replay_subset(self.seed, self.names)
        ref = load_reference("replay.json")
        if ref["instructions"] != REPLAY_INSTR:
            raise Fatal("replay references were made at another instruction budget")
        self.ref = ref["cells"]
        self.replayed = {}

    def check_cell(self, bench, config, got, tally, what):
        want = self.ref.get(bench, {}).get(config)
        ok = got is not None and want is not None and list(got) == list(want)
        tally.add(1, 0 if ok else 1, f"{what} {config} on {bench}: {got} != {want}")

    def rep(self, tally):
        cmds = []
        trace = self.dir / "trace.bptr"
        for bench in self.subset:
            gen = spawn([self.bp, "generate", bench, REPLAY_INSTR, trace], self.dir, self.cpus)
            cmds.append(gen)
            for config in REPLAY_CONFIGS:
                sim = spawn([self.bp, "simulate", config, trace], self.dir, self.cpus)
                cmds.append(sim)
                m = SIM_LINE.search(sim.stdout) if gen.rc == 0 and sim.rc == 0 else None
                got = (int(m.group(1)), int(m.group(2))) if m else None
                self.replayed[(bench, config)] = got
                self.check_cell(bench, config, got, tally, "file replay")
            trace.unlink(missing_ok=True)
        if not self.mpki:
            self.mpki = [1000 * v[0] / v[1] for v in self.replayed.values() if v]
        return cmds, len(self.subset) * len(REPLAY_CONFIGS) * REPLAY_INSTR

    def verify(self, tally):
        """File replay must equal the lazy-stream replay of the same
        benchmark."""
        for bench in self.subset:
            for config in REPLAY_CONFIGS:
                lazy = spawn([self.bp, "simulate", config, bench, REPLAY_INSTR], self.dir)
                m = SIM_LINE.search(lazy.stdout) if lazy.rc == 0 else None
                got = (int(m.group(1)), int(m.group(2))) if m else None
                ok = got is not None and got == self.replayed.get((bench, config))
                tally.add(1, 0 if ok else 1, f"lazy replay {config} on {bench} != file replay")

    def tracer_args(self):
        return ["--benches", ",".join(self.subset), "--instr", REPLAY_INSTR]

    def check_tracer(self, tdir, cells, tally):
        replay = [c for c in cells if c["leg"] == "replay"]
        if len(replay) != len(self.subset) * len(REPLAY_CONFIGS):
            tally.add(len(self.subset) * 2, len(self.subset) * 2, "tracer replay cells missing")
        for c in replay:
            self.check_cell(c["benchmark"], c["config"],
                            (c["mispredicted"], c["instructions"]), tally, "tracer replay")


CLASSES = {c.name: c for c in (PaperRepro, BudgetSweep, TraceReplay)}


# ----------------------------------------------------------- measuring

def setup(wl):
    """Set-up: write the seeded inputs, prepare the directories, and
    start `bp` once (it builds the registry). Repeated; the median is
    scaled to the reference box speed like the repetitions' times."""
    times = []
    cal = calibrate(wl.cpus, SETUP_CAL_CALLS)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        p = subprocess.run([str(wl.bp), "list", "predictors"], stdout=subprocess.DEVNULL,
                           preexec_fn=pinned(wl.cpus))
        times.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise Fatal("bp list predictors failed")
    cal = (cal + calibrate(wl.cpus, SETUP_CAL_CALLS)) / 2
    return median(times) * CAL_REF_S / cal


def calibrate(cpus, calls=1):
    """Box speed now: mean seconds of `calls` runs of the calibration
    kernel. A pinned workload's core runs one copy; otherwise every core
    runs one at once."""
    copies = CAL_COPIES if cpus is None else len(cpus)
    ps = [subprocess.Popen([sys.executable, HERE / "calibrate.py", str(calls)],
                           stdout=subprocess.PIPE, text=True,
                           preexec_fn=pinned(cpus))
          for _ in range(copies)]
    outs = [p.communicate()[0] for p in ps]
    if any(p.returncode != 0 for p in ps):
        raise Fatal("calibration kernel failed")
    return statistics.fmean(float(o) for o in outs)


def measure(wl, tally, seconds):
    """Repeats the workload until the next repetition would end after
    `seconds`, at least MIN_REPS times. The calibration kernel runs
    before the first repetition and after each one; a repetition's box
    speed is the mean of the two calibrations around it. Each
    calibration lasts about CAL_SHARE of the previous repetition, so a
    long repetition gets a less noisy speed sample."""
    reps = []
    deadline = time.perf_counter() + seconds
    cal = calibrate(wl.cpus, SETUP_CAL_CALLS)
    while True:
        t0 = time.perf_counter()
        cmds, instr_cells = wl.rep(tally)
        t1 = time.perf_counter()
        cal_after = calibrate(wl.cpus, max(1, round(CAL_SHARE * (t1 - t0) / CAL_REF_S)))
        now = time.perf_counter()
        reps.append({"wall": sum(c.wall for c in cmds), "instr_cells": instr_cells,
                     "cmds": cmds, "span": t1 - t0, "cal": (cal + cal_after) / 2,
                     "rss": max(c.rss_kib for c in cmds)})
        cal = cal_after
        if len(reps) >= MIN_REPS and now + (now - t0) > deadline:
            return reps


def end_to_end(reps, setup_s):
    cal_walls = [r["wall"] * CAL_REF_S / r["cal"] for r in reps]
    return {
        "wall_cal_s": (median(cal_walls), "s"),
        "sim_minstr_per_cal_s": (median([r["instr_cells"] / w / 1e6
                                         for r, w in zip(reps, cal_walls)]), "Minstr/s"),
        "peak_rss_mib": (median([r["rss"] / 1024 for r in reps]), "MiB"),
        "setup_s": (setup_s, "s"),
    }


def rep_engine(wl, rep):
    """Engine busy worker-seconds, capacity and tail of one repetition."""
    jobs = JOBS[wl.name]
    if wl.name == "trace_replay":
        # No engine: each command is one cell, run one after another.
        ends, t = [], 0.0
        for c in rep["cmds"]:
            t += c.wall
            ends.append(t)
        busy, tail = engine_stats(ends, rep["span"], 1)
        return busy, rep["span"], tail
    busy = capacity = tail = 0.0
    for c in rep["cmds"]:
        b, t = cmd_engine(c, jobs)
        busy, capacity, tail = busy + b, capacity + jobs * c.wall, tail + t
    return busy, capacity, tail


def print_end_to_end(wl, seed, reps, metrics, tally):
    n = len(reps)
    walls = [r["wall"] for r in reps]
    cores = os.cpu_count()
    print(f"perfbench {wl.name}: seed {seed}, {n} repetitions, --jobs {JOBS[wl.name]}, "
          f"{cores} cores, wall clock only (no hardware counters)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<20} {value:12.6f} {unit}")
    print(f"  {'wall_s':<20} {median(walls):12.6f} s   (raw median; box speed median "
          f"{median([CAL_REF_S / r['cal'] for r in reps]):.3f} of the reference)")
    print(f"  {'sim_minstr_per_s':<20} "
          f"{median([r['instr_cells'] / r['wall'] / 1e6 for r in reps]):12.6f} Minstr/s (raw)")
    legs = {}
    for r in reps:
        per_rep = {}
        for c in r["cmds"]:
            label = str(c.argv[1]) + (f" {Path(c.argv[-1]).name}" if c.argv[1] == "sweep" else "")
            per_rep[label] = per_rep.get(label, 0.0) + c.wall
        for label, wall in per_rep.items():
            legs.setdefault(label, []).append(wall)
    print("  legs (median s per repetition): " +
          ", ".join(f"{label} {median(v):.4f}" for label, v in legs.items()))
    print(f"  {'wall_p90_s':<20} {nearest_rank(walls, 0.9):12.6f} s   "
          f"(nearest-rank p90 of {n} repetitions; fewer than 10 lie beyond it)")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'cell_error_rate':<20} {rate:12.6f} ratio ({tally.failed} of {tally.attempted} "
          f"cells failed or mismatched)")
    mean = statistics.fmean(wl.mpki) if wl.mpki else float("nan")
    print(f"  {'mean_mpki':<20} {mean:12.6f} MPKI (simulated over {len(wl.mpki)} cells; "
          "the model is unvalidated against hardware, so no error figure)")
    for note in tally.notes:
        print(f"  FAILED: {note}")


# ------------------------------------------------------------- tracing

LAYER_PREFIXES = (
    ("workloads.", "workloads"), ("trace.", "trace"), ("probe.history.", "history"),
    ("drive.", "hosts"), ("sweep.b", "hosts"), ("probe.hosts.", "hosts"),
    ("registry.", "sim"), ("sweep.solve", "sim"), ("scenario.", "sim"),
    ("report.", "sim"), ("probe.sim.", "sim"), ("cache.", "cache"),
)


def layer_of(name):
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def self_times(spans):
    """Span duration minus the part of it its children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - child[i]) / 1e9 for i, s in enumerate(spans)]


def span_sum(spans, prefix, exact=False):
    chosen = [s for s in spans if (s["name"] == prefix if exact else s["name"].startswith(prefix))]
    dur = sum(s["end_ns"] - s["start_ns"] for s in chosen) / 1e9
    counts = {}
    for s in chosen:
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return dur, counts


def per_ns(dur, n):
    return dur * 1e9 / n if n else 0.0


def layer_metrics(spans, engine):
    m = {}
    dur, c = span_sum([s for s in spans if s["accounted"]], "workloads.generate", True)
    m["workloads.gen_ns_per_rec"] = per_ns(dur, c.get("records"))
    m["workloads.records"] = c.get("records", 0)
    dur, c = span_sum(spans, "trace.encode", True)
    m["trace.encode_ns_per_rec"] = per_ns(dur, c.get("records"))
    m["trace.bytes_per_rec"] = c.get("bytes", 0) / c["records"] if c.get("records") else 0.0
    m["trace.records"] = c.get("records", 0)
    dur, c = span_sum(spans, "trace.decode", True)
    m["trace.decode_ns_per_rec"] = per_ns(dur, c.get("records"))
    dur, c = span_sum(spans, "probe.history.push", True)
    m["history.push_ns_per_branch"] = per_ns(dur, c.get("branches"))
    m["history.branches"] = c.get("branches", 0)
    hosts = [s for s in spans if s["name"].startswith("probe.hosts.")]
    for s in hosts:
        cfg = s["name"][len("probe.hosts."):].replace("+", "_")
        m[f"hosts.{cfg}.ns_per_branch"] = per_ns((s["end_ns"] - s["start_ns"]) / 1e9,
                                                 s["counts"].get("branches"))
    if hosts:
        m["hosts.branches"] = hosts[0]["counts"].get("branches", 0)
        m["hosts.mispredicts"] = sum(s["counts"].get("mispredicts", 0) for s in hosts)
    branches = mispredicts = 0
    for budget in (8, 16, 32, 64, 128, 256):
        dur, c = span_sum(spans, f"sweep.b{budget}", True)
        m[f"sweep.b{budget}.ns_per_branch"] = per_ns(dur, c.get("branches"))
        branches += c.get("branches", 0)
        mispredicts += c.get("mispredicts", 0)
    m["sweep.branches"], m["sweep.mispredicts"] = branches, mispredicts
    plain, pc = span_sum(spans, "probe.sim.plain", True)
    attr, ac = span_sum(spans, "probe.sim.attributed", True)
    m["sim.attributed_ns_per_branch"] = per_ns(attr, ac.get("branches"))
    m["sim.plain_ns_per_branch"] = per_ns(plain, pc.get("branches"))
    m["sim.attributed_ratio"] = attr / plain if plain else 0.0
    m["engine.busy_share"], m["engine.tail_s"] = engine
    dur, c = span_sum(spans, "scenario.run", True)
    m["scenario.ns_per_event"] = per_ns(dur, c.get("events"))
    m["scenario.events"] = c.get("events", 0)
    m["scenario.flushes"] = c.get("flushes", 0)
    m["registry.build_s"] = span_sum(spans, "registry.")[0]
    m["sweep.solve_s"] = span_sum(spans, "sweep.solve", True)[0]
    dur, c = span_sum(spans, "cache.store", True)
    m["cache.store_s"] = dur
    dur, c = span_sum(spans, "cache.probe", True)
    m["cache.probe_s"] = dur
    m["cache.hit_ratio"] = c.get("hits", 0) / c["probes"] if c.get("probes") else 0.0
    _, c = span_sum(spans, "cache.size", True)
    m["cache.entry_bytes"] = c.get("bytes", 0) / c["entries"] if c.get("entries") else 0.0
    m["report.emit_s"] = span_sum(spans, "report.emit", True)[0]
    return m


def traced_run(wl, tracer, tally, seconds, setup_s):
    """Untraced repetitions for the reference wall time and the engine
    figures, then the tracer's legs with spans off and on."""
    reps = measure(wl, tally, seconds * 0.4)
    wl.verify(tally)
    wall = median([r["wall"] for r in reps])
    engines = [rep_engine(wl, r) for r in reps]
    busy_share = median([b / cap if cap else 0.0 for b, cap, _ in engines])
    tail = median([t for _, _, t in engines])

    tdir = wl.dir / "tracer"
    runs = {}
    for mode in ("off", "on"):
        argv = [tracer, "--workload", wl.name, "--work", tdir, "--spans", mode] + wl.tracer_args()
        t0 = time.perf_counter()
        p = subprocess.run([str(a) for a in argv], cwd=wl.dir, stderr=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise Fatal(f"tracer failed: {p.stderr[-2000:]}")
        doc = json.loads((tdir / f"spans{'_off' if mode == 'off' else ''}.json").read_text())
        runs[mode] = (doc, time.perf_counter() - t0)
    doc = runs["on"][0]
    spans = doc["spans"]
    wl.check_tracer(tdir, doc["cells"], tally)
    for check in doc["checks"]:
        tally.add(1, 0 if check["ok"] else 1, f"tracer check failed: {check['name']}")

    selfs = self_times(spans)
    by_layer, by_name = {}, {}
    for s, st in zip(spans, selfs):
        key = "accounted" if s["accounted"] else "probe"
        layer = layer_of(s["name"])
        by_layer.setdefault(layer, {"accounted": 0.0, "probe": 0.0})[key] += st
        by_name.setdefault((layer, s["name"]), {"accounted": 0.0, "probe": 0.0, "n": 0})
        by_name[(layer, s["name"])][key] += st
        by_name[(layer, s["name"])]["n"] += 1
    layer_sum = sum(v["accounted"] for v in by_layer.values())
    jobs = JOBS[wl.name]
    on_s, off_s = doc["total_s"], runs["off"][0]["total_s"]

    print(f"perfbench {wl.name} traced run: seed {wl.seed}, {len(spans)} spans, "
          f"{len(reps)} untraced repetitions, --jobs {jobs}, {os.cpu_count()} cores, wall clock")
    print(f"  {'layer':<10} {'self s (workload)':>18} {'share':>7} {'self s (probes)':>16}")
    for layer in ("workloads", "trace", "history", "hosts", "sim", "cache", "other"):
        v = by_layer.get(layer)
        if v:
            share = v["accounted"] / layer_sum if layer_sum else 0.0
            print(f"  {layer:<10} {v['accounted']:18.6f} {share:7.1%} {v['probe']:16.6f}")
    print(f"  {'span':<34} {'calls':>6} {'self s (workload)':>18} {'self s (probes)':>16}")
    for (layer, name), v in sorted(by_name.items()):
        print(f"  {layer + ':' + name:<34} {v['n']:6d} {v['accounted']:18.6f} {v['probe']:16.6f}")
    residue = wall - layer_sum
    print(f"  accounting: layers sum to {layer_sum:.6f} s of one thread against untraced "
          f"wall_s {wall:.6f} s: residue {residue:+.6f} s ({residue / wall:+.1%} of wall_s); "
          "the residue holds process start, file output and progress, and the engine "
          f"scheduling the layer legs run without")
    if jobs > 1:
        busy = wall * jobs * busy_share
        print(f"  accounting at --jobs {jobs}: worker-busy {busy:.6f} s "
              f"(wall_s x {jobs} x busy share {busy_share:.3f}) against the layer sum: "
              f"residue {busy - layer_sum:+.6f} s")
    span_cost = len(spans) * doc["span_cost_ns"] / 1e9
    print(f"  tracing overhead: legs {on_s:.6f} s with spans on vs {off_s:.6f} s off: "
          f"{on_s - off_s:+.6f} s ({(on_s - off_s) / off_s:+.2%}, one run each, so mostly "
          f"noise); span bookkeeping {len(spans)} spans x {doc['span_cost_ns']:.1f} ns = "
          f"{span_cost:.6f} s; traced legs vs untraced wall_s: {on_s - wall:+.6f} s")

    metrics = layer_metrics(spans, (busy_share, tail))
    metrics["accounting.layer_sum_s"] = layer_sum
    metrics["accounting.residue_s"] = residue
    metrics["tracing.overhead_s"] = on_s - off_s
    metrics["tracing.span_cost_s"] = span_cost
    metrics["tracing.spans"] = len(spans)
    return metrics


# ---------------------------------------------------------- references

def write_reference(name, instructions, key, entries):
    """Writes a reference file with one line per entry."""
    lines = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
    (REFERENCE_DIR / name).write_text(
        f'{{\n  "instructions": {instructions},\n  "{key}": {{\n' + ",\n".join(lines) + "\n  }\n}\n")


def make_references(bp):
    """Regenerates the stored reference counts with the `bp` CLI."""
    names = catalogue(bp)
    work = ROOT / ".bench_work" / "references"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    variants = {}
    for v in range(SCENARIO_VARIANTS):
        spec = scenario_spec(v, names)
        path = work / "scenario.json"
        path.write_text(json.dumps(spec, indent=2) + "\n")
        cmd = spawn([bp, "scenario", path, "--jobs", 2, "--out-dir", work], work)
        if cmd.rc != 0:
            raise Fatal(f"bp scenario failed for variant {v}: {cmd.stderr[-500:]}")
        doc = json.loads((work / f"SCENARIO_{spec['name']}.json").read_text())
        variants[str(v)] = {"tenants": doc["tenants"], "cells": scenario_cells(doc)}
    write_reference("scenarios.json", SCENARIO_TENANT_INSTR, "variants", variants)
    cells = {}
    for bench in names:
        for config in REPLAY_CONFIGS:
            cmd = spawn([bp, "simulate", config, bench, REPLAY_INSTR], work)
            m = SIM_LINE.search(cmd.stdout)
            if cmd.rc != 0 or not m:
                raise Fatal(f"bp simulate {config} {bench} failed")
            cells.setdefault(bench, {})[config] = [int(m.group(1)), int(m.group(2))]
    write_reference("replay.json", REPLAY_INSTR, "cells", cells)
    cmd = spawn([bp, "sweep", "paper", "--jobs", 1, "--instr", SWEEP_INSTR, "--out-dir", work],
                work)
    if cmd.rc != 0:
        raise Fatal("bp sweep failed")
    rows = json.loads((work / "SWEEP_paper.json").read_text())["rows"]
    (REFERENCE_DIR / "sweep.json").write_text(
        f'{{\n  "instructions": {SWEEP_INSTR},\n'
        f'  "json_sha256": "{sha256(work / "SWEEP_paper.json")}",\n'
        f'  "md_sha256": "{sha256(work / "SWEEP_paper.md")}",\n  "mpki": [\n'
        + ",\n".join(f"    {json.dumps(r['mpki'])}" for r in rows) + "\n  ]\n}\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {len(variants)} scenario variants, {len(cells)} replay benchmarks and "
          f"{len(rows)} sweep rows to {REFERENCE_DIR}")


# ------------------------------------------------------------------ main

def run_workload(name, seed, seconds, trace, bp, tracer, work):
    tally = Tally()
    wl = CLASSES[name](bp, seed, work)
    setup_s = setup(wl)
    if trace:
        metrics = {k: (v, None) for k, v in traced_run(wl, tracer, tally, seconds, setup_s).items()}
    else:
        reps = measure(wl, tally, seconds)
        wl.verify(tally)
        metrics = end_to_end(reps, setup_s)
        print_end_to_end(wl, seed, reps, metrics, tally)
    shutil.rmtree(wl.dir, ignore_errors=True)
    return tally, metrics


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    return {m["name"]: m["unit"] for m in spec.get("per_layer", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-references", action="store_true")
    args = ap.parse_args()
    if not args.make_references and not args.workload:
        ap.error("--workload is required")
    try:
        bp, tracer = build()
        if args.make_references:
            make_references(bp)
            return 0
        work = ROOT / ".bench_work"
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        total, metrics = Tally(), {}
        units = per_layer_units()
        for name in names:
            tally, m = run_workload(name, args.seed, args.seconds, args.trace, bp, tracer, work)
            total.add(tally.attempted, tally.failed)
            prefix = f"{name}." if args.workload == "all" else ""
            for k, (value, unit) in m.items():
                metrics[prefix + k] = {"value": value, "unit": unit or units.get(k, "count")}
        if args.trace:
            print("per-layer metrics:")
            for k, v in metrics.items():
                print(f"  {k:<40} {v['value']:16.6f} {v['unit']}")
    except Fatal as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": total.failed == 0 and total.attempted > 0,
                      "attempted": total.attempted, "failed": total.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
