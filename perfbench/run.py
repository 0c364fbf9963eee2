#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the nocmap binary.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a nocmap source tree.  The first run builds
`nocmap` and the benchmark's helpers (perfbench/dune) with dune; every
run then generates its inputs from --seed, drives the built binary from
this one process (one client connection or one `nocmap map` child at a
time), checks every returned placement by re-evaluating it in-process
(probe check), prints a table of every metric with its unit and sample
count, and ends with one JSON line:
{"correct": .., "attempted": .., "failed": .., "metrics": {..}}.

--trace 0 measures the end-to-end metrics of BENCHMARK.json.  --trace 1
replays a fixed job list once untraced and once in-process with timed
calls into each layer (probe trace), and reports the per-layer metrics,
the span accounting row and the tracing overhead.  Scratch files go to
.perfbench-work/ at the root.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default")
NOCMAP = os.path.join(BUILD, "bin", "nocmap_cli.exe")
PROBE = os.path.join(BUILD, "perfbench", "probe.exe")
SPAWN = os.path.join(BUILD, "perfbench", "spawn.exe")
WORK = os.path.join(ROOT, ".perfbench-work")

# Built-in catalog apps on the smallest meshes that hold them.
CATALOG = [("fft8", "3x2"), ("romberg", "3x2"), ("imgenc", "3x2"),
           ("imgenc-long", "3x2"), ("objrec", "4x2"), ("romberg-wide", "3x3"),
           ("fft16", "4x3"), ("objrec-deep", "4x3")]
ALGORITHMS = ["sa", "local", "greedy+local", "portfolio"]

# Each workload cycles through a pool and measures whole rounds of it.
# The map pool lists the `gen` seeds of its apps (also their search
# seeds); it is odd in size, so with whole rounds the median falls inside
# the middle app's samples, not on the edge between two apps' times; one
# round is the traced job list.  The serve pool holds `lists` job lists
# of `session` jobs, each run start to finish on a fresh daemon; the
# traced job list is one of them.
WORKLOADS = {
    "serve-small-mix": dict(kind="serve", lists=3, session=96),
    "map-decompose-cwm-12x12": dict(kind="map", apps=[1, 2, 3], noc="12x12",
                                    cores=96, packets=192, lanes=2,
                                    args=["--model", "cwm", "--algorithm",
                                          "decompose", "--jobs", "2"]),
}

SETUP_PER_SAMPLE = 2
REPLY_TIMEOUT_S = 150.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


# ---------------------------------------------------------------- build

def build():
    for need in ("dune-project", os.path.join("bin", "nocmap_cli.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no nocmap source tree at %s (missing %s)" % (ROOT, need))
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/nocmap_cli.exe",
         "./perfbench/probe.exe", "./perfbench/spawn.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("dune build failed")


# ---------------------------------------------------------------- inputs

def gen(path, *args):
    subprocess.run([NOCMAP, "gen", "-o", path] + list(args), check=True,
                   stdout=subprocess.DEVNULL)
    return path


def map_inputs(wl, seed, run_dir):
    """The workload's fixed pool of generated apps with their search
    seeds, in an order the seed rotates.  Every run covers the same pool:
    fresh search seeds per run spread single-sample latency from 0.6 to
    1.07 s on one app, beyond any usable bound."""
    pool = wl["apps"]
    apps = []
    for i in range(len(pool)):
        app_seed = pool[(seed + i) % len(pool)]
        path = gen(os.path.join(run_dir, "app%d.cdcg" % app_seed), "--seed",
                   str(app_seed), "--cores", str(wl["cores"]), "--packets",
                   str(wl["packets"]))
        apps.append((path, app_seed))
    return apps


def small_mix_spec(k):
    """Job k of the serve-small-mix sequence: app, algorithm and model
    (cwm, cdcm, incremental cdcm) cycle, so any 96 consecutive jobs hold
    each combination once, each with a search seed of its own.  With
    three models the median falls inside the cdcm jobs' times, not on
    the edge between cwm and cdcm."""
    app, noc = CATALOG[k % 8]
    variant = (k // 32) % 3
    return {"app": {"builtin": app}, "noc": noc,
            "model": "cwm" if variant == 0 else "cdcm",
            "algorithm": ALGORITHMS[(k // 8) % 4], "budget": "quick",
            "seed": 1 + (k * 104729) % 1000003, "incremental": variant == 2}


def session_specs(wl, j):
    """Job list j: jobs [j n, (j + 1) n) of the sequence, n = session."""
    n = wl["session"]
    return [dict(small_mix_spec(k), id="j%d" % k)
            for k in range(j * n, (j + 1) * n)]


# ---------------------------------------------------------------- map

def spawn(run_dir, tag, argv, stdout_path):
    res = os.path.join(run_dir, tag + ".res")
    with open(stdout_path, "w") as out:
        subprocess.run([SPAWN, res] + argv, stdout=out,
                       stderr=subprocess.DEVNULL, cwd=run_dir)
    code, rss_kb, wall = open(res).read().split()
    return int(code), int(rss_kb), float(wall)


def map_setup(wl, app, run_dir):
    """Seconds of one `nocmap eval` of the identity placement."""
    code, _, wall = spawn(run_dir, "setup", [NOCMAP, "eval", "--noc",
                                             wl["noc"], "--app", app],
                          os.path.join(run_dir, "setup.out"))
    if code != 0:
        fail("nocmap eval exited %d" % code)
    return wall


def map_sample(wl, apps, run_dir, i):
    app, app_seed = apps[i % len(apps)]
    placement = os.path.join(run_dir, "map%d.placement" % i)
    out = os.path.join(run_dir, "map%d.out" % i)
    argv = [NOCMAP, "map", "--noc", wl["noc"], "--app", app, "--seed",
            str(app_seed), "--save", placement] + wl["args"]
    code, rss_kb, wall = spawn(run_dir, "map", argv, out)
    lines = open(out).read().splitlines()
    evaluation = [l.split(": ", 1)[1] for l in lines
                  if l.startswith("evaluation  : ")]
    evals = [l for l in lines if l.startswith("model/search: ")]
    sample = dict(app=i % len(apps), code=code, rss_kb=rss_kb, wall=wall,
                  text=[l for l in lines if not l.startswith("saved ")])
    sample["item"] = {"kind": "map", "app": app, "noc": wl["noc"],
                      "placement": placement,
                      "reported": evaluation[0] if evaluation else ""}
    if evals:
        sample["evaluations"] = int(evals[0].split("(")[1].split()[0])
    return sample


def rounds(pool, seconds, step):
    """Calls step(i) in whole rounds of `pool` calls, so every pool job
    weighs the same whatever the seed; a new round starts only if it
    should end within half a round of the deadline.  step returns False
    to abort.  Returns the seconds taken."""
    i = 0
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for _ in range(pool):
            if not step(i):
                return time.perf_counter() - t0
            i += 1
        now = time.perf_counter()
        if now - t0 + (now - r0) / 2 > seconds:
            return now - t0


def run_map(wl, apps, run_dir, seconds):
    """Each sample is followed by SETUP_PER_SAMPLE set-up samples on its
    app, so set-up is timed across the whole run, as the samples are,
    and not in one burst whose machine speed the run may not share.
    Returns (samples, set-up seconds, loop seconds less set-up)."""
    samples, setup = [], []

    def step(i):
        samples.append(map_sample(wl, apps, run_dir, i))
        for _ in range(SETUP_PER_SAMPLE):
            setup.append(map_setup(wl, apps[i % len(apps)][0], run_dir))
        return True
    elapsed = rounds(len(apps), seconds, step)
    return samples, setup, elapsed - sum(setup)


# ---------------------------------------------------------------- serve

class Daemon:
    """One `nocmap serve --socket` child, in a fresh state directory;
    the socket path stays relative to dodge the sun_path length cap."""

    def __init__(self, run_dir):
        self.cwd = run_dir
        shutil.rmtree(os.path.join(run_dir, "state"), ignore_errors=True)
        self.sock_name = "state.sock"
        self.err = open(os.path.join(run_dir, "state.log"), "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [NOCMAP, "serve", "--state", "state", "--socket", self.sock_name],
            cwd=run_dir, stdout=subprocess.DEVNULL, stderr=self.err)
        self.sock = None

    def connect(self):
        """Seconds from spawn until the socket accepts."""
        path = os.path.join(self.cwd, self.sock_name)
        rel = os.path.relpath(path)
        deadline = time.perf_counter() + 60
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(rel if len(rel) < len(path) else path)
                break
            except OSError:
                s.close()
                if self.proc.poll() is not None:
                    fail("nocmap serve exited %d at start-up"
                         % self.proc.returncode)
                if time.perf_counter() > deadline:
                    fail("nocmap serve never accepted")
                time.sleep(0.0005)
        setup = time.perf_counter() - self.t0
        s.settimeout(REPLY_TIMEOUT_S)
        self.sock = s
        self.reader = s.makefile("rb")
        return setup

    def job(self, spec):
        """Send one spec line and wait for its final reply; returns
        (seconds, final reply line or None on timeout/close)."""
        line = json.dumps(spec, separators=(",", ":"))
        t = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")
        while True:
            try:
                raw = self.reader.readline()
            except OSError:
                return time.perf_counter() - t, line, None
            if not raw:
                return time.perf_counter() - t, line, None
            reply = json.loads(raw)
            if reply.get("status") in ("done", "failed", "rejected",
                                       "overloaded", "error"):
                return time.perf_counter() - t, line, raw.decode().strip()

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for l in f:
                if l.startswith("VmHWM:"):
                    return int(l.split()[1])
        return 0

    def stop(self):
        """SIGTERM, then close the connection: the end of file wakes the
        daemon's select at once, rather than at its 500 ms idle timeout."""
        running = self.proc.poll() is None
        if running:
            self.proc.send_signal(signal.SIGTERM)
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
        if running:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        return self.proc.returncode


def run_session(wl, j, run_dir):
    """Job list j, one job at a time, on a fresh daemon.  The engine's
    shared per-shape caches live as long as the daemon and make its jobs
    faster for tens of thousands of jobs (median 2.8 to 1.5 ms over 45 s
    of one daemon), so a daemon that outlives a session would tie each
    job's time, and its result, to how many jobs ran before it.  A fresh
    daemon per list fixes both.  The high-water mark is read once the
    list is done.  Returns dict(list, setup, jobs, rss_kb, code); a job's
    reply is None if it timed out or the connection closed, and the
    session stops there."""
    d = Daemon(run_dir)
    jobs, setup, rss_kb = [], 0.0, 0
    try:
        setup = d.connect()
        for spec in session_specs(wl, j):
            wall, line, reply = d.job(spec)
            jobs.append(dict(wall=wall, spec=line, reply=reply))
            if reply is None:
                break
        rss_kb = d.vm_hwm_kb()
    finally:
        code = d.stop()
    return dict(list=j, setup=setup, jobs=jobs, rss_kb=rss_kb, code=code)


def run_serve(wl, seed, run_dir, seconds):
    """One untimed cycle over the job lists, then whole timed cycles for
    `seconds`, starting at the list the seed picks.  Stops early at a
    session that lost a job or whose daemon failed.  Returns (timed
    sessions, seconds taken)."""
    n = wl["lists"]
    for i in range(n):
        run_session(wl, (seed + i) % n, run_dir)
    sessions = []

    def step(i):
        s = run_session(wl, (seed + i) % n, run_dir)
        sessions.append(s)
        return s["code"] == 0 and len(s["jobs"]) == wl["session"] \
            and s["jobs"][-1]["reply"] is not None
    return sessions, rounds(n, seconds, step)


# ---------------------------------------------------------------- check

def tampered(item):
    """Two copies of a genuine item the checker must reject: one with a
    nudged energy or timing figure, one with two cores on one tile."""
    if item["kind"] == "serve":
        reply = json.loads(item["reply"])
        energy = reply["result"]["energy"]
        x = float.fromhex(energy["total_j"])
        energy["total_j"] = math.nextafter(x, math.inf).hex()
        nudged = dict(item, reply=json.dumps(reply))
        reply = json.loads(item["reply"])
        p = reply["result"]["placement"]
        p[1] = p[0]
        return [nudged, dict(item, reply=json.dumps(reply))]
    nudged = dict(item, reported=item["reported"].replace("texec=", "texec=9", 1))
    lines = open(item["placement"]).read().splitlines()
    cores = [i for i, l in enumerate(lines) if l.startswith("core ")]
    first_tile = lines[cores[0]].split()[-1]
    parts = lines[cores[1]].split()
    lines[cores[1]] = " ".join(parts[:-1] + [first_tile])
    bad = item["placement"] + ".tampered"
    with open(bad, "w") as f:
        f.write("\n".join(lines) + "\n")
    return [nudged, dict(item, placement=bad)]


def check(items, run_dir):
    """Verdicts for items, plus whether both tampered copies of the
    first item were caught (False if there are no items)."""
    if not items:
        return [], False
    batch = items + tampered(items[0])
    path = os.path.join(run_dir, "check.jsonl")
    with open(path, "w") as f:
        for it in batch:
            f.write(json.dumps(it) + "\n")
    r = subprocess.run([PROBE, "check", path], capture_output=True, text=True)
    if r.returncode != 0:
        fail("probe check failed: " + r.stderr.strip())
    verdicts = [json.loads(l) for l in r.stdout.splitlines()]
    caught = not verdicts[-1]["ok"] and not verdicts[-2]["ok"]
    return verdicts[:len(items)], caught


# ---------------------------------------------------------------- report

def metric_defs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def emit(trace, values, counts, correct, attempted, failed):
    metrics = {}
    print("%-36s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for m in metric_defs(trace):
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print("%-36s %16.6f  %-6s %s" % (m["name"], v, m["unit"],
                                         counts.get(m["name"], "")))
    print("attempted %d, failed %d, failed_share %.4f, correct %s"
          % (attempted, failed, failed / max(1, attempted), correct))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(math.ceil(q * len(xs))) - 1)]


def energy_stats(verdicts, first):
    """Mean ENoC (nJ) and texec (ns) over the checked items indexed by
    first; 0 if none passed."""
    ok = [verdicts[i] for i in first if verdicts[i]["ok"]]
    if not ok:
        return 0.0, 0.0
    return (statistics.fmean(float.fromhex(v["total_j"]) * 1e9 for v in ok),
            statistics.fmean(float.fromhex(v["texec_ns"]) for v in ok))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mark_repeats(verdicts, keys, texts):
    """Same input, same output: item i must match the first item with
    its key.  Returns the indices of those first items."""
    first = {}
    for i, k in enumerate(keys):
        first.setdefault(k, i)
        if texts[i] != texts[first[k]]:
            verdicts[i] = {"ok": False, "why": "output differs on repeat"}
    return sorted(first.values())


# ---------------------------------------------------------------- runs

def untraced(wl, seed, seconds, run_dir):
    """Every job that exits non-zero, is lost or fails the output check
    counts once in `failed`; so does a daemon that exits non-zero."""
    if wl["kind"] == "map":
        apps = map_inputs(wl, seed, run_dir)
        samples, setup, elapsed = run_map(wl, apps, run_dir, seconds)
        walls = [s["wall"] * 1e3 for s in samples]
        rss = max(s["rss_kb"] for s in samples) / 1024
        verdicts, caught = check([s["item"] for s in samples], run_dir)
        for i, s in enumerate(samples):
            if s["code"] != 0:
                verdicts[i] = {"ok": False, "why": "exit code %d" % s["code"]}
        first = mark_repeats(verdicts, [s["app"] for s in samples],
                             [s["text"] for s in samples])
        failed = 0
        attempted = len(samples)
    else:
        sessions, elapsed = run_serve(wl, seed, run_dir, seconds)
        setup = [s["setup"] for s in sessions]
        rss = max(s["rss_kb"] for s in sessions) / 1024
        jobs = [dict(j, list=s["list"], pos=p)
                for s in sessions for p, j in enumerate(s["jobs"])]
        done = [j for j in jobs if j["reply"] is not None]
        walls = [j["wall"] * 1e3 for j in done]
        verdicts, caught = check(
            [{"kind": "serve", "spec": j["spec"], "reply": j["reply"]}
             for j in done], run_dir)
        first = mark_repeats(verdicts, [(j["list"], j["pos"]) for j in done],
                             [j["reply"] for j in done])
        failed = (len(jobs) - len(done)
                  + sum(1 for s in sessions if s["code"] != 0))
        attempted = len(jobs)
        if len(walls) >= 100:
            print("latency_p90_ms %.4f ms (%d samples, %d beyond)"
                  % (percentile(walls, 0.9), len(walls),
                     len(walls) - math.ceil(0.9 * len(walls))))
    mismatches = [v for v in verdicts if not v["ok"]]
    for v in mismatches[:3]:
        log("output check: " + v["why"])
    failed += len(mismatches)
    energy, texec = energy_stats(verdicts, first)
    completed = len(walls) - len(mismatches)
    values = dict(latency_p50_ms=median(walls),
                  jobs_per_s=completed / elapsed if elapsed else 0.0,
                  setup_s=median(setup), peak_rss_mb=rss,
                  energy_nj=energy, texec_ns=texec)
    counts = dict(latency_p50_ms=len(walls), jobs_per_s=completed,
                  setup_s=len(setup), peak_rss_mb=1, energy_nj=len(first),
                  texec_ns=len(first))
    if not caught:
        log("output check missed a tampered result")
    emit(False, values, counts, caught and failed == 0, max(1, attempted),
         failed)


def load_spans(run_dir):
    with open(os.path.join(run_dir, "spans.json")) as f:
        return json.load(f)


def span_table(spans):
    """Count, total and self seconds per span name; self time is the
    duration minus what the span's children cover."""
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    table = {}
    for s in spans:
        d = s["end"] - s["start"]
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += d
        row[2] += d - child.get(s["id"], 0.0)
    print("%-32s %7s %12s %12s" % ("span", "count", "total_ms", "self_ms"))
    for name, (n, tot, self_) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print("%-32s %7d %12.3f %12.3f" % (name, n, tot * 1e3, self_ * 1e3))
    return table


def accounting(kind, v, table, jobs, pass_wall, lanes):
    """Sum of (per-call time x count) over the leaf layers, against the
    traced pass wall (times lanes, for parallel searches)."""
    def span_rows(names):
        return [(n, table[n][1] / table[n][0], table[n][0])
                for n in names if n in table]
    if kind == "map":
        rows = span_rows(["model.app_load", "noc.crg_create",
                          "noc.symmetry_of_crg", "sim.final_evaluate"])
        rows.append(("mapping.cost_fn", v["mapping.cost_us"] * 1e-6,
                     v["mapping.cost_calls"] * jobs))
        gap = ("mapping.search outside cost calls (partition, seeding, "
               "composition, the searchers' own loops)")
    else:
        full_sims = v["sim.runs"] - v["sim.runs_truncated"]
        rows = [("serve.spec_parse", v["serve.spec_parse_us"] * 1e-6, jobs),
                ("model.app_load", v["model.app_load_ms"] * 1e-3, jobs),
                ("noc.crg_create", v["noc.crg_create_ms"] * 1e-3, jobs),
                ("noc.symmetry_of_crg", v["noc.symmetry_of_crg_ms"] * 1e-3,
                 v["noc.symmetry_builds"] * jobs),
                ("persist.append", v["persist.append_us"] * 1e-6,
                 v["persist.appends"] * jobs),
                ("persist.sync", v["persist.sync_ms"] * 1e-3, 2 * jobs),
                ("sim.run (untruncated)", v["sim.run_us"] * 1e-6,
                 full_sims * jobs)]
        gap = ("Engine.run_pending internals with no public boundary "
               "(search loop, incremental bound, cache probes, truncated "
               "simulations)")
    covered = sum(t * n for _, t, n in rows)
    ratio = covered / (pass_wall * lanes)
    print("accounting: %-28s %10s %12s %10s" % ("layer", "calls", "total_ms",
                                                 "share"))
    for name, t, n in rows:
        print("accounting: %-28s %10.0f %12.3f %10.4f"
              % (name, n, t * n * 1e3, t * n / (pass_wall * lanes)))
    print("accounting: covered %.4f of %.3f s x %d lanes; gap %.4f = %s"
          % (ratio, pass_wall, lanes, 1 - ratio, gap))
    return ratio


def traced(wl, seed, run_dir):
    failed = 0
    if wl["kind"] == "map":
        apps = map_inputs(wl, seed, run_dir)
        samples = [map_sample(wl, apps, run_dir, i) for i in range(len(apps))]
        failed += sum(1 for s in samples if s["code"] != 0)
        verdicts, caught = check([s["item"] for s in samples], run_dir)
        ref_ms = [s["wall"] * 1e3 for s in samples]
        ref = [(v.get("placement"), s.get("evaluations"))
               for v, s in zip(verdicts, samples)]
        listing = [{"id": "m%d" % k, "app": a, "noc": wl["noc"], "seed": s}
                   for k, (a, s) in enumerate(apps)]
        kind, lanes = "map", wl["lanes"]
    else:
        session = run_session(wl, seed % wl["lists"], run_dir)
        failed += session["code"] != 0
        jobs = [j for j in session["jobs"] if j["reply"] is not None]
        failed += len(session["jobs"]) - len(jobs)
        verdicts, caught = check(
            [{"kind": "serve", "spec": j["spec"], "reply": j["reply"]}
             for j in jobs], run_dir)
        ref_ms = [j["wall"] * 1e3 for j in jobs]
        ref = [(v.get("placement"), json.loads(j["reply"])["result"]["evaluations"]
                if v["ok"] else None) for v, j in zip(verdicts, jobs)]
        listing = [{"spec": j["spec"]} for j in jobs]
        kind, lanes = "serve", 1
    path = os.path.join(run_dir, "trace.jsonl")
    with open(path, "w") as f:
        for it in listing:
            f.write(json.dumps(it) + "\n")
    trace_dir = os.path.join(run_dir, "trace")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    r = subprocess.run([PROBE, "trace", kind, trace_dir, path], capture_output=True, text=True, cwd=run_dir)
    if r.returncode != 0:
        fail("probe trace failed: " + r.stderr.strip())
    out = json.loads(r.stdout.splitlines()[-1])
    v = dict(out["values"])
    # The traced replay must reproduce the binary's results exactly.
    got = [(res["placement"], res["evaluations"]) for res in out["results"]]
    mismatches = [v_ for v_ in verdicts if not v_["ok"]]
    if got != ref:
        log("traced replay differs from the untraced run")
        mismatches.append({"ok": False, "why": "traced replay differs"})
    failed += len(mismatches) + int(v.pop("serve.failures", 0))
    jobs_n = out["jobs"]
    v["serve.daemon_overhead_ms"] = (
        statistics.median(ref_ms) - statistics.median(out["job_ms"])
        if kind == "serve" else 0.0)
    v["trace.overhead_ratio"] = sum(out["job_ms"]) / sum(ref_ms)
    table = span_table(load_spans(trace_dir))
    v["accounting.covered_ratio"] = accounting(kind, v, table, jobs_n,
                                               out["pass_wall_s"], lanes)
    counts = {m["name"]: jobs_n for m in metric_defs(True)}
    correct = caught and not mismatches
    emit(True, v, counts, correct, max(1, len(ref)), failed)


def self_test(run_dir):
    """One genuine reply must pass the output check, and its tampered
    copies must fail it."""
    job = run_session(WORKLOADS["serve-small-mix"], 0, run_dir)["jobs"][0]
    item = {"kind": "serve", "spec": job["spec"], "reply": job["reply"]}
    verdicts, caught = check([item], run_dir)
    print("genuine reply: %s" % ("passes" if verdicts[0]["ok"] else
                                 "FAILS: " + verdicts[0]["why"]))
    print("tampered replies: %s" % ("rejected" if caught else "ACCEPTED"))
    return 0 if verdicts[0]["ok"] and caught else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if a.seed < 1:
        ap.error("--seed must be positive")
    build()
    run_dir = os.path.join(WORK, "self-test" if a.self_test else a.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if a.self_test:
        sys.exit(self_test(run_dir))
    wl = WORKLOADS[a.workload]
    if a.trace:
        traced(wl, a.seed, run_dir)
    else:
        untraced(wl, a.seed, a.seconds, run_dir)


if __name__ == "__main__":
    main()
