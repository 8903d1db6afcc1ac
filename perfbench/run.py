#!/usr/bin/env python3
"""Shasta benchmark runner: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds perfbench/perfbench.exe and
perfbench/probe.exe with dune, then starts perfbench.exe again and again
(one OCaml process per run of the workload) until S seconds have passed,
and aggregates the runs:

- setup_s (time from starting a process to its first timed call) and
  wall_s (host time of the timed phase) are scaled to a nominal host
  speed by the probe, perfbench/probe.ml, which each untraced run starts
  before and after every segment of its timed phase; setup_s is their
  median over the runs and wall_s their trimmed mean;
- the other host-time metrics are medians over the runs;
- simulated-time metrics and counters are deterministic, so every run
  must reproduce them: their digest must agree across runs, or the
  result is marked incorrect.

With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics.  The
traced invocation alternates traced and untraced runs so the tracing
overhead can be read off, and merges the traced runs' spans into
perfbench/out/<workload>-seed<N>.trace.json (Chrome trace-event JSON).

The last line of stdout is the result; the lines above it are a
human-readable report.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
PROBE = os.path.join(ROOT, "_build", "default", "perfbench", "probe.exe")
OUT = os.path.join(HERE, "out")
MIN_RUNS = 3
RUN_TIMEOUT = 150
# Host seconds of the probe on the reference host, a 2-vCPU 2.1 GHz Xeon
# virtual machine.  A run whose probes take longer ran while the host was
# slower, and its host times are scaled down by the ratio (computed per
# segment of the timed phase by perfbench.exe).
PROBE_REF_S = 0.105
# Share of the runs dropped at each end before wall_s is averaged.
TRIM = 0.1
BUILD_TIMEOUT = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Build the benchmark program from source in this checkout."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a Shasta source tree: %s is missing under %s" % (need, ROOT))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "./perfbench/perfbench.exe",
             "./perfbench/probe.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(PROBE)):
        fail("build failed")


def run_once(workload, seed, trace_file=None):
    """One process, one run of the workload; returns its parsed report."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ)
    if trace_file:
        cmd += ["--trace-out", trace_file]
        # The runtime's event ring lives in a file next to the trace
        # and is removed when the process exits.  It is read once, after
        # the workload: 2^18 words per domain holds every GC phase of the
        # largest workload, and a lost event is counted and reported.
        env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
        env["OCAMLRUNPARAM"] = "e=18"
    started = time.time()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT, text=True)
    except subprocess.TimeoutExpired:
        fail("%s run timed out" % workload)
    if p.returncode != 0:
        fail("%s run exited with code %d" % (workload, p.returncode))
    r = json.loads(p.stdout.strip().splitlines()[-1])
    for key in ("end_to_end", "counters", "host"):
        r[key] = {k: float(v) for k, v in r[key].items()}
    r["setup_s"] = float(r["first_call"]) - started
    if "probe.mean_s" in r["host"]:
        r["norm_setup_s"] = r["setup_s"] * PROBE_REF_S / r["host"]["probe.mean_s"]
        r["norm_wall_s"] = r["host"]["probe.wall_per_probe"] * PROBE_REF_S
    return r


def measure(workload, seed, seconds, traced):
    """Run until the next run would end past [seconds] (at least MIN_RUNS
    runs); traced invocations alternate traced and untraced runs."""
    runs = []
    parts = []
    t0 = time.time()
    while len(runs) < MIN_RUNS or (
            time.time() - t0) * (len(runs) + 1) / len(runs) <= seconds:
        trace_file = None
        if traced and len(runs) % 2 == 0:
            trace_file = os.path.join(OUT, "%s-seed%d.part%d.json" % (workload, seed, len(runs)))
            parts.append(trace_file)
        r = run_once(workload, seed, trace_file)
        r["traced"] = trace_file is not None
        runs.append(r)
    if traced:
        merge_traces(parts, os.path.join(OUT, "%s-seed%d.trace.json" % (workload, seed)))
    return runs


def merge_traces(parts, dest):
    events = []
    for p in parts:
        with open(p) as f:
            events += json.load(f)["traceEvents"]
        os.remove(p)
    with open(dest, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    print("trace: %s (%d events)" % (os.path.relpath(dest, ROOT), len(events)))


def med(values):
    return statistics.median(values)


def trimmed_mean(values):
    """Mean of [values] without the TRIM share at each end.  A run's host
    time tends to fall into one of two bands ~25% apart, so a median of
    the runs jumps between them from one invocation to the next; the
    trimmed mean moves only with the share of runs in each."""
    s = sorted(values)
    k = int(len(s) * TRIM)
    return statistics.fmean(s[k:len(s) - k])


def end_to_end(runs):
    first = runs[0]["end_to_end"]
    m = {name: first[name] for name in
         ("sim_ms", "goodput_rps", "p50_ms", "p99_ms", "p999_ms")}
    m["setup_s"] = med([r["norm_setup_s"] for r in runs])
    m["wall_s"] = trimmed_mean([r["norm_wall_s"] for r in runs])
    m["peak_heap_mb"] = med([r["end_to_end"]["peak_heap_mb"] for r in runs])
    return m


def per_layer(runs, names):
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    m = {name: 0.0 for name in names}
    m.update(runs[0]["counters"])

    def host(rs, key):
        vals = [r["host"][key] for r in rs if key in r["host"]]
        return med(vals) if vals else 0.0

    for key in ("gc.minor_mwords", "gc.major_collections", "gc.time_share",
                "rewrite.instrument_s", "rewrite.verify_s", "sim.event_ns",
                "mchan.send_ns", "protocol.miss_us", "shasta.load_hit_ns",
                "shasta.store_hit_ns"):
        m[key] = host(traced, key)
    wall = med([r["end_to_end"]["wall_s"] for r in plain])
    traced_wall = med([r["end_to_end"]["wall_s"] for r in traced])
    m["sim.events_per_s"] = m["sim.events"] / wall
    run_s = host(plain, "alpha.run_s")
    m["alpha.steps_per_s"] = m["alpha.steps"] / run_s if run_s > 0 else 0.0
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = wall
    m["trace.overhead_share"] = traced_wall / wall - 1.0
    attempted = sum(r["attempted"] for r in runs)
    m["failed_share"] = sum(r["failed"] for r in runs) / attempted
    lost = host(traced, "gc.lost_events")
    if lost:
        print("warning: %d GC events lost; gc.time_share is a lower bound" % lost)
    return m


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    traced = args.trace == 1
    runs = measure(args.workload, args.seed, args.seconds, traced)

    digests = sorted({r["digest"] for r in runs})
    ok = all(r["ok"] for r in runs)
    correct = ok and len(digests) == 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    table = spec["per_layer"] if traced else spec["end_to_end"]
    values = (per_layer(runs, [t["name"] for t in table]) if traced
              else end_to_end(runs))
    metrics = {t["name"]: {"value": values[t["name"]], "unit": t["unit"]} for t in table}

    print("workload %s, seed %d, %d runs (%d traced), outputs %s" % (
        args.workload, args.seed, len(runs), sum(r["traced"] for r in runs),
        "checked ok" if ok else "FAILED a check"))
    print("digest %s%s" % (digests[0], "" if len(digests) == 1
                           else " MISMATCH: " + " ".join(digests)))
    print("operations: %d attempted, %d failed; %d completed samples per run" % (
        attempted, failed, runs[0]["samples"]))
    for name, v in metrics.items():
        print("  %-28s %16.6g %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
