#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/test_determinism.py

Runs every workload twice with one seed and requires the two digests of
simulated-time metrics and counters to be equal, so a change that
touches only host code can show its simulated statistics are unchanged.
Then runs the serving workloads on a held-out seed, requires their
output checks to pass, and reports their figures.  Exits 1 on failure.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import run  # noqa: E402

SEED = 1
HELD_OUT_SEED = 7919
SIM_METRICS = ("sim_ms", "goodput_rps", "p50_ms", "p99_ms", "p999_ms")


def main():
    run.build()
    failures = []
    for w in [w["name"] for w in run.load_spec()["workloads"]]:
        a = run.run_once(w, SEED)
        b = run.run_once(w, SEED)
        same = a["digest"] == b["digest"] and all(
            a["end_to_end"][k] == b["end_to_end"][k] for k in SIM_METRICS)
        print("%-20s seed %d digest %s / %s %s" % (
            w, SEED, a["digest"], b["digest"], "equal" if same else "DIFFER"))
        if not same:
            failures.append("%s: two runs of seed %d differ" % (w, SEED))
        if not (a["ok"] and b["ok"]):
            failures.append("%s: output check failed" % w)
    for w in ("serve-sub-knee", "serve-overload"):
        r = run.run_once(w, HELD_OUT_SEED)
        e = r["end_to_end"]
        print("%-20s held-out seed %d: outputs %s, %d/%d failed, goodput %.1f ops/s, "
              "p50 %.4f ms, p99 %.4f ms, p999 %.4f ms over %d samples, digest %s" % (
                  w, HELD_OUT_SEED, "ok" if r["ok"] else "FAILED", r["failed"],
                  r["attempted"], e["goodput_rps"], e["p50_ms"], e["p99_ms"],
                  e["p999_ms"], r["samples"], r["digest"]))
        if not r["ok"]:
            failures.append("%s: output check failed on seed %d" % (w, HELD_OUT_SEED))
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
