#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/main.exe with dune, then
runs rounds of the workload, each in a fresh process with the seed on
its command line, until --seconds have passed (and at least three
rounds).  Every round checks its own outputs; this script also checks
that every round of the seed produced the same output fingerprint.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, from bare
rounds, with times rescaled to a reference host speed (see calibrate).
--trace 1 alternates bare and probed rounds and prints the
per-layer metrics: what a bare round reports comes from the bare
rounds, what needs probes from the probed ones, and trace.overhead_pct
compares the two.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 900
ROUND_TIMEOUT_S = 150
MIN_ROUNDS = 3
# Host speed is measured by timing `main.exe --calibrate`, a fixed
# computation that touches no repository code, in its own process before
# and after every round.  A round's times are rescaled to a host on which
# that computation takes REF_CALIB_NS.
REF_CALIB_NS = 50e6


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_contract():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a repository checkout: %s is missing under %s" % (need, ROOT))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    # no shared dune cache: the build stays inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run_round(workload, seed, traced):
    start_ns = time.monotonic_ns()
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--root", ROOT]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("round timed out: " + " ".join(cmd))
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die("round exited with %d: %s" % (p.returncode, " ".join(cmd)))
    r = json.loads(p.stdout.strip().splitlines()[-1])
    # set-up: process start, module initialisation and input building,
    # up to the first measured call (one monotonic clock on both sides)
    r["setup_s"] = (r["ready_ns"] - start_ns) / 1e9
    r["traced"] = traced
    return r


def calibrate():
    try:
        p = subprocess.run([EXE, "--calibrate"], capture_output=True, text=True,
                           timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("calibration timed out")
    if p.returncode != 0:
        die("calibration exited with %d" % p.returncode)
    return json.loads(p.stdout)["calib_ns"]


def rounds_for(workload, seed, seconds, trace):
    """Bare rounds only (--trace 0), each with the host's slowdown against
    the reference, or alternating bare and probed rounds (--trace 1)."""
    deadline = time.monotonic() + seconds
    bare, probed = [], []
    calib = None if trace else calibrate()
    while True:
        traced = trace and len(probed) < len(bare)
        r = run_round(workload, seed, traced)
        if not trace:
            after = calibrate()
            r["slowdown"] = (calib + after) / 2 / REF_CALIB_NS
            calib = after
        (probed if traced else bare).append(r)
        enough = len(bare) >= MIN_ROUNDS and (not trace or len(probed) >= MIN_ROUNDS)
        if enough and time.monotonic() >= deadline:
            return bare, probed


def median(xs):
    return statistics.median(xs) if xs else 0.0


def unit_rates(rounds):
    return [w * 1e9 / ns for r in rounds for (w, ns) in r["units"]]


def unit_ns(rounds):
    return [ns for r in rounds for (_, ns) in r["units"]]


def end_to_end(bare):
    return {
        "ops_per_s": median([w * 1e9 / ns * r["slowdown"]
                             for r in bare for (w, ns) in r["units"]]),
        "peak_heap_mb": median([r["heap_mb"] for r in bare]),
        "setup_s": median([r["setup_s"] / r["slowdown"] for r in bare]),
    }


def per_layer(names, bare, probed):
    values = {}
    for name in names:
        # a number a bare round can report is taken from the bare rounds
        src = bare if name in bare[0]["layers"] else probed
        values[name] = median([r["layers"].get(name, 0.0) for r in src])
    values["krefine.crash_images_per_s"] = (
        median(unit_rates(bare)) if "krefine.crash_images" in bare[0]["layers"] else 0.0)
    values["klint.lint_ms"] = (
        median(unit_ns(bare)) / 1e6
        if "klint.parse_ms" in probed[0]["layers"] else 0.0)
    if all(r["plain_ns"] > 0 for r in probed):
        # the bare twin ran in the same process: compare pairwise
        ratio = median([r["traced_ns"] / r["plain_ns"] for r in probed])
    else:
        ratio = median([r["traced_ns"] for r in probed]) / median(unit_ns(bare))
    values["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    contract = load_contract()
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        die("unknown workload " + args.workload)
    build()
    bare, probed = rounds_for(args.workload, args.seed, args.seconds, args.trace == 1)

    rounds = bare + probed
    expected = bare[0]["fingerprint"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = 0
    for r in rounds:
        problems = list(r["failures"])
        if r["fingerprint"] != expected:
            problems.append("output fingerprint differs from the first round")
        for p in problems:
            print("CHECK FAILED (%s round): %s" % ("probed" if r["traced"] else "bare", p))
        if problems:
            failed += r["attempted"]

    specs = contract["per_layer"] if args.trace else contract["end_to_end"]
    values = (per_layer([m["name"] for m in specs], bare, probed) if args.trace
              else end_to_end(bare))
    metrics = {}
    for m in specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-28s %16.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print("rounds: %d bare, %d probed" % (len(bare), len(probed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
