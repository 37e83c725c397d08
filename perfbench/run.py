#!/usr/bin/env python3
"""Build and run the monitor's end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds perfbench.exe
from source with dune (into .bench_build/); every call then runs one
workload and passes its output through: the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero, without that line, when the build fails, a
correctness check fails or the run overruns.

--selftest runs every workload twice with the same seed and a fixed op
count and checks that the counted-work metrics are bit-identical.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["tenant-churn", "revoke-cascade", "fleet-migrate"]
RUN_TIMEOUT_S = 170

# The default seed, and a held-out seed to re-check claims on inputs
# their author did not tune on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# Counted work: deterministic for a given seed and op count.
COUNTED = [
    "hw.sim_cycles_per_op",
    "wire_bytes_per_migration",
    "persist.bytes_per_op",
    "persist.fsyncs_per_op",
    "hw.ept_writes_per_op",
    "hw.pmp_writes_per_op",
    "api.alloc_words_per_op",
]
SELFTEST_OPS = {"tenant-churn": 3000, "revoke-cascade": 6000, "fleet-migrate": 3000}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "--display", "quiet",
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ["dune-project", "dune", "lib", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit_id():
    commit = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            if r.returncode == 0:
                commit = r.stdout.strip()
        except OSError:
            pass
    return "%s+src:%s" % (commit, source_digest())


def run(workload, seed, seconds, trace, ops=None, echo=True):
    """Run one workload; returns the parsed result line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit_id(), "--nproc", str(os.cpu_count()),
           "--trace-out", os.path.join(OUT_DIR, "trace-%s.jsonl" % workload)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if r.returncode != 0:
        fail("%s exited with code %d" % (workload, r.returncode))
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result line" % workload)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        fail("%s printed a malformed or incorrect result" % workload)
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    return result


def selftest():
    bad = []
    for w in WORKLOADS:
        seen = []
        for _ in range(2):
            res = run(w, seed=7, seconds=60, trace=1, ops=SELFTEST_OPS[w], echo=False)
            seen.append({k: res["metrics"][k]["value"] for k in COUNTED})
        for k in COUNTED:
            same = seen[0][k] == seen[1][k]
            print("selftest %-15s %-26s %-22r %s" % (w, k, seen[0][k], "ok" if same else
                                                     "DIFFERS: %r" % seen[1][k]))
            if not same:
                bad.append((w, k))
    if bad:
        fail("counted work differs between two runs with the same seed: %r" % bad)
    print("selftest: counted work is bit-identical across runs")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="default %d; held-out seed %d" % (DEFAULT_SEED, HELDOUT_SEED))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    build()
    if a.selftest:
        selftest()
        return
    if a.workload is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seconds and --trace are required")
    run(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
