#!/usr/bin/env python3
"""Build the gsuite benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N ...]   # every workload
    python3 perfbench/run.py --record [--seed N]   # rewrite expected/ records
    python3 perfbench/run.py --selftest            # the benchmark's own tests

Run from the repository root. The build (library + benchmark binary) lives in
.bench_build/perfbench; result files with provenance are written to
.bench_build/results. The last line of standard output is the JSON
result object. See perfbench/README.md for workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results")
EXPECTED = os.path.join(HERE, "expected")
BINARY = os.path.join(BUILD, "gsuite_perfbench")
# A run must end within 180 s; leave room for start-up and the build
# check.
RUN_LIMIT_S = 170
DEFAULT_SEED = 7


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build(targets):
    """Configure once, then build @targets (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "suite", "BenchSession.cpp")):
        fail("gsuite sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed", 1)
        cmd = ["cmake", "--build", BUILD, "-j", str(nproc()), "--target"] + targets
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed", 1)


def git_sha():
    """HEAD of the repository this checkout is, or 'unavailable'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unavailable"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src", "perfbench"],
                               capture_output=True, text=True, timeout=10).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def source_digest():
    """sha256 over the library and benchmark sources, path and content."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py", ".tsv")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(args, limit=RUN_LIMIT_S):
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        fail("gsuite_perfbench exceeded %d s" % limit, 1)
    return proc


def check_result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return False
    return (isinstance(res, dict) and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["attempted"], int) and res["attempted"] >= 1)


def selftest():
    build(["gsuite_perfbench", "perfbench_test"])
    if subprocess.run([os.path.join(BUILD, "perfbench_test")], cwd=BUILD).returncode != 0:
        fail("perfbench_test failed", 1)
    listing = run_binary(["--list"]).stdout.splitlines()
    rows = [line.split("\t") for line in listing]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        have = [tuple(r[1:4]) for r in rows if r[0] == key]
        if want != have:
            print("BENCHMARK.json %s differs from gsuite_perfbench --list" % key, file=sys.stderr)
            ok = False
    if [w["name"] for w in bench["workloads"]] != [r[1] for r in rows if r[0] == "workload"]:
        print("BENCHMARK.json workloads differ from gsuite_perfbench --list", file=sys.stderr)
        ok = False
    if not ok:
        fail("selftest failed", 1)
    print("selftest passed")


def workload_names():
    return [r.split("\t")[1] for r in run_binary(["--list"]).stdout.splitlines()
            if r.startswith("workload\t")]


def record(seed):
    build(["gsuite_perfbench"])
    os.makedirs(RESULTS, exist_ok=True)
    for name in workload_names():
        path = os.path.join(EXPECTED, "%s.seed%d.tsv" % (name, seed))
        proc = run_binary(["--workload", name, "--seed", str(seed), "--record", path,
                           "--out", RESULTS], limit=1800)
        if proc.returncode != 0:
            fail("recording %s failed" % name, 1)
        print(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected/<workload>.seed<SEED>.tsv for every workload")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be >= 0")
    if a.selftest:
        return selftest()
    if a.record:
        return record(a.seed)
    if not a.workload:
        fail("--workload is required")

    build(["gsuite_perfbench"])
    os.makedirs(RESULTS, exist_ok=True)
    names = workload_names() if a.workload == "all" else [a.workload]
    incorrect = []
    for name in names:
        proc = run_binary(["--workload", name, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", str(a.trace),
                           "--out", RESULTS, "--expected-dir", EXPECTED,
                           "--git-sha", git_sha(), "--source-digest", source_digest()])
        if proc.returncode != 0 or not check_result_line(proc.stdout):
            sys.stderr.write(proc.stdout)
            fail("gsuite_perfbench failed on %s (exit %d)" % (name, proc.returncode), 1)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
            incorrect.append(name)
    if len(names) > 1 and incorrect:
        fail("incorrect outputs on " + ", ".join(incorrect), 1)


if __name__ == "__main__":
    main()
