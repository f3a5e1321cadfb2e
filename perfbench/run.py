#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload table2-grid --seed 0 --trace 0

Run it from the repository root. --seconds defaults to BENCHMARK.json's
run_seconds, the run length its bounds were measured at. The build goes
to $CARGO_TARGET_DIR if set, else .bench_build/, as a Release build of
perfbench/CMakeLists.txt. Build output goes to stderr; stdout carries
the benchmark's output, whose last line is the result object.

Besides relaying, this script extends the benchmark's exactness guard
across runs: the exact counters of every run are kept in the build
directory, keyed by workload, seed and a digest of the sources,
and a later run of the same inputs on the same sources must reproduce
them. A difference is reported and the run exits 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORD_PREFIX = "perfbench-record "


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over every file of src/ and perfbench/, paths included."""
    h = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_seconds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError) as e:
        fail("no --seconds given and no run_seconds in %s: %s" % (path, e))


def revision(digest):
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return "git %s; sources sha256 %s" % (sha, digest[:16])


def build(build_dir):
    if not os.path.isfile(os.path.join(SRC, "procoup", "exp", "runner.hh")):
        fail("repository sources not found at %s; run from a full checkout"
             % SRC)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def check_counts(build_dir, args, digest, record):
    """Compare this run's exact counters with an earlier run's."""
    store = os.path.join(build_dir, "perfbench-counts")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-s%d.json" % (args.workload, args.seed))
    now = dict(record["counts"], digest=record["digest"])
    if record.get("paper_err") is not None:
        now["paper_err"] = record["paper_err"]
    before = {}
    if os.path.isfile(path):
        with open(path) as f:
            saved = json.load(f)
        if saved.get("sources") == digest:
            before = saved["counts"]
    diff = sorted(k for k in now.keys() & before.keys()
                  if now[k] != before[k])
    with open(path, "w") as f:
        json.dump({"sources": digest, "counts": {**before, **now}}, f)
    return diff


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    digest = source_digest()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--revision", revision(digest)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "perfbench-trace-%s.json" % args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)

    records = [l for l in lines if l.startswith(RECORD_PREFIX)]
    if proc.returncode == 0 and records:
        record = json.loads(records[-1][len(RECORD_PREFIX):])
        diff = check_counts(build_dir, args, digest, record)
        if diff:
            print("perfbench: EXACTNESS VIOLATION: %s differ from an "
                  "earlier run of the same inputs and sources"
                  % ", ".join(diff), file=sys.stderr)
            result = json.loads(lines[-1])
            result["correct"] = False
            print(json.dumps(result))
            return 1
    if lines:
        print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
