#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Run it from the repository root. It runs every workload of
BENCHMARK.json untraced and traced, twice each, through run.py with
one-second runs (each still makes at least two full-size passes), and
checks that:

  - the last line is the result object with exactly its four keys, and
    every metric BENCHMARK.json names prints with its unit;
  - every point passed (pass_ratio is 1, nothing failed);
  - table2-grid simulates exactly 290658 cycles;
  - two invocations agree exactly on every count, and the traced run's
    counts equal the untraced run's.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD_PREFIX = "perfbench-record "
TABLE2_CYCLES = 290658

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what, file=sys.stderr)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    tag = "%s --trace %d" % (workload, trace)
    check(proc.returncode == 0, "%s exited %d" % (tag, proc.returncode))
    if not lines:
        check(False, tag + " printed nothing")
        return None, None
    result = json.loads(lines[-1])
    records = [l for l in lines if l.startswith(RECORD_PREFIX)]
    check(len(records) == 1, tag + " printed one record line")
    record = json.loads(records[-1][len(RECORD_PREFIX):]) if records else {}
    return result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counts = {}
    for w in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            tag = "%s --trace %d" % (w, trace)
            seen = []
            for _ in range(2):
                result, record = run(w, trace)
                if result is None:
                    continue
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"},
                      tag + " result keys")
                check(result["correct"] is True, tag + " correct")
                check(result["failed"] == 0 and result["attempted"] >= 1,
                      tag + " attempted/failed")
                metrics = result["metrics"]
                for m in declared:
                    got = metrics.get(m["name"])
                    check(got is not None and got["unit"] == m["unit"]
                          and isinstance(got["value"], (int, float)),
                          "%s prints %s in %s" % (tag, m["name"],
                                                  m["unit"]))
                check(len(metrics) == len(declared),
                      tag + " prints only the declared metrics")
                if trace == 0:
                    check(metrics["pass_ratio"]["value"] == 1,
                          tag + " pass_ratio is 1")
                    if w == "table2-grid":
                        check(metrics["sim_cycles"]["value"] ==
                              TABLE2_CYCLES,
                              "table2-grid sim_cycles is %d" % TABLE2_CYCLES)
                exact = dict(record["counts"], digest=record["digest"],
                             paper_err=record["paper_err"])
                seen.append(exact)
            check(len(seen) == 2 and seen[0] == seen[1],
                  tag + ": two invocations agree on every count")
            if seen:
                counts[(w, trace)] = seen[0]
        untraced, traced = counts.get((w, 0)), counts.get((w, 1))
        if untraced and traced:
            shared = untraced.keys() & traced.keys()
            check(all(untraced[k] == traced[k] for k in shared),
                  w + ": traced and untraced counts agree")
    print("selftest: %s" % ("ok" if not failures else
                            "%d check(s) failed" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
