#!/bin/sh
# Build, test, and regenerate every paper table/figure and ablation.
# Leaves test_output.txt and bench_output.txt at the repository root.
# Exits non-zero if the build, any test, or any harness fails; both
# output files are written in full either way.
set -e
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

# /bin/sh has no pipefail: a pipeline's status is tee's. Each piped
# step therefore writes its own status to a file, read back below.
STATUS=build/run_all.status

rm -f "$STATUS"
{
    rc=0
    ctest --test-dir build || rc=$?
    echo "$rc" > "$STATUS"
} 2>&1 | tee test_output.txt
tests_rc=$(cat "$STATUS")

# Every harness but fuzz_soak, which runs once, below, as the durable
# soak. fault_degradation exits 1 if the coupled machine amplifies
# injected memory latency worse than STS. A failing harness does not
# stop the loop, so bench_output.txt stays complete.
rm -f "$STATUS"
{
    failed=""
    for b in build/bench/*; do
        [ -f "$b" ] && [ -x "$b" ] || continue
        [ "$(basename "$b")" = fuzz_soak ] && continue
        echo "==================================================="
        echo "== $(basename "$b")"
        echo "==================================================="
        "$b" || failed="$failed $(basename "$b")"
        echo
    done
    echo "$failed" > "$STATUS"
} 2>&1 | tee bench_output.txt
bench_failed=$(cat "$STATUS")

if [ "$tests_rc" != 0 ] || [ -n "$bench_failed" ]; then
    [ "$tests_rc" = 0 ] ||
        echo "run_all.sh: ctest exited $tests_rc (test_output.txt)" >&2
    [ -z "$bench_failed" ] ||
        echo "run_all.sh: failed:$bench_failed (bench_output.txt)" >&2
    exit 1
fi

# Durable soak: the 500-program differential fuzz soak (every
# generated program on both machines x all modes, clean and
# fault-injected) under a write-ahead results journal. A killed run
# of this step resumes from build/soak_journal on the next invocation
# instead of starting over; the journal directory is then validated
# record by record. fuzz_soak exits 1 on any differential mismatch.
JOBS=$(nproc 2>/dev/null || echo 4)
[ "$JOBS" -lt 4 ] && JOBS=4
if ! PROCOUP_FUZZ_PROGRAMS=500 build/bench/fuzz_soak --jobs "$JOBS" \
        --journal build/soak_journal > build/soak_journal.out; then
    echo "run_all.sh: fuzz_soak failed (build/soak_journal.out)" >&2
    exit 1
fi
python3 scripts/check_stats_schema.py --journal-dir build/soak_journal
