#!/usr/bin/env bash
# Chaos end-to-end smoke test: run a supervised ensemble with a seeded fault
# plan that panics one replica mid-stream, require the run to complete with a
# *degraded* K-1 report, then resume the directory and require the rejoined
# ensemble to reproduce a never-failed reference estimate bit for bit.
#
# The same faulted run without --checkpoint-dir, fanned out over two threads,
# must print the same estimate, health and quarantine lines: both drivers
# contain replica faults through one replica set.
#
# This is the out-of-process complement to tests/fault_tolerance.rs — the
# in-process suite asserts per-replica state bytes, while this script drives
# the real CLI surface: the --fault-plan grammar, the degraded health report
# lines, and the supervised `abacus resume` rejoin path.
#
# Usage: scripts/chaos_smoke.sh [fault-element-index]
#   The fault index defaults to a random element in [500, 10500); pass a
#   fixed index to reproduce a specific quarantine point.

set -euo pipefail

cd "$(dirname "$0")/.."

ABACUS=target/release/abacus
if [[ ! -x "$ABACUS" ]]; then
    echo "building release CLI..."
    cargo build --release -p abacus-cli
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/abacus-chaos-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
STREAM="$WORK/stream.txt"
REF_DIR="$WORK/reference-ckpt"
FAULT_DIR="$WORK/faulted-ckpt"
FAULT_AT=${1:-$((RANDOM % 10000 + 500))}

echo "== generate workload"
"$ABACUS" generate --dataset movielens --alpha 0.2 --output "$STREAM"

run_args=(run --input "$STREAM" --budget 2000 --seed 7
          --ensemble 3 --checkpoint-every 5000)

echo "== supervised reference run (no faults)"
"$ABACUS" "${run_args[@]}" --checkpoint-dir "$REF_DIR" | tee "$WORK/reference.txt"
if grep -q '^health:' "$WORK/reference.txt"; then
    echo "FAIL: the fault-free reference reported degraded health"
    exit 1
fi

echo "== supervised run with replica 1 panicking at element $FAULT_AT"
"$ABACUS" "${run_args[@]}" --checkpoint-dir "$FAULT_DIR" \
    --fault-plan "panic:replica=1@$FAULT_AT" | tee "$WORK/degraded.txt"

echo "== assert degraded serving"
grep -q '^health:.*2/3 replicas healthy (degraded)' "$WORK/degraded.txt" || {
    echo "FAIL: the faulted run did not report degraded 2/3 serving"
    exit 1
}
grep -q "^quarantine:.*replica 1 quarantined at element $FAULT_AT" "$WORK/degraded.txt" || {
    echo "FAIL: the quarantine record does not name replica 1 at element $FAULT_AT"
    exit 1
}

echo "== the same faulted run in memory (no --checkpoint-dir) at --threads 2"
"$ABACUS" run --input "$STREAM" --budget 2000 --seed 7 --ensemble 3 --threads 2 \
    --fault-plan "panic:replica=1@$FAULT_AT" | tee "$WORK/in-memory.txt"
for field in estimate health quarantine; do
    supervised=$(grep "^$field:" "$WORK/degraded.txt" || true)
    in_memory=$(grep "^$field:" "$WORK/in-memory.txt" || true)
    if [[ "$supervised" != "$in_memory" ]]; then
        echo "FAIL: the in-memory ensemble's $field line diverged from the supervised run's"
        echo "supervised: $supervised"
        echo "in memory:  $in_memory"
        exit 1
    fi
done

echo "== resume: rejoin the quarantined replica via snapshot + WAL catch-up"
"$ABACUS" resume --checkpoint-dir "$FAULT_DIR" --input "$STREAM" | tee "$WORK/rejoined.txt"
if grep -q '^health:' "$WORK/rejoined.txt"; then
    echo "FAIL: the rejoined ensemble still reports degraded health"
    exit 1
fi
grep -q '^replica 1 resume:' "$WORK/rejoined.txt" || {
    echo "FAIL: the resume report does not show replica 1 being rebuilt"
    exit 1
}

echo "== compare"
ref_estimate=$(grep '^estimate:' "$WORK/reference.txt")
rej_estimate=$(grep '^estimate:' "$WORK/rejoined.txt")
echo "reference: $ref_estimate"
echo "rejoined:  $rej_estimate"
if [[ "$ref_estimate" != "$rej_estimate" ]]; then
    echo "FAIL: rejoined estimate diverged from the never-failed reference"
    diff "$WORK/reference.txt" "$WORK/rejoined.txt" || true
    exit 1
fi

ref_committed=$(grep '^committed:' "$WORK/reference.txt")
rej_committed=$(grep '^committed:' "$WORK/rejoined.txt")
if [[ "$ref_committed" != "$rej_committed" ]]; then
    echo "FAIL: committed watermark diverged ($rej_committed vs $ref_committed)"
    exit 1
fi

echo "PASS: replica 1 panicked at element $FAULT_AT, served degraded, rejoined bit-identically"
