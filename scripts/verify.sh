#!/usr/bin/env bash
# Tier-1 verification in 13 steps:
#  1. release build of the whole workspace;
#  2. the full test suite;
#  3. the clippy lint gate;
#  4. a checked strategy sweep (online invariant sanitizer armed);
#  5. `figures all` at its default three seeds on two workers, with stdout
#     byte-compared against figures_output.txt and every CSV against
#     results_csv/ (it also logs the full fleet and serving history
#     records);
#  6. a checked fault-injection chaos smoke;
#  7. a fleet-campaign smoke (16-host datacenter with churn and
#     adversarial tenants; sanitizer armed, degradation contract per cell);
#  8. the same fleet smoke recording and ratcheting its events/sec;
#  9. a fleet incremental-parity gate (--parity re-runs the smoke campaign
#     with every occupied host simulated from scratch and asserts
#     bit-identical SLO tables);
# 10. a 1000-host fleet-scale pass (ratchets *effective* events/sec —
#     logical volume per wall second — and enforces the deterministic >=5x
#     incrementality floor);
# 11. a serving-campaign smoke (open-loop latency-SLO service under
#     interference; sanitizer armed, asserts every cell completed requests);
# 12. the same serving smoke recording and ratcheting its events/sec;
# 13. `figures perf --check-perf`, which times the ticked and parallel
#     phases, regenerates BENCH_runner.json, and fails the build on a
#     sequential-over-parallel speedup below 0.85, on a queue-throughput
#     drop below the timer-wheel floor, or on any of its ticked / parallel
#     / queue records falling past the ratchet tolerance of its best
#     matching BENCH_history.jsonl record.
# The total verification wall-clock is then recorded in BENCH_runner.json's
# `verify_wall_s` field. Resumed-vs-scratch snapshot bit-identity, on the perf
# scenario mix too, is covered by the test suite (crates/core/tests/fork.rs).
#
# Usage: scripts/verify.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

start=$(date +%s.%N)

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== figures checked sweep (invariant sanitizer, all strategies) =="
./target/release/figures core --quick --check --jobs 2 >/dev/null

echo "== figures all (every table against results_csv/ and figures_output.txt) =="
tables=$(mktemp -d)
stdout=$(mktemp)
trap 'rm -rf "$tables" "$stdout"' EXIT
./target/release/figures all --jobs 2 --csv "$tables" >"$stdout"
cmp "$stdout" figures_output.txt
diff -r "$tables" results_csv

echo "== figures chaos (fault-injection campaign, sanitizer armed) =="
./target/release/figures chaos --quick --check --jobs 2 >/dev/null

echo "== figures fleet smoke (sanitizer armed, degradation contract) =="
./target/release/figures fleet --smoke --check --jobs 2 >/dev/null

echo "== figures fleet smoke (perf record + events/sec ratchet) =="
./target/release/figures fleet --smoke --check-perf --jobs 2 >/dev/null

echo "== figures fleet smoke (incremental parity: elided == full) =="
./target/release/figures fleet --smoke --parity --jobs 2 >/dev/null

echo "== figures fleet scale (1000 hosts; effective events/sec ratchet) =="
./target/release/figures fleet --hosts 1000 --check-perf --jobs 2 >/dev/null

echo "== figures serving smoke (sanitizer armed, cell contracts) =="
./target/release/figures serving --smoke --check --jobs 2 >/dev/null

echo "== figures serving smoke (perf record + events/sec ratchet) =="
./target/release/figures serving --smoke --check-perf --jobs 2 >/dev/null

echo "== figures perf (regression gate; writes BENCH_runner.json) =="
./target/release/figures perf --quick --jobs 2 --check-perf

wall=$(echo "$start $(date +%s.%N)" | awk '{printf "%.3f", $2 - $1}')

# `figures perf` leaves verify_wall_s null for us to fill in.
if [ -f BENCH_runner.json ]; then
    sed -i "s/\"verify_wall_s\": null/\"verify_wall_s\": ${wall}/" BENCH_runner.json
fi

echo "verify OK in ${wall}s"
