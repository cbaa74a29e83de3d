#!/usr/bin/env bash
# Tier-1 verification in 7 steps:
#  1. release build of the whole workspace;
#  2. the full test suite;
#  3. the lint gates: clippy, and rustdoc with warnings denied (a broken
#     or private intra-doc link fails the build);
#  4. `figures all --check` at its default three seeds on two workers,
#     with stdout byte-compared against figures_output.txt and every CSV
#     against results_csv/. The online invariant sanitizer is armed for
#     every run behind the 39 tables: every figure, the ablations, the
#     fault-injection chaos campaign at three seeds, and the full fleet and
#     serving campaigns with their contract asserts (the degradation
#     margin per fleet cell, requests completed in every serving cell).
#     It checks every vCPU, pCPU, execution window and current task after
#     each event, and sweeps both layers' queue walkers and every task at
#     each accounting pass and at the end of each run;
#  5. a fleet incremental-parity gate (--parity runs the smoke campaign —
#     16-host datacenter with churn and adversarial tenants, contract
#     asserts included — then re-runs it with every occupied host
#     simulated from scratch and asserts bit-identical SLO tables);
#  6. a 1000-host fleet-scale pass with each of its seven CSVs
#     byte-compared against perfbench/reference/fleet1000_*.csv, under
#     `--check-perf`, which enforces the deterministic >=5x
#     incrementality floor;
#  7. `figures perf --check-perf`, which times the ticked and parallel
#     phases, regenerates BENCH_runner.json, and fails the build on a
#     sequential-over-parallel speedup below 0.85 or on a queue-throughput
#     drop below the timer-wheel floor.
# Each step prints its wall time when it ends (`[step 4: 27.9 s]`), and the
# total verification wall-clock is then recorded in BENCH_runner.json's
# `verify_wall_s` field. Resumed-vs-scratch snapshot bit-identity, on the perf
# scenario mix too, is covered by the test suite (crates/core/tests/fork.rs).
#
# Usage: scripts/verify.sh   (from the repository root)
set -euo pipefail
cd "$(dirname "$0")/.."

start=$(date +%s.%N)

step=0
# Announces the next step and starts its clock.
begin() {
    step=$((step + 1))
    echo "== $* =="
    step_start=$(date +%s.%N)
}
# Prints the wall time of the step begun last.
end() {
    echo "$step_start $(date +%s.%N)" | awk -v n="$step" '{printf "[step %d: %.1f s]\n", n, $2 - $1}'
}

begin "cargo build --workspace --release"
cargo build --workspace --release
end

begin "cargo test --workspace -q"
cargo test --workspace -q
end

begin "cargo clippy --workspace --all-targets -- -D warnings; cargo doc --workspace --no-deps"
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
end

begin "figures all --check (every table under the sanitizer, against results_csv/ and figures_output.txt)"
tables=$(mktemp -d)
stdout=$(mktemp)
fleet_tables=$(mktemp -d)
trap 'rm -rf "$tables" "$stdout" "$fleet_tables"' EXIT
./target/release/figures all --check --jobs 2 --csv "$tables" >"$stdout"
cmp "$stdout" figures_output.txt
diff -r "$tables" results_csv
end

begin "figures fleet smoke (incremental parity: elided == full)"
./target/release/figures fleet --smoke --parity --jobs 2 >/dev/null
end

begin "figures fleet scale (1000 hosts; tables + incrementality floor)"
./target/release/figures fleet --hosts 1000 --check-perf --jobs 2 --csv "$fleet_tables" >/dev/null
for t in 0 1 2 3 4 5 accounting; do
    cmp "$fleet_tables/fleet_$t.csv" "perfbench/reference/fleet1000_$t.csv"
done
end

begin "figures perf (regression gate; writes BENCH_runner.json)"
./target/release/figures perf --seeds 1 --jobs 2 --check-perf
end

wall=$(echo "$start $(date +%s.%N)" | awk '{printf "%.3f", $2 - $1}')

# `figures perf` leaves verify_wall_s null for us to fill in.
if [ -f BENCH_runner.json ]; then
    sed -i "s/\"verify_wall_s\": null/\"verify_wall_s\": ${wall}/" BENCH_runner.json
fi

echo "verify OK in ${wall}s"
