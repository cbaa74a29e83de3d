#!/usr/bin/env bash
# Alternating parent/change pairs on the repository benchmark (perfbench).
#
# Usage, from the repository root:
#
#   scripts/ab_pairs.sh <parent-rev> <change-rev> [pairs] [seconds] [seed] [workloads]
#
# Exports the committed files of both revisions into temporary directories
# (`git archive`, so the repository's own checkout and .git stay as they
# are), builds each side's perfbench once into its own target directory,
# then runs `pairs` pairs (default 10) of `perfbench/run.py` on each
# workload (default `paper,serving,fleet`) at `seed` (default 1) for
# `seconds` each (default: BENCHMARK.json's `run_seconds`). Pair i runs the
# parent first when i is even and the change first when i is odd. For
# every workload and end-to-end metric it prints each side's median and
# quartiles, the median of the per-pair change/parent ratios, and the
# pairs the change won (ties count for neither side), then the
# correct/failed verdict of every run. It only reads perfbench/ and
# BENCHMARK.json; the temporary directories go under $TMPDIR and are
# removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 6 ]; then
    sed -n '4,6p' "$0" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
pairs=${3:-10}
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
seed=${5:-1}
workloads=${6:-paper,serving,fleet}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in parent change; do
    rev=${!side}
    mkdir -p "$work/$side/src"
    git archive "$rev" | tar -x -C "$work/$side/src"
    echo "== building $side ($rev) ==" >&2
    CARGO_TARGET_DIR="$work/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/src/perfbench/Cargo.toml"
done

# One benchmark run: appends `<workload> <pair> <side> <json>` to the log;
# a failed run prints the end of its diagnostics and stops the script.
run() {
    local workload=$1 pair=$2 side=$3 json
    json=$(CARGO_TARGET_DIR="$work/$side/target" python3 "$work/$side/src/perfbench/run.py" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$work/stderr") || { tail -5 "$work/stderr" >&2; exit 1; }
    echo "$workload $pair $side $json" >>"$work/log"
    echo "  $workload pair $pair $side done" >&2
}

IFS=, read -ra wls <<<"$workloads"
for workload in "${wls[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run "$workload" "$i" parent
            run "$workload" "$i" change
        else
            run "$workload" "$i" change
            run "$workload" "$i" parent
        fi
    done
done

echo "parent $parent, change $change: $pairs pairs, $seconds s per run, seed $seed"
python3 - "$work/log" <<'EOF'
import json
import statistics
import sys

# name -> whether a lower value is better, in BENCHMARK.json order.
lower = {m["name"]: m["better"] == "lower" for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
runs = {}
verdicts = {}
for line in open(sys.argv[1]):
    workload, pair, side, body = line.split(" ", 3)
    result = json.loads(body)
    runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = result["metrics"]
    v = verdicts.setdefault((workload, side), [0, 0, 0])
    v[0] += result["correct"] is True
    v[1] += result["attempted"]
    v[2] += result["failed"]

# Quartiles q1/median/q3 of each side; `ratio` is the median per-pair
# change/parent ratio, `won` the pairs the change won, `IQR(p)` the
# parent's q3 - q1 and `|dmed|` the distance between the two medians.
print(f"{'workload':<8} {'metric':<13} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
      f"{'ratio':>7} {'won':>6} {'IQR(p)':>9} {'|dmed|':>9}")
for workload, by_pair in runs.items():
    done = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    if len(done) < 2:
        continue
    for name, lower_better in lower.items():
        par = [by_pair[p]["parent"][name]["value"] for p in done]
        chg = [by_pair[p]["change"][name]["value"] for p in done]
        pq = statistics.quantiles(par, n=4, method="inclusive")
        cq = statistics.quantiles(chg, n=4, method="inclusive")
        ratios = [c / p for p, c in zip(par, chg) if p]
        won = sum((c < p) if lower_better else (c > p) for p, c in zip(par, chg))
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:<8} {name:<13} {fmt(pq):>30} {fmt(cq):>30} "
              f"{statistics.median(ratios):>7.3f} {won:>3}/{len(done):<2} "
              f"{pq[2] - pq[0]:>9.4g} {abs(cq[1] - pq[1]):>9.4g}")
for (workload, side), (correct, attempted, failed) in sorted(verdicts.items()):
    print(f"{workload} {side}: {correct} runs correct, {failed} of {attempted} checks failed")
EOF
