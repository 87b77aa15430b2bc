#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and checks that the
# end-to-end metrics are steady: per metric, the spread between quartiles as
# a share of the median, against the bound in BENCHMARK.json.
#
# usage (from the repository root):
#   perfbench/prove.sh [runs] [workload ...]
# FIRST_SEED (default 1) sets the first seed; result lines go to
# .perfbench-out/runs/<workload>.jsonl. Compare two saved sets with
#   cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
#       compare BENCHMARK.json <workload> <first.jsonl> <second.jsonl>
set -euo pipefail

runs=${1:-10}
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(tpch-embedded adhoc-compile serve-mix)
fi
first=${FIRST_SEED:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
bench=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)
out=.perfbench-out/runs
mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

status=0
for workload in "${workloads[@]}"; do
    file="$out/$workload.jsonl"
    : > "$file"
    for seed in $(seq "$first" $((first + runs - 1))); do
        "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >> "$file"
    done
    "${bench[@]}" compare BENCHMARK.json "$workload" "$file" || status=1
done
exit "$status"
