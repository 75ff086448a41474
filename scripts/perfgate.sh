#!/usr/bin/env bash
# Performance and output gate on the repository's benchmark (perfbench,
# declared in BENCHMARK.json).  Run it from anywhere in the checkout:
#
#     scripts/perfgate.sh
#
# It runs every workload at seed 1 and exits 1 unless, for each workload:
#   - every run's last line reports "correct": true;
#   - every run prints the workload's simulated-output digest below;
#   - the best scaled apps_per_s over at most RUNS runs is at least 85% of
#     the value below (a throughput drop of more than 15% fails);
#   - the smallest peak_rss_mib over those runs is at most 115% of the value
#     below (the peak_rss_mib bound of BENCHMARK.json).
# The runs go in rounds over the workloads, so one slow stretch of a shared
# host does not fall on every run of one workload.  A workload that meets
# both bounds is not run again: more runs could not change its verdict.
#
# There are no options.  A change that moves a digest or a throughput on
# purpose edits the table; the values were measured on a shared 2-core
# x86_64 Xeon host, at its calm speed.
set -euo pipefail

# workload        simulated-output digest  apps_per_s  peak_rss_mib
readonly TABLE='
service_diurnal   56589237d7154c56         67000       3.52
fleet_faults      ed1b18756d59baf1         63000       3.75
paper_sweep       c55c4c1d5d468d7a         60000       5.38
'
readonly RUNS=4
readonly RUN_SECONDS=2

cd "$(dirname "$0")/.."

declare -A digest apps_ref rss_ref best_apps best_rss met
workloads=()
while read -r workload dig apps rss; do
    [[ -n $workload ]] || continue
    workloads+=("$workload")
    digest[$workload]=$dig
    apps_ref[$workload]=$apps
    rss_ref[$workload]=$rss
done <<<"$TABLE"

max() { awk -v a="$1" -v b="$2" 'BEGIN { print (a > b) ? a : b }'; }
min() { awk -v a="$1" -v b="$2" 'BEGIN { print (a < b) ? a : b }'; }
# meets WORKLOAD: whether its best values so far are within both bounds.
meets() {
    awk -v apps="${best_apps[$1]}" -v floor="${apps_ref[$1]}" \
        -v rss="${best_rss[$1]}" -v ceiling="${rss_ref[$1]}" \
        'BEGIN { exit !(apps >= 0.85 * floor && rss <= 1.15 * ceiling) }'
}

for round in $(seq "$RUNS"); do
    for workload in "${workloads[@]}"; do
        [[ -z ${met[$workload]:-} ]] || continue
        out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds "$RUN_SECONDS" --trace 0)
        # perfbench exits 0 even when one of its checks fails.
        if ! tail -n 1 <<<"$out" | grep -q '"correct": true'; then
            echo "$out"
            echo "::error::perfgate $workload: a perfbench check failed"
            exit 1
        fi
        if ! grep -qx "simulated-output digest: ${digest[$workload]}" <<<"$out"; then
            echo "$out"
            echo "::error::perfgate $workload: digest changed (expected ${digest[$workload]})"
            exit 1
        fi
        apps=$(awk '$1 == "apps_per_s" { print $2 }' <<<"$out")
        rss=$(awk '$1 == "peak_rss_mib" { print $2 }' <<<"$out")
        printf '%-16s run %d/%d: apps_per_s %6.0f, peak_rss_mib %.2f\n' \
            "$workload" "$round" "$RUNS" "$apps" "$rss"
        best_apps[$workload]=$(max "$apps" "${best_apps[$workload]:-$apps}")
        best_rss[$workload]=$(min "$rss" "${best_rss[$workload]:-$rss}")
        if meets "$workload"; then
            met[$workload]=1
        fi
    done
done

status=0
for workload in "${workloads[@]}"; do
    verdict="best apps_per_s ${best_apps[$workload]} (floor 85% of ${apps_ref[$workload]}), \
peak_rss_mib ${best_rss[$workload]} (ceiling 115% of ${rss_ref[$workload]})"
    if [[ -n ${met[$workload]:-} ]]; then
        echo "ok   $workload: $verdict"
    else
        echo "::error::perfgate $workload: $verdict"
        status=1
    fi
done
exit "$status"
