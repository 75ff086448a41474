#!/usr/bin/env bash
# Paired performance and output gate on the repository's benchmark
# (perfbench, declared in BENCHMARK.json).  Run it from anywhere in the
# checkout:
#
#     scripts/perfgate.sh [BASE]
#
# It builds perfbench twice: from the checkout as it stands (the change) and
# from the merge-base of HEAD and BASE (the parent).  BASE defaults to HEAD~1,
# so a clean checkout compares its last commit with the one before; pass HEAD
# to compare uncommitted changes with their commit, or the target branch
# (origin/main) to compare a branch with where it forked.  The parent's files
# are exported with `git archive` into target/perfgate/<commit>/src and built
# with their own target directory beside it, so the gate writes nothing under
# .git, an interrupted gate leaves no worktree registered, and a rerun on the
# same parent reuses its build.
#
# Then it runs PAIRS parent/change pairs of every workload at seed 1, back to
# back, alternating which side runs first, in rounds over the workloads (so a
# slow stretch of a shared host falls on both sides of a pair, and not on every
# pair of one workload).  It exits 1 unless, for each workload:
#   - every change run's last line reports "correct": true;
#   - every change run prints the workload's simulated-output digest below;
#   - the median over the pairs of the change's apps_per_s over the parent's
#     is at least MIN_APPS_RATIO (a throughput drop of more than 10% fails);
#   - the median over the pairs of the change's peak_rss_mib over the
#     parent's is at most MAX_RSS_RATIO (the peak_rss_mib bound of
#     BENCHMARK.json).
# A workload outside either bound runs PAIRS more pairs, and the verdict is
# taken over all of its pairs: a slow stretch that lands inside a few pairs
# moves one side only, and a second round outvotes it, while a real
# regression stays below the floor in every round.  So does a workload whose
# apps_per_s median is inside the floor but below CONFIRM_APPS_RATIO: five
# pairs cannot tell a 10% loss from noise (a calibrated 11% loss read 0.92
# over five pairs and 0.885 over ten), so a median that close to the floor
# is judged over all of its pairs against the same floor.  Pairing cancels the
# host's speed, which on a shared host moves from hour to hour by more than
# any bound worth gating on, so no absolute throughput is kept here.
#
# Before the runs it prints the machine-code size of SharingSimulator::step in
# both binaries (from `nm`; "unknown" when nm or the symbol is missing), and
# every SharingSimulator:: function whose size differs between them or that
# exists in only one (a function the compiler outlined from step, or inlined
# into it).  What the compiler inlines into step moves throughput by several
# percent, so the sizes are worth a look in every log; they never fail the
# gate.
#
# There are no other options.  A change that moves a digest on purpose edits
# the table.
set -euo pipefail

# workload        simulated-output digest
readonly TABLE='
service_diurnal   56589237d7154c56
fleet_faults      ed1b18756d59baf1
paper_sweep       c55c4c1d5d468d7a
'
readonly PAIRS=5
readonly RUN_SECONDS=2
readonly MIN_APPS_RATIO=0.90
readonly CONFIRM_APPS_RATIO=0.95
readonly MAX_RSS_RATIO=1.15

cd "$(dirname "$0")/.."

base=$(git merge-base HEAD "${1:-HEAD~1}")
parent_dir=target/perfgate/$base
parent_bin=$parent_dir/target/release/perfbench
change_bin=perfbench/target/release/perfbench

if [[ ! -d $parent_dir/src ]]; then
    mkdir -p "$parent_dir/src.tmp"
    git archive "$base" | tar -x -C "$parent_dir/src.tmp"
    mv "$parent_dir/src.tmp" "$parent_dir/src"
fi
echo "parent: $base"
CARGO_TARGET_DIR=$parent_dir/target cargo build --release --offline --quiet \
    --manifest-path "$parent_dir/src/perfbench/Cargo.toml"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

# step_size BINARY: the size in bytes (hex) of SharingSimulator::step's code.
step_size() {
    local size
    # awk reads all of nm's output: exiting early would fail nm on SIGPIPE.
    size=$(nm -C -S "$1" 2>/dev/null | awk '$4 == "versaslot_core::engine::SharingSimulator::step" && !size {
        size = $2; sub(/^0+/, "", size)
    } END { if (size) print "0x" size }') || size=
    echo "${size:-unknown}"
}
echo "SharingSimulator::step code size: parent $(step_size "$parent_bin"), change $(step_size "$change_bin")"

# engine_sizes BINARY: one "name<TAB>sizes" line per SharingSimulator::
# function, sorted by name, with the sizes (hex) of its copies joined by
# commas in ascending order.
engine_sizes() {
    nm -C -S "$1" 2>/dev/null | awk '$3 ~ /^[tTwW]$/ && index($0, "SharingSimulator::") {
        name = $0; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", name)
        size = $2; sub(/^0+/, "", size)
        print name "\t" length(size) "\t0x" size
    }' | LC_ALL=C sort -t $'\t' -k1,1 -k2,2n -k3,3 | awk -F '\t' '
        $1 != name { if (name != "") print name "\t" sizes; name = $1; sizes = $3; next }
        { sizes = sizes "," $3 }
        END { if (name != "") print name "\t" sizes }'
}
echo "SharingSimulator:: functions whose code size differs (parent -> change):"
LC_ALL=C join -t $'\t' -a 1 -a 2 -e absent -o 0,1.2,2.2 \
    <(engine_sizes "$parent_bin") <(engine_sizes "$change_bin") |
    awk -F '\t' '$2 != $3 { printf "  %s: %s -> %s\n", $1, $2, $3; n++ } END { if (!n) print "  none" }' || true

declare -A digest apps_ratios rss_ratios
workloads=()
while read -r workload dig; do
    [[ -n $workload ]] || continue
    workloads+=("$workload")
    digest[$workload]=$dig
done <<<"$TABLE"

# bench BINARY WORKLOAD: one perfbench run's full output.
bench() {
    "$1" --workload "$2" --seed 1 --seconds "$RUN_SECONDS" --trace 0
}
metric() { awk -v name="$1" '$1 == name { print $2 }'; }
ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.4f", a / b }'; }
median() { tr ' ' '\n' | sort -g | awk 'NF { v[++n] = $1 } END { print (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }'; }

# below_confirm WORKLOAD: whether its apps_per_s median is below
# CONFIRM_APPS_RATIO, so its verdict needs the second round.
below_confirm() {
    awk -v apps="$(median <<<"${apps_ratios[$1]}")" -v confirm="$CONFIRM_APPS_RATIO" \
        'BEGIN { exit !(apps < confirm) }'
}

# run_pairs WORKLOAD...: PAIRS more pairs of each workload, in rounds.
run_pairs() {
    local pair workload parent_out change_out pa ca pr cr
    for pair in $(seq "$PAIRS"); do
        for workload in "$@"; do
            if ((pair % 2)); then
                parent_out=$(bench "$parent_bin" "$workload")
                change_out=$(bench "$change_bin" "$workload")
            else
                change_out=$(bench "$change_bin" "$workload")
                parent_out=$(bench "$parent_bin" "$workload")
            fi
            # perfbench exits 0 even when one of its checks fails.
            if ! tail -n 1 <<<"$change_out" | grep -q '"correct": true'; then
                echo "$change_out"
                echo "::error::perfgate $workload: a perfbench check failed"
                exit 1
            fi
            if ! grep -qx "simulated-output digest: ${digest[$workload]}" <<<"$change_out"; then
                echo "$change_out"
                echo "::error::perfgate $workload: digest changed (expected ${digest[$workload]})"
                exit 1
            fi
            pa=$(metric apps_per_s <<<"$parent_out")
            ca=$(metric apps_per_s <<<"$change_out")
            pr=$(metric peak_rss_mib <<<"$parent_out")
            cr=$(metric peak_rss_mib <<<"$change_out")
            printf '%-16s pair: apps_per_s parent %6.0f change %6.0f (%s), peak_rss_mib parent %.2f change %.2f (%s)\n' \
                "$workload" "$pa" "$ca" "$(ratio "$ca" "$pa")" "$pr" "$cr" "$(ratio "$cr" "$pr")"
            apps_ratios[$workload]+=" $(ratio "$ca" "$pa")"
            rss_ratios[$workload]+=" $(ratio "$cr" "$pr")"
        done
    done
}

# verdict WORKLOAD: prints the medians and bounds; fails outside a bound.
verdict() {
    local apps rss
    apps=$(median <<<"${apps_ratios[$1]}")
    rss=$(median <<<"${rss_ratios[$1]}")
    awk -v apps="$apps" -v rss="$rss" -v min="$MIN_APPS_RATIO" -v max="$MAX_RSS_RATIO" \
        -v pairs="$(wc -w <<<"${apps_ratios[$1]}")" 'BEGIN {
        printf "over %d pairs, median apps_per_s ratio %.3f (floor %.2f), ", pairs, apps, min
        printf "median peak_rss_mib ratio %.3f (ceiling %.2f)", rss, max
        exit !(apps >= min && rss <= max)
    }'
}

run_pairs "${workloads[@]}"
retry=()
for workload in "${workloads[@]}"; do
    if ! verdict "$workload" >/dev/null || below_confirm "$workload"; then
        retry+=("$workload")
    fi
done
if ((${#retry[@]})); then
    echo "outside a bound or below $CONFIRM_APPS_RATIO after $PAIRS pairs, running $PAIRS more: ${retry[*]}"
    run_pairs "${retry[@]}"
fi

status=0
for workload in "${workloads[@]}"; do
    if line=$(verdict "$workload"); then
        echo "ok   $workload: $line"
    else
        echo "::error::perfgate $workload: $line"
        status=1
    fi
done
exit "$status"
