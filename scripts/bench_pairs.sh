#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the
# choosing-metrics §8 procedure every perf PR otherwise types by hand.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SECONDS=8] [SEED=1]
#
# An empty optional argument takes its default (`make bench-pairs` passes
# the ones its caller left unset that way).
#
# PARENT_BIN and CHANGE_BIN are `psync-benchmark` executables built from
# the two commits (see .claude/skills/verify/SKILL.md). Pair i runs
# `--workload W --seed S --seconds T --trace 0` on both, the parent first
# on odd pairs and the change first on even ones. Prints per pair
# events_per_s / peak_rss_mb / setup_s, each side's median and quartiles,
# and how many pairs the change won (higher events_per_s, lower
# peak_rss_mb / setup_s; ties count for neither side).
#
# Then a verdict per metric against the repo's BENCHMARK.json: the change's
# median is `within bound` or `OVER BOUND` of the parent's by that metric's
# `end_to_end[].bound` (a fraction). For events_per_s it also says whether
# the choosing-metrics §8 gain rule holds: the change wins at least 9/10 of
# the pairs and the medians differ by more than the parent's IQR. The
# verdict is printed only; it does not change the exit code.
#
# Exits 1 if any run fails or the two binaries print different `exact`
# lines (the execution changed), 2 on a usage error.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SECONDS=8] [SEED=1]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=${4:-10} seconds=${5:-8} seed=${6:-1}
for bin in "$parent" "$change"; do
    if [ ! -x "$bin" ]; then
        echo "not an executable: $bin" >&2
        exit 2
    fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # side binary pair
    if ! "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$out/$1.$3" 2>"$out/$1.$3.err"; then
        echo "$1 run of pair $3 failed:" >&2
        cat "$out/$1.$3.err" >&2
        exit 1
    fi
}

metric() { # file name
    awk -v name="$2" '$1 == "metric" && $2 == name { print $3 }' "$1"
}

echo "workload $workload, seed $seed, $seconds s per run, $pairs pairs"
printf '%-5s %-7s %14s %14s %8s %10s %10s %10s %10s\n' pair first \
    parent_ev/s change_ev/s ratio p_rss_mb c_rss_mb p_setup_s c_setup_s
exact_differs=0
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        first=parent
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        first=change
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
    if ! diff <(grep '^exact ' "$out/parent.$pair") <(grep '^exact ' "$out/change.$pair") >&2; then
        echo "pair $pair: the two binaries' exact lines differ (above: < parent, > change)" >&2
        exact_differs=1
    fi
    for side in parent change; do
        for m in events_per_s peak_rss_mb setup_s; do
            metric "$out/$side.$pair" "$m" >>"$out/$side.$m"
        done
    done
    pe=$(metric "$out/parent.$pair" events_per_s)
    ce=$(metric "$out/change.$pair" events_per_s)
    awk -v pair="$pair" -v first="$first" -v pe="$pe" -v ce="$ce" \
        -v pr="$(metric "$out/parent.$pair" peak_rss_mb)" \
        -v cr="$(metric "$out/change.$pair" peak_rss_mb)" \
        -v ps="$(metric "$out/parent.$pair" setup_s)" \
        -v cs="$(metric "$out/change.$pair" setup_s)" \
        'BEGIN { printf "%-5s %-7s %14.0f %14.0f %8.3f %10.2f %10.2f %10.4f %10.4f\n",
                        pair, first, pe, ce, ce / pe, pr, cr, ps, cs }'
done

# Median and quartiles by linear interpolation between order statistics,
# as three numbers: median q1 q3.
quartiles() { # file
    sort -g "$1" | awk '{ v[NR] = $1 }
        function q(p,  h, i) { h = 1 + (NR - 1) * p; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { v[NR + 1] = v[NR]; printf "%.6g %.6g %.6g", q(0.5), q(0.25), q(0.75) }'
}

stats() { # file
    quartiles "$1" | awk '{ printf "median %s  q1 %s  q3 %s", $1, $2, $3 }'
}

wins() { # metric better
    paste "$out/parent.$1" "$out/change.$1" | awk -v better="$2" '
        { if (better == "higher" ? $2 > $1 : $2 < $1) w++; else if ($2 != $1) l++ }
        END { printf "%d %d %d", w, NR, l }'
}

# A metric's `bound` from the `end_to_end` list of BENCHMARK.json (one
# object per line there), or nothing.
bench_json=$(dirname "$0")/../BENCHMARK.json
bound() { # metric
    [ -r "$bench_json" ] || return 0
    awk -v m="$1" '/"end_to_end"/ { on = 1 } on && /^[[:space:]]*\]/ { on = 0 }
        on && $0 ~ "\"name\": *\"" m "\"" && match($0, /"bound": *[0-9.eE+-]+/) {
            s = substr($0, RSTART, RLENGTH); sub(/.*: */, "", s); print s }' "$bench_json"
}

echo
for m in events_per_s:higher peak_rss_mb:lower setup_s:lower; do
    name=${m%%:*} better=${m##*:}
    read -r pmed pq1 pq3 <<<"$(quartiles "$out/parent.$name")"
    read -r cmed _ _ <<<"$(quartiles "$out/change.$name")"
    read -r won total lost <<<"$(wins "$name" "$better")"
    echo "$name ($better is better)"
    echo "  parent: $(stats "$out/parent.$name")"
    echo "  change: $(stats "$out/change.$name")"
    echo "  change wins $won/$total pairs (loses $lost)"
    b=$(bound "$name")
    if [ -z "$b" ]; then
        echo "  verdict: no bound for $name in $bench_json"
    else
        awk -v p="$pmed" -v c="$cmed" -v b="$b" -v better="$better" 'BEGIN {
            over = (better == "higher" ? p - c : c - p) / p > b
            printf "  verdict: change median %+.1f %% vs parent, bound %g %%: %s\n",
                100 * (c - p) / p, 100 * b, over ? "OVER BOUND" : "within bound" }'
    fi
    if [ "$name" = events_per_s ]; then
        awk -v w="$won" -v n="$total" -v p="$pmed" -v c="$cmed" -v q1="$pq1" -v q3="$pq3" 'BEGIN {
            ok = 10 * w >= 9 * n && c - p > q3 - q1
            printf "  gain rule (>= 9/10 wins, median gap > parent IQR): wins %d/%d, gap %.6g, IQR %.6g: %s\n",
                w, n, c - p, q3 - q1, ok ? "holds" : "does not hold" }'
    fi
done

if [ "$exact_differs" -ne 0 ]; then
    echo "FAIL: exact lines differ between the two binaries" >&2
    exit 1
fi
echo "exact lines equal on all $pairs pairs:"
grep '^exact ' "$out/parent.1" | sed 's/^/  /'
