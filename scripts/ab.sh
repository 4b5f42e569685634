#!/usr/bin/env bash
# A/B in alternating pairs: a parent revision against the working tree.
#
#   scripts/ab.sh REV PAIRS probe CALLS ROW...
#       examples/layer_probe.rs with CALLS calls a row; one metric per ROW
#       (an extended regex): the minimum, in µs, of the first row of the
#       probe's output it matches, e.g. 'fill_normal .*avx512f' or
#       '^forecast_step'. Each side runs its own probe; a row a side does
#       not print reads "-".
#   scripts/ab.sh REV PAIRS bench WORKLOAD SEED SECONDS METRIC...
#       benchmark/run.sh --workload WORKLOAD --seed SEED --seconds SECONDS
#       --trace 0; one metric per METRIC of its result line (e.g.
#       latency_p50_ms), plus `attempted` and the run's
#       host_slowdown_in_window.
#
# Each side is built from its own copy, at equal-length paths
# ($TMPDIR/ab-a for REV, $TMPDIR/ab-b for the working tree's tracked and
# untracked, unignored files), so that neither path length nor build
# directory tells the sides apart. Pair i runs the parent first when i is
# odd and the change first when it is even. Prints every pair, then per
# metric: both medians, the pairs in which the change read lower, and the
# parent's interquartile range. The copies keep their `target/` between
# runs; delete $TMPDIR/ab-a and $TMPDIR/ab-b when done.
set -euo pipefail
[ $# -ge 5 ] || { sed -n '2,/^set /p' "$0" | sed '$d'; exit 2; }
rev=$1 pairs=$2 mode=$3
shift 3
case $mode in
    probe) calls=$1; shift ;;
    bench) workload=$1 seed=$2 seconds=$3; shift 3 ;;
    *) echo "mode is probe or bench, not $mode" >&2; exit 2 ;;
esac
metrics=("$@")
[ "$mode" = bench ] && metrics+=(attempted host_slowdown_in_window)
repo=$(git rev-parse --show-toplevel)
a=${TMPDIR:-/tmp}/ab-a b=${TMPDIR:-/tmp}/ab-b

# Fresh sources, kept builds.
for d in "$a" "$b"; do
    mkdir -p "$d"
    find "$d" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
done
git -C "$repo" archive "$rev" | tar -x -C "$a"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard | tar --null --ignore-failed-read -T - -c 2>/dev/null) | tar -x -C "$b"
for d in "$a" "$b"; do
    if [ "$mode" = probe ]; then
        (cd "$d" && CARGO_TARGET_DIR="$d/target" cargo build --release --offline --quiet --example layer_probe)
    else
        (cd "$d" && CARGO_TARGET_DIR="$d/target" cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    fi
done

# One run of side `$1`: one value a metric, tab-separated.
run() {
    local d=$1 out m
    if [ "$mode" = probe ]; then
        out=$("$d/target/release/examples/layer_probe" "$calls")
        for m in "${metrics[@]}"; do
            awk -v row="$m" '$0 ~ row { v = $(NF - 2); exit } END { printf "%s\t", v == "" ? "-" : v }' <<<"$out"
        done
    else
        out=$(cd "$d" && CARGO_TARGET_DIR="$d/target" bash benchmark/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 2>&1)
        for m in "${metrics[@]}"; do
            awk -v m="$m" '{ for (i = 1; i < NF; i++) { k = $i; gsub(/[":{,]/, "", k); if (k == m) { v = $(i + 1); if (v == "{\"value\":") v = $(i + 2); gsub(/[",}]/, "", v); print v; exit } } }' <<<"$out" |
                tr '\n' '\t'
        done
    fi
    echo
}

data=$(mktemp)
trap 'rm -f "$data"' EXIT
printf 'pair\tside\t%s\n' "$(IFS=$'\t'; echo "${metrics[*]}")"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=("$a" "$b"); else order=("$b" "$a"); fi
    for d in "${order[@]}"; do
        side=parent; [ "$d" = "$b" ] && side=change
        printf '%s\t%s\t%s\n' "$i" "$side" "$(run "$d")" | tee -a "$data"
    done
done

# Per metric: medians, the change's lower pairs, the parent's IQR.
awk -F'\t' -v names="$(IFS=$'\t'; echo "${metrics[*]}")" '
    function sorted(s, out,   n, i, j, t) { n = split(s, out, " "); for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] + 0 > out[j] + 0; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t } return n }
    function q(s, f,   v, n, x, lo) { n = sorted(s, v); if (n == 0) return "-"; x = 1 + (n - 1) * f; lo = int(x); return v[lo] + (x - lo) * (v[lo + (lo < n)] - v[lo]) }
    { for (k = 3; k <= NF; k++) if ($k != "" && $k != "-") { val[$2, k] = val[$2, k] " " $k; at[$1, $2, k] = $k } if ($1 > last) last = $1 }
    END {
        n = split(names, name, "\t")
        printf "%-28s %12s %12s %8s %12s\n", "metric", "parent med", "change med", "lower", "parent IQR"
        for (k = 3; k < n + 3; k++) {
            won = 0; both = 0
            for (p = 1; p <= last; p++) if ((p, "parent", k) in at && (p, "change", k) in at) { both++; won += at[p, "change", k] + 0 < at[p, "parent", k] + 0 }
            iqr = q(val["parent", k], 0.75) == "-" ? "-" : q(val["parent", k], 0.75) - q(val["parent", k], 0.25)
            printf "%-28s %12s %12s %8s %12s\n", name[k - 2], q(val["parent", k], 0.5), q(val["change", k], 0.5), won "/" both, iqr
        }
    }' "$data"
