#!/usr/bin/env bash
# Surface scan (plain grep/awk). Prints, for the non-test code of the workspace:
#   (i)  every `Tape::new()` and every `weighted_mse(` call site outside
#        `#[cfg(test)]` items, `tests/` and `benchmark/` — a tape built
#        around the model. Expected: the recording-chain row of
#        examples/layer_probe.rs only; `velocity`, `loss_grads` and every
#        SWiPe stage run the tape-free executor (`SwinBlock::pass`);
#   (ii) every `pub fn` under crates/*/src named only in `fn` definitions in
#        non-test code (crates, examples, src) and nowhere in benchmark/src
#        (whose test modules count as callers; a `pub use` is not a use).
#        Each needs a reason in KEPT below; anything else is dead surface;
#   (iii) every `par_chunks` / `par_iter` / `into_par_iter` under crates/*/src.
#        Expected: the two fan-outs of crates/core/src/forecast.rs
#        (`ensemble`, `step_batch`); a hit in a kernel is intra-op
#        parallelism coming back (DESIGN.md "Where threads live");
#   (iv) every `unsafe` / `target_feature` / `is_x86_feature_detected` site and
#        every `dispatched!(` loop in the non-test code of crates, shims,
#        examples and src. Expected: the detector (`Kernel::detected`) and the
#        `dispatched!` macro of crates/tensor/src/dispatch.rs, its invocations
#        (DISPATCHED below, each named by its kernel-taking `*_on` entry), the
#        hand-written `avx512f` builds of the GEMM and of the attention core,
#        admitted fn by fn (INTRINSIC_FNS below), and the `getrusage` call of
#        examples/swipe_scaling.rs (CPU times, faults and context switches,
#        exited threads included); every other crate root is
#        `#![forbid(unsafe_code)]`;
#   (v)  every contracted multiply-add call in the same non-test code
#        (`mul_add(`, libm `fma(` / `fmaf(`, the x86 `_fmadd_` / `_fmsub_` /
#        `_fnmadd_` / `_fnmsub_` / `_fmaddsub_` / `_fmsubadd_` intrinsics).
#        Expected: exactly the two tile lines of crates/tensor/src/gemm.rs
#        (the 4 × 16 body's `mul_add`, the AVX-512 tile's `_mm512_fmadd_ps`);
#        a hit anywhere else is a result that depends on how the compiler
#        or the CPU fuses;
#   (vi) every `from_le_bytes(` / `get_*_le(` byte-decoding site in the
#        non-test code of crates/*/src, examples and src. Expected: lines of
#        crates/nn/src/checkpoint.rs (the one decoder) only. Then every call
#        of the checkpoint writer and reader (`save_entries(`,
#        `write_entries(`, `load_entries(`, `Entries::load(`) outside that
#        file. Expected: lines of crates/swipe/src only — SWiPe's step
#        checkpoint is the one file the workspace writes or reads;
#   (vii) every `thread::spawn` / `thread::scope` / `thread::Builder` site and
#        `thread_local!` in the same code. Expected: the serve lane workers
#        (engine.rs), the rayon shim's fan-out scope, the parked rank spawn
#        (swipe parked.rs) and the three tenant clients of
#        examples/serve_forecasts.rs (any other site makes a thread per
#        operation), and the histogram's shard index (crates/obs/src).
# Crude on purpose: names are matched as words, so a used fn hides an unused
# one of the same name, and a name used only in a doc comment counts as unused.
#
# `--check` makes the scan a gate: it exits non-zero when (i) prints a site
# outside layer_probe.rs, (ii) a name KEPT does not list (or KEPT a name
# (ii) no longer prints), (iv) a site outside the detector and macro of
# crates/tensor/src/dispatch.rs, the INTRINSIC_FNS fns and `getrusage`, or
# an invocation DISPATCHED does not list (or DISPATCHED / INTRINSIC_FNS is
# stale), (v) anything but the GEMM's two tile lines, (vi) a decoder
# outside crates/nn/src/checkpoint.rs or a writer / reader call outside
# crates/swipe/src, or (vii) a `thread_local!` outside histogram.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
    --check) check=1 ;;
    "") ;;
    *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac

# The pub fns (ii) may print, one `name<TAB>reason` a line.
KEPT="\
adjoint	test vocabulary: the <Hx,y> = <x,H^T y> proptest of tests/assim.rs
numeric_grad	test vocabulary: the finite-difference oracle of nn's gradchecks
assert_grad_close	test vocabulary: the gradcheck comparison nn's tests import
rand_uniform	test vocabulary: the positive-scale inputs of autodiff and core tests
variance	test vocabulary: the spread checks of diffusion's sampler tests
default_toy	test vocabulary: the 25-channel set other crates' tests build
parse_text	test vocabulary: tests/obs.rs parses the Prometheus exporter's output
verify_balanced	test vocabulary: span nesting in tests/obs.rs and swipe's chaos suite
drop_message	test vocabulary: FaultPlan builder of swipe's chaos suite and tests/obs.rs
crash_rank_after_ops	test vocabulary: FaultPlan builder of swipe's chaos suite
chaos_delays	test vocabulary: FaultPlan builder of swipe's chaos suite and tests/properties.rs
chaos_restarts	test vocabulary: FaultPlan builder of swipe's recovery suite
finetune_rollout	ROADMAP item 7 gives it a verdict (measure in fig7_seasonal or delete)"

# The loops `dispatched!` builds three times (portable, AVX2+FMA and
# `avx512f`), one `file<TAB>name` a line, the name the kernel-taking entry's;
# (iv) fails on an invocation missing here.
DISPATCHED="\
crates/tensor/src/attention.rs	backward_windows
crates/tensor/src/attention.rs	forward_windows
crates/tensor/src/gemm.rs	compute_block
crates/tensor/src/sweeps.rs	adamw_on
crates/tensor/src/sweeps.rs	add_rows_on
crates/tensor/src/sweeps.rs	box_muller_on
crates/tensor/src/sweeps.rs	ema_on
crates/tensor/src/sweeps.rs	exp_on
crates/tensor/src/sweeps.rs	gated_residual_backward_on
crates/tensor/src/sweeps.rs	gated_residual_on
crates/tensor/src/sweeps.rs	modulated_rmsnorm_backward_on
crates/tensor/src/sweeps.rs	modulated_rmsnorm_rows_on
crates/tensor/src/sweeps.rs	rmsnorm_rows_on
crates/tensor/src/sweeps.rs	sigmoid_on
crates/tensor/src/sweeps.rs	silu_on
crates/tensor/src/sweeps.rs	swiglu_backward_on
crates/tensor/src/sweeps.rs	swiglu_on"

# The fns whose (iv) sites are admitted by name, one `file<TAB>fn` a line:
# the hand-written `avx512f` builds (the `avx512 = …` of `dispatched!`) of
# the GEMM's row block and of the window-attention core, each a
# `#[target_feature(enable = "avx512f")]` fn; the GEMM tile also holds its
# unaligned panel load and masked store, and `ld`, `st`, `columns` and
# `write_rows` the core's aligned and masked loads and stores. An (iv) site
# in any other fn of the file fails --check.
INTRINSIC_FNS="\
crates/tensor/src/attention.rs	backward_avx512
crates/tensor/src/attention.rs	columns
crates/tensor/src/attention.rs	dkv_block
crates/tensor/src/attention.rs	dp_block
crates/tensor/src/attention.rs	dq_block
crates/tensor/src/attention.rs	exp_zmm
crates/tensor/src/attention.rs	forward_avx512
crates/tensor/src/attention.rs	ld
crates/tensor/src/attention.rs	load_zmm
crates/tensor/src/attention.rs	probs_zmm
crates/tensor/src/attention.rs	pv_block
crates/tensor/src/attention.rs	rope_cols
crates/tensor/src/attention.rs	rope_inv_cols
crates/tensor/src/attention.rs	score_block
crates/tensor/src/attention.rs	st
crates/tensor/src/attention.rs	transpose16
crates/tensor/src/attention.rs	write_rows
crates/tensor/src/gemm.rs	compute_block_avx512
crates/tensor/src/gemm.rs	tile_avx512"

# FILE:LINE:TEXT for every line that is neither a comment nor inside a
# `#[cfg(test)]` item (a `mod tests { … }` block or a one-line `mod tests;`).
strip_tests() {
    awk '
        FNR == 1 { skip = 0; pending = 0; depth = 0 }
        !skip && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; pending = 1; depth = 0; next }
        skip {
            line = $0
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            if (pending && opens == 0 && line ~ /;[[:space:]]*$/) { skip = 0; next }
            if (opens > 0) pending = 0
            depth += opens - closes
            if (!pending && depth <= 0) skip = 0
            next
        }
        /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR ":" $0 }
    ' "$@"
}

# The files of modules declared `#[cfg(test)] mod name;` (test-only modules).
test_module_files() {
    find "$@" -name '*.rs' -exec awk '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ && $0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
            name = $0
            sub(/.*mod /, "", name)
            sub(/;.*/, "", name)
            dir = FILENAME
            sub(/[^\/]*$/, "", dir)
            base = FILENAME
            sub(/.*\//, "", base)
            if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
                sub(/\.rs$/, "", base)
                dir = dir base "/"
            }
            print dir name ".rs"
        }
        { prev = $0 }
    ' {} +
}

# `FILE:LINE<TAB>fn` for every FILE:LINE:TEXT line read: the fn whose
# attributes or body the line is (a run of `#[…]` lines right above a `fn`
# line is that fn's), `-` outside every fn. Crude like the rest: braces are
# counted as written, strings and all.
fn_of_lines() {
    awk '
        {
            file = $0; sub(/:.*/, "", file)
            rest = substr($0, length(file) + 2)
            line = rest; sub(/:.*/, "", line)
            text = rest; sub(/^[0-9]+:/, "", text)
            if (file != seen) { seen = file; fn = ""; depth = 0; n = 0 }
            if (fn == "" && text ~ /^[[:space:]]*#\[/) { held[++n] = file ":" line; next }
            if (fn == "" && match(text, /(^|[^A-Za-z0-9_])fn [A-Za-z_][A-Za-z0-9_]*/)) {
                fn = substr(text, RSTART, RLENGTH); sub(/.*fn /, "", fn)
                base = depth; opened = 0
            }
            for (i = 1; i <= n; i++) print held[i] "\t" (fn == "" ? "-" : fn)
            n = 0
            print file ":" line "\t" (fn == "" ? "-" : fn)
            opens = gsub(/\{/, "{", text); closes = gsub(/\}/, "}", text)
            depth += opens - closes
            if (opens > 0) opened = 1
            if (fn != "" && opened && depth <= base) fn = ""
        }
    '
}

sources() {
    find "$@" -name '*.rs' ! -name 'tests.rs' ! -path '*/tests/*' | sort \
        | grep -vxF -f <(test_module_files "$@"; echo /dev/null)
}

echo "== (i) tapes built and losses scored outside test code =="
tapes=$(strip_tests $(sources crates/*/src examples src) \
    | grep -E 'Tape::new\(\)|weighted_mse\(' | grep -v 'fn weighted_mse' || true)
[ -z "$tapes" ] || echo "$tapes"
i_failed=$(printf '%s\n' "$tapes" | grep -v '^$' | grep -cv '^examples/layer_probe\.rs:' || true)

echo
echo "== (ii) pub fns named nowhere else in non-test code =="
unused=$(
    {
        strip_tests $(sources crates/*/src examples src)
        # benchmark/src's test modules count as callers: no stripping there.
        awk '/^[[:space:]]*\/\// { next } { print FILENAME ":" FNR ":" $0 }' $(find benchmark/src -name '*.rs' | sort)
    } | awk '
        {
            text = $0
            sub(/^[^:]*:[0-9]+:/, "", text)
            if (match(text, /fn [A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(text, RSTART + 3, RLENGTH - 3)
                defs[name]++
                if ($0 ~ /^crates\// && text ~ /pub (const |unsafe )?fn /) {
                    split($0, parts, ":")
                    defined[name] = defined[name] (defined[name] == "" ? "" : ",") parts[1] ":" parts[2]
                }
            }
            # A re-export names an item without using it.
            if (text ~ /^[[:space:]]*pub use /) in_use = 1
            if (in_use) { if (text ~ /;/) in_use = 0; next }
            n = split(text, words, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i]]++
        }
        # Used nowhere but in its definitions (same-named fns count together).
        END { for (name in defined) if (seen[name] == defs[name]) print defined[name] ": " name }
    ' | sort
)
ii_failed=0
while IFS= read -r line; do
    [ -n "$line" ] || continue
    name=${line##* }
    reason=$(printf '%s\n' "$KEPT" | awk -F '\t' -v n="$name" '$1 == n { print $2 }')
    if [ -n "$reason" ]; then
        echo "$line — $reason"
    else
        echo "$line — NO REASON: delete it, move it under #[cfg(test)], or state why in KEPT"
        ii_failed=1
    fi
done <<< "$unused"
while IFS=$'\t' read -r name _; do
    if ! printf '%s\n' "$unused" | grep -q ": $name\$"; then
        echo "KEPT lists $name, which (ii) no longer prints: drop it from KEPT"
        ii_failed=1
    fi
done <<< "$KEPT"

echo
echo "== (iii) parallel regions outside test code =="
strip_tests $(sources crates/*/src) | grep -E 'par_chunks|par_iter' || true

echo
echo "== (iv) unsafe, target_feature, CPU-detection and dispatch sites outside test code =="
sites=$(strip_tests $(sources crates/*/src shims/*/src examples src) \
    | grep -E 'unsafe|target_feature|is_x86_feature_detected|dispatched!\(' \
    | grep -vE 'forbid\(unsafe_code\)|deny\(unsafe_op_in_unsafe_fn\)' || true)
[ -z "$sites" ] || echo "$sites"
# In crates/tensor/src/dispatch.rs, the first and last line of the
# `macro_rules! dispatched` body and of the detector `Kernel::detected`.
dispatch=crates/tensor/src/dispatch.rs
macro=$(awk '/^macro_rules! dispatched/ { s = FNR } s && FNR > s && /^}/ { print s, FNR; exit }' "$dispatch")
detector=$(awk '/^    pub fn detected\(\)/ { s = FNR } s && FNR > s && /^    }/ { print s, FNR; exit }' "$dispatch")
iv_failed=0
# `FILE:LINE<TAB>FILE<TAB>fn` of every (iv) site in the files INTRINSIC_FNS
# names: the fn each site belongs to.
site_fns=$(strip_tests $(printf '%s\n' "$INTRINSIC_FNS" | cut -f1 | sort -u) | fn_of_lines \
    | awk -F '\t' -v sites="$sites" '
        BEGIN { n = split(sites, s, "\n"); for (i = 1; i <= n; i++) { split(s[i], f, ":"); at[f[1] ":" f[2]] = 1 } }
        $1 in at { file = $1; sub(/:.*/, "", file); print $1 "\t" file "\t" $2 }')
# FILE:LINE of every (iv) site inside a fn INTRINSIC_FNS lists.
admitted=$(printf '%s\n' "$site_fns" | awk -F '\t' -v list="$INTRINSIC_FNS" '
        BEGIN { n = split(list, rows, "\n"); for (i = 1; i <= n; i++) ok[rows[i]] = 1 }
        ($2 "\t" $3) in ok { print $1 }')
stray=$(printf '%s\n' "$sites" | awk -F: -v dispatch="$dispatch" -v macro="$macro" -v detector="$detector" \
    -v admitted="$admitted" '
    BEGIN {
        split(macro, m, " "); split(detector, d, " ")
        n = split(admitted, a, "\n"); for (i = 1; i <= n; i++) ok[a[i]] = 1
    }
    $0 == "" { next }
    ($1 ":" $2) in ok { next }
    $1 == dispatch && $2 >= m[1] && $2 <= m[2] { next }
    $1 == dispatch && $2 >= d[1] && $2 <= d[2] && /is_x86_feature_detected!\(/ { next }
    $1 == "examples/swipe_scaling.rs" && /getrusage\(/ { next }
    /dispatched!\(/ { next }
    { print }
')
if [ -n "$stray" ]; then
    echo "-- outside the detector, the dispatched! macro, the INTRINSIC_FNS fns and the getrusage call --"
    echo "$stray"
    iv_failed=1
fi
# Every INTRINSIC_FNS fn still holds an (iv) site.
while IFS= read -r line; do
    if ! printf '%s\n' "$site_fns" | cut -f2,3 | grep -qxF "$line"; then
        echo "INTRINSIC_FNS lists $line, which holds no (iv) site: drop it"
        iv_failed=1
    fi
done <<< "$INTRINSIC_FNS"
# `file<TAB>name` of every `dispatched!(` invocation (the name is the first
# `fn NAME,` or `fn NAME =>` after it), against DISPATCHED, both ways.
invocations=$(strip_tests $(sources crates/*/src shims/*/src examples src) | awk '
    {
        file = $0; sub(/:.*/, "", file)
        text = $0; sub(/^[^:]*:[0-9]+:/, "", text)
        if (text ~ /dispatched!\(/) { pending[file] = 1; next }
        if (pending[file] && match(text, /fn [a-z_0-9]+( =>|,)/)) {
            name = substr(text, RSTART + 3, RLENGTH - 3); sub(/( =>|,)$/, "", name)
            print file "\t" name
            pending[file] = 0
        }
    }' | sort)
while IFS= read -r line; do
    [ -n "$line" ] || continue
    if ! printf '%s\n' "$DISPATCHED" | grep -qxF "$line"; then
        echo "dispatched!( invocation not in DISPATCHED: $line"
        iv_failed=1
    fi
done <<< "$invocations"
while IFS= read -r line; do
    if ! printf '%s\n' "$invocations" | grep -qxF "$line"; then
        echo "DISPATCHED lists $line, which is no longer a dispatched!( invocation: drop it"
        iv_failed=1
    fi
done <<< "$DISPATCHED"

echo
echo "== (v) contracted multiply-adds outside test code =="
fmas=$(strip_tests $(sources crates/*/src shims/*/src examples src) \
    | grep -E 'mul_add\(|_fn?m(add|sub)[a-z0-9_]*\(|(^|[^a-z_0-9])fmaf?\(' || true)
[ -z "$fmas" ] || echo "$fmas"
v_failed=0
if [ "$(printf '%s\n' "$fmas" | grep -c '^crates/tensor/src/gemm\.rs:')" != 2 ] \
    || printf '%s\n' "$fmas" | grep -v '^$' | grep -qv '^crates/tensor/src/gemm\.rs:'; then
    v_failed=1
fi

echo
echo "== (vi) byte-decoding sites outside test code =="
decoders=$(strip_tests $(sources crates/*/src examples src) \
    | grep -E 'from_le_bytes\(|get_[a-z0-9_]*_le\(' || true)
[ -z "$decoders" ] || echo "$decoders"
vi_failed=0
if printf '%s\n' "$decoders" | grep -v '^$' | grep -qv '^crates/nn/src/checkpoint\.rs:'; then
    vi_failed=1
fi
echo "-- checkpoint file writers and readers --"
ckpt_io=$(strip_tests $(sources crates/*/src examples src) \
    | grep -v '^crates/nn/src/checkpoint\.rs:' \
    | grep -E '(save_entries|write_entries|load_entries|Entries::load)\(' || true)
[ -z "$ckpt_io" ] || echo "$ckpt_io"
if printf '%s\n' "$ckpt_io" | grep -v '^$' | grep -qv '^crates/swipe/src/'; then
    vi_failed=1
fi

echo
echo "== (vii) thread-making sites and thread-locals outside test code =="
threads=$(strip_tests $(sources crates/*/src shims/*/src examples src) \
    | grep -E 'thread::(spawn|scope|Builder)|thread_local!' || true)
[ -z "$threads" ] || echo "$threads"
vii_failed=$(printf '%s\n' "$threads" | grep 'thread_local!' | grep -cv '^crates/obs/src/histogram\.rs:' || true)

if [ "$check" = 1 ]; then
    echo
    if [ "$i_failed" != 0 ] || [ "$ii_failed" = 1 ] || [ "$iv_failed" = 1 ] || [ "$v_failed" = 1 ] || [ "$vi_failed" = 1 ] || [ "$vii_failed" != 0 ]; then
        [ "$i_failed" = 0 ] || echo "check FAILED: (i) prints a tape or loss outside examples/layer_probe.rs" >&2
        [ "$ii_failed" = 0 ] || echo "check FAILED: (ii) prints a name without a reason in KEPT, or KEPT is stale" >&2
        [ "$iv_failed" = 0 ] || echo "check FAILED: (iv) prints a site outside the detector, the dispatched! macro, the INTRINSIC_FNS fns and getrusage, or a dispatched!( invocation DISPATCHED does not list (or DISPATCHED or INTRINSIC_FNS is stale)" >&2
        [ "$v_failed" = 0 ] || echo "check FAILED: (v) prints a multiply-add other than the GEMM's two tile lines" >&2
        [ "$vi_failed" = 0 ] || echo "check FAILED: (vi) prints a decoder outside crates/nn/src/checkpoint.rs, or a checkpoint writer or reader outside crates/swipe/src" >&2
        [ "$vii_failed" = 0 ] || echo "check FAILED: (vii) prints a thread_local! outside crates/obs/src/histogram.rs" >&2
        exit 1
    fi
    echo "check passed: (i) only the probe; every (ii) name has a reason; (iv) only the detector, the dispatched! macro, the DISPATCHED loops, the INTRINSIC_FNS fns and getrusage; (v) only the GEMM's two tile lines; (vi) is the checkpoint decoder only, its writer and reader called from crates/swipe/src only; (vii) no thread-local but the histogram's shard index"
fi
