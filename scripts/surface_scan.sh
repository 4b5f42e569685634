#!/usr/bin/env bash
# Surface scan (plain grep/awk). Prints, for the non-test code of the workspace:
#   (i)  every `Tape::direct()` / `Tape::new()` and every `weighted_mse(` call
#        site outside `#[cfg(test)]` items, `tests/` and `benchmark/` — the
#        places a tape is built around the model, direct (forward only) and
#        recording. Expected: one direct tape, `AerisModel::velocity` in
#        crates/core/src/model.rs, through which every inference path runs;
#        recording tapes in `AerisModel::loss_grads` (model.rs, with its
#        `weighted_mse(`) and the three SWiPe block-stage sites of
#        crates/swipe/src/stage.rs (one with its `weighted_mse(`). A recording
#        tape anywhere else is an inference path keeping a backward it never
#        runs, or a re-spelled `loss_grads`;
#   (ii) every `pub fn` under crates/*/src whose name occurs nowhere else in
#        non-test code (crates, examples, src, benchmark/src) — dead surface or
#        test vocabulary (ROADMAP item 7);
#   (iii) every `par_chunks` / `par_iter` / `into_par_iter` under crates/*/src —
#        the pool's parallel regions. Expected: the two coarse fan-outs in
#        crates/core/src/forecast.rs (`ensemble`, `step_batch`) and nothing
#        else; a hit inside a kernel is intra-op parallelism coming back
#        (measured at 0.4–0.6x and deleted in PR 23, DESIGN.md "Where threads
#        live");
#   (iv) every `unsafe` / `target_feature` / `is_x86_feature_detected` site in
#        the non-test code of crates, shims, examples and src, and every
#        `dispatched!(` loop that macro builds twice. Expected: lines of
#        crates/tensor/src/gemm.rs (the three kernel builds, the AVX-512
#        tile's load and masked store, the one detector), the one
#        `dispatched!` macro of crates/tensor/src/sweeps.rs and its five
#        invocations — `exp`, `sigmoid`, `silu_gate` in sweeps.rs, the
#        window-attention core's forward and backward loops in
#        crates/tensor/src/attention.rs — and the one foreign call of
#        examples/swipe_scaling.rs (`getrusage`: the process's CPU times,
#        minor faults and voluntary context switches, exited threads
#        included; no /proc file holds the switches); every other crate root (aeris-autodiff included) says
#        `#![forbid(unsafe_code)]` (not listed);
#   (v)  every `mul_add(` / `_fmadd_*(` call in the same non-test code — the
#        only places a multiply-add may be contracted. Expected: exactly the
#        two tile lines of crates/tensor/src/gemm.rs (the 4 × 16 body's
#        `mul_add`, the AVX-512 tile's `_mm512_fmadd_ps`); a hit anywhere else
#        is a result that depends on how the compiler or the CPU fuses;
#   (vi) every `from_le_bytes(` / `get_*_le(` byte-decoding site in the
#        non-test code of crates/*/src, examples and src — the workspace's
#        byte-format parsers. Expected: lines of crates/nn/src/checkpoint.rs
#        (the one checkpoint decoder) and crates/earthsim/src/store.rs (the
#        chunked store, its own seekable format); anything else is a second
#        hand-rolled format that the checkpoint entry list should carry;
#   (vii) every `thread::spawn` / `thread::scope` / `thread::Builder` site in
#        the non-test code of crates, shims, examples and src — the places a
#        thread is made. Expected: the serve lane workers of
#        crates/serve/src/engine.rs, the rayon shim's fan-out scope, the
#        one spawn of a parked rank thread in crates/swipe/src/parked.rs and
#        the three tenant clients of examples/serve_forecasts.rs; any other
#        site makes a thread per operation.
# Crude on purpose: names are matched as words, so two functions sharing a name
# hide each other, and a name used only in a doc comment counts as unused.
set -euo pipefail
cd "$(dirname "$0")/.."

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

sources() { find "$@" -name '*.rs' ! -name 'tests.rs' ! -path '*/tests/*' | sort; }

echo "== (i) tapes built and losses scored outside test code =="
echo "-- direct (forward only) --"
strip_tests $(sources crates/*/src examples src) | grep -E 'Tape::direct\(\)' || true
echo "-- recording --"
strip_tests $(sources crates/*/src examples src) \
    | grep -E 'Tape::new\(\)|weighted_mse\(' \
    | grep -v 'fn weighted_mse' || true

echo
echo "== (ii) pub fns named nowhere else in non-test code =="
strip_tests $(sources crates/*/src examples src benchmark/src) | awk '
    {
        text = $0
        sub(/^[^:]*:[0-9]+:/, "", text)
        if ($0 ~ /^crates\// && match(text, /pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(text, RSTART, RLENGTH)
            sub(/.* /, "", name)
            split($0, parts, ":")
            defined[name] = parts[1] ":" parts[2]
        }
        n = split(text, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i]]++
    }
    END { for (name in defined) if (seen[name] == 1) print defined[name] ": " name }
' | sort

echo
echo "== (iii) parallel regions outside test code =="
strip_tests $(sources crates/*/src) | grep -E 'par_chunks|par_iter' || true

echo
echo "== (iv) unsafe, target_feature, CPU-detection and dispatch sites outside test code =="
strip_tests $(sources crates/*/src shims/*/src examples src) \
    | grep -E 'unsafe|target_feature|is_x86_feature_detected|dispatched!\(' \
    | grep -vE 'forbid\(unsafe_code\)|deny\(unsafe_op_in_unsafe_fn\)' || true

echo
echo "== (v) contracted multiply-adds outside test code =="
strip_tests $(sources crates/*/src shims/*/src examples src) \
    | grep -E 'mul_add\(|_fmadd_[a-z0-9_]*\(' || true

echo
echo "== (vi) byte-decoding sites outside test code =="
strip_tests $(sources crates/*/src examples src) \
    | grep -E 'from_le_bytes\(|get_[a-z0-9_]*_le\(' || true

echo
echo "== (vii) thread-making sites outside test code =="
strip_tests $(sources crates/*/src shims/*/src examples src) \
    | grep -E 'thread::(spawn|scope|Builder)' || true
