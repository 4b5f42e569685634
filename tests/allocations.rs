//! Heap allocations per warm call, pinned exactly: a counting global
//! allocator counts what the measuring thread takes from the heap, and each
//! count is read on a spawned thread (whose heap glibc trims, unlike the
//! main thread's) over a second call in one `Workspace`, after the first has
//! sized it.
//!
//! - `AerisModel::loss_grads` into filled gradient slots: 0. It read 45
//!   while the forward took 23 (below) and `gemm` packed a transposed or
//!   partial B into a fresh buffer for each input-gradient GEMM and for the
//!   decoder's weight gradient; every GEMM now packs into the workspace's
//!   `pack`, and each block's saves keep the constants their pass rewrites.
//!   The recording tape it replaced made 1,154 per call.
//! - `AerisModel::velocity`: 2, its result (shape and data). It read 25
//!   with the forward's 23 — the time features, the decoder's packed
//!   partial panel, and per block the modulation vectors (3) and the
//!   `Wq | Wk | Wv` concatenation (2) — which the workspace now holds
//!   (`consts`, `pack`).
//! - `Forecaster::forecast_step_guided` with `NoGuidance`, a quality-tier
//!   step of 12 velocity evaluations (6 DPMSolver++ 2S steps, churn 0.1):
//!   80, the evaluations' 12 × 2 and the sampler's 56 — what the in-place
//!   sampler of ROADMAP item 22 drives down (356 before the workspace held
//!   the pass's constants and pack buffer).
//!
//! A change to either count is a change to say, not to re-pin quietly.

use aeris::core::{AerisConfig, AerisModel, Forecaster, Workspace};
use aeris::diffusion::{NoGuidance, SamplerConfig, TrigFlow, TrigFlowSampler};
use aeris::earthsim::NormStats;
use aeris::tensor::{Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of threads that opted in.
struct Counting;

thread_local! {
    /// `Some(n)` on a measuring thread: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the calling thread makes in `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting")
}

/// The toy48 model of the benchmark (constants from
/// `benchmark/src/fixture.rs`) and one sample's inputs.
fn toy48() -> (AerisModel, [Tensor; 5]) {
    let model = AerisModel::new(AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels: 20,
        forcing_channels: 3,
        dim: 48,
        n_heads: 4,
        ffn: 96,
        n_layers: 2,
        blocks_per_layer: 2,
        window: (4, 4),
        time_feat_dim: 32,
        cond_dim: 48,
        pos_amp: 0.1,
        seed: 0,
    });
    let mut rng = Rng::seed_from(3);
    let (tokens, c) = (model.cfg.tokens(), model.cfg.channels);
    let mut randn = |cols: usize| Tensor::randn(&[tokens, cols], &mut rng);
    let inputs = [randn(c), randn(c), randn(model.cfg.forcing_channels), randn(c), Tensor::ones(&[tokens, c])];
    (model, inputs)
}

/// `[first, warm]` allocation counts of two calls of `f` in one workspace on
/// a new thread.
fn first_and_warm(f: impl Fn(&mut Workspace) + Send + Sync) -> [u64; 2] {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut ws = Workspace::default();
            [allocations(|| f(&mut ws)), allocations(|| f(&mut ws))]
        })
        .join()
        .expect("no panic")
    })
}

#[test]
fn a_warm_loss_grads_allocates_a_pinned_few_times() {
    let (m, [x_t, x_prev, f, target, w]) = toy48();
    let acc = std::sync::Mutex::new(vec![None; m.store.len()]);
    let [first, warm] = first_and_warm(|ws| {
        let mut acc = acc.lock().expect("one caller");
        m.loss_grads(ws, &x_t, &x_prev, &f, 0.7, &target, &w, &mut acc);
    });
    assert!(first > warm, "the first call sizes the workspace and fills the slots ({first} vs {warm})");
    assert_eq!(warm, 0, "allocations of a warm loss_grads");
}

#[test]
fn a_warm_velocity_allocates_a_pinned_few_times() {
    let (m, [x_t, x_prev, f, ..]) = toy48();
    let [first, warm] = first_and_warm(|ws| drop(m.velocity_into(ws, &x_t, &x_prev, &f, 0.7)));
    assert!(first > warm, "the first call sizes the workspace ({first} vs {warm})");
    assert_eq!(warm, 2, "allocations of a warm velocity");
}

#[test]
fn a_warm_forecast_step_allocates_a_pinned_few_times() {
    let (model, [x_prev, _, forcings, ..]) = toy48();
    let stats = NormStats { mean: vec![0.0; model.cfg.channels], std: vec![1.0; model.cfg.channels] };
    let sampler = TrigFlowSampler::new(TrigFlow::default(), SamplerConfig { n_steps: 6, churn: 0.1, second_order: true });
    let fc = Forecaster { model, res_stats: stats.clone(), stats, sampler };
    let rng = std::sync::Mutex::new(aeris::tensor::Rng::seed_from(4));
    let [first, warm] = first_and_warm(|ws| {
        let mut rng = rng.lock().expect("one caller");
        drop(fc.forecast_step_guided(ws, &x_prev, &forcings, &mut rng, &mut NoGuidance));
    });
    assert!(first > warm, "the first call sizes the workspace ({first} vs {warm})");
    assert_eq!(warm, 80, "allocations of a warm forecast step");
}
