//! Heap allocations of a warm SWiPe step, counted process-wide: every rank
//! thread's, the calling thread's and the mailboxes'. A counting global
//! allocator counts while a call runs; a warm step is a 3-step call minus a
//! 1-step call, halved, so the per-call costs (the `World`, each `Rank`'s
//! shard, ZeRO state and links, the report) cancel. Both calls run on
//! parked rank threads whose stashes an earlier call sized, at the
//! benchmark's `train_swipe` shape: toy48 with one block per layer,
//! (dp, pp, wp_a, wp_b, sp) = (1, 4, 1, 2, 2), gas 4. This file holds one
//! test: no other test's allocations may land in the count.

use aeris_core::{AerisConfig, AerisModel, TrainSample};
use aeris_diffusion::loss_weights;
use aeris_earthsim::Grid;
use aeris_swipe::data::InMemorySource;
use aeris_swipe::{DistributedTrainer, SwipeConfig, SwipeTopology};
use aeris_tensor::{Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting every allocation while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count_one(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the whole process makes in `f`, and the bytes they ask for.
fn allocations(f: impl FnOnce()) -> (u64, u64) {
    COUNT.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    (COUNT.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

#[test]
fn a_warm_swipe_step_allocates_a_pinned_few_times() {
    // The benchmark's `fixture::toy48_swipe`.
    let cfg = AerisConfig {
        grid_h: 16,
        grid_w: 32,
        channels: 20,
        forcing_channels: 3,
        dim: 48,
        n_heads: 4,
        ffn: 96,
        n_layers: 2,
        blocks_per_layer: 1,
        window: (4, 4),
        time_feat_dim: 32,
        cond_dim: 48,
        pos_amp: 0.1,
        seed: 0,
    };
    let mut rng = Rng::seed_from(3);
    let samples = (0..8)
        .map(|_| TrainSample {
            x_prev: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng),
            residual: Tensor::randn(&[cfg.tokens(), cfg.channels], &mut rng).scale(0.3),
            forcings: Tensor::randn(&[cfg.tokens(), cfg.forcing_channels], &mut rng),
        })
        .collect();
    let source = InMemorySource { samples };
    let grid = Grid::new(cfg.grid_h, cfg.grid_w);
    let weights = loss_weights(&grid.token_lat_weights(), &vec![1.0; cfg.channels]);
    let reference = AerisModel::new(cfg);
    let (gas, topo) = (4, SwipeTopology::new(1, 4, 1, 2, 2));
    let schedules: Vec<Vec<Vec<Vec<usize>>>> = (0..=3)
        .map(|steps| (0..steps).map(|s| vec![(0..gas).map(|j| (s * gas + j) % 8).collect()]).collect())
        .collect();
    let call = |steps: usize| {
        let swipe = SwipeConfig { gas, n_steps: steps, ..SwipeConfig::new(topo) };
        let report = DistributedTrainer::train(&reference, &swipe, &source, &schedules[steps], &weights);
        drop(report.expect("fault-free run"));
    };
    // Size every rank thread's stash and let its pool's buffers settle.
    (0..4).for_each(|_| call(3));
    let [one, two, three] = [1, 2, 3].map(|steps| allocations(|| call(steps)));
    let warm_step = three.0.saturating_sub(one.0) / 2;
    let mb = |(_, bytes): (u64, u64)| bytes as f64 / 1e6;
    println!(
        "allocations (MB): 1-step call {} ({:.2}), 2-step call {} ({:.2}), 3-step call {} ({:.2}); warm step {warm_step} ({:.3})",
        one.0, mb(one), two.0, mb(two), three.0, mb(three), (mb(three) - mb(one)) / 2.0
    );
    // 14 measured: 12 are the call's copies of the 4 samples each further
    // step schedules (`DistributedTrainer::train` copies every sample its
    // schedule names: a tensor and its shape each), the rest its sample
    // table growing. The ranks themselves allocate nothing. Every 31st call
    // each parked thread's inbox channel takes a new block (16 at once),
    // which moves the figure by 8 either way when it lands in a counted call.
    assert!(warm_step <= 32, "allocations of a warm SWiPe step: {warm_step} (1-step call {one:?}, 3-step call {three:?})");
}
