//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the real rayon cannot be fetched. This shim provides the one adapter chain
//! the workspace uses — `into_par_iter().map(..).collect()` — executed on
//! [`std::thread::scope`], the same rank-as-thread idiom `aeris-swipe` uses
//! for its distributed ranks. Its callers are the workspace's two coarse
//! fan-outs, `aeris_core::forecast::{ensemble, step_batch}`: an item is a
//! whole rollout or sampler step, never a slice of a kernel (DESIGN.md "Where
//! threads live" has the measurement that removed the finer layer).
//!
//! There are no long-lived worker threads. A parallel region splits its items
//! into at most [`current_num_threads`] *contiguous* blocks and spawns one
//! scoped thread per block. Scoped threads join before the region returns, so
//! closures may borrow stack data freely and panics propagate to the caller.
//!
//! # Determinism
//!
//! Results are bitwise identical for every worker count, by construction:
//! each item's result is written into its own preallocated slot, preserving
//! input order, and the pool performs no reduction.
//!
//! # Worker count
//!
//! `AERIS_THREADS` overrides the worker count process-wide (read at every
//! parallel region, so tests may flip it); otherwise
//! [`std::thread::available_parallelism`] decides. [`set_thread_override`]
//! takes precedence over both — tests and benches use it to compare thread
//! counts within one process without touching the environment.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// Process-wide worker-count override; 0 means "no override".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the pool width for the whole process (tests, benches). `None`
/// restores the default `AERIS_THREADS` / available-parallelism logic.
pub fn set_thread_override(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The number of workers a parallel region will use: the
/// [`set_thread_override`] value if set, else `AERIS_THREADS` if set and
/// positive, else the machine's available parallelism.
pub fn current_num_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("AERIS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Rayon's `into_par_iter` / `par_iter` entry point.
pub trait IntoParallelIterator: IntoIterator + Sized
where
    Self::Item: Send,
{
    fn into_par_iter(self) -> ParIter<Self::Item> {
        ParIter { items: self.into_iter().collect() }
    }
}

impl<I: IntoIterator + Sized> IntoParallelIterator for I where I::Item: Send {}

/// An eagerly materialized parallel iterator.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Lazy parallel map; executed by `collect`.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMap<T, F> {
        ParMap { items: self.items, f }
    }
}

/// Output of [`ParIter::map`].
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMap<T, F> {
    /// Execute the map in parallel, preserving input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(par_map_vec(self.items, &self.f))
    }
}

/// Map every item in parallel, writing each result into its own slot so the
/// output order (and therefore every downstream reduction order) is
/// independent of the worker count.
fn par_map_vec<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let t = current_num_threads().min(n);
    if t <= 1 {
        return items.into_iter().map(f).collect();
    }
    let per = n.div_ceil(t);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        let mut rest_items = items;
        let mut rest_out: &mut [Option<R>] = &mut out;
        while !rest_items.is_empty() {
            let take = per.min(rest_items.len());
            let tail = rest_items.split_off(take);
            let block = std::mem::replace(&mut rest_items, tail);
            let (slots, tail_out) = std::mem::take(&mut rest_out).split_at_mut(take);
            rest_out = tail_out;
            s.spawn(move || {
                for (slot, item) in slots.iter_mut().zip(block) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter().map(|slot| slot.expect("worker filled every slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `OVERRIDE` is process-wide and the test harness runs tests on
    /// parallel threads: every test that sets it holds this lock, so none
    /// reads a width another test set.
    fn hold_override() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn chunks_and_ranges_behave_like_std() {
        let _override = hold_override();
        // Seven items over three workers: blocks of 3, 3 and 1.
        set_thread_override(Some(3));
        let squares: Vec<usize> = (0..7usize).into_par_iter().map(|x| x * x).collect();
        let mut v = vec![1u32; 7];
        let old: Vec<u32> = v.iter_mut().into_par_iter().map(|x| std::mem::replace(x, 2)).collect();
        set_thread_override(None);
        assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36]);
        assert_eq!((old, v), (vec![1; 7], vec![2; 7]));
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let _override = hold_override();
        let run = |threads: usize| -> Vec<u32> {
            set_thread_override(Some(threads));
            let mapped = (0..257usize).into_par_iter().map(|x| (x as f32 * 0.25).sin().to_bits()).collect();
            set_thread_override(None);
            mapped
        };
        let base = run(1);
        for t in [2, 3, 8, 300] {
            assert_eq!(base, run(t), "{t} threads");
        }
    }

    #[test]
    fn override_beats_env() {
        let _override = hold_override();
        set_thread_override(Some(5));
        assert_eq!(current_num_threads(), 5);
        set_thread_override(None);
        assert!(current_num_threads() >= 1);
    }
}
