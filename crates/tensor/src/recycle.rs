//! Per-thread recycling of large tensor buffers.
//!
//! A direct (non-recording) forward frees each Swin block's activations when
//! the block ends, and the next block allocates the same lengths again.
//! Handed back to malloc, those buffers are what glibc trims off the heap and
//! page-faults in again (DESIGN.md "Alignment and the page-fault lottery").
//! So on a thread that has opted in with [`hold_up_to`], a dropped
//! [`Tensor`](crate::Tensor) buffer of at least [`MIN_BYTES`] goes to the
//! thread's free list instead, keyed by its exact length, as long as the list
//! stays within its bound. The allocators below take from that list first,
//! and which one a producer calls is the zeros / `for_overwrite` rule:
//!
//! - a result whose producer writes every element (a GEMM output, an
//!   elementwise result, the attention core's output, a gather, a transpose)
//!   comes from [`Tensor::for_overwrite`](crate::Tensor::for_overwrite): a
//!   held buffer as it was left, or a fresh zeroed one, with no fill pass. A
//!   build with `debug_assertions` (`cargo test` without `--release`) fills
//!   it with NaN, so a producer that misses an element poisons its result
//!   and the bitwise suites fail;
//! - a buffer whose producer reads it before writing, an accumulator (a
//!   scatter-add, a row sum), comes from
//!   [`Tensor::zeros`](crate::Tensor::zeros) or
//!   [`Tensor::full`](crate::Tensor::full), which overwrite all of what they
//!   take with the fill value, as a tensor's `clone` does with the copied
//!   elements.
//!
//! Either way every result keeps its bits.
//!
//! A thread that never opted in has a bound of 0 and caches nothing: the
//! recording training threads free to malloc as before. The bound only grows,
//! to the largest release a caller announced on that thread
//! (`aeris_autodiff::Tape::release` announces each block's). The list lives in
//! a `thread_local!`, like the attention core's `TILES` scratch, and dies with
//! its thread.

use std::cell::RefCell;

/// Buffers smaller than this go back to malloc on every thread: small blocks
/// live in glibc's bins, which neither trim nor fault.
pub const MIN_BYTES: usize = 16 << 10;

#[derive(Default)]
struct FreeList {
    /// Held buffers, most recently freed last; each keeps its length.
    bufs: Vec<Vec<f32>>,
    /// Capacity bytes of `bufs`.
    held: usize,
    /// `held` never exceeds this.
    bound: usize,
}

thread_local! {
    static FREE: RefCell<FreeList> = RefCell::default();
}

fn bytes(buf: &Vec<f32>) -> usize {
    buf.capacity() * std::mem::size_of::<f32>()
}

/// Let the calling thread hold up to `bytes` of freed tensor buffers (the
/// bound only grows). The first call opts the thread in.
pub fn hold_up_to(bytes: usize) {
    let _ = FREE.try_with(|f| {
        let mut f = f.borrow_mut();
        f.bound = f.bound.max(bytes);
    });
}

/// The calling thread's `(held, bound)` in bytes.
#[cfg(test)]
fn held_and_bound() -> (usize, usize) {
    FREE.try_with(|f| {
        let f = f.borrow();
        (f.held, f.bound)
    })
    .unwrap_or((0, 0))
}

/// A held buffer of exactly `n` elements, if the thread has one.
fn take(n: usize) -> Option<Vec<f32>> {
    if n * std::mem::size_of::<f32>() < MIN_BYTES {
        return None;
    }
    FREE.try_with(|f| {
        let mut f = f.borrow_mut();
        let i = f.bufs.iter().rposition(|b| b.len() == n)?;
        let buf = f.bufs.remove(i);
        f.held -= bytes(&buf);
        Some(buf)
    })
    .ok()
    .flatten()
}

/// `n` copies of `value`, in a held buffer when there is one.
pub(crate) fn filled(n: usize, value: f32) -> Vec<f32> {
    match take(n) {
        Some(mut buf) => {
            buf.fill(value);
            buf
        }
        None => vec![value; n],
    }
}

/// `n` elements the caller overwrites in full: a held buffer as it was left,
/// or a zeroed one. With `debug_assertions` every element is NaN.
pub(crate) fn for_overwrite(n: usize) -> Vec<f32> {
    let mut buf = take(n).unwrap_or_else(|| vec![0.0; n]);
    if cfg!(debug_assertions) {
        buf.fill(f32::NAN);
    }
    buf
}

/// A copy of `src`, in a held buffer when there is one.
pub(crate) fn copied(src: &[f32]) -> Vec<f32> {
    match take(src.len()) {
        Some(mut buf) => {
            buf.copy_from_slice(src);
            buf
        }
        None => src.to_vec(),
    }
}

/// Keep a freed buffer if it is large and fits under the thread's bound;
/// otherwise it goes back to malloc.
pub(crate) fn give(buf: Vec<f32>) {
    let b = bytes(&buf);
    if b < MIN_BYTES {
        return;
    }
    // Runs inside `Tensor`'s `Drop`: no path here may panic.
    let _ = FREE.try_with(move |f| {
        let Ok(mut f) = f.try_borrow_mut() else { return };
        if f.held + b <= f.bound {
            f.held += b;
            f.bufs.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    const N: usize = MIN_BYTES; // 4 × MIN_BYTES bytes of f32

    #[test]
    fn a_thread_that_never_opted_in_caches_nothing() {
        std::thread::spawn(|| {
            drop(Tensor::full(&[N], 3.0));
            assert_eq!(held_and_bound(), (0, 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_recycled_buffer_comes_back_zeroed_to_the_next_zeros_of_its_length() {
        std::thread::spawn(|| {
            hold_up_to(4 * N);
            let t = Tensor::full(&[N], 3.0);
            let ptr = t.data().as_ptr();
            drop(t);
            assert_eq!(held_and_bound(), (4 * N, 4 * N));
            let other = Tensor::zeros(&[N + 1]);
            assert_ne!(other.data().as_ptr(), ptr, "a buffer of another length was reused");
            let z = Tensor::zeros(&[8, N / 8]);
            assert_eq!(z.data().as_ptr(), ptr, "the held buffer was not reused");
            assert!(z.data().iter().all(|&x| x.to_bits() == 0), "reused buffer not re-zeroed");
            assert_eq!(held_and_bound().0, 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_bound_holds_and_small_buffers_are_never_kept() {
        std::thread::spawn(|| {
            hold_up_to(2 * 4 * N + 4 * N / 2);
            hold_up_to(4 * N); // the bound only grows
            let tensors: Vec<Tensor> = (0..5).map(|_| Tensor::zeros(&[N])).collect();
            drop(tensors);
            let (held, bound) = held_and_bound();
            assert_eq!(bound, 2 * 4 * N + 4 * N / 2);
            assert_eq!(held, 2 * 4 * N, "held {held} of a {bound}-byte bound");
            drop(Tensor::zeros(&[MIN_BYTES / 4 - 1]));
            assert_eq!(held_and_bound().0, held);
        })
        .join()
        .unwrap();
    }

    /// The write-once guard: in a test build (`debug_assertions`) a
    /// `for_overwrite` buffer is all NaN, fresh and taken from the free list
    /// alike, so a producer that misses an element leaves a NaN the bitwise
    /// suites see. Without it the buffer comes back zeroed or as it was left.
    #[test]
    fn a_for_overwrite_buffer_is_all_nan_fresh_and_recycled() {
        std::thread::spawn(|| {
            let holds = |t: &Tensor, left: f32| {
                let want = if cfg!(debug_assertions) { f32::NAN } else { left };
                t.data().iter().all(|x| x.to_bits() == want.to_bits())
            };
            let fresh = Tensor::for_overwrite(&[N]);
            assert!(holds(&fresh, 0.0), "a fresh buffer");
            hold_up_to(4 * N);
            let ptr = fresh.data().as_ptr();
            drop(fresh);
            drop(Tensor::full(&[N], 3.0));
            let held = Tensor::for_overwrite(&[N / 2, 2]);
            assert_eq!(held.data().as_ptr(), ptr, "the held buffer was not reused");
            assert_eq!(held.shape(), &[N / 2, 2]);
            assert!(holds(&held, 3.0), "a recycled buffer");
            assert!(holds(&Tensor::for_overwrite(&[7]), 0.0), "a small buffer");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn clones_and_fills_draw_held_buffers_and_keep_their_values() {
        std::thread::spawn(|| {
            hold_up_to(8 * N);
            drop((Tensor::zeros(&[N]), Tensor::zeros(&[N])));
            let src = Tensor::full(&[N], 0.25);
            assert_eq!(held_and_bound().0, 4 * N);
            let copy = src.clone();
            assert_eq!(held_and_bound().0, 0);
            assert_eq!(copy, src);
        })
        .join()
        .unwrap();
    }
}
