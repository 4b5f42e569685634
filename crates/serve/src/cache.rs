//! Content-addressed LRU rollout cache.
//!
//! The unit of caching is one member-step of one rollout: the key names
//! everything that determines that state bitwise — the content hash of the
//! initial condition, the content key of the forcing stream, the ensemble
//! base seed, the member index, and the step count — and the entry stores
//! the state *plus the RNG snapshot taken right after the step*, so a later
//! request can resume the member's noise stream mid-rollout and continue
//! bitwise-identically. Because forecast evaluation is deterministic, a
//! cached value always equals what recomputation would produce; hits can
//! therefore never change served numbers, only skip work.
//!
//! Eviction is least-recently-used under a byte budget; hit/miss/eviction
//! accounting is exposed through [`CacheStats`].

use aeris_tensor::{RngSnapshot, Tensor};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aeris_tensor::{fnv_u64, FNV_INIT, FNV_PRIME};

/// Content hash of a tensor: the shape, then every f32 bit pattern (so `±0.0`
/// and NaN payloads count), FNV-1a style. The data goes in one 32-bit word
/// per xor-multiply step, not byte by byte — a submit hashes a whole state on
/// the request's clock — and since a multiply only carries upward, the high
/// half is folded into the low at the end. Each step is a bijection of `h`,
/// so changing one element always changes the hash. In-memory key only:
/// nothing stores or prints the value.
pub fn content_hash(t: &Tensor) -> u64 {
    let mut h = FNV_INIT;
    fnv_u64(&mut h, t.ndim() as u64);
    for &d in t.shape() {
        fnv_u64(&mut h, d as u64);
    }
    for &v in t.data() {
        h = (h ^ v.to_bits() as u64).wrapping_mul(FNV_PRIME);
    }
    h ^ (h >> 32)
}

/// Identity of one cached member-step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content hash of the initial physical state.
    pub init: u64,
    /// Content key of the forcing stream ([`Forcings::content_key`]).
    ///
    /// [`Forcings::content_key`]: crate::api::Forcings::content_key
    pub forcings: u64,
    /// Ensemble base seed.
    pub seed: u64,
    /// Member index within the ensemble.
    pub member: u64,
    /// 1-based step count: the entry is the state after `step` steps.
    pub step: u32,
    /// Request-kind auxiliary content: 0 for plain forecasts (and nowcasts
    /// whose guidance schedule is off, which are bitwise forecasts); the
    /// combined observation-set + guidance-schedule digest for active
    /// nowcasts. Keeps guided and unguided trajectories from ever aliasing.
    pub aux: u64,
}

/// One cached member-step.
#[derive(Clone)]
pub struct CacheEntry {
    /// Physical state after `key.step` steps.
    pub state: Arc<Tensor>,
    /// RNG snapshot taken immediately after computing that step; restoring
    /// it continues the member's noise stream bitwise.
    pub rng: RngSnapshot,
}

/// Hit/miss/eviction accounting (monotonic over the cache's lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Bytes currently resident.
    pub bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Resident {
    entry: CacheEntry,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Resident>,
    bytes: usize,
    insertions: u64,
    evictions: u64,
}

/// Thread-shared LRU rollout cache with a byte budget. A budget of 0
/// disables the cache entirely (every lookup misses, inserts are dropped).
pub struct RolloutCache {
    budget: usize,
    inner: Mutex<Inner>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RolloutCache {
    /// Create with a byte budget.
    pub fn new(budget: usize) -> Self {
        RolloutCache {
            budget,
            inner: Mutex::new(Inner::default()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up one member-step, refreshing its LRU position on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<CacheEntry> {
        if self.budget == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock();
        match inner.map.get_mut(key) {
            Some(r) => {
                r.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r.entry.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert one member-step, evicting least-recently-used entries until
    /// the budget holds. An entry larger than the whole budget is not
    /// cached. Racing inserts under the same key agree by construction
    /// (deterministic values), so last-writer-wins is safe.
    pub fn insert(&self, key: CacheKey, state: Arc<Tensor>, rng: RngSnapshot) {
        if self.budget == 0 {
            return;
        }
        let bytes = state.len() * std::mem::size_of::<f32>();
        if bytes > self.budget {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while inner.bytes + bytes > self.budget {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, r)| r.last_used)
                .map(|(k, _)| *k)
                .expect("bytes > 0 implies a resident entry");
            let victim = inner.map.remove(&lru).expect("victim resident");
            inner.bytes -= victim.bytes;
            inner.evictions += 1;
        }
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        inner.map.insert(key, Resident { entry: CacheEntry { state, rng }, bytes, last_used });
        inner.bytes += bytes;
        inner.insertions += 1;
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: inner.insertions,
            evictions: inner.evictions,
            bytes: inner.bytes,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeris_tensor::Rng;

    fn key(step: u32) -> CacheKey {
        CacheKey { init: 1, forcings: 2, seed: 3, member: 0, step, aux: 0 }
    }

    fn snap() -> RngSnapshot {
        Rng::seed_from(0).snapshot()
    }

    #[test]
    fn content_hash_separates_shape_and_values() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(&[4], vec![1., 2., 3., 4.]);
        let c = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 5.]);
        assert_ne!(content_hash(&a), content_hash(&b), "shape must enter the hash");
        assert_ne!(content_hash(&a), content_hash(&c), "values must enter the hash");
        assert_eq!(content_hash(&a), content_hash(&a.clone()));

        // One 40 KB state: any single flipped bit, a swap of two unequal
        // elements, and the sign of a zero each change the hash.
        let mut rng = Rng::seed_from(7);
        let mut state = Tensor::randn(&[1024, 10], &mut rng);
        state.data_mut()[77] = 0.0;
        let h = content_hash(&state);
        let with = |i: usize, v: f32| {
            let mut t = state.clone();
            t.data_mut()[i] = v;
            content_hash(&t)
        };
        for i in [0, 5000, 10_239] {
            for bit in 0..32 {
                assert_ne!(with(i, f32::from_bits(state.data()[i].to_bits() ^ 1 << bit)), h, "bit {bit} of {i}");
            }
        }
        let mut swapped = state.clone();
        swapped.data_mut().swap(3, 9000);
        assert_ne!(state.data()[3], state.data()[9000]);
        assert_ne!(content_hash(&swapped), h, "element order must enter the hash");
        assert_ne!(with(77, -0.0), h, "0.0 and -0.0 hash by bit pattern");
    }

    #[test]
    fn hit_miss_accounting_and_round_trip() {
        let cache = RolloutCache::new(1 << 20);
        assert!(cache.get(&key(1)).is_none());
        let t = Arc::new(Tensor::ones(&[8, 4]));
        cache.insert(key(1), t.clone(), snap());
        let e = cache.get(&key(1)).expect("hit");
        assert_eq!(*e.state, *t);
        assert_eq!(e.rng, snap());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // Each [8,4] f32 tensor is 128 bytes; budget fits exactly two.
        let cache = RolloutCache::new(256);
        let t = || Arc::new(Tensor::ones(&[8, 4]));
        cache.insert(key(1), t(), snap());
        cache.insert(key(2), t(), snap());
        // Touch step 1 so step 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), t(), snap());
        assert!(cache.get(&key(1)).is_some(), "recently used must survive");
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 256);
    }

    #[test]
    fn aux_component_separates_guided_and_unguided_entries() {
        let cache = RolloutCache::new(1 << 20);
        cache.insert(key(1), Arc::new(Tensor::ones(&[8, 4])), snap());
        let guided = CacheKey { aux: 99, ..key(1) };
        assert!(cache.get(&guided).is_none(), "guided key must not alias the forecast entry");
        cache.insert(guided, Arc::new(Tensor::zeros(&[8, 4])), snap());
        assert_eq!(cache.get(&key(1)).unwrap().state.data()[0], 1.0);
        assert_eq!(cache.get(&guided).unwrap().state.data()[0], 0.0);
    }

    #[test]
    fn oversized_and_disabled_inserts_are_dropped() {
        let tiny = RolloutCache::new(4);
        tiny.insert(key(1), Arc::new(Tensor::ones(&[8, 4])), snap());
        assert_eq!(tiny.stats().entries, 0, "entry larger than budget");
        let off = RolloutCache::new(0);
        off.insert(key(1), Arc::new(Tensor::ones(&[8, 4])), snap());
        assert!(off.get(&key(1)).is_none());
        assert_eq!(off.stats().entries, 0);
    }
}
