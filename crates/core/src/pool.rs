//! A recycling arena for backend states.
//!
//! [`crate::be::TreeExecutor`] forks a state at every branch point of the
//! trajectory trie and drops one at every leaf. Before this arena, each
//! fork heap-allocated a fresh amplitude (or tensor) buffer and each leaf
//! freed one — at low noise that is one allocation round-trip per
//! trajectory, and the allocator becomes the hot path once prefix sharing
//! has removed the redundant gate work. [`StatePool`] keeps released
//! states and hands their buffers to the next fork
//! ([`crate::backend::Backend::fork_into`] overwrites contents in place),
//! so the tree walk is allocation-free in steady state: after the pool
//! warms up (one live state per branch point on the deepest path), no
//! fork allocates.
//!
//! The pool is value-agnostic — a recycled buffer is always fully
//! overwritten before use, which is what keeps pooled execution bitwise
//! identical to clone-per-fork execution (property-tested in
//! `tests/property_tests.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counters describing how a [`StatePool`] was used during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Forks served from a recycled buffer (no allocation).
    pub recycled: usize,
    /// Forks that allocated because the pool was empty.
    pub fresh: usize,
    /// States returned to the pool.
    pub released: usize,
    /// Most states simultaneously parked in the pool.
    pub high_water: usize,
}

impl PoolStats {
    /// Fraction of forks served without allocating (0 when no forks ran).
    pub fn recycle_ratio(&self) -> f64 {
        let total = self.recycled + self.fresh;
        if total == 0 {
            0.0
        } else {
            self.recycled as f64 / total as f64
        }
    }
}

/// A free-list of released states, shared across the (possibly parallel)
/// walkers of one execution.
#[derive(Debug, Default)]
pub struct StatePool<S> {
    free: Mutex<Vec<S>>,
    recycled: AtomicUsize,
    fresh: AtomicUsize,
    released: AtomicUsize,
    high_water: AtomicUsize,
}

impl<S> StatePool<S> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            recycled: AtomicUsize::new(0),
            fresh: AtomicUsize::new(0),
            released: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Take a recycled state if one is parked. Records a recycled fork on
    /// `Some`, a fresh fork on `None` — callers allocate on `None`.
    pub fn acquire(&self) -> Option<S> {
        let taken = self.free.lock().expect("pool lock").pop();
        match taken {
            Some(s) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Park a no-longer-needed state for later reuse.
    pub fn release(&self, state: S) {
        self.release_up_to(state, usize::MAX);
    }

    /// [`StatePool::release`] unless `cap` states are parked already, in
    /// which case `state` is dropped (after the pool lock is released).
    pub fn release_up_to(&self, state: S, cap: usize) {
        let mut free = self.free.lock().expect("pool lock");
        if free.len() >= cap {
            drop(free);
            return;
        }
        free.push(state);
        let len = free.len();
        drop(free);
        self.released.fetch_add(1, Ordering::Relaxed);
        self.high_water.fetch_max(len, Ordering::Relaxed);
    }

    /// Number of states currently parked.
    pub fn parked(&self) -> usize {
        self.free.lock().expect("pool lock").len()
    }

    /// Usage counters accumulated so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            recycled: self.recycled.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip_and_counters() {
        let pool = StatePool::<Vec<u8>>::new();
        assert!(pool.acquire().is_none(), "empty pool has nothing to give");
        pool.release(vec![1, 2, 3]);
        pool.release(vec![4]);
        assert_eq!(pool.parked(), 2);
        let got = pool.acquire().expect("parked state available");
        assert_eq!(got, vec![4], "LIFO reuse keeps buffers cache-warm");
        let stats = pool.stats();
        assert_eq!(stats.recycled, 1);
        assert_eq!(stats.fresh, 1);
        assert_eq!(stats.released, 2);
        assert_eq!(stats.high_water, 2);
        assert!((stats.recycle_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_capped_release_drops_what_does_not_fit() {
        let pool = StatePool::<Vec<u8>>::new();
        pool.release_up_to(vec![1], 2);
        pool.release_up_to(vec![2], 2);
        pool.release_up_to(vec![3], 2);
        assert_eq!(pool.parked(), 2);
        assert_eq!(pool.stats().released, 2);
        assert_eq!(pool.acquire(), Some(vec![2]));
        pool.release_up_to(vec![4], 0);
        assert_eq!(pool.parked(), 1);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(PoolStats::default().recycle_ratio(), 0.0);
    }
}
