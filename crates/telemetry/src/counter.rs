//! A sharded atomic counter.
//!
//! Fleet-scale paths bump counters from many threads at once (bank
//! refill workers, replay-pool workers, per-SM simulator workers). A
//! single `AtomicU64` would make every bump a cross-core cache-line
//! bounce; instead each counter owns a small fixed set of
//! cache-line-padded shards and every thread sticks to one shard,
//! assigned round-robin the first time it touches *any* counter. Reads
//! sum the shards — counters are monotonic, so a racing read is merely
//! a slightly stale total, never a wrong one.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of shards per counter. Small on purpose: reads stay cheap,
/// and with one shard per *thread slot* (not per thread) collisions
/// only cost an occasional shared bump, never wrong totals.
const SHARDS: usize = 8;

/// One shard, padded to a cache line so neighbouring shards never
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

thread_local! {
    /// This thread's shard slot, assigned on first use.
    static SHARD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin source for thread shard slots.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

fn shard_slot() -> usize {
    SHARD_SLOT.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            s = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            slot.set(s);
        }
        s
    })
}

/// A monotonically increasing counter, cheap to bump from any thread.
///
/// Cloning is shallow: clones share the same shards, so a clone handed
/// to an instrumented component and the registry's copy always agree.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[Shard; SHARDS]>,
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter {
            shards: Arc::new(Default::default()),
        }
    }

    /// Adds `n` (relaxed; one `fetch_add` on this thread's shard).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Whether `self` and `other` are handles to the same counter.
    pub fn same_as(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.shards, &other.shards)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn clones_share_state() {
        let a = Counter::new();
        let b = a.clone();
        a.add(5);
        b.add(7);
        assert_eq!(a.get(), 12);
        assert_eq!(b.get(), 12);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&Counter::new()));
    }

    #[test]
    fn concurrent_bumps_are_all_counted() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
