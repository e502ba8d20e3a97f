//! SOFT hash table: [`BucketTable`] over [`SoftList`] buckets.
//!
//! Same table as [`crate::hash::HashMapDs`] (David et al.'s per-bucket
//! sorted lists, Fibonacci-mix + modulo bucket choice, the persistent
//! `[n, head_off…]` bucket-head block flushed once at construction), but
//! each bucket is the minimal-flush SOFT list: volatile links, one validity
//! flush per update, recovery that rebuilds every bucket chain from the
//! sealed nodes. Only what SOFT does differently lives here.
//!
//! Recovery cost note: because links are volatile, recovering after a
//! restart takes **one** pass over the pool's allocated blocks (shared by
//! all buckets), distributing each sealed node to the bucket its `owner`
//! word names; see [`crate::soft_list`] for the node-level contract.

use crate::hash::{BucketList, BucketTable};
use crate::soft_list::{recover_from_pool, soft_mark_owned, SoftList, SoftNode};
use nvtraverse::policy::Durability;
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::Word;
use nvtraverse_pool::{Marker, Pool};

/// A fixed-capacity lock-free hash map with per-bucket SOFT lists.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::Soft;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::Clwb;
/// use nvtraverse_structures::soft_hash::SoftHash;
///
/// let map: SoftHash<u64, u64, Soft<Clwb>> = SoftHash::new(64);
/// assert!(map.insert(17, 1700));
/// assert_eq!(map.get(17), Some(1700));
/// ```
pub type SoftHash<K, V, D> = BucketTable<SoftList<K, V, D>>;

impl<K: Word + Ord, V: Word, D: Durability> BucketList for SoftList<K, V, D> {
    type Key = K;
    type Value = V;
    const TABLE_NAME: &'static str = "SoftHash";

    fn with_collector(collector: Collector) -> Self {
        Self::with_collector(collector)
    }

    fn head_addr(&self) -> *const u8 {
        self.head as *const u8
    }

    // SAFETY: see `BucketList::attach_head` — `head` is this list type's head sentinel, quiescent.
    unsafe fn attach_head(head: *mut u8, collector: Collector) -> Self {
        // SAFETY: forwarded.
        unsafe { Self::attach_at(head as *mut SoftNode<K, V, D::B>, collector) }
    }

    fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        self.check_consistency(allow_marked)
    }

    fn iter_snapshot(&self) -> Vec<(K, V)> {
        self.iter_snapshot()
    }

    /// A pooled table's buckets keep no node inventory: one shared pass
    /// over the pool's hands every sealed node to the bucket that owns it.
    /// Without a pool each bucket recovers from what it has itself.
    fn recover_buckets(buckets: &[Self], _collector: &Collector, pool: Option<&Pool>) {
        match pool {
            Some(pool) => recover_from_pool(pool, buckets),
            None => buckets.iter().for_each(Self::recover_soft),
        }
    }

    // SOFT reachability is header-proved, not link-based: after marking
    // every bucket head, one pass over the heap's allocated blocks keeps
    // each sealed node owned by any of them — linked or not (the
    // recovery-rebuild contract of `soft_list`).
    // SAFETY: see `BucketList::trace_buckets` — every head is a validated SOFT head sentinel on a quiescent heap.
    unsafe fn trace_buckets(heads: &[*mut u8], marker: &mut Marker<'_>) {
        let owners: Vec<u64> = heads
            .iter()
            .map(|&head| {
                marker.mark(head);
                head as u64
            })
            .collect();
        // SAFETY: forwarded — quiescent, validated heap; `soft_mark_owned` only peeks headers `Marker::at` vouches for.
        unsafe { soft_mark_owned::<K, V, D::B>(marker, &owners) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::policy::Soft;
    use nvtraverse::DurableSet;
    use nvtraverse_pmem::{Sim, SimHandle};

    // The discipline-independent table tests run for `SoftHash` too — see
    // `crate::hash::tests`.

    #[test]
    fn recovery_rebuilds_every_bucket() {
        let sim = SimHandle::new();
        let guard = sim.enter();
        let m: SoftHash<u64, u64, Soft<Sim>> = SoftHash::with_collector(4, Collector::leaking());
        for k in 0..40u64 {
            assert!(m.insert(k, k * 3));
        }
        for k in (0..40u64).step_by(4) {
            assert!(m.remove(k));
        }
        unsafe { sim.crash_and_rollback() };
        m.recover();
        assert_eq!(m.check_consistency(false).unwrap(), 30);
        let mut got = m.iter_snapshot();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..40u64).filter(|k| k % 4 != 0).map(|k| (k, k * 3)).collect();
        assert_eq!(got, want);
        drop(m);
        drop(guard);
    }
}
