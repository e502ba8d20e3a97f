//! SOFT hash table: [`BucketTable`] over [`SoftList`] buckets.
//!
//! Same table as [`crate::hash::HashMapDs`] (David et al.'s per-bucket
//! sorted lists, Fibonacci-mix + modulo bucket choice, the persistent
//! `[n, head_off…]` bucket-head block flushed once at construction), but
//! each bucket is the minimal-flush SOFT list: volatile links, one validity
//! flush per update, recovery that rebuilds every bucket chain from the
//! sealed nodes. Only what SOFT does differently lives here.
//!
//! Recovery cost note: because links are volatile, an open after a crash
//! rebuilds each bucket chain from the headers. The GC's mark finds them
//! in one pass over the blocks no tracer marked, probing each header once
//! and looking its `owner` word up once, and hands each bucket its sealed
//! nodes; each bucket is then sorted and relinked, storing only the links
//! that differ. A crashed open reads each node header once; a sealed open
//! reads none. A node is one 64-byte pool block. Every bucket head carries
//! the SOFT layout tag, so a table of another node layout is refused as a
//! whole. See [`crate::soft_list`] for the node-level contract.

use crate::hash::{BucketList, BucketTable};
use crate::soft_list::{is_soft_head, trace_owned, RelinkPlan, SoftList, SoftNode};
use nvtraverse::policy::Durability;
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::Word;
use nvtraverse_pool::Marker;

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

    // SAFETY: see `BucketList::is_own_head` — `head` holds `capacity` readable bytes.
    unsafe fn is_own_head(head: *const u8, capacity: u64) -> bool {
        // SAFETY: forwarded.
        unsafe { is_soft_head::<K, V, D::B>(head, capacity) }
    }

    fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        self.check_consistency(allow_marked)
    }

    fn iter_snapshot(&self) -> Vec<(K, V)> {
        self.iter_snapshot()
    }

    // SOFT reachability is header-proved, not link-based: one pass over the
    // blocks still unmarked keeps each sealed node any bucket owns — linked
    // or not (the recovery-rebuild contract of `soft_list`) — and files it
    // in its bucket's plan.
    // SAFETY: see `BucketList::trace_table` — every head is a validated SOFT head sentinel on a quiescent heap.
    unsafe fn trace_table(heads: &[*mut u8], marker: &mut Marker<'_>) -> Vec<RelinkPlan> {
        // SAFETY: forwarded — quiescent, validated heap; `trace_owned` only peeks headers the marker enumerates.
        unsafe { trace_owned::<K, V, D::B>(heads, marker) }
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

    /// Attaching to a cleanly closed pooled table persists nothing: its
    /// recovery finds every link already right and tombstones no stale
    /// twin, so it has no store to order and issues no fence — not one per
    /// bucket.
    #[test]
    fn clean_pooled_recovery_flushes_and_fences_nothing() {
        use nvtraverse::TypedRoots;
        use nvtraverse_pool::Pool;
        use nvtraverse_obs as obs;
        use nvtraverse_pmem::MmapBackend;
        type Map = SoftHash<u64, u64, Soft<MmapBackend>>;
        if !obs::enabled() {
            return; // NVT_OBS=off: nothing is counted
        }
        let path = std::env::temp_dir().join(format!("nvt-soft-clean-recover-{}.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
            let map = pool.create_root::<Map>("kv").unwrap();
            for k in 0..2000u64 {
                assert!(map.insert(k, k + 1));
            }
            map.close().unwrap();
        }
        let pool = Pool::builder().path(&path).open().unwrap();
        let set: &'static obs::MetricSet = Box::leak(Box::new(obs::MetricSet::new(1)));
        let map = {
            let _t = obs::attribute_to(Some(set));
            pool.root::<Map>("kv").unwrap()
        };
        let s = set.snapshot();
        assert_eq!((s.total_flushes(), s.total_fences()), (0, 0), "a clean table's recovery persisted something");
        assert_eq!(map.len(), 2000);
        map.close().unwrap();
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }
}
