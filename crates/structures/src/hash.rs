//! Lock-free hash table: a fixed array of sorted-list buckets.
//!
//! This mirrors the hash table the paper evaluates — "a hash table
//! implemented by David et al. based on Harris's linked-list" (§5) — and the
//! paper's own NVTraverse version, which computes the bucket with a *modulo*
//! rather than a power-of-two bit-mask (§5.3: "This is faster than modulo, a
//! more general function that we use").
//!
//! As a traversal data structure, the table's core is a shallow forest: the
//! bucket array is allocated and persisted once at construction (it is part
//! of the root), and each bucket's sentinel head anchors an independent
//! sorted list. `findEntry` hashes the key to pick the bucket head — a
//! genuine use of the paper's entry-point flexibility (§3: `findEntry`
//! "outputs an entry point into the core tree").
//!
//! The table is written once, as [`BucketTable`] over a [`BucketList`]:
//! [`HashMapDs`] instantiates it with [`HarrisList`] buckets, and
//! [`SoftHash`](crate::soft_hash::SoftHash) with the minimal-flush
//! [`SoftList`](crate::soft_list::SoftList) — "Efficient Lock-Free Durable
//! Sets" builds its two tables the same way, one bucket array over two list
//! disciplines.
//!
//! # Recovery
//!
//! The table is traced for the recovery GC as a whole, not bucket by
//! bucket, through one [`BucketList`] hook,
//! [`trace_table`](BucketList::trace_table), which returns each
//! bucket's own [`PoolTrace`] plan; the table's recovery hands every bucket
//! its plan. Harris buckets are `n` independent pointer chains, so their
//! mark advances all `n` chains as one wavefront (the crate's
//! `walk_chains`) whose cache misses overlap, and a bucket's plan is
//! whether its chain crossed a marked link: the list's own `disconnect`
//! pass runs on those buckets alone, and any other bucket is one it would
//! not write to. SOFT buckets have no persistent links to chase: one pass
//! over the heap's allocated blocks hands each bucket its sealed nodes,
//! and the bucket relinks from them. An in-process
//! [`recover`](DurableSet::recover) recovers bucket by bucket.

use crate::list::HarrisList;
use nvtraverse::alloc::PoolCtx;
use nvtraverse::detect::{OpError, OpToken};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, PoolTrace};
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::{Backend, MmapBackend, Word};
use nvtraverse_pool::{Marker, OpId, OpOutcome, Pool, RawOp};
use std::fmt;
use std::io;

/// A sorted-list type that can serve as the buckets of a [`BucketTable`]:
/// the list's own set operations (through [`DurableSet`]) and recovery
/// (through [`PoolTrace`]) plus what the table needs to build, persist,
/// re-attach, trace and inspect an array of them. Everything a table does
/// that is the same for every list discipline lives in [`BucketTable`]; the
/// three hooks at the end are the places where the disciplines genuinely
/// differ.
pub trait BucketList: DurableSet<Self::Key, Self::Value> + PoolTrace + Sized {
    /// Key type of the list (and the table over it).
    type Key: Word + Ord;
    /// Value type of the list (and the table over it).
    type Value: Word;
    /// The table's `Debug` name under this list type.
    const TABLE_NAME: &'static str;

    /// An empty list retiring into `collector`, allocated from the
    /// thread's current allocation scope.
    fn with_collector(collector: Collector) -> Self;

    /// Address of the list's head sentinel — what the persistent bucket
    /// table records (as a pool offset) for this bucket.
    fn head_addr(&self) -> *const u8;

    /// Rebuilds a list handle around an existing head sentinel.
    ///
    /// # Safety
    ///
    /// `head` must be the head sentinel of a quiescent list of this exact
    /// type, and the caller must not drop two handles to one list.
    unsafe fn attach_head(head: *mut u8, collector: Collector) -> Self;

    /// Quiescent: verifies the list's invariants, returning its live nodes.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    fn check_consistency(&self, allow_marked: bool) -> Result<usize, String>;

    /// Quiescent: the list's `(key, value)` pairs in key order.
    fn iter_snapshot(&self) -> Vec<(Self::Key, Self::Value)>;

    /// Marks every block reachable from the validated bucket `heads`, all
    /// chains at once — the per-bucket half of the table's `PoolTrace` —
    /// and returns each bucket's [plan](PoolTrace::Plan), in `heads` order,
    /// for that bucket's [`recover_attached`](PoolTrace::recover_attached).
    ///
    /// # Safety
    ///
    /// Same contract as [`PoolTrace::trace`], with every element of `heads`
    /// a head sentinel of this list type.
    unsafe fn trace_table(heads: &[*mut u8], marker: &mut Marker<'_>) -> Vec<Self::Plan>;

    /// Whether `head`, an allocated block of `capacity` payload bytes that
    /// the persistent bucket table names, is a head sentinel of this list
    /// type's node layout. A table naming any other head is refused — its
    /// tracer refuses the collection and attaching returns `None` — rather
    /// than read under the wrong layout. The default accepts every head.
    ///
    /// # Safety
    ///
    /// `head` must point to `capacity` readable, quiescent bytes.
    unsafe fn is_own_head(head: *const u8, capacity: u64) -> bool {
        let _ = (head, capacity);
        true
    }

    /// [`PoolAttach::resolve_detectable`] for a table of these lists; the
    /// default does nothing (no detectable operations).
    fn resolve_detectable(table: &BucketTable<Self>, pool: &Pool) {
        let _ = (table, pool);
    }
}

/// A fixed-capacity lock-free hash map: `n` independent sorted-list
/// buckets sharing one collector. See the [module docs](self); use it
/// through the [`HashMapDs`] and [`SoftHash`](crate::soft_hash::SoftHash)
/// aliases.
pub struct BucketTable<L> {
    buckets: Box<[L]>,
    collector: Collector,
}

/// The paper's hash table: [`BucketTable`] over [`HarrisList`] buckets.
///
/// Named `HashMapDs` ("data structure") to avoid colliding with
/// `std::collections::HashMap` in user code.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::Clwb;
/// use nvtraverse_structures::hash::HashMapDs;
///
/// let map: HashMapDs<u64, u64, NvTraverse<Clwb>> = HashMapDs::new(64);
/// assert!(map.insert(17, 1700));
/// assert_eq!(map.get(17), Some(1700));
/// ```
pub type HashMapDs<K, V, D> = BucketTable<HarrisList<K, V, D>>;

/// Largest bucket count [`decode_root`] accepts.
const MAX_BUCKETS: u64 = 1 << 24;

/// Writes the persistent form of a pooled table: a block
/// `[bucket_count, head_off 0, …, head_off n-1]` holding each bucket head
/// as a pool offset, flushed and fenced. The `Box<[L]>` handle is volatile
/// and rebuilt from this block on every attach.
fn encode_root<L: BucketList>(pool: &Pool, buckets: &[L]) -> io::Result<*mut u64> {
    let n = buckets.len();
    let table = pool
        .alloc((n + 1) * 8, 8)
        .ok_or_else(|| io::Error::other("pool exhausted"))? as *mut u64;
    // SAFETY: the block was just allocated with room for `n + 1` words and
    // is not yet reachable by anyone else.
    unsafe {
        table.write(n as u64);
        for (i, b) in buckets.iter().enumerate() {
            let head = b.head_addr();
            assert!(
                pool.contains(head),
                "bucket head not allocated from this pool — built outside its scope?"
            );
            table.add(1 + i).write(pool.offset_of(head));
        }
    }
    MmapBackend::flush_range(table as *const u8, (n + 1) * 8);
    MmapBackend::fence();
    Ok(table)
}

/// Reads a `[n, head_off…]` block back, trusting nothing in it: `n` must
/// be plausible **and fit the block** (`capacity` is the root block's
/// payload size, so no head offset is read from beyond it), and every head
/// offset must pass `head_at` — the caller's "payload start of an allocated
/// block of this pool" check — before it is handed out as a pointer.
/// `None` when anything fails.
///
/// # Safety
///
/// `root` must point at `capacity` readable bytes (an allocated payload of
/// a quiescent pool).
unsafe fn decode_root(
    root: *const u64,
    capacity: u64,
    head_at: impl Fn(u64) -> Option<*mut u8>,
) -> Option<Vec<*mut u8>> {
    // SAFETY: every block payload holds at least two words.
    let n = unsafe { root.read() };
    if n == 0 || n > MAX_BUCKETS || (n + 1) * 8 > capacity {
        return None;
    }
    // SAFETY: `(n + 1) * 8 <= capacity`, so words `1..=n` are in the block.
    (1..=n as usize).map(|i| head_at(unsafe { root.add(i).read() })).collect()
}

impl<L: BucketList> BucketTable<L> {
    /// Creates a table with `buckets` fixed buckets (rounded up to 1).
    pub fn new(buckets: usize) -> Self {
        Self::with_collector(buckets, Collector::new())
    }

    /// Creates a table whose bucket lists share `collector`.
    pub fn with_collector(buckets: usize, collector: Collector) -> Self {
        BucketTable {
            buckets: (0..buckets.max(1))
                .map(|_| L::with_collector(collector.clone()))
                .collect(),
            collector,
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The shared collector.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// `findEntry` for the table, keyed by raw key bits (recovery
    /// classification only has a descriptor's `key` word, not a `Key`):
    /// Fibonacci-mix, then reduce with the paper's general *modulo*.
    #[inline]
    fn bucket_for_bits(&self, key_bits: u64) -> &L {
        let mixed = key_bits.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.buckets[(mixed % self.buckets.len() as u64) as usize]
    }

    #[inline]
    fn bucket(&self, key: L::Key) -> &L {
        self.bucket_for_bits(key.to_bits())
    }

    /// Quiescent: verifies every bucket's invariants, returning total live
    /// nodes.
    ///
    /// # Errors
    ///
    /// Propagates the first bucket violation, tagged with its index.
    pub fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        let mut total = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            total += b
                .check_consistency(allow_marked)
                .map_err(|e| format!("bucket {i}: {e}"))?;
        }
        Ok(total)
    }

    /// Quiescent: all `(key, value)` pairs, unordered across buckets.
    pub fn iter_snapshot(&self) -> Vec<(L::Key, L::Value)> {
        self.buckets.iter().flat_map(|b| b.iter_snapshot()).collect()
    }

    /// Bucket count of a pooled table ([`PoolAttach::create_in_pool`]).
    pub const DEFAULT_POOL_BUCKETS: usize = 64;
}

impl<K: Word + Ord, V: Word, D: Durability> HashMapDs<K, V, D> {
    /// Classifies a recovered operation descriptor against this table's
    /// recovered state by delegating to the owning bucket's
    /// [`HarrisList::classify_op`]. Quiescent; call after
    /// [`recover`](DurableSet::recover). The bucket count must match the
    /// one the descriptor was written under (it is fixed at construction
    /// and persisted in the root table, so a pooled reopen always agrees).
    pub fn classify_op(&self, raw: &RawOp) -> OpOutcome {
        self.bucket_for_bits(raw.key).classify_op(raw)
    }
}

impl<L: BucketList> DurableSet<L::Key, L::Value> for BucketTable<L> {
    fn insert(&self, key: L::Key, value: L::Value) -> bool {
        self.bucket(key).insert(key, value)
    }

    fn remove(&self, key: L::Key) -> bool {
        self.bucket(key).remove(key)
    }

    fn get(&self, key: L::Key) -> Option<L::Value> {
        self.bucket(key).get(key)
    }

    fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Recovers every bucket list. The bucket array itself is immutable
    /// and was persisted at construction.
    fn recover(&self) {
        self.buckets.iter().for_each(L::recover);
    }

    fn try_insert(&self, key: L::Key, value: L::Value) -> Result<bool, OpError> {
        self.bucket(key).try_insert(key, value)
    }

    fn try_remove(&self, key: L::Key) -> Result<bool, OpError> {
        self.bucket(key).try_remove(key)
    }

    fn insert_detectable(
        &self,
        token: &mut OpToken,
        key: L::Key,
        value: L::Value,
    ) -> Result<(OpId, bool), OpError> {
        self.bucket(key).insert_detectable(token, key, value)
    }

    fn remove_detectable(
        &self,
        token: &mut OpToken,
        key: L::Key,
    ) -> Result<(OpId, bool), OpError> {
        self.bucket(key).remove_detectable(token, key)
    }
}

impl<L: BucketList> PoolAttach for BucketTable<L> {
    /// Builds a fresh table of [`Self::DEFAULT_POOL_BUCKETS`] buckets whose
    /// nodes — and whose bucket-head table — all live in `pool`, registered
    /// under `name`.
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        // Entered so every bucket list's context snapshot captures this
        // pool (the table block itself is allocated via `pool.alloc`).
        let _scope = PoolCtx::of(pool).enter();
        let map = Self::with_collector(Self::DEFAULT_POOL_BUCKETS, pool.collector().clone());
        pool.set_root_ptr_checked(name, encode_root(pool, &map.buckets)?)?;
        Ok(map)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let root = pool.attach_root_ptr::<u64>(name)? as *const u64;
        if !pool.is_allocated_payload(pool.offset_of(root as *const u8)) {
            return None;
        }
        // SAFETY: `root` is an allocated payload of `usable_size` bytes, and attach runs single-threaded on a quiescent pool.
        let heads = unsafe {
            decode_root(root, pool.usable_size(root as *const u8), |off| {
                pool.is_allocated_payload(off).then(|| pool.at(off))
            })
        }?;
        // SAFETY: every head is an allocated payload of `usable_size` bytes.
        if !heads.iter().all(|&h| unsafe { L::is_own_head(h, pool.usable_size(h)) }) {
            return None;
        }
        // Entered so every bucket list's context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        let collector = pool.collector().clone();
        let buckets: Box<[L]> = heads
            .into_iter()
            // SAFETY: the head is an allocated block the persistent table names; the caller vouches for the table's type.
            .map(|head| unsafe { L::attach_head(head, collector.clone()) })
            .collect();
        Some(BucketTable { buckets, collector })
    }

    fn resolve_detectable(&self, pool: &Pool) {
        <L as BucketList>::resolve_detectable(self, pool);
    }
}

// A root block that does not decode is left alone — attach rejects it too.
// A bucket head the list type does not own (`BucketList::is_own_head`)
// refuses the whole collection, and attach rejects that table as well.
// SAFETY: the root is the persistent bucket table `[n, head_off…]`; marking
// it and handing its validated bucket heads to the list type's own walk
// covers every block the table's recovery (each bucket's) can reach.
unsafe impl<L: BucketList> PoolTrace for BucketTable<L> {
    /// Each bucket's plan, in bucket order.
    type Plan = Vec<L::Plan>;

    // SAFETY: see `PoolTrace::trace` — `root` is a root this type created, on the quiescent, header-verified heap of `Pool::open` recovery.
    unsafe fn trace(root: *mut u8, marker: &mut Marker<'_>) -> Vec<L::Plan> {
        let Some(capacity) = marker.capacity_of(root).filter(|_| marker.mark(root)) else {
            return Vec::new();
        };
        // SAFETY: `mark` vouched for `root` as an allocated payload of `capacity` bytes; the heap is quiescent during recovery.
        let heads = unsafe { decode_root(root as *const u64, capacity, |off| marker.at(off)) };
        let Some(heads) = heads else {
            return Vec::new();
        };
        // SAFETY: every head passed `Marker::at`, so `capacity_of` knows its payload; the heap is quiescent.
        if !heads.iter().all(|&h| marker.capacity_of(h).is_some_and(|cap| unsafe { L::is_own_head(h, cap) })) {
            marker.refuse();
            return Vec::new();
        }
        // SAFETY: every head passed `Marker::at`; the registry's type contract vouches for the list type.
        unsafe { L::trace_table(&heads, marker) }
    }

    /// Hands every bucket its plan. The table attached from the block the
    /// trace decoded, so there is one plan per bucket.
    fn recover_attached(&self, plans: Vec<L::Plan>) {
        debug_assert_eq!(plans.len(), self.buckets.len());
        for (bucket, plan) in self.buckets.iter().zip(plans) {
            bucket.recover_attached(plan);
        }
    }
}

impl<L: BucketList> fmt::Debug for BucketTable<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(L::TABLE_NAME)
            .field("buckets", &self.buckets.len())
            .field("len", &self.len())
            .finish()
    }
}

impl<K: Word + Ord, V: Word, D: Durability> BucketList for HarrisList<K, V, D> {
    type Key = K;
    type Value = V;
    const TABLE_NAME: &'static str = "HashMapDs";

    fn with_collector(collector: Collector) -> Self {
        Self::with_collector(collector)
    }

    fn head_addr(&self) -> *const u8 {
        self.head as *const u8
    }

    // SAFETY: see `BucketList::attach_head` — `head` is this list type's head sentinel, quiescent.
    unsafe fn attach_head(head: *mut u8, collector: Collector) -> Self {
        // SAFETY: forwarded.
        unsafe { Self::attach_at(head as *mut crate::list::Node<K, V, D::B>, collector) }
    }

    fn check_consistency(&self, allow_marked: bool) -> Result<usize, String> {
        self.check_consistency(allow_marked)
    }

    fn iter_snapshot(&self) -> Vec<(K, V)> {
        self.iter_snapshot()
    }

    // SAFETY: see `BucketList::trace_table` — every head is a validated Harris head sentinel on a quiescent heap.
    unsafe fn trace_table(heads: &[*mut u8], marker: &mut Marker<'_>) -> Vec<bool> {
        let mut heads: Vec<_> = heads.iter().map(|&h| h as *mut crate::list::Node<K, V, D::B>).collect();
        // SAFETY: forwarded — each head roots one Harris chain; the chains advance as one wavefront.
        unsafe { Self::trace_heads(&mut heads, marker) }
    }

    fn resolve_detectable(table: &HashMapDs<K, V, D>, pool: &Pool) {
        for raw in pool.unresolved_ops() {
            pool.resolve_op(raw.id(), table.classify_op(&raw));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft_list::SoftList;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{NvTraverse, Soft, Volatile};
    use nvtraverse_pmem::{Clwb, Noop};

    // The discipline-independent tests run over both list types.
    type Harris<D> = HarrisList<u64, u64, D>;
    type SoftL<D> = SoftList<u64, u64, D>;

    #[test]
    fn basic_semantics() {
        fn run<L: BucketList<Key = u64, Value = u64>>() {
            let m: BucketTable<L> = BucketTable::new(16);
            assert!(m.insert(1, 10));
            assert!(m.insert(17, 170)); // likely different bucket
            assert!(!m.insert(1, 11));
            assert_eq!(m.get(1), Some(10));
            assert_eq!(m.get(17), Some(170));
            assert!(m.remove(1));
            assert_eq!(m.get(1), None);
            assert_eq!(m.len(), 1);
        }
        run::<Harris<NvTraverse<Clwb>>>();
        run::<SoftL<Soft<Clwb>>>();
    }

    #[test]
    fn single_bucket_degenerates_to_list() {
        fn run<L: BucketList<Key = u64, Value = u64>>() {
            let m: BucketTable<L> = BucketTable::new(1);
            for k in 0..100u64 {
                assert!(m.insert(k, k));
            }
            assert_eq!(m.len(), 100);
            assert_eq!(m.check_consistency(true).unwrap(), 100);
        }
        run::<Harris<Volatile>>();
        run::<SoftL<Volatile>>();
    }

    #[test]
    fn zero_bucket_request_is_clamped() {
        fn run<L: BucketList<Key = u64, Value = u64>>() {
            let m: BucketTable<L> = BucketTable::new(0);
            assert_eq!(m.bucket_count(), 1);
            assert!(m.insert(5, 50));
        }
        run::<Harris<Volatile>>();
        run::<SoftL<Volatile>>();
    }

    #[test]
    fn matches_model_on_random_workload() {
        fn run<L: BucketList<Key = u64, Value = u64>>() {
            use rand::prelude::*;
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let m: BucketTable<L> = BucketTable::new(8);
            let mut model = ModelSet::new();
            for i in 0..4000u64 {
                let k = rng.random_range(0..256);
                match rng.random_range(0..3) {
                    0 => assert_eq!(m.insert(k, i), model.insert(k, i)),
                    1 => assert_eq!(m.remove(k), model.remove(k)),
                    _ => assert_eq!(m.get(k), model.get(k)),
                }
            }
            assert_eq!(m.len(), model.len());
            let mut got = m.iter_snapshot();
            got.sort_unstable();
            let want: Vec<(u64, u64)> = model.iter().collect();
            assert_eq!(got, want);
        }
        run::<Harris<NvTraverse<Noop>>>();
        run::<SoftL<Soft<Noop>>>();
    }

    #[test]
    fn concurrent_stress_across_buckets() {
        fn run<L: BucketList<Key = u64, Value = u64>>() {
            let m: BucketTable<L> = BucketTable::new(32);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let m = &m;
                    s.spawn(move || {
                        let base = t * 1000;
                        for k in base..base + 1000 {
                            assert!(m.insert(k, k));
                        }
                        for k in (base..base + 1000).step_by(2) {
                            assert!(m.remove(k));
                        }
                    });
                }
            });
            assert_eq!(m.check_consistency(true).unwrap(), 2000);
        }
        run::<Harris<NvTraverse<Clwb>>>();
        run::<SoftL<Soft<Clwb>>>();
    }

    #[test]
    fn debug_names_the_alias() {
        let h: HashMapDs<u64, u64, Volatile> = HashMapDs::new(2);
        let s: crate::soft_hash::SoftHash<u64, u64, Volatile> = BucketTable::new(2);
        assert!(format!("{h:?}").starts_with("HashMapDs {"));
        assert!(format!("{s:?}").starts_with("SoftHash {"));
    }

    #[test]
    fn recovery_recurses_into_buckets() {
        let m: HashMapDs<u64, u64, NvTraverse<Noop>> = HashMapDs::new(4);
        for k in 0..20u64 {
            m.insert(k, k);
        }
        m.recover();
        assert_eq!(m.check_consistency(false).unwrap(), 20);
    }

    #[test]
    fn detectable_ops_route_to_buckets() {
        use nvtraverse::detect::OpTable;

        let m: HashMapDs<u64, u64, NvTraverse<Noop>> = HashMapDs::new(8);
        let table: OpTable<Noop> = OpTable::new(2);
        let mut tok = table.token(0);
        for k in 0..32u64 {
            let (id, fresh) = m.insert_detectable(&mut tok, k, k * 10).unwrap();
            assert!(fresh);
            let raw = table.raw(0).unwrap();
            assert_eq!(raw.id(), id);
            assert_eq!(m.classify_op(&raw), OpOutcome::Committed);
        }
        let (_, removed) = m.remove_detectable(&mut tok, 5).unwrap();
        assert!(removed);
        assert_eq!(m.classify_op(&table.raw(0).unwrap()), OpOutcome::Committed);
        let (_, removed) = m.remove_detectable(&mut tok, 5).unwrap();
        assert!(!removed, "second remove of the same key is a no-op");
        assert_eq!(m.classify_op(&table.raw(0).unwrap()), OpOutcome::NotApplied);
        assert_eq!(m.len(), 31);
    }

    #[test]
    fn buckets_share_one_collector() {
        let m: HashMapDs<u64, u64, Volatile> = HashMapDs::new(4);
        // All buckets retire into the same collector instance.
        let epoch_before = m.collector().epoch();
        for k in 0..50u64 {
            m.insert(k, k);
            m.remove(k);
        }
        m.collector().synchronize();
        assert!(m.collector().epoch() > epoch_before);
    }

    // ---- recovery: the wavefront against a one-chain-at-a-time reference ----

    use crate::list::Node;
    use nvtraverse::TypedRoots;
    use nvtraverse_obs as obs;
    use nvtraverse_pmem::Count;

    /// The nodes behind `bucket`'s head sentinel, in chain order, marked or
    /// not — the plain walk the wavefront is checked against.
    fn chain<D: Durability>(bucket: &Harris<D>) -> Vec<*mut Node<u64, u64, D::B>> {
        let mut out = Vec::new();
        // SAFETY: quiescent test heap; every link was written by this test.
        unsafe {
            let mut cur = (*bucket.head).next.load().ptr();
            while !cur.is_null() {
                out.push(cur);
                cur = (*cur).next.load().ptr();
            }
        }
        out
    }

    /// Logically deletes `node` and nothing more: the state a crash between
    /// a remove's mark CAS and its unlink leaves behind.
    fn mark_in_place<B: Backend>(node: *mut Node<u64, u64, B>) {
        // SAFETY: quiescent test heap; `node` is a live chain node.
        unsafe {
            let next = &(*node).next;
            next.store(next.load().with_mark());
            B::flush(next.addr());
        }
        B::fence();
    }

    /// Raw words of every node of `bucket`: (address, key, value, link).
    fn words<D: Durability>(bucket: &Harris<D>) -> Vec<(usize, u64, u64, u64)> {
        chain(bucket)
            .into_iter()
            // SAFETY: quiescent test heap.
            .map(|n| unsafe {
                (n as usize, (*n).key.load(), (*n).value.load(), (*n).next.peek_bits())
            })
            .collect()
    }

    #[test]
    fn pooled_recovery_matches_the_one_chain_at_a_time_reference() {
        use rand::prelude::*;
        type Map = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;

        // (buckets, keys drawn) — few keys over 64 buckets leaves buckets
        // empty.
        for (buckets, draws) in [(1usize, 300u64), (3, 300), (64, 90)] {
            let name = "table";
            let path = std::env::temp_dir().join(format!(
                "nvt-hash-wavefront-{}-{buckets}.pool",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);

            let (want_pairs, want_live, marked, garbage_blocks, garbage_bytes);
            {
                let pool = Pool::builder().path(&path).capacity(8 << 20).create().unwrap();
                let scope = PoolCtx::of(&pool).enter();
                let map = Map::with_collector(buckets, pool.collector().clone());
                let root = encode_root(&pool, &map.buckets).unwrap();
                pool.set_root_ptr_checked(name, root).unwrap();
                drop(scope);
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE ^ buckets as u64);
                for i in 0..draws {
                    let k = rng.random_range(0..400u64);
                    if rng.random_range(0..4) == 0 {
                        map.remove(k);
                    } else {
                        map.insert(k, i);
                    }
                }
                map.collector().drain();
                // Marked-but-still-linked nodes at the head, in the middle
                // (two adjacent) and at the tail of the longest chains.
                let mut n_marked = 0;
                let mut by_len: Vec<&Harris<_>> = map.buckets.iter().collect();
                by_len.sort_by_key(|b| std::cmp::Reverse(chain(b).len()));
                for (b, spots) in by_len.iter().zip([&[0usize, 3, 4][..], &[usize::MAX][..], &[2][..]]) {
                    let nodes = chain(b);
                    for &spot in spots {
                        let i = spot.min(nodes.len().saturating_sub(1));
                        // SAFETY: quiescent test heap.
                        if i < nodes.len() && !unsafe { (*nodes[i]).next.load() }.is_marked() {
                            mark_in_place(nodes[i]);
                            n_marked += 1;
                        }
                    }
                }
                assert!(n_marked >= 3, "{buckets} buckets: chains too short to mark");
                // Unreachable garbage, in several classes.
                let garbage: Vec<*mut u8> =
                    [40, 40, 200, 1000, 70_000].iter().map(|&n| pool.alloc(n, 8).unwrap()).collect();
                garbage_blocks = garbage.len();
                garbage_bytes = garbage.iter().map(|&p| pool.usable_size(p) + 16).sum::<u64>();
                // The reference: one chain at a time.
                let mut pairs = Vec::new();
                let mut live = 1; // the bucket-table block
                for b in map.buckets.iter() {
                    let nodes = chain(b);
                    live += 1 + nodes.len();
                    for n in nodes {
                        // SAFETY: quiescent test heap.
                        unsafe {
                            if !(*n).next.load().is_marked() {
                                pairs.push(((*n).key.load(), (*n).value.load()));
                            }
                        }
                    }
                }
                pairs.sort_unstable();
                (want_pairs, want_live, marked) = (pairs, live, n_marked);
                pool.sync().unwrap();
            }

            // As a crash leaves it: the clean close sealed the image.
            crate::unseal(&path);
            let pool = Pool::builder().path(&path).open().unwrap();
            let map = pool.root::<Map>(name).unwrap();
            let report = pool.recovery_report();
            assert!(report.gc_ran, "{buckets} buckets");
            assert_eq!(report.reclaimed_blocks, garbage_blocks, "{buckets} buckets");
            assert_eq!(report.reclaimed_bytes, garbage_bytes, "{buckets} buckets");
            assert_eq!(report.live_blocks, want_live, "{buckets} buckets");
            assert_eq!(report.root_marks, vec![(name.to_string(), want_live as u64)]);
            let mut got = map.iter_snapshot();
            got.sort_unstable();
            assert_eq!(got, want_pairs, "{buckets} buckets");
            assert_eq!(map.check_consistency(false).unwrap(), want_pairs.len());
            assert_eq!(map.bucket_count(), buckets);
            map.close().unwrap();
            drop(pool);

            // A second open finds nothing to reclaim: the marked nodes were
            // trimmed by recover(), retired, and freed by the close's drain.
            crate::unseal(&path);
            let pool = Pool::builder().path(&path).open().unwrap();
            let map = pool.root::<Map>(name).unwrap();
            let report = pool.recovery_report();
            assert!(report.gc_ran, "{buckets} buckets");
            assert_eq!(report.reclaimed_blocks, 0, "{buckets} buckets");
            assert_eq!(report.live_blocks, want_live - marked, "{buckets} buckets");
            assert_eq!(map.check_consistency(false).unwrap(), want_pairs.len());
            pool.verify_heap().unwrap();
            map.close().unwrap();
            drop(pool);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn recover_touches_only_buckets_holding_a_marked_link() {
        type Map = HashMapDs<u64, u64, NvTraverse<Count<Noop>>>;
        /// (flushes, fences) `f` issues, attributed to a private set.
        fn counted(f: impl FnOnce()) -> (u64, u64) {
            let set: &'static obs::MetricSet = Box::leak(Box::new(obs::MetricSet::new(1)));
            {
                let _t = obs::attribute_to(Some(set));
                f();
            }
            let s = set.snapshot();
            (s.total_flushes(), s.total_fences())
        }
        if !obs::enabled() {
            return; // NVT_OBS=off: nothing is counted
        }
        let m = Map::new(8);
        for k in 0..200u64 {
            assert!(m.insert(k, k * 3));
        }
        let all_words = |m: &Map| m.buckets.iter().map(words).collect::<Vec<_>>();

        // No marked link anywhere: recovery is a read-only scan.
        let before = all_words(&m);
        let garbage = m.collector().local_garbage();
        assert_eq!(counted(|| m.recover()), (0, 0), "a clean table's recover persisted something");
        assert_eq!(m.collector().local_garbage(), garbage, "a clean table's recover retired something");
        assert_eq!(all_words(&m), before, "a clean table's recover wrote a link");

        // One marked node, in the middle of one bucket.
        let victim_bucket = 5;
        let nodes = chain(&m.buckets[victim_bucket]);
        let victim = nodes[nodes.len() / 2];
        mark_in_place(victim);
        let before = all_words(&m);
        let (flushes, fences) = counted(|| m.recover());
        assert!(flushes >= 1 && fences >= 1, "the unlink must be persisted");
        assert_eq!(m.collector().local_garbage(), garbage + 1, "exactly the marked node is retired");
        let after = all_words(&m);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i == victim_bucket {
                let survivors: Vec<_> = b.iter().filter(|w| w.0 != victim as usize).map(|w| w.0).collect();
                assert_eq!(a.iter().map(|w| w.0).collect::<Vec<_>>(), survivors);
            } else {
                assert_eq!(a, b, "bucket {i} holds no marked link but was written");
            }
        }
        assert_eq!(m.check_consistency(false).unwrap(), 199);
    }

    #[test]
    fn a_pooled_open_rewrites_only_the_bucket_holding_a_marked_link() {
        type Map = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;
        let path = std::env::temp_dir().join(format!("nvt-hash-one-marked-{}.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let victim_bucket = 5;
        let (victim, before) = {
            let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
            let map = pool.create_root::<Map>("kv").unwrap();
            for k in 0..400u64 {
                assert!(map.insert(k, k * 3));
            }
            let nodes = chain(&map.buckets[victim_bucket]);
            let victim = nodes[nodes.len() / 2];
            mark_in_place(victim);
            let before = map.buckets.iter().map(words).collect::<Vec<_>>();
            map.close().unwrap();
            (victim, before)
        };
        crate::unseal(&path);
        let pool = Pool::builder().path(&path).open().unwrap();
        let map = pool.root::<Map>("kv").unwrap();
        assert!(pool.recovery_report().gc_ran);
        assert_eq!(map.collector().local_garbage(), 1, "exactly the marked node is retired");
        for (i, (b, bucket)) in before.iter().zip(map.buckets.iter()).enumerate() {
            let a = words(bucket);
            if i == victim_bucket {
                let survivors: Vec<_> = b.iter().filter(|w| w.0 != victim as usize).map(|w| w.0).collect();
                assert_eq!(a.iter().map(|w| w.0).collect::<Vec<_>>(), survivors);
            } else {
                assert_eq!(&a, b, "bucket {i} holds no marked link but was written");
            }
        }
        assert_eq!(map.check_consistency(false).unwrap(), 399);
        map.close().unwrap();
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    /// Attaching to a cleanly closed pooled table persists nothing: its
    /// trace crossed no marked link, so no bucket recovers.
    #[test]
    fn a_clean_pooled_open_flushes_and_fences_nothing() {
        type Map = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;
        if !obs::enabled() {
            return; // NVT_OBS=off: nothing is counted
        }
        let path = std::env::temp_dir().join(format!("nvt-hash-clean-open-{}.pool", std::process::id()));
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

    // ---- crashed opens, collecting or refused ----

    use std::path::PathBuf;

    /// How an open reaches `root::<S>`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Open {
        /// Straight away: the collection runs, and its mark is the plan.
        Collecting,
        /// After an allocation consumed the open's inventory: no
        /// collection can run, so the typed open refuses.
        AfterAlloc,
        /// On the image that also holds a root no schema names: the typed
        /// open refuses.
        UntracedRoot,
    }

    /// Crash images of a pooled table holding keys `0..keys` that `dirty`
    /// then left half-done: copies of the file taken while the table is
    /// still open, which is what a SIGKILL leaves behind. The second image
    /// also holds a root no structure type describes.
    fn crash_images<L: BucketList<Key = u64, Value = u64>>(
        tag: &str,
        keys: u64,
        dirty: impl FnOnce(&BucketTable<L>),
    ) -> [PathBuf; 2] {
        let at = |s: &str| std::env::temp_dir().join(format!("nvt-hash-nocollect-{tag}-{s}-{}.pool", std::process::id()));
        let (live, images) = (at("live"), [at("image"), at("raw")]);
        for p in [&live, &images[0], &images[1]] {
            let _ = std::fs::remove_file(p);
        }
        let pool = Pool::builder().path(&live).capacity(8 << 20).create().unwrap();
        let map = pool.create_root::<BucketTable<L>>("kv").unwrap();
        for k in 0..keys {
            assert!(map.insert(k, k * 7));
        }
        dirty(&map);
        std::fs::copy(&live, &images[0]).unwrap();
        let raw = pool.alloc(64, 8).unwrap();
        // SAFETY: a fresh 64-byte payload.
        unsafe { std::ptr::write_bytes(raw, 0, 64) };
        pool.set_root_offset("raw", pool.offset_of(raw)).unwrap();
        std::fs::copy(&live, &images[1]).unwrap();
        drop(map);
        drop(pool);
        std::fs::remove_file(&live).unwrap();
        images
    }

    /// Opens a copy of one of `images` the way `how` says, lets `check`
    /// see the recovered table, and returns its sorted pairs — or `None`
    /// when the typed open refused, having swept nothing.
    fn open_image<L: BucketList<Key = u64, Value = u64>>(
        images: &[PathBuf; 2],
        how: Open,
        check: impl FnOnce(&BucketTable<L>),
    ) -> Option<Vec<(u64, u64)>> {
        let image = &images[usize::from(how == Open::UntracedRoot)];
        let path = image.with_extension("open");
        std::fs::copy(image, &path).unwrap();
        let pool = Pool::builder().path(&path).open().unwrap();
        if how == Open::AfterAlloc {
            // SAFETY: just allocated, referenced by nobody.
            unsafe { pool.dealloc(pool.alloc(64, 8).unwrap()) };
        }
        let live = pool.live_offsets();
        let Ok(map) = pool.root::<BucketTable<L>>("kv") else {
            let report = pool.recovery_report();
            assert!(!report.gc_ran && report.reclaimed_blocks == 0, "{how:?}: a refused open swept");
            assert_eq!(pool.live_offsets(), live, "{how:?}");
            drop(pool);
            std::fs::remove_file(&path).unwrap();
            return None;
        };
        assert!(pool.recovery_report().gc_ran, "{how:?}");
        map.check_consistency(false).unwrap();
        check(&map);
        let mut pairs = map.iter_snapshot();
        pairs.sort_unstable();
        drop(map);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
        Some(pairs)
    }

    #[test]
    fn a_harris_crash_image_recovers_only_through_a_collecting_open() {
        type L = Harris<NvTraverse<MmapBackend>>;
        let mut marked = Vec::new();
        let images = crash_images::<L>("harris", 600, |map| {
            // Marked-but-linked nodes, the state a crash between a remove's
            // mark and its unlink leaves, in a few buckets.
            for bucket in map.buckets.iter().step_by(9) {
                let nodes = chain(bucket);
                for &n in nodes.iter().step_by(3) {
                    // SAFETY: quiescent test heap.
                    marked.push(unsafe { (*n).key.load() });
                    mark_in_place(n);
                }
            }
        });
        assert!(marked.len() >= 10);
        let want: Vec<(u64, u64)> = (0..600u64).filter(|k| !marked.contains(k)).map(|k| (k, k * 7)).collect();
        assert_eq!(open_image::<L>(&images, Open::Collecting, |_| {}), Some(want));
        for how in [Open::AfterAlloc, Open::UntracedRoot] {
            assert_eq!(open_image::<L>(&images, how, |_| {}), None, "{how:?}");
        }
        images.iter().for_each(|p| std::fs::remove_file(p).unwrap());
    }

    #[test]
    fn a_soft_crash_image_recovers_only_through_a_collecting_open() {
        type L = SoftL<Soft<MmapBackend>>;
        /// Each bucket's nodes as `(key, seq)`, in chain order.
        fn seqs(map: &BucketTable<L>) -> Vec<Vec<(u64, u64)>> {
            let node = |n: *mut crate::soft_list::SoftNode<u64, u64, MmapBackend>| {
                // SAFETY: quiescent test heap; `n` is a linked node.
                unsafe { ((*n).key.load(), (*n).seq.load()) }
            };
            let chain = |b: &L| {
                let mut out = Vec::new();
                crate::chain::walk::<_, ()>(b.head, |n, _| {
                    out.push(node(n));
                    std::ops::ControlFlow::Continue(())
                });
                out
            };
            map.buckets.iter().map(chain).collect()
        }
        const KEYS: u64 = 400;
        const REMOVED: u64 = 48; // fewer than EBR's retires per epoch advance: the nodes stay allocated
        // The highest `seq` each bucket tombstones: the removed keys were
        // inserted last, so no live node of their bucket carries one as high.
        let mut tombs = Vec::new();
        let images = crash_images::<L>("soft", KEYS, |map| {
            tombs = seqs(map)
                .iter()
                .map(|b| b.iter().filter(|n| n.0 >= KEYS - REMOVED).map(|n| n.1).max().unwrap_or(0))
                .collect();
            for k in KEYS - REMOVED..KEYS {
                assert!(map.remove(k));
            }
        });
        assert!(tombs.iter().filter(|&&t| t > 0).count() >= 20);
        let want: Vec<(u64, u64)> = (0..KEYS - REMOVED).map(|k| (k, k * 7)).collect();
        for how in [Open::Collecting, Open::AfterAlloc, Open::UntracedRoot] {
            let fresh_seqs_clear_the_tombs = |map: &BucketTable<L>| {
                for k in 10_000..10_000 + 4 * KEYS {
                    assert!(map.insert(k, k));
                }
                for (i, bucket) in seqs(map).iter().enumerate() {
                    for &(key, seq) in bucket.iter().filter(|n| n.0 >= 10_000) {
                        assert!(seq > tombs[i], "{how:?}: key {key} in bucket {i} reused seq {seq} <= {}", tombs[i]);
                    }
                }
                for k in 10_000..10_000 + 4 * KEYS {
                    assert!(map.remove(k));
                }
            };
            let want = (how == Open::Collecting).then(|| want.clone());
            assert_eq!(open_image::<L>(&images, how, fresh_seqs_clear_the_tombs), want, "{how:?}");
        }
        images.iter().for_each(|p| std::fs::remove_file(p).unwrap());
    }
}
