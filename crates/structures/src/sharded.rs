//! [`ShardedSet`]: one logical set hash-partitioned across **N independent
//! pool files** — the first concrete sharding step of the ROADMAP's
//! scale-out north star, and the proof that pools are first-class values.
//!
//! NVTraverse's correctness argument is about *fence placement*, not memory
//! residence (the destination matters, not the journey) — nothing in the
//! algorithms requires a single global heap. So a set can be split by key
//! hash across independent pools, each with its own allocator, root, and
//! recovery lifecycle:
//!
//! * **Scale**: operations on different shards share *no* allocator state —
//!   not even lock-free shard heads — and no structure memory. Contention
//!   drops with shard count, and each shard file can later live on a
//!   different device.
//! * **Independent recovery**: every shard is opened and recovered on its
//!   own — concurrently, one thread per shard at [`ShardedSet::open`]: from
//!   its sealed summary after a clean close, heap-walked,
//!   mark-sweep-collected and `recover()`ed after a crash — and each
//!   reports its own [`RecoveryReport`] ([`ShardedSet::recovery_reports`]). A crash is
//!   repaired shard by shard; a corrupt shard file fails *its* open without
//!   touching the others' data.
//! * **Uniform interface**: [`ShardedSet`] implements [`DurableSet`] by
//!   routing each key to `shard(hash(key) % N)`, so it drops into every
//!   harness, oracle, and benchmark the per-structure sets already use.
//!
//! On disk, a sharded set is a directory of pool files `shard-000.pool`,
//! `shard-001.pool`, … plus a `shards.count` manifest written *after*
//! every shard exists — the commit point of creation. Opening trusts the
//! manifest, never the file listing, so an interrupted create (or a
//! missing shard file) fails loudly instead of silently coming up as a
//! smaller set that routes keys to the wrong shards (the count is fixed
//! at creation: routing depends on it).
//!
//! # Example
//!
//! ```
//! use nvtraverse::policy::NvTraverse;
//! use nvtraverse::pmem::MmapBackend;
//! use nvtraverse::DurableSet;
//! use nvtraverse_structures::list::HarrisList;
//! use nvtraverse_structures::sharded::ShardedSet;
//!
//! type List = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
//! let dir = std::env::temp_dir().join(format!("doc-shards-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//!
//! let set = ShardedSet::<List>::create(&dir, 4, 1 << 20)?;
//! for k in 0..100u64 { set.insert(k, k * 2); }
//! set.close()?;
//!
//! // Reopen: all 4 pools open concurrently, each from the summary its
//! // clean close sealed — no heap walk, nothing to collect.
//! let set = ShardedSet::<List>::open(&dir)?;
//! assert_eq!(set.shard_count(), 4);
//! assert_eq!(set.len(), 100);
//! assert!(set.recovery_reports().iter().all(|r| r.sealed));
//! # set.close()?; std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use nvtraverse::detect::{DetectablePool, OpError, OpToken};
use nvtraverse::{DurableSet, PoolAttach, PoolTrace, PooledHandle, TypedRoots};
use nvtraverse_pmem::Word;
use nvtraverse_pool::{OpId, Pool, RecoveryReport};
use std::io;
use std::path::{Path, PathBuf};

/// Root name every shard registers its structure under (one structure per
/// shard pool).
pub const SHARD_ROOT: &str = "shard";

/// The key-routing mix (splitmix64): decorrelates shard choice from low key
/// bits so sequential keys spread across shards. Must stay stable — it is
/// effectively part of the on-disk format (re-routing keys would "lose"
/// them in the wrong shard).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Which of `shards` shards a key (by its bit pattern) routes to — the
/// routing function of every sharded set, exposed so remote clients (the
/// `nvtraverse-server` client library) can predict a key's shard without
/// holding the set. Deterministic and stable across processes and
/// versions: it is part of the on-disk format.
///
/// # Panics
///
/// Panics when `shards` is 0 (a sharded set always has at least one).
pub fn shard_route(key_bits: u64, shards: usize) -> usize {
    (mix(key_bits) % shards as u64) as usize
}

fn shard_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:03}.pool"))
}

/// The completion manifest: written (and fsynced) **after** every shard
/// pool exists, holding the decimal shard count. Routing depends on the
/// count, so it must never be inferred from however many files happen to
/// be present — a create that crashed mid-way leaves shard files but no
/// manifest, and `open` then fails loudly instead of silently coming up as
/// a smaller set that routes keys to the wrong shards.
fn manifest_file(dir: &Path) -> PathBuf {
    dir.join("shards.count")
}

fn write_manifest(dir: &Path, shards: usize) -> io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(manifest_file(dir))?;
    writeln!(f, "{shards}")?;
    f.sync_all()
}

fn read_manifest(dir: &Path) -> io::Result<usize> {
    let text = std::fs::read_to_string(manifest_file(dir)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{}: no shard-count manifest — not a sharded set, or its \
                 creation never completed (remove the directory to recreate)",
                dir.display()
            ),
        )
    })?;
    text.trim().parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: corrupt shard-count manifest {text:?}", dir.display()),
        )
    })
}

/// One detectable-operation token **per shard**: each shard is its own pool
/// with its own descriptor table, so a sharded client holds a bundle of
/// per-pool [`OpToken`]s and [`ShardedSet::insert_detectable`] routes each
/// operation to the token of the shard the key hashes to.
///
/// Obtain with [`ShardedSet::detectable_tokens`]; like a single token, a
/// bundle belongs to one client thread (`Send`, not `Sync`).
#[derive(Debug)]
pub struct ShardTokens {
    tokens: Box<[OpToken]>,
}

impl ShardTokens {
    /// The token for shard `i` — for asking a shard's pool about a
    /// previous operation's slot, or driving a shard directly.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not a shard index of the set that issued this
    /// bundle.
    pub fn token(&mut self, i: usize) -> &mut OpToken {
        &mut self.tokens[i]
    }
}

/// One logical [`DurableSet`] hash-partitioned across N pool files, each an
/// independently-recoverable pool holding one `S` under [`SHARD_ROOT`]. See
/// the [module docs](self).
pub struct ShardedSet<S: PoolAttach> {
    shards: Box<[PooledHandle<S>]>,
    dir: PathBuf,
}

impl<S: PoolAttach> std::fmt::Debug for ShardedSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSet")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<S: PoolTrace + Send> ShardedSet<S> {
    /// Creates `shards` fresh pool files of `capacity_per_shard` bytes each
    /// under `dir` (created if missing), each holding one empty `S`.
    ///
    /// # Errors
    ///
    /// Fails when `shards` is 0, a shard file already exists, or any pool
    /// creation fails (already-created shards are left on disk; remove the
    /// directory to retry).
    pub fn create(
        dir: impl AsRef<Path>,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        if shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded set needs at least one shard",
            ));
        }
        std::fs::create_dir_all(dir)?;
        if shard_file(dir, 0).exists() || manifest_file(dir).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a sharded set", dir.display()),
            ));
        }
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let pool = Pool::builder()
                .path(shard_file(dir, i))
                .capacity(capacity_per_shard)
                .create()?;
            handles.push(pool.create_root::<S>(SHARD_ROOT)?);
        }
        // The manifest is the commit point: only a fully-created set has
        // one, so an interrupted create can never be opened truncated.
        write_manifest(dir, shards)?;
        Ok(ShardedSet {
            shards: handles.into_boxed_slice(),
            dir: dir.to_path_buf(),
        })
    }

    /// Opens the sharded set under `dir`: discovers the shard files, then
    /// opens **all shards concurrently** (one thread per shard — this is
    /// the multi-pool capability exercised end to end). Each shard runs the
    /// full independent recovery pipeline: heap walk, root-driven
    /// mark-sweep GC (run by `root::<S>` with `S`'s tracer, before the
    /// structure attaches), and the structure's own `recover()`.
    ///
    /// # Errors
    ///
    /// Fails when `dir` holds no completed sharded set (no manifest), a
    /// manifest-promised shard file is missing, or any shard fails to
    /// open — one shard's failure does not modify the other shards'
    /// files.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        // The manifest — not the file listing — is the source of truth for
        // the count: every shard it promises must exist.
        let count = read_manifest(dir)?;
        for i in 0..count {
            if !shard_file(dir, i).exists() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "{}: manifest promises {count} shards but shard {i} is missing",
                        dir.display()
                    ),
                ));
            }
        }
        let mut results: Vec<io::Result<PooledHandle<S>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..count)
                .map(|i| {
                    let path = shard_file(dir, i);
                    scope.spawn(move || {
                        Pool::builder()
                            .path(&path)
                            .open()
                            .and_then(|pool| pool.root::<S>(SHARD_ROOT))
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("shard open worker panicked"))
                .collect()
        });
        let mut handles = Vec::with_capacity(count);
        for (i, r) in results.drain(..).enumerate() {
            handles.push(r.map_err(|e| {
                io::Error::new(e.kind(), format!("shard {i} of {}: {e}", dir.display()))
            })?);
        }
        Ok(ShardedSet {
            shards: handles.into_boxed_slice(),
            dir: dir.to_path_buf(),
        })
    }

    /// [`ShardedSet::open`] when the directory holds a set, otherwise
    /// [`ShardedSet::create`] — the restart-loop entry point.
    ///
    /// # Errors
    ///
    /// Propagates open/create failures.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        if manifest_file(dir).exists() {
            Self::open(dir)
        } else {
            Self::create(dir, shards, capacity_per_shard)
        }
    }
}

impl<S: PoolAttach> ShardedSet<S> {
    /// Number of shards (fixed at creation; key routing depends on it).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The directory holding the shard files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The handle of shard `i` (oracles and tests inspect shards directly).
    ///
    /// # Panics
    ///
    /// Panics when `i >= shard_count()`.
    pub fn shard(&self, i: usize) -> &PooledHandle<S> {
        &self.shards[i]
    }

    /// All shard handles, in shard order.
    pub fn shards(&self) -> impl Iterator<Item = &PooledHandle<S>> {
        self.shards.iter()
    }

    /// Which shard a key (by its bit pattern) routes to —
    /// [`shard_route`]`(key_bits, self.shard_count())`.
    pub fn shard_index_of(&self, key_bits: u64) -> usize {
        shard_route(key_bits, self.shards.len())
    }

    /// One [`RecoveryReport`] per shard, in shard order — N independent
    /// recoveries, not one global one.
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.shards.iter().map(|s| s.pool().recovery_report()).collect()
    }

    /// One metrics snapshot per shard pool, in shard order — each shard's
    /// flush/fence attribution, allocator counters, and latency histograms
    /// are as independent as its allocator and recovery are.
    pub fn metrics_snapshots(&self) -> Vec<nvtraverse_obs::Snapshot> {
        self.shards.iter().map(|s| s.pool().metrics().snapshot()).collect()
    }

    /// All shards' metrics merged into a single [`nvtraverse_obs::Snapshot`]
    /// — the logical set's aggregate view (counters sum; histograms merge
    /// bucket-wise, so quantiles stay meaningful).
    pub fn metrics_snapshot(&self) -> nvtraverse_obs::Snapshot {
        let mut total = nvtraverse_obs::Snapshot::default();
        for s in self.shards.iter() {
            total.merge(&s.pool().metrics().snapshot());
        }
        total
    }

    /// Registers this client with **every** shard's persistent descriptor
    /// table and returns the per-shard token bundle for
    /// [`insert_detectable`](ShardedSet::insert_detectable) /
    /// [`remove_detectable`](ShardedSet::remove_detectable).
    ///
    /// # Errors
    ///
    /// Fails when any shard's pool cannot hand out a descriptor slot
    /// (table full, or the pool was opened read-only/rebased); already
    /// claimed slots in other shards stay claimed.
    pub fn detectable_tokens(&self) -> io::Result<ShardTokens> {
        let tokens: io::Result<Vec<OpToken>> =
            self.shards.iter().map(|s| s.pool().op_token()).collect();
        Ok(ShardTokens {
            tokens: tokens?.into_boxed_slice(),
        })
    }

    /// Flushes every shard to its backing file and detaches, without
    /// freeing any live node (each shard's [`PooledHandle::close`]).
    ///
    /// # Errors
    ///
    /// Returns the first shard sync failure (later shards still close).
    pub fn close(self) -> io::Result<()> {
        let mut first_err = None;
        for handle in self.shards.into_vec() {
            if let Err(e) = handle.close() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<K, V, S> DurableSet<K, V> for ShardedSet<S>
where
    K: Word,
    V: Word,
    S: PoolAttach + DurableSet<K, V>,
{
    fn insert(&self, key: K, value: V) -> bool {
        self.shards[self.shard_index_of(key.to_bits())].insert(key, value)
    }

    fn remove(&self, key: K) -> bool {
        self.shards[self.shard_index_of(key.to_bits())].remove(key)
    }

    fn get(&self, key: K) -> Option<V> {
        self.shards[self.shard_index_of(key.to_bits())].get(key)
    }

    /// Quiescent, like every `len`: sums the shards.
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Re-runs every shard's recovery pass. [`ShardedSet::open`] already
    /// recovered each shard, so this is only needed for hand-driven crash
    /// simulation.
    fn recover(&self) {
        for s in self.shards.iter() {
            s.recover();
        }
    }

    fn try_insert(&self, key: K, value: V) -> Result<bool, OpError> {
        self.shards[self.shard_index_of(key.to_bits())].try_insert(key, value)
    }

    fn try_remove(&self, key: K) -> Result<bool, OpError> {
        self.shards[self.shard_index_of(key.to_bits())].try_remove(key)
    }
}

impl<S: PoolAttach> ShardedSet<S> {
    /// Detectable insert, routed to the shard the key hashes to and armed
    /// in **that shard's** descriptor table. The returned [`OpId`] is
    /// scoped to that shard's pool — after a crash, ask
    /// `set.shard(set.shard_index_of(key.to_bits())).pool().op_outcome(id)`.
    ///
    /// The trait-level single-token form stays `Unsupported` for a sharded
    /// set: one token cannot span N pools.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`OpError`] (e.g. that shard's pool is full).
    ///
    /// # Panics
    ///
    /// Panics when `tokens` came from a set with a different shard count.
    pub fn insert_detectable<K, V>(
        &self,
        tokens: &mut ShardTokens,
        key: K,
        value: V,
    ) -> Result<(OpId, bool), OpError>
    where
        K: Word,
        V: Word,
        S: DurableSet<K, V>,
    {
        let i = self.shard_index_of(key.to_bits());
        self.shards[i].insert_detectable(tokens.token(i), key, value)
    }

    /// Detectable remove; see
    /// [`insert_detectable`](ShardedSet::insert_detectable) for routing and
    /// `OpId` scoping.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`OpError`].
    ///
    /// # Panics
    ///
    /// Panics when `tokens` came from a set with a different shard count.
    pub fn remove_detectable<K, V>(
        &self,
        tokens: &mut ShardTokens,
        key: K,
    ) -> Result<(OpId, bool), OpError>
    where
        K: Word,
        V: Word,
        S: DurableSet<K, V>,
    {
        let i = self.shard_index_of(key.to_bits());
        self.shards[i].remove_detectable(tokens.token(i), key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::policy::NvTraverse;
    use nvtraverse_pmem::MmapBackend;

    type List = crate::list::HarrisList<u64, u64, NvTraverse<MmapBackend>>;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "nvt-sharded-{}-{tag}.shards",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The manifest is the creation commit point: a set whose create was
    /// interrupted (shard files, no manifest) and a set missing a
    /// manifest-promised shard must both fail to open loudly — never come
    /// up as a smaller set that silently routes keys to wrong shards.
    #[test]
    fn incomplete_sets_are_rejected_loudly() {
        let dir = tmp_dir("incomplete");
        ShardedSet::<List>::create(&dir, 2, 1 << 20)
            .unwrap()
            .close()
            .unwrap();

        // "Crash mid-create": files exist, manifest does not.
        std::fs::remove_file(manifest_file(&dir)).unwrap();
        let err = ShardedSet::<List>::open(&dir).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
        // open_or_create must not silently recreate over the leftovers.
        assert!(ShardedSet::<List>::open_or_create(&dir, 2, 1 << 20).is_err());

        // Manifest promises 2 shards, one is gone.
        write_manifest(&dir, 2).unwrap();
        std::fs::remove_file(shard_file(&dir, 1)).unwrap();
        let err = ShardedSet::<List>::open(&dir).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Detectable operations route to per-shard descriptor tables, and
    /// after a clean close + reopen each shard's pool answers for the last
    /// operation armed in its table.
    #[test]
    fn detectable_ops_survive_reopen() {
        use nvtraverse_pool::OpOutcome;

        let dir = tmp_dir("detectable");
        let mut last: Vec<Option<(u64, nvtraverse_pool::OpId)>> = vec![None; 2];
        {
            let set = ShardedSet::<List>::create(&dir, 2, 1 << 20).unwrap();
            let mut toks = set.detectable_tokens().unwrap();
            for k in 0..16u64 {
                let (id, fresh) = set.insert_detectable(&mut toks, k, k + 1).unwrap();
                assert!(fresh);
                last[set.shard_index_of(k)] = Some((k, id));
            }
            drop(toks);
            set.close().unwrap();
        }
        let set = ShardedSet::<List>::open(&dir).unwrap();
        for (i, entry) in last.iter().enumerate() {
            let (k, id) = entry.expect("16 keys must reach both shards");
            assert_eq!(
                set.shard(i).pool().op_outcome(id),
                Some(OpOutcome::Committed),
                "shard {i} last insert (key {k})"
            );
            assert_eq!(set.get(k), Some(k + 1));
        }
        for r in set.recovery_reports() {
            assert_eq!(r.ops_descriptors, 1, "one registered client per shard");
            assert_eq!(r.ops_pending, 0, "open must leave no undecided op");
        }
        set.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The aggregate [`ShardedSet::metrics_snapshot`] must equal the
    /// element-wise sum of the per-shard snapshots at a quiescent point —
    /// the determinism contract the KV server's STATS reply and the
    /// `kv_service` figure's fences/op attribution both lean on.
    #[test]
    fn metrics_snapshot_is_the_sum_of_the_shards() {
        if !nvtraverse_obs::enabled() {
            return; // NVT_OBS=off: nothing is recorded, nothing to pin
        }
        let dir = tmp_dir("metrics");
        let set = ShardedSet::<List>::create(&dir, 3, 1 << 20).unwrap();
        for k in 0..64u64 {
            // Attribute each op to its shard's pool, as the server does.
            let _t =
                nvtraverse_obs::attribute_to(Some(set.shard(set.shard_index_of(k)).pool().metrics()));
            set.insert(k, k);
        }
        let parts = set.metrics_snapshots();
        assert_eq!(parts.len(), 3);
        let mut summed = nvtraverse_obs::Snapshot::default();
        for p in &parts {
            summed.merge(p);
        }
        let aggregate = set.metrics_snapshot();
        assert_eq!(aggregate, summed, "aggregate must be the shard-wise sum");
        assert!(
            parts.iter().all(|p| p.total_flushes() > 0),
            "64 keys over 3 shards must flush in every shard"
        );
        assert_eq!(
            aggregate.total_flushes(),
            parts.iter().map(|p| p.total_flushes()).sum::<u64>()
        );
        assert_eq!(
            aggregate.total_fences(),
            parts.iter().map(|p| p.total_fences()).sum::<u64>()
        );
        // Deterministic while quiescent: asking again changes nothing.
        assert_eq!(set.metrics_snapshot(), aggregate);
        set.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Keys must route deterministically, within bounds, and (for a
    /// non-trivial key range) touch every shard.
    #[test]
    fn routing_is_stable_and_covers_all_shards() {
        let dir = tmp_dir("routing");
        let set = ShardedSet::<List>::create(&dir, 4, 1 << 20).unwrap();
        let mut seen = [false; 4];
        for k in 0..256u64 {
            let i = set.shard_index_of(k);
            assert!(i < 4);
            assert_eq!(i, set.shard_index_of(k), "routing must be deterministic");
            assert_eq!(
                i,
                shard_route(k, 4),
                "the free routing function must agree with the set"
            );
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 keys must reach all 4 shards");
        set.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
