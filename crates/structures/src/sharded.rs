//! [`ShardedSet`]: one logical set hash-partitioned across **N roots of
//! one pool** — N structures of one type, root `i` holding the keys that
//! [`shard_route`] sends to `i`. It implements [`DurableSet`] by routing,
//! so it drops into every harness, oracle and benchmark the per-structure
//! sets already use.
//!
//! The shards share the pool's allocator, collector, descriptor table,
//! metrics and the paper's one recovery (§2): [`ShardedSet::open`] opens
//! every shard root in one typed open ([`TypedRoots::open_roots`] with the
//! schema `Vec<S>`) — after a crash one heap walk and one mark-sweep
//! collection with every shard's tracer, after a clean close only the
//! sealed summary — and the pool's one [`RecoveryReport`] covers them all.
//! A corrupt shard fails the open of the whole set.
//!
//! On disk a set is a directory holding one pool file, `shards.pool`, with
//! the roots `shard-000-of-004`, `shard-001-of-004`, …: the count, which
//! routing depends on, travels with every root. Opening requires exactly
//! the roots `000..n-1` of `n`, so an interrupted create (or a lost shard
//! root) fails loudly instead of coming up as a smaller set that routes
//! keys to the wrong shards. A directory of the older one-file-per-shard
//! layout (`shard-000.pool`, …) is refused, not converted.
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
//! // Reopen: one pool, four roots, from the summary its clean close
//! // sealed — no heap walk, nothing to collect.
//! let set = ShardedSet::<List>::open(&dir)?;
//! assert_eq!(set.shard_count(), 4);
//! assert_eq!(set.len(), 100);
//! assert!(set.recovery_reports()[0].sealed);
//! # set.close()?; std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

use nvtraverse::detect::{DetectablePool, OpError, OpToken};
use nvtraverse::{DurableSet, PoolAttach, PoolTrace, PooledHandle, TypedRoots};
use nvtraverse_pmem::Word;
use nvtraverse_pool::{OpId, Pool, RecoveryReport, MAX_ROOTS, OPS_ROOT};
use std::io;
use std::path::{Path, PathBuf};

pub use nvtraverse::set::shard_route;

fn pool_file(dir: &Path) -> PathBuf {
    dir.join("shards.pool")
}

/// The root name of shard `i` of `n`: the count travels with every shard.
fn root_name(i: usize, n: usize) -> String {
    format!("shard-{i:03}-of-{n:03}")
}

/// Refuses a directory written in the older layout: one pool file per
/// shard (`shard-000.pool`, …) and a shard-count manifest. It is not
/// converted; its files are left as they are.
fn refuse_old_layout(dir: &Path) -> io::Result<()> {
    if dir.join("shard-000.pool").exists() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} holds a sharded set in the old layout, one pool file per shard \
                 (shard-000.pool, …); a set is now one pool file and the old layout \
                 is not converted: recreate the set in a fresh directory",
                dir.display()
            ),
        ));
    }
    Ok(())
}

/// The shard roots of `pool` in shard order: exactly `shard-000-of-n`, …,
/// `shard-(n-1)-of-n` for the pool's `n` roots beside the descriptor
/// table's. Routing depends on `n`, so a pool missing a shard root — a
/// create that died midway — or holding a root of another shape is refused.
fn shard_roots(pool: &Pool, dir: &Path) -> io::Result<Vec<String>> {
    let mut names: Vec<String> = pool.roots().into_iter().map(|(name, _)| name).filter(|name| name != OPS_ROOT).collect();
    names.sort_unstable();
    let n = names.len();
    if n == 0 || !names.iter().cloned().eq((0..n).map(|i| root_name(i, n))) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: roots {names:?} are not the shards 000..{n:03} of {n:03} — the set's \
                 creation never completed, or a shard is lost (remove the directory to recreate)",
                dir.display()
            ),
        ));
    }
    Ok(names)
}

/// One detectable-operation token **per shard**, every one a slot of the
/// pool's one descriptor table: a sharded client holds a bundle of
/// [`OpToken`]s and [`ShardedSet::insert_detectable`] routes each
/// operation to the token of the shard the key hashes to.
///
/// Obtain with [`ShardedSet::detectable_tokens`]; like a single token, a
/// bundle belongs to one client thread (`Send`, not `Sync`).
#[derive(Debug)]
pub struct ShardTokens {
    tokens: Box<[OpToken]>,
}

impl ShardTokens {
    /// The token for shard `i` — for asking the pool about a previous
    /// operation's slot, or driving a shard directly.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not a shard index of the set that issued this
    /// bundle.
    pub fn token(&mut self, i: usize) -> &mut OpToken {
        &mut self.tokens[i]
    }
}

/// One logical [`DurableSet`] hash-partitioned across N roots of one pool,
/// each an `S`. See the [module docs](self).
pub struct ShardedSet<S: PoolAttach> {
    shards: Box<[PooledHandle<S>]>,
}

impl<S: PoolAttach> std::fmt::Debug for ShardedSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSet")
            .field("pool", self.pool())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<S: PoolTrace> ShardedSet<S> {
    /// Creates one pool file of `shards × capacity_per_shard` bytes under
    /// `dir` (created if missing), holding `shards` empty `S` roots.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, before any file is created, when `shards` is 0 or
    /// more than the pool's root registry holds beside its descriptor
    /// table (`MAX_ROOTS − 1`), or the capacity overflows `u64`. Otherwise
    /// fails when `dir` already holds a set (of either layout), or the
    /// pool or a root cannot be created (what was created stays on disk,
    /// and opens as an incomplete set; remove the directory to retry).
    pub fn create(
        dir: impl AsRef<Path>,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        let capacity = (1..MAX_ROOTS)
            .contains(&shards)
            .then(|| capacity_per_shard.checked_mul(shards as u64))
            .flatten()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "a sharded set needs 1 to {} shards whose total capacity fits in \
                         u64, not {shards} × {capacity_per_shard} bytes",
                        MAX_ROOTS - 1
                    ),
                )
            })?;
        refuse_old_layout(dir)?;
        std::fs::create_dir_all(dir)?;
        if pool_file(dir).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a sharded set", dir.display()),
            ));
        }
        let pool = Pool::builder().path(pool_file(dir)).capacity(capacity).create()?;
        let handles = (0..shards)
            .map(|i| pool.create_root::<S>(&root_name(i, shards)))
            .collect::<io::Result<_>>()?;
        Ok(ShardedSet { shards: handles })
    }

    /// Opens the sharded set under `dir`: maps its one pool file and opens
    /// every shard root in one typed open — after a crash, one heap walk,
    /// one mark-sweep collection with every shard's tracer, then each
    /// shard's recovery; after a clean close, the sealed summary alone.
    ///
    /// # Errors
    ///
    /// Fails when `dir` holds no set, a set of the old layout, a set whose
    /// shard roots are not exactly `000..n-1` of one `n` (its creation never
    /// completed), or the typed open fails — a corrupt shard fails the
    /// whole set, and an open after a crash then sweeps nothing.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        refuse_old_layout(dir)?;
        let context = |e: io::Error| io::Error::new(e.kind(), format!("sharded set {}: {e}", dir.display()));
        let pool = Pool::builder().path(pool_file(dir)).open().map_err(context)?;
        let names = shard_roots(&pool, dir)?;
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let handles = pool.open_roots::<Vec<S>>(&names).map_err(context)?;
        Ok(ShardedSet {
            shards: handles.into_boxed_slice(),
        })
    }

    /// [`ShardedSet::open`] when the directory holds a set, otherwise
    /// [`ShardedSet::create`] — the restart-loop entry point.
    ///
    /// # Errors
    ///
    /// Propagates open/create failures; a directory of the old layout is
    /// refused, not recreated over.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        if pool_file(dir).exists() {
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

    fn pool(&self) -> &Pool {
        self.shards[0].pool()
    }

    /// The one pool's [`RecoveryReport`], once: one open recovered every
    /// shard.
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        vec![self.pool().recovery_report()]
    }

    /// The pool's metrics: every shard's flush/fence attribution,
    /// allocator counters and latency histograms, as one
    /// [`nvtraverse_obs::Snapshot`].
    pub fn metrics_snapshot(&self) -> nvtraverse_obs::Snapshot {
        self.pool().metrics().snapshot()
    }

    /// Registers this client with the pool's persistent descriptor table
    /// once per shard and returns the token bundle for
    /// [`insert_detectable`](ShardedSet::insert_detectable) /
    /// [`remove_detectable`](ShardedSet::remove_detectable). A bundle takes
    /// `shard_count` of the table's 128 slots
    /// ([`OP_SLOTS`](nvtraverse_pool::optable::OP_SLOTS)), so a set of N
    /// shards serves 128 / N bundles, where a pool per shard served 128.
    /// A slot is never reused within the pool file's lifetime: hold one
    /// bundle per long-lived client thread.
    ///
    /// # Errors
    ///
    /// Fails when the table cannot hand out a slot per shard (table full,
    /// or the pool was rebased); the slots already claimed stay claimed.
    pub fn detectable_tokens(&self) -> io::Result<ShardTokens> {
        let tokens = self.shards.iter().map(|_| self.pool().op_token()).collect::<io::Result<_>>()?;
        Ok(ShardTokens { tokens })
    }

    /// Reclaims what this thread retired, flushes the pool to its backing
    /// file and detaches, without freeing any live node (as
    /// [`PooledHandle::close`] does for one root).
    ///
    /// # Errors
    ///
    /// Returns the sync failure.
    pub fn close(self) -> io::Result<()> {
        self.pool().collector().drain();
        self.pool().sync()
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
    /// in **that shard's** slot of the pool's descriptor table — after a
    /// crash, ask `set.shard(i).pool().op_outcome(id)` (every shard's pool
    /// is the one pool). Each shard keeps its own slot, so a client can
    /// predict the next [`OpId`] of each shard from its last one.
    ///
    /// The trait-level single-token form stays `Unsupported` for a sharded
    /// set: its clients hold a [`ShardTokens`] bundle.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`OpError`] (e.g. the pool is full).
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

    /// Every file under `dir`, by name, with its bytes.
    fn files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// Roots carry the shard count, so a pool whose shard roots are not
    /// exactly `000..n-1` of one `n` — a create that died midway, a lost
    /// shard root, roots disagreeing on `n` — must fail to open loudly,
    /// never come up as a smaller set that silently routes keys to wrong
    /// shards. A directory of the old one-file-per-shard layout is refused
    /// by `open` and `open_or_create` alike, leaving every file as it was.
    #[test]
    fn incomplete_sets_are_rejected_loudly() {
        let dir = tmp_dir("incomplete");
        for roots in [
            &["shard-000-of-003", "shard-001-of-003"][..], // interrupted create
            &["shard-000-of-003", "shard-002-of-003"],     // a shard root is missing
            &["shard-000-of-002", "shard-001-of-003"],     // counts disagree
            &["shard-000-of-001", "shard-0-of-1"],         // a root of another shape
        ] {
            std::fs::create_dir_all(&dir).unwrap();
            let pool = Pool::builder().path(pool_file(&dir)).capacity(1 << 20).create().unwrap();
            for name in roots {
                drop(pool.create_root::<List>(name).unwrap());
            }
            drop(pool);
            let err = ShardedSet::<List>::open(&dir).unwrap_err();
            assert!(err.to_string().contains("never completed"), "{roots:?}: {err}");
            // open_or_create must not silently recreate over the leftovers.
            assert!(ShardedSet::<List>::open_or_create(&dir, 3, 1 << 20).is_err());
            std::fs::remove_dir_all(&dir).unwrap();
        }

        // The old layout: a pool file per shard.
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in [("shard-000.pool", &b"old shard 0"[..]), ("shard-001.pool", b"old shard 1")] {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let before = files(&dir);
        let err = ShardedSet::<List>::open(&dir).unwrap_err();
        assert!(err.to_string().contains("old layout"), "{err}");
        let err = ShardedSet::<List>::open_or_create(&dir, 2, 1 << 20).unwrap_err();
        assert!(err.to_string().contains("old layout"), "{err}");
        assert!(files(&dir) == before, "a refused old layout must keep every byte");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Zero shards, more shards than the root registry holds beside the
    /// descriptor table, and a total capacity past `u64` are refused with
    /// `InvalidInput` before any file is created.
    #[test]
    fn a_set_that_cannot_be_one_pool_is_refused_before_any_file() {
        let dir = tmp_dir("bounds");
        for (shards, capacity) in [(0, 1 << 20), (MAX_ROOTS, 1 << 20), (2, u64::MAX / 2 + 1)] {
            let err = ShardedSet::<List>::create(&dir, shards, capacity).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{shards} × {capacity}: {err}");
            assert!(!dir.exists(), "{shards} × {capacity}: a refused create made {}", dir.display());
        }
        let set = ShardedSet::<List>::create(&dir, MAX_ROOTS - 1, 1 << 16).unwrap();
        assert_eq!(set.shard_count(), MAX_ROOTS - 1);
        set.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crashed open of a 3-shard set traces every shard root in one
    /// collection: exactly the one orphan block is swept, every key stays,
    /// and the open recovered the whole pool, so the next open is sealed.
    #[test]
    fn a_crashed_open_collects_every_shard_once_and_seals_again() {
        let dir = tmp_dir("orphan");
        let live;
        {
            let set = ShardedSet::<List>::create(&dir, 3, 1 << 20).unwrap();
            for k in 0..90u64 {
                assert!(set.insert(k, k + 1));
            }
            let _orphan = set.shard(1).pool().alloc(64, 8).unwrap();
            live = set.shard(0).pool().live_offsets().len();
            set.close().unwrap();
        }
        crate::unseal(&pool_file(&dir));

        let set = ShardedSet::<List>::open(&dir).unwrap();
        let [report] = &set.recovery_reports()[..] else {
            panic!("one pool, one report")
        };
        assert!(!report.sealed && report.gc_ran, "{report:?}");
        assert_eq!(report.reclaimed_blocks, 1, "exactly the orphan is swept");
        assert_eq!(report.live_blocks, live - 1);
        let marked: Vec<_> = report.root_marks.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(marked, ["shard-000-of-003", "shard-001-of-003", "shard-002-of-003"]);
        assert_eq!(set.len(), 90);
        for k in 0..90u64 {
            assert_eq!(set.get(k), Some(k + 1));
        }
        set.close().unwrap();

        let set = ShardedSet::<List>::open(&dir).unwrap();
        assert!(set.recovery_reports()[0].sealed, "the recovered session must seal");
        assert_eq!(set.len(), 90);
        set.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Detectable operations take one slot per shard in the pool's one
    /// descriptor table, and after a clean close + reopen the pool answers
    /// for each shard's last operation.
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
            assert_eq!(r.ops_descriptors, set.shard_count(), "one slot per shard");
            assert_eq!(r.ops_pending, 0, "open must leave no undecided op");
        }
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
