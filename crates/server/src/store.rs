//! The served store: a [`ShardedSet`] under one of the two durable
//! policies, behind one non-generic façade.
//!
//! The server is policy-agnostic at the protocol level — the same wire
//! operations run against the NVTraverse transformation or the SOFT
//! minimal-flush tier — so [`KvStore`] erases the policy type parameter
//! into an enum and stamps the chosen policy into a `policy.kind` file
//! next to the set's one pool file. A restart reads that file back:
//! [`KvStore::open`] always reopens with the policy the data was written
//! under (the two layouts are not interchangeable on disk).

use nvtraverse::detect::{OpError, OpToken};
use nvtraverse::policy::{NvTraverse, Soft};
use nvtraverse::DurableSet;
use nvtraverse_pmem::MmapBackend;
use nvtraverse_pool::{OpId, OpOutcome, RecoveryReport};
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::sharded::{ShardTokens, ShardedSet};
use nvtraverse_structures::soft_hash::SoftHash;
use std::io;
use std::path::{Path, PathBuf};

/// Shard structure under the NVTraverse policy.
pub type NvtShard = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;
/// Shard structure under the SOFT policy.
pub type SoftShard = SoftHash<u64, u64, Soft<MmapBackend>>;

/// Which durability policy a store runs (and persists) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's transformation over pool-backed hash maps.
    NvTraverse,
    /// SOFT minimal-flush sets (one flush per update, volatile links).
    Soft,
}

impl PolicyKind {
    /// Stable name, used on disk (`policy.kind`) and in STATS/figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::NvTraverse => "nvt",
            PolicyKind::Soft => "soft",
        }
    }

    /// Parses [`PolicyKind::name`] back.
    pub fn from_name(s: &str) -> Option<PolicyKind> {
        match s {
            "nvt" => Some(PolicyKind::NvTraverse),
            "soft" => Some(PolicyKind::Soft),
            _ => None,
        }
    }
}

fn policy_file(dir: &Path) -> PathBuf {
    dir.join("policy.kind")
}

fn write_policy(dir: &Path, policy: PolicyKind) -> io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(policy_file(dir))?;
    writeln!(f, "{}", policy.name())?;
    f.sync_all()
}

fn read_policy(dir: &Path) -> io::Result<PolicyKind> {
    let text = std::fs::read_to_string(policy_file(dir)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{}: no policy.kind file — not a KV store directory", dir.display()),
        )
    })?;
    PolicyKind::from_name(text.trim()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: unknown policy {text:?} in policy.kind", dir.display()),
        )
    })
}

/// The erased store: one logical durable set over N shards of one pool.
#[derive(Debug)]
pub enum KvStore {
    /// NVTraverse-policy store.
    Nvt(ShardedSet<NvtShard>),
    /// SOFT-policy store.
    Soft(ShardedSet<SoftShard>),
}

impl KvStore {
    /// Creates a fresh store of `shards` shards in one pool of `shards ×
    /// capacity_per_shard` bytes under `dir`, and stamps the policy file.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardedSet::create`] failures and the policy-file
    /// write.
    pub fn create(
        dir: impl AsRef<Path>,
        policy: PolicyKind,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<KvStore> {
        let dir = dir.as_ref();
        let store = match policy {
            PolicyKind::NvTraverse => KvStore::Nvt(ShardedSet::create(dir, shards, capacity_per_shard)?),
            PolicyKind::Soft => KvStore::Soft(ShardedSet::create(dir, shards, capacity_per_shard)?),
        };
        write_policy(dir, policy)?;
        Ok(store)
    }

    /// Reopens the store under `dir` with the policy it was created with
    /// (read from `policy.kind`). This is the crash-safe restart path:
    /// after a crash the pool runs its full recovery (heap walk, one
    /// mark-sweep GC over every shard, each shard's recovery, op-table
    /// classification) before the store is returned.
    ///
    /// # Errors
    ///
    /// Fails when the directory holds no store, the policy file is
    /// missing or unknown, or the set fails to open.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<KvStore> {
        let dir = dir.as_ref();
        Ok(match read_policy(dir)? {
            PolicyKind::NvTraverse => KvStore::Nvt(ShardedSet::open(dir)?),
            PolicyKind::Soft => KvStore::Soft(ShardedSet::open(dir)?),
        })
    }

    /// [`KvStore::open`] when `dir` holds a store, else
    /// [`KvStore::create`] — the restart-loop entry point.
    ///
    /// # Errors
    ///
    /// Propagates open/create failures; opening a store created under a
    /// different policy than `policy` fails rather than reinterpreting
    /// the data.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        policy: PolicyKind,
        shards: usize,
        capacity_per_shard: u64,
    ) -> io::Result<KvStore> {
        let dir = dir.as_ref();
        if policy_file(dir).exists() {
            let on_disk = read_policy(dir)?;
            if on_disk != policy {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "{}: store was created with policy {} but {} was requested",
                        dir.display(),
                        on_disk.name(),
                        policy.name()
                    ),
                ));
            }
            Self::open(dir)
        } else {
            Self::create(dir, policy, shards, capacity_per_shard)
        }
    }

    /// The policy this store runs under.
    pub fn policy(&self) -> PolicyKind {
        match self {
            KvStore::Nvt(_) => PolicyKind::NvTraverse,
            KvStore::Soft(_) => PolicyKind::Soft,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        match self {
            KvStore::Nvt(s) => s.shard_count(),
            KvStore::Soft(s) => s.shard_count(),
        }
    }

    /// Which shard `key` routes to.
    pub fn shard_index_of(&self, key: u64) -> usize {
        match self {
            KvStore::Nvt(s) => s.shard_index_of(key),
            KvStore::Soft(s) => s.shard_index_of(key),
        }
    }

    /// Total keys across shards (quiescent-accurate, like every `len`).
    pub fn len(&self) -> usize {
        match self {
            KvStore::Nvt(s) => s.len(),
            KvStore::Soft(s) => s.len(),
        }
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        match self {
            KvStore::Nvt(s) => s.get(key),
            KvStore::Soft(s) => s.get(key),
        }
    }

    /// Inserts `key → value`; pool exhaustion is reported, not panicked.
    ///
    /// # Errors
    ///
    /// [`OpError::PoolFull`] when the routed shard's pool is exhausted.
    pub fn try_insert(&self, key: u64, value: u64) -> Result<bool, OpError> {
        match self {
            KvStore::Nvt(s) => s.try_insert(key, value),
            KvStore::Soft(s) => s.try_insert(key, value),
        }
    }

    /// Removes `key`.
    ///
    /// # Errors
    ///
    /// Propagates the shard's [`OpError`] (removal itself cannot exhaust
    /// the pool).
    pub fn try_remove(&self, key: u64) -> Result<bool, OpError> {
        match self {
            KvStore::Nvt(s) => s.try_remove(key),
            KvStore::Soft(s) => s.try_remove(key),
        }
    }

    /// Claims one descriptor slot per shard for a detectable-ops client
    /// (see [`ShardedSet::detectable_tokens`]). `None` under SOFT (its
    /// structures don't speak the descriptor protocol). Slots are never
    /// reused within a pool file's lifetime, so callers hold one bundle
    /// per long-lived thread — not one per operation.
    ///
    /// # Errors
    ///
    /// Fails when the descriptor table is out of slots.
    pub fn detectable_tokens(&self) -> io::Result<Option<ShardTokens>> {
        match self {
            KvStore::Nvt(s) => Ok(Some(s.detectable_tokens()?)),
            KvStore::Soft(_) => Ok(None),
        }
    }

    /// Detectable insert; see [`ShardedSet::insert_detectable`].
    ///
    /// # Errors
    ///
    /// [`OpError::Unsupported`] under SOFT, otherwise the shard's error.
    pub fn insert_detectable(
        &self,
        tokens: &mut ShardTokens,
        key: u64,
        value: u64,
    ) -> Result<(OpId, bool), OpError> {
        match self {
            KvStore::Nvt(s) => s.insert_detectable(tokens, key, value),
            KvStore::Soft(_) => Err(OpError::Unsupported),
        }
    }

    /// Detectable remove; see [`ShardedSet::remove_detectable`].
    ///
    /// # Errors
    ///
    /// [`OpError::Unsupported`] under SOFT, otherwise the shard's error.
    pub fn remove_detectable(
        &self,
        tokens: &mut ShardTokens,
        key: u64,
    ) -> Result<(OpId, bool), OpError> {
        match self {
            KvStore::Nvt(s) => s.remove_detectable(tokens, key),
            KvStore::Soft(_) => Err(OpError::Unsupported),
        }
    }

    /// Classifies a detectable op of shard `shard` against the pool's
    /// open-time descriptor table; `None` when the shard index is out of
    /// range or the pool can't answer.
    pub fn op_outcome(&self, shard: usize, id: OpId) -> Option<OpOutcome> {
        if shard >= self.shard_count() {
            return None;
        }
        match self {
            KvStore::Nvt(s) => s.shard(shard).pool().op_outcome(id),
            KvStore::Soft(s) => s.shard(shard).pool().op_outcome(id),
        }
    }

    /// The pool's metrics, every shard's included (see
    /// [`ShardedSet::metrics_snapshot`]).
    pub fn metrics_snapshot(&self) -> nvtraverse_obs::Snapshot {
        match self {
            KvStore::Nvt(s) => s.metrics_snapshot(),
            KvStore::Soft(s) => s.metrics_snapshot(),
        }
    }

    /// The pool's one recovery report, from the last open.
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        match self {
            KvStore::Nvt(s) => s.recovery_reports(),
            KvStore::Soft(s) => s.recovery_reports(),
        }
    }

    /// Flushes the pool to its file and detaches.
    ///
    /// # Errors
    ///
    /// The sync failure.
    pub fn close(self) -> io::Result<()> {
        match self {
            KvStore::Nvt(s) => s.close(),
            KvStore::Soft(s) => s.close(),
        }
    }
}

/// A connection's lazily claimed [`ShardTokens`]: descriptor slots are a
/// finite resource of the store's pool (never reused within its file's
/// lifetime), so a connection that never issues a detectable operation
/// must never claim any.
#[derive(Debug, Default)]
pub struct ConnTokens {
    tokens: Option<ShardTokens>,
}

impl ConnTokens {
    /// Fresh, unclaimed.
    pub fn new() -> ConnTokens {
        ConnTokens { tokens: None }
    }

    /// The bundle, claiming it from `store` on first use.
    ///
    /// # Errors
    ///
    /// [`OpError::Unsupported`] under SOFT; [`OpError::PoolFull`] when the
    /// descriptor table has no slot free for every shard.
    pub fn get_or_claim(&mut self, store: &KvStore) -> Result<&mut ShardTokens, OpError> {
        if self.tokens.is_none() {
            match store.detectable_tokens() {
                Ok(Some(t)) => self.tokens = Some(t),
                Ok(None) => return Err(OpError::Unsupported),
                Err(_) => return Err(OpError::PoolFull),
            }
        }
        Ok(self.tokens.as_mut().expect("just claimed"))
    }

    /// Direct access to a single shard's token (tests drive shards).
    pub fn token(&mut self, shard: usize) -> Option<&mut OpToken> {
        self.tokens.as_mut().map(|t| t.token(shard))
    }
}
