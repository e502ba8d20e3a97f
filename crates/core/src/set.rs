//! The uniform set/map interface all evaluated structures implement, plus
//! the pool-reopen entry point for structures that live in a persistent
//! pool file.
//!
//! The paper evaluates five set implementations (list, hash table, two BSTs,
//! skiplist) under a common harness (§5.1: prefill to half the key range,
//! uniform keys, insert/delete/lookup mixes). [`DurableSet`] is that common
//! surface, so benchmarks, stress tests and crash tests are written once.
//!
//! [`PoolAttach`] + [`PooledHandle`] add the cross-process lifecycle for
//! *every* traversal structure — set-shaped or not (queue, stack): create
//! a structure inside a `nvtraverse-pool` file, find it again by name
//! after a restart, and keep the pool mapped for as long as the structure
//! is in use.
//!
//! The entry point is the **typed-root API** ([`TypedRoots`], implemented
//! for [`Pool`]): build a pool with `Pool::builder()`, then
//! `pool.open_roots::<(A, B)>(["a", "b"])` / `pool.root::<S>("name")` /
//! `pool.create_root::<S>("name")` / `pool.root_or_create::<S>("name")` —
//! each returns ready [`PooledHandle`]s with the structures attached and
//! recovered. After a crash, `open_roots` (of which `root` is the one-root
//! case) names the pool's [`Schema`] — every root with its type — so the
//! pool's recovery GC runs with every root's [`PoolTrace`] tracer, and each
//! tracer's plan is what its structure's recovery then carries out.
//! Because the handle just holds a clone of the (first-class,
//! multi-instance) pool, any number of roots and any number of pools
//! coexist in one process.
//! [`PoolTrace`] is the recovery half of the lifecycle: its one read of
//! each root's persistent node graph is the mark phase of the pool's
//! mark-sweep recovery GC — blocks stranded by a crash are swept back to
//! the pool's free lists before the structure attaches — and what it found
//! is the plan the attached structure's recovery runs.

use crate::detect::{OpError, OpToken};
use nvtraverse_pool::{Marker, OpId, Pool, TraceFn};
use std::cell::Cell;
use std::io;
use std::ops::Deref;

/// One set operation, used as the driver input for set-shaped structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp<K, V> {
    /// Insert `(key, value)`; fails if the key is present.
    Insert(K, V),
    /// Remove `key`; fails if absent.
    Remove(K),
    /// Look up `key`.
    Get(K),
}

/// A concurrent, optionally durable, set/map with 64-bit keys and values.
///
/// `insert`/`remove`/`get` are linearizable (and durably linearizable for
/// durable policies). `len` and `recover` are *not* concurrent operations:
/// they must be called in quiescent states (testing, and the post-crash
/// recovery phase, respectively).
pub trait DurableSet<K, V>: Send + Sync {
    /// Inserts `key → value`. Returns `false` if the key was already present
    /// (set semantics: the existing value is kept, as in the paper's C++
    /// implementations).
    fn insert(&self, key: K, value: V) -> bool;

    /// Removes `key`, returning `true` if it was present.
    fn remove(&self, key: K) -> bool;

    /// Returns the value associated with `key`, if any.
    fn get(&self, key: K) -> Option<V>;

    /// [`insert`](Self::insert), with the call's latency recorded into the
    /// thread's current observability target (see
    /// `nvtraverse_obs::attribute_to`) as an
    /// [`Insert`](nvtraverse_obs::OpKind::Insert) sample. Identical to plain
    /// `insert` when recording is disabled or no target is attributed.
    fn timed_insert(&self, key: K, value: V) -> bool {
        nvtraverse_obs::timed(nvtraverse_obs::OpKind::Insert, || self.insert(key, value))
    }

    /// [`remove`](Self::remove), recorded as a
    /// [`Remove`](nvtraverse_obs::OpKind::Remove) latency sample.
    fn timed_remove(&self, key: K) -> bool {
        nvtraverse_obs::timed(nvtraverse_obs::OpKind::Remove, || self.remove(key))
    }

    /// [`get`](Self::get), recorded as a
    /// [`Get`](nvtraverse_obs::OpKind::Get) latency sample.
    fn timed_get(&self, key: K) -> Option<V> {
        nvtraverse_obs::timed(nvtraverse_obs::OpKind::Get, || self.get(key))
    }

    /// Returns whether `key` is present.
    fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// [`insert`](Self::insert), but fallible: a full pool reports
    /// [`OpError::PoolFull`] instead of panicking, with nothing allocated
    /// and nothing changed — the structure (and the rest of the pool)
    /// stays fully usable. The default forwards to plain `insert` for
    /// structures whose allocation cannot fail (volatile policies).
    ///
    /// # Errors
    ///
    /// [`OpError::PoolFull`] when the backing pool is exhausted.
    fn try_insert(&self, key: K, value: V) -> Result<bool, OpError> {
        Ok(self.insert(key, value))
    }

    /// [`remove`](Self::remove), but fallible like
    /// [`try_insert`](Self::try_insert). Removal frees memory, so pool
    /// exhaustion cannot fail it — the default simply forwards — but the
    /// symmetric signature lets callers treat mutations uniformly.
    ///
    /// # Errors
    ///
    /// None in practice; see above.
    fn try_remove(&self, key: K) -> Result<bool, OpError> {
        Ok(self.remove(key))
    }

    /// **Detectable** [`insert`](Self::insert) ("Tracking in Order to
    /// Recover"): runs the insert through `token`'s operation-descriptor
    /// slot, so that after a crash
    /// [`Pool::op_outcome`](nvtraverse_pool::Pool::op_outcome) answers
    /// whether this exact operation took effect. Returns the operation's
    /// durable [`OpId`] and the usual set-semantics flag (`true` =
    /// inserted, `false` = key already present).
    ///
    /// Implemented by `HarrisList` and `HashMapDs` (under durable
    /// policies); everything else keeps this default.
    ///
    /// # Errors
    ///
    /// [`OpError::Unsupported`] (the default), or
    /// [`OpError::PoolFull`] — in which case the descriptor may be armed
    /// but never publishes, and recovery classifies it `NotApplied`.
    fn insert_detectable(
        &self,
        token: &mut OpToken,
        key: K,
        value: V,
    ) -> Result<(OpId, bool), OpError> {
        let _ = (token, key, value);
        Err(OpError::Unsupported)
    }

    /// **Detectable** [`remove`](Self::remove) — see
    /// [`insert_detectable`](Self::insert_detectable). `true` = removed,
    /// `false` = key was absent.
    ///
    /// # Errors
    ///
    /// [`OpError::Unsupported`] (the default).
    fn remove_detectable(&self, token: &mut OpToken, key: K) -> Result<(OpId, bool), OpError> {
        let _ = (token, key);
        Err(OpError::Unsupported)
    }

    /// Number of keys present. Quiescent only.
    fn len(&self) -> usize;

    /// Whether the set is empty. Quiescent only.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Post-crash recovery (paper §4 "Recovery"): runs the structure's
    /// `disconnect(root)` (Supplement 1) to finish physically deleting every
    /// marked node, and rebuilds any volatile auxiliary parts (e.g. skiplist
    /// towers). A no-op for volatile policies.
    ///
    /// Must be called before any other operation after a crash, and only
    /// then (§2: "Processes call the recovery operation before any other
    /// operation after a crash event").
    fn recover(&self);
}

/// A structure that can live inside a persistent [`Pool`] and be found
/// again, by name, after the process restarts.
///
/// Every structure in `nvtraverse-structures` implements this — the sets
/// (`HarrisList`, `HashMapDs`, `SkipList`, `EllenBst`, `NmBst`) *and* the
/// non-set shapes (`MsQueue`, `TreiberStack`), which is the
/// paper's §3 generality claim made operational: any traversal data
/// structure, not just sets, survives a crash when its core is persistent
/// and its auxiliary parts are rebuilt on recovery.
///
/// # Lifecycle
///
/// ```text
/// first process                    crash / exit        any later process
/// ─────────────                    ────────────        ─────────────────
/// Pool::builder().create() ─┐                          Pool::builder().open() ─┐
///   create_in_pool(pool, "name")                         attach_to_pool(pool, "name")
///   (root registered)       │                            recover_attached()    │
///   operations …            └─ [SIGKILL / power loss / drop]                   └─ operations …
/// ```
///
/// [`TypedRoots`] packages each column into a single call
/// ([`TypedRoots::create_root`] / [`TypedRoots::root`]) that returns a
/// [`PooledHandle`]. Implementations
/// register their root node in the pool's root registry at creation and
/// rebuild their in-memory handle from that root on
/// [`PoolAttach::attach_to_pool`].
///
/// # What the root must encode
///
/// Everything volatile must be *recomputable* from what the root reaches:
/// the skiplist registers only its head tower and rebuilds every upper
/// level from the bottom list; the queue registers its anchor and
/// recomputes the tail shortcut by walking from the head; the hash table
/// registers a persistent bucket-offset table and rebuilds its volatile
/// `Box<[HarrisList]>` handle from it. See `ARCHITECTURE.md`'s
/// per-structure recovery table.
pub trait PoolAttach: Sized {
    /// Builds a fresh, empty instance whose every node lives in `pool`, and
    /// registers its root under `name`.
    ///
    /// The instance **captures a [`PoolCtx`](crate::alloc::PoolCtx) for `pool`** and re-enters it
    /// around its allocating operations, so all of its node allocations —
    /// now and after this call returns — are served from this pool, with
    /// no process-global state: structures in different pools coexist and
    /// allocate concurrently. It retires removed nodes into
    /// [`Pool::collector`], and dropping it frees only its volatile shell:
    /// the nodes belong to the pool.
    ///
    /// # Errors
    ///
    /// Fails when the root registry is full or `name` is invalid.
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self>;

    /// Re-attaches to the instance previously registered under `name`.
    ///
    /// Returns `None` when the root is absent, the pool was
    /// [rebased](Pool::is_rebased) (embedded absolute pointers would be
    /// invalid), or the implementation finds the root block malformed or
    /// stamped with another node layout. Like `create_in_pool`, the
    /// attached instance captures a
    /// [`PoolCtx`](crate::alloc::PoolCtx) for `pool`. It writes nothing:
    /// recovery is [`PoolTrace::recover_attached`], run on the trace's
    /// plan. An attach by hand runs no recovery, and after a crash it ends
    /// the open's chance to collect ([`Pool::attach_root_ptr`]): open
    /// through [`TypedRoots::open_roots`], which collects first.
    ///
    /// # Safety
    ///
    /// The root must have been registered by `create_in_pool` of the *same*
    /// concrete type (same key/value/durability parameters): the registry
    /// stores untyped offsets.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self>;

    /// Settles the pool's still-unresolved operation descriptors
    /// ([`Pool::unresolved_ops`]) whose key `owns` accepts — the keys the
    /// [`Schema`] routes to this root — against this structure's
    /// **recovered** state: re-run the lookup the descriptor describes and
    /// report `Committed`/`NotApplied` back through [`Pool::resolve_op`].
    /// Called by the typed-root open path after
    /// [`recover_attached`](PoolTrace::recover_attached) (quiescent,
    /// recovery finished), so `Pool::op_outcome` has an answer for every
    /// descriptor by the time the open returns a handle.
    ///
    /// The default does nothing — correct for every structure without
    /// detectable operations (their pools never arm a descriptor).
    fn resolve_detectable(&self, pool: &Pool, owns: &dyn Fn(u64) -> bool) {
        let _ = (pool, owns);
    }
}

/// A [`PoolAttach`] structure's recovery, as one typed step in two halves:
/// [`trace`](PoolTrace::trace) reads the persistent node graph from the
/// root — the mark phase of the pool's root-driven mark-sweep recovery GC
/// (see `nvtraverse_pool::gc`) — and returns a [`Plan`](PoolTrace::Plan)
/// of what it found; [`recover_attached`](PoolTrace::recover_attached)
/// carries the plan out on the attached structure. The paper's recovery is
/// a walk from the root (§4, `disconnect(root)`); the mark phase already is
/// that walk, so an open reads each structure's graph once.
///
/// `Pool::open` cannot know which concrete structure type each registered
/// root belongs to: the root registry stores untyped offsets. The typed
/// open does — [`TypedRoots::open_roots`] names every root with its type
/// and hands each root's [`PoolTrace::trace`] to [`Pool::collect`] before
/// any structure attaches, so recovery can prove which allocated blocks
/// are reachable and sweep the rest back to the free lists. An open that
/// cannot collect fails, so the plan always comes from a collecting
/// `trace`.
///
/// # Contract for implementations
///
/// `trace` runs in [`Pool::collect`], **before** `attach_to_pool`,
/// single-threaded, on a quiescent heap whose block headers have all been
/// verified. It **only reads**: a collection it refuses, or an open whose
/// attach then fails, must leave the file byte-identical. Every write
/// recovery needs goes in the plan, which `recover_attached` runs only
/// after the attach succeeded. An implementation must
/// [`mark`](nvtraverse_pool::Marker::mark) every block that the structure's
/// recovery — or any later operation — may reach from `root`:
///
/// * **Follow marked / logically-deleted links.** A reachable-but-marked
///   node is still linked into the structure; recovery will trim it and
///   retire it through the collector, so the sweep must not free it first.
///   Walk exactly the links recovery walks.
/// * **Do not follow volatile auxiliary state.** Links that recovery
///   rebuilds from the persistent core (skiplist tower levels, the
///   queue's tail shortcut) may be stale after a crash; tracing through
///   them would at best mark garbage and at worst chase dangling pointers.
///   The [`Marker`] validates every pointer against the block headers,
///   but validation cannot turn a wrong walk into a right one.
/// * **Keep operation descriptors recovery dereferences.** The Ellen BST's
///   helping recovery reads `Info` records out of non-`CLEAN` update words
///   and then dereferences the nodes they name (including a pending
///   insert's not-yet-linked subtree); all of those must be marked.
/// * **Refuse what is not this layout.** A root whose on-media layout stamp
///   names another node layout cannot be walked as this one:
///   [`refuse`](nvtraverse_pool::Marker::refuse) it, and the collection
///   ends without sweeping anything.
/// * **Plan only from what was read.** The plan may name only blocks the
///   trace marked or (SOFT) enumerated: recovery acts on it without
///   reading the graph again.
///
/// Everything allocated but unmarked after all roots are traced is swept.
/// An implementation that under-marks therefore frees live data — which is
/// why the trait is `unsafe` — while one that over-marks (conservatively
/// keeping, say, a CLEAN descriptor) merely delays reclamation of a
/// bounded set of blocks to the structure's own retire path.
///
/// # Safety
///
/// Implementors assert that `trace`, given a root created by
/// `create_in_pool` of this exact type, marks a superset of the blocks any
/// post-recovery execution can reach, dereferencing only memory valid
/// under the structure's invariants, and writes nothing.
///
/// # Example: leaked blocks are reclaimed at the next open
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::pool::Pool;
/// use nvtraverse::{DurableSet, TypedRoots};
/// use nvtraverse::pmem::MmapBackend;
/// use nvtraverse_structures::list::HarrisList;
///
/// type List = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
/// let path = std::env::temp_dir().join(format!("doc-trace-{}.pool", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
///
/// let pool = Pool::builder().path(&path).capacity(4 << 20).create()?;
/// let list = pool.create_root::<List>("gc-demo")?;
/// for k in 0..64u64 { list.insert(k, k); }
/// for k in 0..64u64 { list.remove(k); }
/// // Strand a block on purpose: allocated, reachable from no root — the
/// // durable state a crash mid-operation (or mid-EBR) leaves behind.
/// let _orphan = pool.alloc(64, 8).unwrap();
/// list.close()?;
/// drop(pool);
/// // A clean close seals the pool, and root::<List> on a sealed open
/// // collects nothing. A crash leaves the clean flag (header byte 40)
/// // cleared: clear it here.
/// std::os::unix::fs::FileExt::write_all_at(
///     &std::fs::OpenOptions::new().write(true).open(&path)?, &[0; 8], 40)?;
///
/// // root::<List> hands List's tracer for "gc-demo" to the collection, so
/// // the mark-sweep runs before the structure attaches and reclaims exactly
/// // the orphan (the close had already drained every retired node).
/// let pool = Pool::builder().path(&path).open()?;
/// let list = pool.root::<List>("gc-demo")?;
/// let report = pool.recovery_report();
/// assert!(report.gc_ran);
/// assert_eq!(report.reclaimed_blocks, 1);
/// assert!(report.reclaimed_bytes >= 64);
/// # list.close()?; drop(pool); std::fs::remove_file(&path)?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub unsafe trait PoolTrace: PoolAttach {
    /// What the trace found that recovery acts on: the chains that cross a
    /// marked link (Harris), each list's sealed nodes (SOFT), or nothing
    /// (`()`) for a structure whose recovery walks its graph itself.
    type Plan;

    /// Marks every block reachable from `root` (a payload pointer to this
    /// structure's registered root block) in `marker`, and returns the
    /// plan for [`recover_attached`](PoolTrace::recover_attached).
    ///
    /// # Safety
    ///
    /// `root` must be the root of a structure created by
    /// `Self::create_in_pool`, in a pool mapped at its preferred base,
    /// quiescent, with verified block headers — the exact state
    /// `Pool::open` recovery provides.
    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) -> Self::Plan;

    /// Runs the structure's post-crash recovery (the `disconnect(root)` pass
    /// of paper §4, plus any volatile-auxiliary rebuild) on the structure
    /// just attached, with the `plan` its own [`trace`](PoolTrace::trace)
    /// returned for this open. Quiescent.
    ///
    /// It runs only after the collection of a crashed open, so never on a
    /// pool opened [sealed](nvtraverse_pool::RecoveryReport::sealed): that
    /// close was clean, drained every retired node and left the structure
    /// exactly as its last operation did. Volatile state a session must
    /// not repeat is therefore restored by the attach, on every open:
    /// SOFT's `seq` counter from the lease in its head, the skiplist's
    /// height source from the pool's live block count.
    fn recover_attached(&self, plan: Self::Plan);
}

/// **Typed roots** — the extension of [`Pool`] that turns root *names*
/// into ready, attached structure handles in one call:
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::pmem::MmapBackend;
/// use nvtraverse::pool::Pool;
/// use nvtraverse::{DurableSet, TypedRoots};
/// use nvtraverse_structures::list::HarrisList;
/// use nvtraverse_structures::queue::MsQueue;
///
/// type List = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
/// type Queue = MsQueue<u64, NvTraverse<MmapBackend>>;
/// let path = std::env::temp_dir().join(format!("doc-typed-{}.pool", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
///
/// // First process: build the pool, create two named roots in it.
/// let pool = Pool::builder().path(&path).capacity(4 << 20).create()?;
/// let list = pool.create_root::<List>("accounts")?;
/// let queue = pool.create_root::<Queue>("audit")?;
/// list.insert(7, 700);
/// queue.enqueue(7);
/// drop((list, queue, pool));
///
/// // Any later process: open the pool, name every root with its type.
/// let pool = Pool::builder().path(&path).open()?;
/// let (list, queue) = pool.open_roots::<(List, Queue)>(["accounts", "audit"])?;
/// assert_eq!(list.get(7), Some(700));
/// assert_eq!(queue.dequeue(), Some(7));
/// # drop((list, queue, pool)); std::fs::remove_file(&path)?;
/// # Ok::<(), std::io::Error>(())
/// ```
///
/// [`TypedRoots::open_roots`] is the one open: after a crash it runs the
/// pool's recovery collection with every root's [`PoolTrace`] tracer
/// ([`Pool::collect`]), then attaches each root and runs each structure's
/// recovery on its tracer's plan; on a
/// [sealed](nvtraverse_pool::RecoveryReport::sealed) or already recovered
/// pool it only attaches. [`TypedRoots::root`] is its one-root case. Every
/// method returns [`PooledHandle`]s that share the pool, on as many pools
/// as are open.
///
/// # Type contract
///
/// `open_roots::<S>` trusts the caller that each root **was created as
/// its type in `S`** (same key/value/policy parameters): the pool's root
/// registry stores untyped offsets, so a wrong type misreads pool memory —
/// the same contract [`PoolAttach::attach_to_pool`] states. Creating and
/// opening through this API keeps the assertion in exactly one place per
/// root name.
pub trait TypedRoots {
    /// Attaches to the roots `names` as the types of schema `S` — one name
    /// per type in tuple order, or any number of names for `Vec<S>` — runs
    /// their recovery, and returns the owning handles. After a crash — an
    /// open that walked the heap — the first call runs the open's one
    /// collection with every root's tracer, then
    /// attaches every root, runs each structure's
    /// [`recover_attached`](PoolTrace::recover_attached) on its tracer's
    /// plan, then each one's
    /// [`resolve_detectable`](PoolAttach::resolve_detectable), and only
    /// then marks the pool recovered, so its close may seal. On a
    /// [sealed](nvtraverse_pool::RecoveryReport::sealed), created or
    /// already recovered pool it only attaches: no trace, no walk, no
    /// recovery. The operation-descriptor table's root is traced by the
    /// pool itself, so a schema never names it.
    ///
    /// # Errors
    ///
    /// Fails when a root in `names` is missing or does not attach as its
    /// type (a torn slot, or a block written under another node layout),
    /// or the pool was [rebased](Pool::is_rebased). After a crash it also
    /// fails, sweeping nothing, when the pool holds a root `names` leaves
    /// out, or the heap changed before recovery (an allocation, free or
    /// attach came first); the file then differs only in its header's open
    /// and close words.
    fn open_roots<S: Schema>(&self, names: S::Names<'_>) -> io::Result<S::Handles>;

    /// [`TypedRoots::open_roots`] for a pool whose only root is `name`:
    /// attaches to it as an `S`, runs its recovery, and returns the owning
    /// handle.
    ///
    /// # Errors
    ///
    /// As for [`TypedRoots::open_roots`] with the one-root schema `(S,)`.
    fn root<S: PoolTrace>(&self, name: &str) -> io::Result<PooledHandle<S>>;

    /// Creates a fresh `S` whose nodes live in this pool, registered under
    /// `name`, and returns the owning handle.
    ///
    /// # Errors
    ///
    /// Fails when the root registry is full or `name` is invalid/taken by
    /// an incompatible slot state.
    fn create_root<S: PoolTrace>(&self, name: &str) -> io::Result<PooledHandle<S>>;

    /// [`TypedRoots::root`] if the root exists, otherwise
    /// [`TypedRoots::create_root`] — heals a crash that died between pool
    /// creation and root registration.
    ///
    /// # Errors
    ///
    /// Fails when the pool was rebased or creation fails.
    fn root_or_create<S: PoolTrace>(&self, name: &str) -> io::Result<PooledHandle<S>>;
}

impl TypedRoots for Pool {
    fn open_roots<S: Schema>(&self, names: S::Names<'_>) -> io::Result<S::Handles> {
        S::open(self, names)
    }

    fn root<S: PoolTrace>(&self, name: &str) -> io::Result<PooledHandle<S>> {
        self.open_roots::<(S,)>([name]).map(|(handle,)| handle)
    }
    fn create_root<S: PoolTrace>(&self, name: &str) -> io::Result<PooledHandle<S>> {
        // Refuse to overwrite a live root: the raw registry's
        // `set_root_offset` replaces an existing slot, which would orphan
        // the previous structure's entire node graph (the next open's GC
        // would then reclaim it — silent data loss). A torn slot
        // (offset 0, crash mid-registration) is the one overwrite that
        // *is* healing, so it passes.
        if matches!(self.root_offset(name), Some(off) if off != 0) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "pool already has a root named {name:?} — open it with \
                     `root::<S>` (or `root_or_create`) instead of creating over it"
                ),
            ));
        }
        S::create_in_pool(self, name).map(|inner| PooledHandle::from_attached(self.clone(), inner))
    }

    fn root_or_create<S: PoolTrace>(&self, name: &str) -> io::Result<PooledHandle<S>> {
        if self.is_rebased() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("pool was rebased; absolute pointers for root {name:?} are invalid"),
            ));
        }
        match self.root_offset(name) {
            // A torn slot (offset 0, crash mid-registration) is healed by
            // re-creating, same as a missing root.
            Some(off) if off != 0 => self.root::<S>(name),
            _ => self.create_root::<S>(name),
        }
    }
}

/// A pool's **schema**: the structure type of each root that
/// [`TypedRoots::open_roots`] opens — a tuple `(A, B, …)` of [`PoolTrace`]
/// types (one to six), one per root name, or `Vec<S>`: any number of roots
/// of one type `S`, given as a slice of names.
///
/// Naming every root at once is what lets a crashed pool be recovered as
/// the paper's model (§2) requires, before any other operation: the open
/// traces every root, sweeps what none reaches, and only then attaches
/// and recovers each structure.
///
/// The roots of a `Vec<S>` partition a key space: root `i` holds the keys
/// that [`shard_route`]`(key, names.len())` sends to `i` (the shards of a
/// `ShardedSet`). The partition is how the open settles each operation
/// descriptor with the root its operation ran on.
pub trait Schema: schema::Open + Sized {
    /// The root names: `[&str; N]` in tuple order, or `&[&str]`.
    type Names<'n>;
    /// The handles: `(PooledHandle<A>, PooledHandle<B>, …)` in tuple
    /// order, or `Vec<PooledHandle<S>>` in name order.
    type Handles;
}

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
/// routing function of every sharded set and of the [`Schema`] `Vec<S>`,
/// exposed so remote clients (the `nvtraverse-server` client library) can
/// predict a key's shard without holding the set. Deterministic and stable
/// across processes and versions: it is part of the on-disk format.
///
/// # Panics
///
/// Panics when `shards` is 0 (a sharded set always has at least one).
pub fn shard_route(key_bits: u64, shards: usize) -> usize {
    (mix(key_bits) % shards as u64) as usize
}

mod schema {
    use super::*;

    /// The open of a [`Schema`], out of reach of other crates.
    pub trait Open {
        /// [`TypedRoots::open_roots`].
        fn open(pool: &Pool, names: <Self as Schema>::Names<'_>) -> io::Result<<Self as Schema>::Handles>
        where
            Self: Schema;
    }

    /// One root of a schema being opened: its name, and the plan its trace
    /// returned if this open collected.
    pub(super) struct Root<'n, S: PoolTrace>(pub(super) &'n str, pub(super) Cell<Option<S::Plan>>);

    impl<S: PoolTrace> Root<'_, S> {
        /// The root's tracer for [`Pool::collect`]: traces it as an `S`
        /// and keeps the plan.
        pub(super) fn tracer(&self) -> impl FnMut(*mut u8, &mut Marker<'_>) + '_ {
            move |root, marker| {
                // SAFETY: the root was created as `S` — the caller's type
                // contract, which attach asserts too.
                self.1.set(Some(unsafe { S::trace(root, marker) }));
            }
        }

        /// Attaches the root as an `S`, recovering nothing.
        pub(super) fn attach(&self, pool: &Pool) -> io::Result<PooledHandle<S>> {
            let name = self.0;
            // SAFETY: deferred to the caller's choice of `S` — see the
            // `TypedRoots` type contract.
            let inner = unsafe { S::attach_to_pool(pool, name) }.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    if pool.is_rebased() {
                        format!("pool was rebased; absolute pointers for root {name:?} are invalid")
                    } else {
                        format!("pool has no root named {name:?} that attaches as this type")
                    },
                )
            })?;
            Ok(PooledHandle::from_attached(pool.clone(), inner))
        }

        /// Runs the attached structure's recovery on its trace's plan; a
        /// sealed or already recovered open traced nothing.
        pub(super) fn recover(&self, handle: &PooledHandle<S>) {
            if let Some(plan) = self.1.take() {
                handle.recover_attached(plan);
            }
        }
    }
}

/// Implements [`Schema`] for the tuple of `$S`, whose `$i`-th element is
/// the type of root `names[$i]`.
macro_rules! schema {
    ($n:literal: $($S:ident $i:tt),+) => {
        impl<$($S: PoolTrace),+> Schema for ($($S,)+) {
            type Names<'n> = [&'n str; $n];
            type Handles = ($(PooledHandle<$S>,)+);
        }

        impl<$($S: PoolTrace),+> schema::Open for ($($S,)+) {
            fn open(pool: &Pool, names: <Self as Schema>::Names<'_>) -> io::Result<<Self as Schema>::Handles> {
                let roots = ($(schema::Root::<$S>(names[$i], Cell::default()),)+);
                let mut traces = ($(roots.$i.tracer(),)+);
                let tracers: &mut [(&str, TraceFn<'_>)] = &mut [$((names[$i], &mut traces.$i),)+];
                // SAFETY: each tracer traces its root as the type the
                // schema names for it, and nothing attaches before the
                // collection: the attaches are the recovery it runs.
                unsafe {
                    pool.collect(tracers, || {
                        let handles = ($(roots.$i.attach(pool)?,)+);
                        $(roots.$i.recover(&handles.$i);)+
                        // Recovery done and quiescent: let each structure
                        // answer the descriptors the table alone could not
                        // classify.
                        $(handles.$i.resolve_detectable(pool, &|_| true);)+
                        Ok(handles)
                    })
                }
            }
        }
    };
}

schema!(1: A 0);
schema!(2: A 0, B 1);
schema!(3: A 0, B 1, C 2);
schema!(4: A 0, B 1, C 2, D 3);
schema!(5: A 0, B 1, C 2, D 3, E 4);
schema!(6: A 0, B 1, C 2, D 3, E 4, F 5);

impl<S: PoolTrace> Schema for Vec<S> {
    type Names<'n> = &'n [&'n str];
    type Handles = Vec<PooledHandle<S>>;
}

impl<S: PoolTrace> schema::Open for Vec<S> {
    fn open(pool: &Pool, names: <Self as Schema>::Names<'_>) -> io::Result<<Self as Schema>::Handles> {
        let roots: Vec<schema::Root<'_, S>> = names.iter().map(|&name| schema::Root(name, Cell::default())).collect();
        let mut traces: Vec<_> = roots.iter().map(schema::Root::tracer).collect();
        let mut tracers: Vec<(&str, TraceFn<'_>)> =
            names.iter().zip(&mut traces).map(|(&name, trace)| (name, trace as TraceFn<'_>)).collect();
        // SAFETY: as for the tuple schemas — every tracer traces its root
        // as `S`, and nothing attaches before the collection.
        unsafe {
            pool.collect(&mut tracers, || {
                let handles = roots.iter().map(|root| root.attach(pool)).collect::<io::Result<Vec<_>>>()?;
                for (root, handle) in roots.iter().zip(&handles) {
                    root.recover(handle);
                }
                // A root classifies only the descriptors whose key routes to
                // it: another root's lookup would miss the key and call the
                // operation never applied.
                for (i, handle) in handles.iter().enumerate() {
                    handle.resolve_detectable(pool, &|key| shard_route(key, handles.len()) == i);
                }
                Ok(handles)
            })
        }
    }
}

/// Owning handle for a pool-resident structure: the attached structure plus
/// a handle on the pool it lives in, dropped in that order.
///
/// Dropping the handle drops the structure like any value — a pooled
/// structure's destructor frees its volatile shell and no node, because
/// the nodes belong to the pool and must be found again on the next open —
/// and then the pool handle. The last pool handle to go drains the pool's
/// [collector](Pool::collector), closes it and unmaps the pool (after an
/// `msync`); see `ARCHITECTURE.md`, "Closing a pool".
///
/// This is the paper's §2 lifecycle as an API: *"Processes call the recovery
/// operation before any other operation after a crash event"* —
/// [`TypedRoots::root`] performs exactly root lookup → attach → `recover()`
/// before handing the handle out.
///
/// # Worked example: create → (crash) → reopen
///
/// The first block below plays the role of the process that dies; the
/// second is the process that comes back up. After a real `SIGKILL`
/// the reopen path is byte-for-byte the same open + `root::<S>` calls — the
/// only difference is that `recover()` then has marked nodes or stale
/// volatile shortcuts to repair (exercised for every structure in
/// `tests/crash_process.rs`).
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::pool::Pool;
/// use nvtraverse::{DurableSet, TypedRoots};
/// use nvtraverse::pmem::MmapBackend;
/// use nvtraverse_structures::list::HarrisList;
///
/// type List = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
///
/// let path = std::env::temp_dir().join(format!("doc-pooled-{}.pool", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
///
/// // "First process": create a pool file holding a named list, mutate it,
/// // and let go. `close` syncs the mapping; a crash instead of a close
/// // loses at most the in-flight operation (durable linearizability).
/// let pool = Pool::builder().path(&path).capacity(4 << 20).create()?;
/// let list = pool.create_root::<List>("accounts")?;
/// assert!(list.insert(7, 700));
/// assert!(list.insert(8, 800));
/// assert!(list.remove(8));
/// list.close()?;
/// drop(pool);
///
/// // "Second process": open → root lookup → recover(), two calls.
/// let pool = Pool::builder().path(&path).open()?;
/// let list = pool.root::<List>("accounts")?;
/// assert_eq!(list.get(7), Some(700));
/// assert_eq!(list.get(8), None, "removes are as durable as inserts");
/// assert!(list.insert(9, 900), "recovered structure is fully usable");
/// list.close()?;
/// # drop(pool); std::fs::remove_file(&path)?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct PooledHandle<S: PoolAttach> {
    /// Declared first so it drops first, while `pool` keeps the mapping.
    inner: S,
    pool: Pool,
}

impl<S: PoolAttach> PooledHandle<S> {
    /// Wraps an attached (or freshly created) structure with the pool it
    /// lives in — the internal constructor behind [`TypedRoots`].
    fn from_attached(pool: Pool, inner: S) -> Self {
        PooledHandle { inner, pool }
    }

    /// The underlying pool (for roots, stats, `sync`, …).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Reclaims what this thread has retired into the pool's collector,
    /// flushes the mapping to the backing file and drops the handle
    /// **without** freeing any live node (the normal way to let go of a
    /// pooled structure).
    pub fn close(self) -> io::Result<()> {
        self.pool.collector().drain();
        self.pool.sync()
    }
}

impl<S: PoolAttach> Deref for PooledHandle<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.inner
    }
}

impl<S: PoolAttach> std::fmt::Debug for PooledHandle<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledHandle").field("pool", &self.pool).finish()
    }
}
