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
//! *every* traversal structure — set-shaped or not (queue, stack, priority
//! queue): create a structure inside a `nvtraverse-pool` file, find it again
//! by name after a restart, and keep the pool mapped for as long as the
//! structure is in use.
//!
//! The entry point is the **typed-root API** ([`TypedRoots`], implemented
//! for [`Pool`]): build a pool with `Pool::builder()`, then
//! `pool.root::<S>("name")` / `pool.create_root::<S>("name")` /
//! `pool.root_or_create::<S>("name")` — each returns a ready
//! [`PooledHandle<S>`] with the structure attached and recovered — `root`
//! first runs the pool's recovery GC with `S`'s [`PoolTrace`] tracer, whose
//! plan the structure's recovery then carries out.
//! Because the handle just holds a clone of the (first-class,
//! multi-instance) pool, any number of roots and any number of pools
//! coexist in one process.
//! [`PoolTrace`] is the recovery half of the lifecycle: its one read of
//! each root's persistent node graph is the mark phase of the pool's
//! mark-sweep recovery GC — blocks stranded by a crash are swept back to
//! the pool's free lists before the structure attaches — and what it found
//! is the plan the attached structure's recovery runs.

use crate::detect::{OpError, OpToken};
use nvtraverse_pool::{OpId, Pool};
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
/// non-set shapes (`MsQueue`, `TreiberStack`, `PriorityQueue`), which is the
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
    /// [`PoolCtx`](crate::alloc::PoolCtx) for `pool`. An attach by hand
    /// runs no recovery collection: call [`Pool::collect`] before it, as
    /// [`TypedRoots::root`] does, never after. It writes nothing: recovery
    /// is [`PoolTrace::recover_attached`], run on the trace's plan.
    ///
    /// # Safety
    ///
    /// The root must have been registered by `create_in_pool` of the *same*
    /// concrete type (same key/value/durability parameters): the registry
    /// stores untyped offsets.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self>;

    /// Settles the pool's still-unresolved operation descriptors
    /// ([`Pool::unresolved_ops`]) against this structure's **recovered**
    /// state: re-run the lookup the descriptor describes and report
    /// `Committed`/`NotApplied` back through [`Pool::resolve_op`]. Called
    /// by the typed-root open path after
    /// [`recover_attached`](PoolTrace::recover_attached) (quiescent,
    /// recovery finished), so `Pool::op_outcome` has an answer for every
    /// descriptor by the time the open returns a handle.
    ///
    /// The default does nothing — correct for every structure without
    /// detectable operations (their pools never arm a descriptor).
    fn resolve_detectable(&self, pool: &Pool) {
        let _ = pool;
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
/// root belongs to: the root registry stores untyped offsets. The attach
/// does — [`TypedRoots::root`] hands [`PoolTrace::trace`] for the root's
/// name to [`Pool::collect`] before `S` attaches (pass every root's tracer
/// to `Pool::collect` yourself for a pool of several roots), so recovery
/// can prove which allocated blocks are reachable and sweep the rest back
/// to the free lists. When no collection can run, `Pool::collect` still
/// runs the tracer, read-only, so the plan always comes from `trace`.
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
///   The [`Marker`](nvtraverse_pool::Marker) validates every pointer
///   against the block headers, but validation cannot turn a wrong walk
///   into a right one.
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
    /// It runs only after a trace, so never on a pool opened
    /// [sealed](nvtraverse_pool::RecoveryReport::sealed): that close was
    /// clean, drained every retired node and left the structure exactly as
    /// its last operation did. Volatile state a session must not repeat is
    /// therefore restored by the attach, on every open: SOFT's `seq`
    /// counter from the lease in its head, the skiplist's height source
    /// from the pool's live block count.
    fn recover_attached(&self, plan: Self::Plan);
}

/// **Typed roots** — the extension of [`Pool`] that turns a root *name*
/// into a ready, attached structure handle in one call:
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::pmem::MmapBackend;
/// use nvtraverse::pool::Pool;
/// use nvtraverse::{DurableSet, TypedRoots};
/// use nvtraverse_structures::list::HarrisList;
///
/// type List = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
/// let path = std::env::temp_dir().join(format!("doc-typed-{}.pool", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
///
/// // First process: build the pool, create a named root in it.
/// let pool = Pool::builder().path(&path).capacity(4 << 20).create()?;
/// let list = pool.create_root::<List>("accounts")?;
/// list.insert(7, 700);
/// list.close()?;
/// drop(pool);
///
/// // Any later process: open the pool, ask for the root by name + type.
/// let pool = Pool::builder().path(&path).open()?;
/// let list = pool.root::<List>("accounts")?;
/// assert_eq!(list.get(7), Some(700));
/// # list.close()?; drop(pool); std::fs::remove_file(&path)?;
/// # Ok::<(), std::io::Error>(())
/// ```
///
/// [`TypedRoots::root`] first runs the open's recovery collection with
/// `S`'s [`PoolTrace`] tracer ([`Pool::collect`]), then attaches and runs
/// the structure's recovery on the tracer's plan (on a
/// [sealed](nvtraverse_pool::RecoveryReport::sealed) open it runs neither);
/// every method returns a
/// [`PooledHandle`] that shares the pool: call the methods as many times
/// as there are roots, on as many pools as are open (`Pool::collect` →
/// `attach_to_pool` → `recover_attached` remain the low-level layer
/// underneath).
///
/// # Type contract
///
/// `root::<S>` trusts the caller
/// that the root named `name` **was created as `S`** (same key/value/policy
/// parameters): the pool's root registry stores untyped offsets, so a wrong
/// `S` misreads pool memory — the same contract
/// [`PoolAttach::attach_to_pool`] states. Creating and opening through this
/// API keeps the assertion in exactly one place per root name.
pub trait TypedRoots {
    /// Attaches to the root named `name` as an `S`, runs its recovery, and
    /// returns the owning handle. First calls [`Pool::collect`] with `S`'s
    /// tracer for `name`: the first attach after the open collects a pool
    /// whose only root (besides the ops table) is `name`, and ends the
    /// open's collection either way. The tracer's plan is what
    /// [`PoolTrace::recover_attached`] then runs. A pool opened
    /// [sealed](nvtraverse_pool::RecoveryReport::sealed) needs no
    /// recovery: no tracer runs, and neither does `recover_attached`.
    ///
    /// # Errors
    ///
    /// Fails when the pool has no root named `name`, the root does not
    /// attach as `S` (a torn slot, or a block written under another node
    /// layout), or the pool was [rebased](Pool::is_rebased).
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
    fn root<S: PoolTrace>(&self, name: &str) -> io::Result<PooledHandle<S>> {
        let mut plan = None;
        let sealed = self.recovery_report().sealed;
        // SAFETY: attach_to_pool below requires the root to be of type `S`;
        // tracing it as `S` is the same assertion. This is the attach, so
        // nothing attached before it through this API.
        unsafe {
            if sealed {
                // Nothing to recover: with no tracer the call only ends the
                // open's collection, so no later one sweeps a node the
                // attached structure retired.
                self.collect(&mut []);
            } else {
                self.collect(&mut [(name, &mut |root, marker| plan = Some(S::trace(root, marker)))]);
            }
        }
        // SAFETY: deferred to the caller's choice of `S` — see the
        // trait-level type contract. No plan on an unsealed open: no root,
        // or a rebased pool.
        let attached = (sealed || plan.is_some()).then(|| unsafe { S::attach_to_pool(self, name) });
        let inner = attached.flatten().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                if self.is_rebased() {
                    format!("pool was rebased; absolute pointers for root {name:?} are invalid")
                } else {
                    format!("pool has no root named {name:?} that attaches as this type")
                },
            )
        })?;
        if let Some(plan) = plan {
            inner.recover_attached(plan);
        }
        self.note_recovered(name);
        // Recovery done and quiescent: let the structure answer the
        // descriptors the descriptor table alone could not classify.
        inner.resolve_detectable(self);
        Ok(PooledHandle::from_attached(self.clone(), inner))
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
