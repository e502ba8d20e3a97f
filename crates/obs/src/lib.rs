//! Lock-free telemetry for the NVTraverse suite.
//!
//! NVTraverse's central claim is quantitative — a traversal phase with
//! **zero** flushes and fences followed by a critical phase with a constant
//! number of them — yet two process-global counters cannot say *where* a
//! `clwb` or `sfence` went: which pool, which structure, which phase of
//! which operation, or whether it was the allocator or the recovery GC
//! spending it. This crate is the measurement layer that can:
//!
//! * [`MetricSet`] — a sharded, cache-padded set of relaxed [`AtomicU64`]
//!   counters (flushes and fences **per phase**, allocator-tier counters,
//!   GC counters) plus log-bucketed operation-latency histograms. Threads
//!   record into cache-padded shards, so recording rarely contends across
//!   threads; reading sums the shards.
//! * **Attribution** — recording is routed through a thread-local
//!   *(target, phase)* pair: [`attribute_to`] aims subsequent
//!   flushes/fences at one pool's metric set, [`phase`] tags them with the
//!   pipeline stage ([`Phase::Traversal`], [`Phase::Critical`],
//!   [`Phase::Alloc`], [`Phase::Gc`]). The pmem backends call
//!   [`on_flush`]/[`on_fence`] from their flush/fence paths; everything
//!   else composes from scopes.
//! * **Registry** — [`for_pool`] hands out one `&'static MetricSet` per
//!   pool path (the set is leaked: bounded by the number of distinct pool
//!   files a process ever opens, and reopening a pool accumulates into the
//!   same set, which is exactly what a restart-loop wants to observe).
//! * [`Snapshot`] / [`Snapshot::since`] — cheap copy-out with wrapping
//!   deltas (nothing is ever reset under a concurrent reader), plus a
//!   hand-rolled [`Snapshot::to_json`]
//!   serializer and the whole-process [`stats_json`] dump.
//! * [`ring`] — a bounded lock-free event ring capturing recent pool
//!   lifecycle events (create/open/GC/close) for post-mortem dumps.
//!
//! # Overhead and the kill switch
//!
//! All counters are always-on relaxed atomics on cache-padded shards: the
//! hot-path cost is one TLS read plus one uncontended `fetch_add` per
//! recorded event. Setting the environment variable `NVT_OBS=off` (or `0`)
//! before the first recording disables every hook behind a single static
//! bool ([`enabled`]), reducing the cost to one predictable branch.
//!
//! # Example
//!
//! ```
//! use nvtraverse_obs::{self as obs, Counter, Phase};
//!
//! let set = obs::for_pool(std::path::Path::new("/tmp/example.pool"));
//! let before = set.snapshot();
//! {
//!     let _t = obs::attribute_to(Some(set));
//!     let _p = obs::phase(Phase::Critical);
//!     obs::on_flush(); // what a backend's flush path does
//!     obs::on_fence();
//! }
//! set.add(Counter::MagHit, 1);
//! let delta = set.snapshot().since(&before);
//! assert_eq!(delta.flushes[Phase::Critical as usize], 1);
//! assert_eq!(delta.total_fences(), 1);
//! assert_eq!(delta.counter(Counter::MagHit), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ring;

use crossbeam_utils::CachePadded;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which stage of the durable-operation pipeline a flush/fence belongs to.
///
/// The paper's fence-placement contract becomes directly observable through
/// these tags: under the NVTraverse policy the [`Phase::Traversal`] flush
/// and fence counts of a pool stay **zero** while the Izraelevitz baseline
/// pays one flush+fence per traversal step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// No phase scope was active (pool-header maintenance, tests, …).
    Unattributed = 0,
    /// The read-only traversal of an operation (`t_load`/`t_load_link` and
    /// friends). NVTraverse's claim: zero persistence traffic here.
    Traversal = 1,
    /// The critical section plus the injected `ensureReachable`/
    /// `makePersistent` steps — where the constant flush/fence budget of a
    /// durable operation is spent.
    Critical = 2,
    /// The pool allocator (magazine drains, slab carves, header persists).
    Alloc = 3,
    /// Recovery: heap walk, mark-sweep GC, free-list rebuild.
    Gc = 4,
}

/// Number of [`Phase`] variants (array dimension of per-phase counters).
pub const NUM_PHASES: usize = 5;

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Unattributed,
        Phase::Traversal,
        Phase::Critical,
        Phase::Alloc,
        Phase::Gc,
    ];

    /// Stable lowercase name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Unattributed => "unattributed",
            Phase::Traversal => "traversal",
            Phase::Critical => "critical",
            Phase::Alloc => "alloc",
            Phase::Gc => "gc",
        }
    }
}

/// Event counters beyond the per-phase flush/fence pair. The first group
/// (`MagHit`‥`ThreadDrain`) is the allocator domain, recorded by the pool's
/// engine; the `Gc*` group is the recovery domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Allocation served by the per-thread magazine (tier-1 hit).
    MagHit = 0,
    /// Allocation that missed the magazine and fell to the shared tier
    /// (the class free bitmaps, then the slab frontier).
    MagMiss = 1,
    /// Blocks moved from the shared tier (the class free bitmaps) into a
    /// magazine (refills).
    ShardPop = 2,
    /// Blocks moved from a magazine back to the shared tier (drains).
    ShardPush = 3,
    /// Failed `compare_exchange` attempts on the slab frontier.
    CasRetry = 4,
    /// Always 0: the shared tier has no per-thread home for a block, so no
    /// free crosses one. Kept only because the benchmark harness (`nvbench`)
    /// reads it.
    RemoteFree = 5,
    /// Slab carves from the frontier (one frontier reservation each).
    SlabCarve = 6,
    /// Blocks formatted by slab carves.
    SlabBlocks = 7,
    /// Thread-exit magazine drains (one per engine instance drained).
    ThreadDrain = 8,
    /// Mark-sweep recovery collections run.
    GcRuns = 9,
    /// Blocks proved reachable by GC mark phases.
    GcMarked = 10,
    /// Blocks swept (reclaimed) by GC sweep phases.
    GcSwept = 11,
    /// Node allocations refused because the persistent pool was exhausted
    /// (surfaced to callers as a recoverable error, not a panic).
    PoolFull = 12,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 13;

impl Counter {
    /// Every counter, in discriminant order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::MagHit,
        Counter::MagMiss,
        Counter::ShardPop,
        Counter::ShardPush,
        Counter::CasRetry,
        Counter::RemoteFree,
        Counter::SlabCarve,
        Counter::SlabBlocks,
        Counter::ThreadDrain,
        Counter::GcRuns,
        Counter::GcMarked,
        Counter::GcSwept,
        Counter::PoolFull,
    ];

    /// Stable snake_case name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Counter::MagHit => "mag_hit",
            Counter::MagMiss => "mag_miss",
            Counter::ShardPop => "shard_pop",
            Counter::ShardPush => "shard_push",
            Counter::CasRetry => "cas_retry",
            Counter::RemoteFree => "remote_free",
            Counter::SlabCarve => "slab_carve",
            Counter::SlabBlocks => "slab_blocks",
            Counter::ThreadDrain => "thread_drain",
            Counter::GcRuns => "gc_runs",
            Counter::GcMarked => "gc_marked",
            Counter::GcSwept => "gc_swept",
            Counter::PoolFull => "pool_full",
        }
    }

    /// The metric domain this counter reports under in JSON.
    pub fn domain(self) -> &'static str {
        match self {
            Counter::GcRuns | Counter::GcMarked | Counter::GcSwept => "gc",
            _ => "alloc",
        }
    }
}

/// Operation kinds with latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKind {
    /// `insert` (and push/enqueue).
    Insert = 0,
    /// `remove` (and pop/dequeue).
    Remove = 1,
    /// `get`/`contains` (read-only).
    Get = 2,
}

/// Number of [`OpKind`] variants.
pub const NUM_OPS: usize = 3;

/// Log2 buckets per latency histogram: bucket `i` counts samples with
/// `nanos` in `[2^i, 2^(i+1))` (bucket 0 additionally catches 0 ns).
pub const HIST_BUCKETS: usize = 64;

impl OpKind {
    /// Every op kind, in discriminant order.
    pub const ALL: [OpKind; NUM_OPS] = [OpKind::Insert, OpKind::Remove, OpKind::Get];

    /// Stable lowercase name (JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Get => "get",
        }
    }
}

/// Whether telemetry recording is on. Decided once, at the first check,
/// from the `NVT_OBS` environment variable: `off` or `0` disables every
/// hook (they reduce to this one branch); anything else — including the
/// variable being unset — leaves recording on.
#[inline]
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("NVT_OBS").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    })
}

/// One recording shard: per-phase flush/fence counters plus the event
/// counters, all relaxed atomics. Cache-padded by the containing set so two
/// shards never share a line.
#[derive(Debug, Default)]
struct Shard {
    flushes: [AtomicU64; NUM_PHASES],
    fences: [AtomicU64; NUM_PHASES],
    counters: [AtomicU64; NUM_COUNTERS],
}

/// One log2-bucketed latency histogram (cold path: bench harnesses and the
/// `DurableSet` timed wrappers record here, not structure hot loops, so the
/// buckets are shared rather than sharded).
#[derive(Debug)]
struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The index of the histogram bucket for a sample of `nanos`.
fn bucket_of(nanos: u64) -> usize {
    (63 - nanos.max(1).leading_zeros()) as usize
}

/// A sharded metric set — the unit of attribution (one per pool, plus
/// standalone sets for tests). Recording picks a shard from a thread-local
/// round-robin assignment and does one relaxed `fetch_add`; reading
/// ([`MetricSet::snapshot`]) sums all shards.
#[derive(Debug)]
pub struct MetricSet {
    shards: Box<[CachePadded<Shard>]>,
    hist: [Hist; NUM_OPS],
}

/// The shard a thread records into: assigned round-robin at first use so
/// concurrent recorders spread out, then reduced modulo each set's own
/// shard count.
fn my_shard(num_shards: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    IDX.try_with(|i| *i).unwrap_or(0) % num_shards
}

impl MetricSet {
    /// A fresh all-zero set with `shards` recording shards (clamped to at
    /// least 1). Pools size this to the machine's parallelism.
    pub fn new(shards: usize) -> MetricSet {
        MetricSet {
            shards: (0..shards.max(1))
                .map(|_| CachePadded::new(Shard::default()))
                .collect(),
            hist: std::array::from_fn(|_| Hist::default()),
        }
    }

    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[my_shard(self.shards.len())]
    }

    /// Records one flush under `phase`. (Backends go through [`on_flush`],
    /// which resolves the thread's target and phase; this is the direct
    /// entry point for code that already holds the set.)
    #[inline]
    pub fn record_flush(&self, phase: Phase) {
        if enabled() {
            self.shard().flushes[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one fence under `phase`.
    #[inline]
    pub fn record_fence(&self, phase: Phase) {
        if enabled() {
            self.shard().fences[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` to event counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if enabled() && n != 0 {
            self.shard().counters[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one `op` sample of `nanos` into its latency histogram.
    #[inline]
    pub fn record_latency(&self, op: OpKind, nanos: u64) {
        if enabled() {
            self.hist[op as usize].buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the current totals out (sums all shards, relaxed loads — a
    /// concurrent-recording snapshot is a transient but never torn view).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for shard in self.shards.iter() {
            for p in 0..NUM_PHASES {
                s.flushes[p] = s.flushes[p].wrapping_add(shard.flushes[p].load(Ordering::Relaxed));
                s.fences[p] = s.fences[p].wrapping_add(shard.fences[p].load(Ordering::Relaxed));
            }
            for c in 0..NUM_COUNTERS {
                s.counters[c] =
                    s.counters[c].wrapping_add(shard.counters[c].load(Ordering::Relaxed));
            }
        }
        for (op, hist) in self.hist.iter().enumerate() {
            for (b, bucket) in hist.buckets.iter().enumerate() {
                s.hist[op][b] = bucket.load(Ordering::Relaxed);
            }
        }
        s
    }
}

/// A point-in-time copy of a [`MetricSet`]'s totals. Take one before and
/// one after the measured region and diff with [`Snapshot::since`] — the
/// race-free replacement for resetting global counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Flush count per [`Phase`] (indexed by discriminant).
    pub flushes: [u64; NUM_PHASES],
    /// Fence count per [`Phase`].
    pub fences: [u64; NUM_PHASES],
    /// Event counters, indexed by [`Counter`] discriminant.
    pub counters: [u64; NUM_COUNTERS],
    /// Latency histograms: `hist[op][bucket]` samples, log2-ns buckets.
    pub hist: [[u64; HIST_BUCKETS]; NUM_OPS],
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            flushes: [0; NUM_PHASES],
            fences: [0; NUM_PHASES],
            counters: [0; NUM_COUNTERS],
            hist: [[0; HIST_BUCKETS]; NUM_OPS],
        }
    }
}

impl Snapshot {
    /// The change since `earlier` (wrapping — robust to u64 rollover).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut d = Snapshot::default();
        for p in 0..NUM_PHASES {
            d.flushes[p] = self.flushes[p].wrapping_sub(earlier.flushes[p]);
            d.fences[p] = self.fences[p].wrapping_sub(earlier.fences[p]);
        }
        for c in 0..NUM_COUNTERS {
            d.counters[c] = self.counters[c].wrapping_sub(earlier.counters[c]);
        }
        for op in 0..NUM_OPS {
            for b in 0..HIST_BUCKETS {
                d.hist[op][b] = self.hist[op][b].wrapping_sub(earlier.hist[op][b]);
            }
        }
        d
    }

    /// Accumulates `other` into `self` (aggregation across pools).
    pub fn merge(&mut self, other: &Snapshot) {
        for p in 0..NUM_PHASES {
            self.flushes[p] = self.flushes[p].wrapping_add(other.flushes[p]);
            self.fences[p] = self.fences[p].wrapping_add(other.fences[p]);
        }
        for c in 0..NUM_COUNTERS {
            self.counters[c] = self.counters[c].wrapping_add(other.counters[c]);
        }
        for op in 0..NUM_OPS {
            for b in 0..HIST_BUCKETS {
                self.hist[op][b] = self.hist[op][b].wrapping_add(other.hist[op][b]);
            }
        }
    }

    /// Flushes summed over every phase.
    pub fn total_flushes(&self) -> u64 {
        self.flushes.iter().fold(0, |a, &b| a.wrapping_add(b))
    }

    /// Fences summed over every phase.
    pub fn total_fences(&self) -> u64 {
        self.fences.iter().fold(0, |a, &b| a.wrapping_add(b))
    }

    /// The value of event counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Total latency samples recorded for `op`.
    pub fn samples(&self, op: OpKind) -> u64 {
        self.hist[op as usize].iter().sum()
    }

    /// An upper bound (bucket ceiling, in nanoseconds) on the `q`-quantile
    /// of `op`'s latency, or `None` when no samples were recorded. `q` is
    /// clamped to `0.0..=1.0`.
    pub fn quantile_ns(&self, op: OpKind, q: f64) -> Option<u64> {
        let total = self.samples(op);
        if total == 0 {
            return None;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &count) in self.hist[op as usize].iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(if b >= 63 { u64::MAX } else { 2u64 << b });
            }
        }
        Some(u64::MAX)
    }

    /// Serializes the snapshot as one JSON object with `persist` (per-phase
    /// flushes/fences), `alloc`, `gc` (event counters by domain), and
    /// `latency` (non-empty histograms as `[bucket_ceiling_ns, count]`
    /// pairs) sections.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"persist\":{");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"flushes\":{},\"fences\":{}}}",
                p.name(),
                self.flushes[*p as usize],
                self.fences[*p as usize]
            ));
        }
        out.push_str(&format!(
            ",\"total\":{{\"flushes\":{},\"fences\":{}}}",
            self.total_flushes(),
            self.total_fences()
        ));
        out.push_str("},");
        for domain in ["alloc", "gc"] {
            out.push_str(&format!("\"{domain}\":{{"));
            let mut first = true;
            for c in Counter::ALL {
                if c.domain() != domain {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{}", c.name(), self.counter(c)));
            }
            out.push_str("},");
        }
        out.push_str("\"latency\":{");
        for (i, op) in OpKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":[", op.name()));
            let mut first = true;
            for (b, &count) in self.hist[*op as usize].iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let ceiling = if b >= 63 { u64::MAX } else { 2u64 << b };
                out.push_str(&format!("[{ceiling},{count}]"));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

// ---- the per-pool registry -------------------------------------------------

/// `(pool key, set)` pairs. Sets are leaked `&'static` so recording hooks
/// need no lifetime plumbing; the leak is bounded by the number of distinct
/// pool files the process ever opens, and a reopened pool reuses its set.
static REGISTRY: Mutex<Vec<(PathBuf, &'static MetricSet)>> = Mutex::new(Vec::new());

/// Default shard count for registry sets: the machine's parallelism rounded
/// to a power of two, clamped to 64.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .clamp(1, 64)
}

/// The metric set of the pool identified by `key` (callers should pass a
/// stable, normalized pool path, as `nvtraverse-pool` does). Creates (and leaks) the set on first request; every later request
/// for the same key — including reopens of the pool — returns the same set.
pub fn for_pool(key: &Path) -> &'static MetricSet {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, set)) = reg.iter().find(|(p, _)| p == key) {
        return set;
    }
    let set: &'static MetricSet = Box::leak(Box::new(MetricSet::new(default_shards())));
    reg.push((key.to_path_buf(), set));
    set
}

/// Every registered `(pool key, set)` pair, in registration order.
pub fn registered_pools() -> Vec<(PathBuf, &'static MetricSet)> {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// One JSON document with the current totals of **every** registered pool
/// plus the recent lifecycle events from the [`ring`]:
/// `{"pools":{"<path>":{…}},"events":[…]}`.
pub fn stats_json() -> String {
    let mut out = String::from("{\"pools\":{");
    for (i, (path, set)) in registered_pools().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{}",
            json_escape(&path.display().to_string()),
            set.snapshot().to_json()
        ));
    }
    out.push_str("},\"events\":");
    out.push_str(&ring::events_json());
    out.push('}');
    out
}

/// Escapes a string for embedding in a JSON string literal (returns the
/// bare escaped text; callers supply the surrounding quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---- thread-local attribution ----------------------------------------------

thread_local! {
    /// The (target set, phase) recording context of this thread. A single
    /// `Cell` of a `Copy` pair: one TLS access resolves both.
    static CONTEXT: Cell<(Option<&'static MetricSet>, Phase)> =
        const { Cell::new((None, Phase::Unattributed)) };
}

/// Routes subsequent [`on_flush`]/[`on_fence`] calls **on this thread** to
/// `set` until the returned scope drops (restoring the previous target).
/// `None` stops attribution. Scopes nest.
#[must_use = "attribution lasts only while the scope is alive"]
pub fn attribute_to(set: Option<&'static MetricSet>) -> TargetScope {
    if !enabled() {
        return TargetScope { prev: None, active: false };
    }
    let prev = CONTEXT
        .try_with(|c| {
            let (t, p) = c.get();
            c.set((set, p));
            t
        })
        .ok();
    match prev {
        Some(prev) => TargetScope { prev, active: true },
        None => TargetScope { prev: None, active: false },
    }
}

/// Tags subsequent flushes/fences **on this thread** with `phase` until the
/// returned scope drops (restoring the previous phase). Scopes nest: an
/// allocator called from a critical section re-tags its own traffic.
#[must_use = "the phase tag lasts only while the scope is alive"]
pub fn phase(phase: Phase) -> PhaseScope {
    if !enabled() {
        return PhaseScope { prev: Phase::Unattributed, active: false };
    }
    let prev = CONTEXT
        .try_with(|c| {
            let (t, p) = c.get();
            c.set((t, phase));
            p
        })
        .ok();
    match prev {
        Some(prev) => PhaseScope { prev, active: true },
        None => PhaseScope { prev: Phase::Unattributed, active: false },
    }
}

/// The metric set this thread currently attributes to, if any.
pub fn current_target() -> Option<&'static MetricSet> {
    CONTEXT.try_with(|c| c.get().0).ok().flatten()
}

/// The phase this thread's persistence traffic is currently tagged with.
///
/// [`Phase::Unattributed`] outside any [`phase`] scope or when observability
/// is disabled (`NVT_OBS=off`). Used by the `nvtraverse-vet` sanitizer to
/// phase-attribute its findings.
pub fn current_phase() -> Phase {
    CONTEXT
        .try_with(|c| c.get().1)
        .unwrap_or(Phase::Unattributed)
}

/// Restores the previous attribution target on drop. Not `Send`: the scope
/// must drop on the thread that opened it.
#[derive(Debug)]
pub struct TargetScope {
    prev: Option<&'static MetricSet>,
    active: bool,
}

impl Drop for TargetScope {
    fn drop(&mut self) {
        if self.active {
            let _ = CONTEXT.try_with(|c| {
                let (_, p) = c.get();
                c.set((self.prev, p));
            });
        }
    }
}

/// Restores the previous phase tag on drop. Not `Send`.
#[derive(Debug)]
pub struct PhaseScope {
    prev: Phase,
    active: bool,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        if self.active {
            let _ = CONTEXT.try_with(|c| {
                let (t, _) = c.get();
                c.set((t, self.prev));
            });
        }
    }
}

/// The backend flush hook: records one flush into this thread's target set
/// under its current phase (no-op without a target, one branch when
/// [`enabled`] is off).
#[inline]
pub fn on_flush() {
    if !enabled() {
        return;
    }
    if let Ok((Some(set), phase)) = CONTEXT.try_with(|c| c.get()) {
        set.record_flush(phase);
    }
}

/// The backend fence hook — see [`on_flush`].
#[inline]
pub fn on_fence() {
    if !enabled() {
        return;
    }
    if let Ok((Some(set), phase)) = CONTEXT.try_with(|c| c.get()) {
        set.record_fence(phase);
    }
}

/// Times `f` and records the sample into this thread's target set as `op`
/// latency. Runs `f` untimed when recording is disabled or unattributed.
pub fn timed<R>(op: OpKind, f: impl FnOnce() -> R) -> R {
    match current_target() {
        Some(set) if enabled() => {
            let start = std::time::Instant::now();
            let r = f();
            set.record_latency(op, start.elapsed().as_nanos() as u64);
            r
        }
        _ => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_set(shards: usize) -> &'static MetricSet {
        Box::leak(Box::new(MetricSet::new(shards)))
    }

    #[test]
    fn snapshot_deltas_track_phased_recording() {
        let set = leaked_set(4);
        let before = set.snapshot();
        {
            let _t = attribute_to(Some(set));
            let _p = phase(Phase::Traversal);
            on_flush();
            on_fence();
            {
                let _p2 = phase(Phase::Critical);
                on_flush();
                on_flush();
                on_fence();
            }
            // Back to traversal after the nested scope dropped.
            on_flush();
        }
        // No target anymore: recorded nowhere.
        on_flush();
        let d = set.snapshot().since(&before);
        assert_eq!(d.flushes[Phase::Traversal as usize], 2);
        assert_eq!(d.fences[Phase::Traversal as usize], 1);
        assert_eq!(d.flushes[Phase::Critical as usize], 2);
        assert_eq!(d.fences[Phase::Critical as usize], 1);
        assert_eq!(d.total_flushes(), 4);
        assert_eq!(d.total_fences(), 2);
    }

    #[test]
    fn counters_and_histograms_round_trip_json() {
        let set = MetricSet::new(2);
        set.add(Counter::MagHit, 10);
        set.add(Counter::GcSwept, 3);
        set.record_latency(OpKind::Insert, 100);
        set.record_latency(OpKind::Insert, 100_000);
        let s = set.snapshot();
        assert_eq!(s.counter(Counter::MagHit), 10);
        assert_eq!(s.counter(Counter::GcSwept), 3);
        assert_eq!(s.samples(OpKind::Insert), 2);
        assert!(s.quantile_ns(OpKind::Insert, 0.5).unwrap() >= 100);
        assert!(s.quantile_ns(OpKind::Insert, 0.99).unwrap() >= 100_000);
        assert_eq!(s.quantile_ns(OpKind::Get, 0.5), None);
        let json = s.to_json();
        assert!(json.contains("\"mag_hit\":10"), "{json}");
        assert!(json.contains("\"gc_swept\":3"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn registry_reuses_sets_per_key() {
        let a = for_pool(Path::new("/tmp/obs-test-a.pool"));
        let a2 = for_pool(Path::new("/tmp/obs-test-a.pool"));
        let b = for_pool(Path::new("/tmp/obs-test-b.pool"));
        assert!(std::ptr::eq(a, a2));
        assert!(!std::ptr::eq(a, b));
        assert!(registered_pools().iter().any(|(p, _)| p.ends_with("obs-test-a.pool")));
        // The whole-process dump stays valid JSON with multiple pools.
        let json = stats_json();
        assert!(json.starts_with("{\"pools\":{"), "{json}");
    }

    #[test]
    fn merge_accumulates_shard_snapshots() {
        let a = MetricSet::new(1);
        let b = MetricSet::new(1);
        a.add(Counter::MagHit, 2);
        b.add(Counter::MagHit, 3);
        let mut sum = a.snapshot();
        sum.merge(&b.snapshot());
        assert_eq!(sum.counter(Counter::MagHit), 5);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }
}
