//! The six workloads: set-up, count-based trials, clean or crashed
//! reopen, and the metrics each run reports.
//!
//! Method, identical on both sides of any comparison:
//!
//! * A *trial* executes a frozen number of operations per thread (see
//!   `spec`) and is timed from the first worker's start to the last
//!   worker's end. One warm-up trial is discarded; measured trials repeat
//!   on the same system until `--seconds` of wall time have passed (at
//!   least [`MIN_TRIALS`]). A metric's value is the median over trials.
//! * Load is closed-loop: each thread (or connection) issues its next
//!   operation when the previous reply arrived.
//! * The system is set up [`SETUPS`](crate::spec::SETUPS) times;
//!   `setup_s` is the median. Every set-up but the last is closed cleanly
//!   and reopened a few times: `reopen_ms` and `bytes_per_key` of the
//!   steady-state workloads come from those reopens of a freshly
//!   prefilled store, whose state does not depend on how many trials fit
//!   the window. `recover-reopen` instead reopens a crashed image every
//!   trial.
//! * Flushes and fences are the sum of `Snapshot::since` deltas over
//!   every metric set that can receive traffic — the harness-private set
//!   its threads attribute to, every `obs::registered_pools()` set, and
//!   `Server::metrics()` — so moving a count between sets leaves the
//!   metric unchanged, and dropping or double-counting it does not.

use crate::drive::{
    drive, drive_batches, timed_threads, ChunkClock, Sampled, SetTarget, Spans, Target, WireTarget,
};
use crate::gen::{mix64, prefill_keys, stream_seed, KeyDist, OpGen, Rng, Shadow, Zipf, VALUE_MULT};
use crate::host::{steal_ticks, OneCpu, Scratch};
use crate::spec::{self, Kind, Workload, SERVER_WORKERS, SHARDS, THREADS};
use crate::stats::{self, ns_since, Summary};
use nvtraverse::policy::NvTraverse;
use nvtraverse::{DurableSet, PooledHandle, TypedRoots};
use nvtraverse_obs::{self as obs, Counter, Phase, Snapshot};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_pool::{Pool, RecoveryReport};
use nvtraverse_server::{Client, KvStore, PolicyKind, Server, ServerConfig};
use nvtraverse_structures::skiplist::SkipList;
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pooled skiplist of `lib-skiplist-b`.
pub type Sl = SkipList<u64, u64, NvTraverse<MmapBackend>>;

/// The prefilled population is part of a workload's definition, like its
/// key space: the same every run. `--seed` drives the operation streams.
/// (Chain shapes differ between populations, and with them a get's flush
/// count by a percent or two — more than that metric's bound.)
const PREFILL_SEED: u64 = 0x5EED;
/// Fewest measured trials of a run, however short `--seconds` is.
pub const MIN_TRIALS: usize = 3;
/// Clean reopens timed per set-up store.
const REOPENS: usize = 6;
/// Share of `--seconds` a traced run gives the workload's own trials; the
/// calibrations and the anatomy ladder (frozen counts) take the rest.
const TRACE_WINDOW_SHARE: f64 = 0.4;

/// How one run was asked to behave.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// `--seed`: every input derives from it.
    pub seed: u64,
    /// `--seconds`: wall time of the measured trials.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Divides every frozen operation count (`--smoke`: 100).
    pub shrink: u64,
    /// The self-test's deliberately wrong expectation.
    pub wrong_oracle: bool,
}

impl RunCfg {
    fn ops_per_thread(&self, w: &Workload) -> u64 {
        let batch = match w.kind {
            Kind::Wire { batch, .. } => batch as u64,
            _ => 1,
        };
        // Whole frames only.
        ((w.ops_per_thread / self.shrink).max(batch) / batch) * batch
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct MetricOut {
    /// Name from `spec`.
    pub name: &'static str,
    /// Unit from `spec`.
    pub unit: &'static str,
    /// The value: a median over trials where there are trials.
    pub value: f64,
    /// Spread over the trials (or set-ups, or reopens) behind the value.
    pub spread: Option<Summary>,
}

/// What a run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (and post-reopen key checks) attempted.
    pub attempted: u64,
    /// Of those, how many were wrong, refused or errored.
    pub failed: u64,
    /// The metrics of the requested kind, in `spec` order.
    pub metrics: Vec<MetricOut>,
    /// Extra `"key":json` members for the detail line.
    pub detail: Vec<(String, String)>,
}

// ---- obs: the counting rule -------------------------------------------------

/// What the harness threads share: every metric set a workload's
/// persistence traffic can land on, and where the threads run.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// The set the harness threads attribute to.
    pub set: &'static obs::MetricSet,
    /// `Server::metrics()` of a wire workload.
    pub server: Option<&'static obs::MetricSet>,
    /// CPUs worker `t` is pinned round-robin over (empty: unpinned).
    pub cpus: &'static [usize],
}

/// Totals over all sets, and over the pool-owned sets alone.
#[derive(Debug, Clone, Default)]
pub struct ObsRead {
    /// Harness + server + every registered pool.
    pub all: Snapshot,
    /// Every registered pool only (what `metrics_snapshot()` can see).
    pub pools: Snapshot,
}

impl Harness {
    /// A fresh harness-private set, no server, one worker per allowed
    /// CPU: a worker that migrates loses its cache and, on this kind of
    /// box, several percent of a trial.
    pub fn new() -> Harness {
        Harness {
            set: Box::leak(Box::new(obs::MetricSet::new(THREADS as usize))),
            server: None,
            cpus: crate::host::allowed_cpus().leak(),
        }
    }

    /// The same, with this thread — and so every thread the product
    /// creates from here on, its server's included — and all workers
    /// confined to one CPU. On a virtualised host a cross-core wake-up
    /// costs ~45 µs against ~2 µs on one core, and the scheduler flips a
    /// connection between the two placements at random (a 14× swing in
    /// round trips per second); confined, a wire workload measures the
    /// CPU cost of its path — syscalls, context switches, framing.
    pub fn on_one_cpu() -> Harness {
        let mut h = Harness::new();
        if let Some(last) = h.cpus.last() {
            crate::host::pin_to_cpus(&[*last]);
            h.cpus = std::slice::from_ref(last);
        }
        h
    }

    /// Current totals.
    pub fn read(&self) -> ObsRead {
        let mut pools = Snapshot::default();
        for (_, set) in obs::registered_pools() {
            pools.merge(&set.snapshot());
        }
        let mut all = pools.clone();
        all.merge(&self.set.snapshot());
        if let Some(s) = self.server {
            all.merge(&s.snapshot());
        }
        ObsRead { all, pools }
    }
}

impl ObsRead {
    /// Change since `earlier`.
    pub fn since(&self, earlier: &ObsRead) -> ObsRead {
        ObsRead {
            all: self.all.since(&earlier.all),
            pools: self.pools.since(&earlier.pools),
        }
    }

    fn add(&mut self, other: &ObsRead) {
        self.all.merge(&other.all);
        self.pools.merge(&other.pools);
    }
}

// ---- trials ----------------------------------------------------------------

/// How a trial times its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: a latency sample every few operations.
    Sampled,
    /// Traced: a span around every public call.
    Spans,
}

/// What one thread brings back from one trial.
#[derive(Debug, Default)]
pub struct ThreadTrial {
    /// Failed operations.
    pub failed: u64,
    /// Latency samples (sampled operations, or every frame's round trip).
    pub lat: Vec<u32>,
    /// Traced: spans per operation kind.
    pub kinds: [Vec<u32>; 3],
    /// Traced wire: `Client::send` and `Client::recv` spans.
    pub split: (Vec<u32>, Vec<u32>),
    /// Nanoseconds per chunk of `chunk_ops` operations.
    pub chunks: Vec<u32>,
}

impl ThreadTrial {
    /// This thread's operations per second: chunk size over the median
    /// chunk time (see [`ChunkClock`]); operations over busy time when the
    /// trial was too short to complete a chunk (smoke runs).
    fn rate(&mut self, chunk_ops: u64, ops: u64, busy_s: f64) -> f64 {
        self.chunks.sort_unstable();
        match stats::quantile(&self.chunks, 0.5) {
            0 => ops as f64 / busy_s,
            median_ns => chunk_ops as f64 * 1e9 / median_ns as f64,
        }
    }
}

/// One measured trial, threads merged.
#[derive(Debug)]
pub struct Trial {
    mode: Mode,
    /// First worker's start to last worker's end.
    elapsed: f64,
    /// Sum of the threads' chunk-median rates.
    rate: f64,
    ops: u64,
    lat: Vec<u32>,
    kinds: [Vec<u32>; 3],
    split: (Vec<u32>, Vec<u32>),
    obs: ObsRead,
    /// `host::steal_ticks` that passed on the harness CPUs meanwhile.
    steal: u64,
}

/// The trials to take a time metric over: those the hypervisor left
/// alone, when there are enough of them to have a median; otherwise all —
/// a disturbed measurement still beats none, and the detail line says
/// which it was.
fn undisturbed(trials: &[Trial]) -> Vec<&Trial> {
    let clean: Vec<&Trial> = trials.iter().filter(|t| t.steal == 0).collect();
    if clean.len() >= MIN_TRIALS {
        clean
    } else {
        trials.iter().collect()
    }
}

impl Trial {
    fn wall_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed
    }
}

/// Runs the operation loop of one thread's share of a trial.
pub fn run_ops<T: Target>(
    target: &mut T,
    shadow: &mut Shadow,
    gen: &mut OpGen,
    ops: u64,
    mode: Mode,
    sample_every: u64,
    chunk_ops: u64,
) -> ThreadTrial {
    let clock = ChunkClock::new(chunk_ops, ops);
    match mode {
        Mode::Sampled => {
            let samples = Vec::with_capacity((ops / sample_every) as usize + 1);
            let mut rec = Sampled {
                mask: sample_every - 1,
                samples,
                clock,
            };
            let failed = drive(target, gen, shadow, ops, &mut rec);
            ThreadTrial {
                failed,
                lat: rec.samples,
                chunks: rec.clock.chunks,
                ..ThreadTrial::default()
            }
        }
        Mode::Spans => {
            let mut rec = Spans {
                by_kind: Default::default(),
                clock,
            };
            let failed = drive(target, gen, shadow, ops, &mut rec);
            ThreadTrial {
                failed,
                kinds: rec.by_kind,
                chunks: rec.clock.chunks,
                ..ThreadTrial::default()
            }
        }
    }
}

/// Warm-up trial, then measured trials until `window` seconds have
/// passed. Returns the measured trials and the failed-operation count
/// (warm-up included: a wrong reply is wrong whenever it happens).
fn measure<W: Send>(
    workers: &mut [W],
    sets: &Harness,
    cfg: &RunCfg,
    w: &Workload,
    ops_per_thread: u64,
    body: impl Fn(usize, &mut W, u64, Mode) -> ThreadTrial + Sync,
) -> (Vec<Trial>, u64, u64) {
    let ops_per_trial = ops_per_thread * THREADS;
    let window = if cfg.trace {
        cfg.seconds * TRACE_WINDOW_SHARE
    } else {
        cfg.seconds
    };
    let min_trials = if cfg.trace {
        MIN_TRIALS + 1
    } else {
        MIN_TRIALS
    };
    let (mut trials, mut failed, mut attempted) = (Vec::new(), 0, 0);
    let mut started = Instant::now();
    for idx in 0u64.. {
        if trials.len() >= min_trials && started.elapsed().as_secs_f64() >= window {
            break;
        }
        // Traced runs alternate, so both modes see the same system state
        // and their throughput ratio is the tracing overhead.
        let mode = if cfg.trace && idx % 2 == 0 && idx > 0 {
            Mode::Spans
        } else {
            Mode::Sampled
        };
        let (before, steal_before) = (sets.read(), steal_ticks(sets.cpus));
        let (elapsed, outs) =
            timed_threads(workers, sets.set, sets.cpus, |t, w| body(t, w, idx, mode));
        let steal = steal_ticks(sets.cpus) - steal_before;
        let obs = sets.read().since(&before);
        attempted += ops_per_trial;
        failed += outs.iter().map(|o| o.1.failed).sum::<u64>();
        if idx == 0 {
            started = Instant::now();
            continue;
        }
        let mut trial = Trial {
            mode,
            elapsed,
            rate: 0.0,
            ops: ops_per_trial,
            lat: Vec::new(),
            kinds: Default::default(),
            split: Default::default(),
            obs,
            steal,
        };
        for (busy_s, mut o) in outs {
            trial.rate += o.rate(w.chunk_ops, ops_per_thread, busy_s);
            trial.lat.extend(o.lat);
            for (all, one) in trial.kinds.iter_mut().zip(o.kinds) {
                all.extend(one);
            }
            trial.split.0.extend(o.split.0);
            trial.split.1.extend(o.split.1);
        }
        trial.lat.sort_unstable();
        trials.push(trial);
    }
    (trials, attempted, failed)
}

// ---- systems under test ------------------------------------------------------

/// What a clean (or crashed) reopen found.
#[derive(Debug, Clone)]
pub struct Reopen {
    /// Wall time of the open call, milliseconds.
    pub ms: f64,
    /// Keys present afterwards.
    pub live_keys: u64,
    /// One report per pool.
    pub reports: Vec<RecoveryReport>,
}

impl Reopen {
    fn bytes_per_key(&self) -> f64 {
        self.reports.iter().map(|r| r.heap_bytes).sum::<u64>() as f64 / self.live_keys.max(1) as f64
    }

    /// One recovery phase's share of the open, in ms: the mean over the
    /// pools. The open is confined to one CPU, where the per-shard threads
    /// take turns; each pool's phase clock therefore also runs while the
    /// other pools work, and the mean — not the sum, not the maximum — is
    /// what the phase added to the wall clock.
    fn phase_ms(&self, f: impl Fn(&RecoveryReport) -> u64) -> f64 {
        self.reports.iter().map(f).sum::<u64>() as f64 / self.reports.len().max(1) as f64 / 1e6
    }

    fn pool_ms(&self) -> f64 {
        self.phase_ms(|r| {
            r.phases.heap_walk_nanos
                + r.phases.mark_nanos
                + r.phases.sweep_nanos
                + r.phases.rebuild_nanos
        })
    }
}

/// One thread's handle on the system plus its shadow model.
struct Worker<H> {
    handle: H,
    shadow: Shadow,
}

/// A system a steady-state workload runs against.
trait Sut: Sized {
    /// Per-thread handle (a shared reference-counted store, or a
    /// connection).
    type Handle: Send;

    /// Creates the system under `dir`, empty, and hands out one handle per
    /// thread. Prefill happens through the handles' [`Sut::direct`] view.
    fn create(
        w: &Workload,
        dir: &Path,
        sets: &mut Harness,
    ) -> io::Result<(Self, Vec<Self::Handle>)>;

    /// Called after prefill: whatever remains to make the system ready
    /// (start the server, connect).
    fn start(
        &mut self,
        _w: &Workload,
        _dir: &Path,
        _handles: &mut Vec<Self::Handle>,
        _sets: &mut Harness,
    ) -> io::Result<()> {
        Ok(())
    }

    /// Inserts one prefill key.
    fn prefill_one(handle: &mut Self::Handle, key: u64) -> bool;

    /// One thread's share of one trial.
    fn trial(
        w: &Workload,
        handle: &mut Self::Handle,
        shadow: &mut Shadow,
        gen: &mut OpGen,
        ops: u64,
        mode: Mode,
    ) -> ThreadTrial;

    /// Clean shutdown: everything flushed, files closed.
    fn close(self, handles: Vec<Self::Handle>) -> io::Result<()>;

    /// Reopens what `close` left under `dir`, timed, and closes it again.
    fn reopen(w: &Workload, dir: &Path) -> io::Result<Reopen>;

    /// Traced: this system's batch counters (batches, batched ops,
    /// deferred fences, closing fences, ops executed).
    fn batch_counters(&self) -> [u64; 5] {
        [0; 5]
    }
}

/// Opens are timed on one CPU. `ShardedSet::open` starts a thread per
/// shard, and on a two-core box whether the scheduler lets two of them
/// overlap is a coin toss that doubles or halves the wall time; confined,
/// `reopen_ms` is the recovery work itself — heap walk, GC, structure
/// recovery — which is what a change to any of them moves.
fn reopen_kv(dir: &Path) -> io::Result<Reopen> {
    let _one_cpu = OneCpu::confine();
    let t0 = Instant::now();
    let store = KvStore::open(dir)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let reopen = Reopen {
        ms,
        live_keys: store.len() as u64,
        reports: store.recovery_reports(),
    };
    store.close()?;
    Ok(reopen)
}

/// The system behind per-thread `Arc` handles, once the workers have
/// returned them all.
fn sole_owner<T>(mut handles: Vec<Arc<T>>) -> T {
    let last = handles.pop().expect("one handle per thread");
    drop(handles);
    Arc::into_inner(last).expect("workers returned their handles")
}

struct KvSut;

impl Sut for KvSut {
    type Handle = Arc<KvStore>;

    fn create(
        w: &Workload,
        dir: &Path,
        _sets: &mut Harness,
    ) -> io::Result<(Self, Vec<Self::Handle>)> {
        let store = Arc::new(KvStore::create(
            dir,
            PolicyKind::NvTraverse,
            SHARDS,
            w.pool_bytes,
        )?);
        Ok((KvSut, (0..THREADS).map(|_| Arc::clone(&store)).collect()))
    }

    fn prefill_one(handle: &mut Self::Handle, key: u64) -> bool {
        handle.try_insert(key, key.wrapping_mul(VALUE_MULT)) == Ok(true)
    }

    fn trial(
        w: &Workload,
        handle: &mut Self::Handle,
        shadow: &mut Shadow,
        gen: &mut OpGen,
        ops: u64,
        mode: Mode,
    ) -> ThreadTrial {
        run_ops(
            &mut &**handle,
            shadow,
            gen,
            ops,
            mode,
            spec::SAMPLE_EVERY,
            w.chunk_ops,
        )
    }

    fn close(self, handles: Vec<Self::Handle>) -> io::Result<()> {
        sole_owner(handles).close()
    }

    fn reopen(_w: &Workload, dir: &Path) -> io::Result<Reopen> {
        reopen_kv(dir)
    }
}

const SKIP_ROOT: &str = "skiplist";

fn skip_pool_file(dir: &Path) -> PathBuf {
    dir.join("skiplist.pool")
}

struct SkipSut;

impl Sut for SkipSut {
    type Handle = Arc<PooledHandle<Sl>>;

    fn create(
        w: &Workload,
        dir: &Path,
        _sets: &mut Harness,
    ) -> io::Result<(Self, Vec<Self::Handle>)> {
        std::fs::create_dir_all(dir)?;
        let pool = Pool::builder()
            .path(skip_pool_file(dir))
            .capacity(w.pool_bytes)
            .create()?;
        let list = Arc::new(pool.create_root::<Sl>(SKIP_ROOT)?);
        Ok((SkipSut, (0..THREADS).map(|_| Arc::clone(&list)).collect()))
    }

    fn prefill_one(handle: &mut Self::Handle, key: u64) -> bool {
        handle.try_insert(key, key.wrapping_mul(VALUE_MULT)) == Ok(true)
    }

    fn trial(
        w: &Workload,
        handle: &mut Self::Handle,
        shadow: &mut Shadow,
        gen: &mut OpGen,
        ops: u64,
        mode: Mode,
    ) -> ThreadTrial {
        run_ops(
            &mut SetTarget(&***handle),
            shadow,
            gen,
            ops,
            mode,
            spec::SAMPLE_EVERY,
            w.chunk_ops,
        )
    }

    fn close(self, handles: Vec<Self::Handle>) -> io::Result<()> {
        sole_owner(handles).close()
    }

    fn reopen(_w: &Workload, dir: &Path) -> io::Result<Reopen> {
        let _one_cpu = OneCpu::confine();
        let t0 = Instant::now();
        let pool = Pool::builder().path(skip_pool_file(dir)).open()?;
        let list = pool.root::<Sl>(SKIP_ROOT)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let reopen = Reopen {
            ms,
            live_keys: list.len() as u64,
            reports: vec![pool.recovery_report()],
        };
        list.close()?;
        Ok(reopen)
    }
}

/// A wire handle: direct store access until the server starts (prefill),
/// a connection afterwards.
enum WireHandle {
    Direct(Arc<KvStore>),
    Conn(WireTarget),
}

struct WireSut {
    store: Option<Arc<KvStore>>,
    server: Option<Server>,
}

fn socket_path(dir: &Path) -> PathBuf {
    // Beside the store directory, not inside it: `KvStore::create` owns
    // the directory's contents.
    dir.with_extension("sock")
}

impl Sut for WireSut {
    type Handle = WireHandle;

    fn create(
        w: &Workload,
        dir: &Path,
        _sets: &mut Harness,
    ) -> io::Result<(Self, Vec<Self::Handle>)> {
        let Kind::Wire { soft, .. } = w.kind else {
            unreachable!("wire workload")
        };
        let policy = if soft {
            PolicyKind::Soft
        } else {
            PolicyKind::NvTraverse
        };
        let store = Arc::new(KvStore::create(dir, policy, SHARDS, w.pool_bytes)?);
        let handles = (0..THREADS)
            .map(|_| WireHandle::Direct(Arc::clone(&store)))
            .collect();
        Ok((
            WireSut {
                store: Some(store),
                server: None,
            },
            handles,
        ))
    }

    fn start(
        &mut self,
        _w: &Workload,
        dir: &Path,
        handles: &mut Vec<Self::Handle>,
        sets: &mut Harness,
    ) -> io::Result<()> {
        handles.clear();
        let store = Arc::into_inner(self.store.take().expect("created"))
            .expect("prefill returned its handles");
        let sock = socket_path(dir);
        if sock.as_os_str().len() > 100 {
            return Err(io::Error::other(format!(
                "socket path {} exceeds sun_path; run from a shallower directory or pass --dir",
                sock.display()
            )));
        }
        let cfg = ServerConfig {
            workers: SERVER_WORKERS,
            drain_timeout: Duration::from_secs(5),
        };
        let server = Server::start_uds(&sock, store, cfg)?;
        sets.server = Some(server.metrics());
        for _ in 0..THREADS {
            handles.push(WireHandle::Conn(WireTarget {
                client: Client::connect_uds(&sock)?,
                split: None,
            }));
        }
        self.server = Some(server);
        Ok(())
    }

    fn prefill_one(handle: &mut Self::Handle, key: u64) -> bool {
        match handle {
            WireHandle::Direct(store) => {
                store.try_insert(key, key.wrapping_mul(VALUE_MULT)) == Ok(true)
            }
            WireHandle::Conn(_) => unreachable!("prefill runs before the server starts"),
        }
    }

    fn trial(
        w: &Workload,
        handle: &mut Self::Handle,
        shadow: &mut Shadow,
        gen: &mut OpGen,
        ops: u64,
        mode: Mode,
    ) -> ThreadTrial {
        let (WireHandle::Conn(target), Kind::Wire { batch, .. }) = (handle, w.kind) else {
            unreachable!("trials run over connections")
        };
        target.split = (mode == Mode::Spans).then(Default::default);
        let mut out = if batch == 1 {
            // Every frame is timed: one clock pair per ~20 µs round trip.
            let mut out = run_ops(target, shadow, gen, ops, mode, 1, w.chunk_ops);
            if mode == Mode::Spans {
                out.lat = out.kinds.concat();
            }
            out
        } else {
            let mut rtt = Vec::with_capacity((ops / batch as u64) as usize);
            // The clock counts frames: a chunk is `chunk_ops` operations.
            let mut clock = ChunkClock::new(w.chunk_ops / batch as u64, ops / batch as u64);
            let failed = drive_batches(
                target,
                gen,
                shadow,
                ops / batch as u64,
                batch,
                &mut rtt,
                &mut clock,
            );
            ThreadTrial {
                failed,
                lat: rtt,
                chunks: clock.chunks,
                ..ThreadTrial::default()
            }
        };
        out.split = target.split.take().unwrap_or_default();
        out
    }

    fn close(self, handles: Vec<Self::Handle>) -> io::Result<()> {
        drop(handles);
        match self.server {
            Some(server) => server.shutdown(),
            None => Ok(()),
        }
    }

    fn reopen(_w: &Workload, dir: &Path) -> io::Result<Reopen> {
        reopen_kv(dir)
    }

    fn batch_counters(&self) -> [u64; 5] {
        self.server.as_ref().map_or([0; 5], |s| {
            let (batches, batched_ops, deferred, closing) = s.batch_counters();
            [batches, batched_ops, deferred, closing, s.ops_executed()]
        })
    }
}

pub fn key_dist(w: &Workload) -> KeyDist {
    if w.zipfian {
        KeyDist::Zipfian(Zipf::new(1 << w.key_bits, spec::ZIPF_THETA))
    } else {
        KeyDist::Uniform
    }
}

/// A stable small number per workload, mixed into stream seeds so two
/// workloads never replay each other's streams.
fn workload_tag(w: &Workload) -> u64 {
    spec::WORKLOADS
        .iter()
        .position(|x| x.name == w.name)
        .map_or(0, |i| i as u64 + 1)
}

/// Runs a steady-state workload (`lib-*`, `wire-*`).
fn run_steady<S: Sut>(w: &Workload, cfg: &RunCfg, scratch: &Scratch) -> io::Result<Outcome> {
    let mut sets = if matches!(w.kind, Kind::Wire { .. }) {
        Harness::on_one_cpu()
    } else {
        Harness::new()
    };
    let dist = key_dist(w);
    let ops = cfg.ops_per_thread(w);
    // A traced run reports no `setup_s`: one store to reopen, one to run on.
    let setups = if cfg.trace { 2 } else { spec::SETUPS };
    let (mut setup_s, mut reopens, mut attempted, mut failed) =
        (Vec::new(), Vec::<Reopen>::new(), 0u64, 0u64);
    let mut measured = None;
    for round in 0..setups {
        let dir = scratch.fresh("store");
        let t0 = Instant::now();
        let (mut sut, mut handles) = S::create(w, &dir, &mut sets)?;
        // Prefill on this one thread, so the allocator sees the same
        // request sequence every time and `bytes_per_key` repeats exactly.
        let mut shadows: Vec<Shadow> = (0..THREADS)
            .map(|t| Shadow::new(w.key_bits, t, THREADS))
            .collect();
        {
            let _attr = obs::attribute_to(Some(sets.set));
            // The cold population first, largest key down: every insert
            // lands at the head of its bucket chain, so filling is linear.
            // Cold keys lie above the key space the operations draw from
            // and sort after it in every chain: a search for a hot key
            // stops before it reaches them. They give the store a
            // realistic size — set-up and reopen measure work, not file
            // creation — without lengthening a single traversal.
            let base = 1u64 << w.key_bits;
            for k in (base..base + w.cold_keys).rev() {
                failed += u64::from(!S::prefill_one(&mut handles[0], k));
            }
            attempted += w.cold_keys;
            for (t, shadow) in shadows.iter_mut().enumerate() {
                for k in prefill_keys(PREFILL_SEED, w.key_bits, t as u64, THREADS) {
                    failed += u64::from(!S::prefill_one(&mut handles[0], k));
                    shadow.set(k, true);
                }
            }
        }
        let prefilled = shadows.iter().map(Shadow::len).sum::<u64>();
        attempted += prefilled;
        sut.start(w, &dir, &mut handles, &mut sets)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if round + 1 < setups {
            // Every set-up but the last is closed cleanly and reopened.
            sut.close(handles)?;
            for _ in 0..REOPENS {
                let reopen = S::reopen(w, &dir)?;
                attempted += 1;
                failed += u64::from(reopen.live_keys != prefilled + w.cold_keys);
                reopens.push(reopen);
            }
            continue;
        }

        let mut workers: Vec<Worker<S::Handle>> = handles
            .into_iter()
            .zip(shadows)
            .map(|(handle, shadow)| Worker {
                handle,
                shadow: if cfg.wrong_oracle {
                    shadow.expecting_mult(VALUE_MULT + 2)
                } else {
                    shadow
                },
            })
            .collect();
        let counters_before = sut.batch_counters();
        let (trials, tried, wrong) =
            measure(&mut workers, &sets, cfg, w, ops, |t, wk, trial, mode| {
                let seed = stream_seed(cfg.seed, workload_tag(w), t as u64, trial);
                let mut gen = OpGen::new(seed, w.key_bits, dist.clone(), w.mix, t as u64, THREADS);
                S::trial(w, &mut wk.handle, &mut wk.shadow, &mut gen, ops, mode)
            });
        attempted += tried;
        failed += wrong;
        let counters: Vec<u64> = sut
            .batch_counters()
            .iter()
            .zip(counters_before)
            .map(|(a, b)| a - b)
            .collect();
        sut.close(workers.into_iter().map(|wk| wk.handle).collect())?;
        measured = Some((trials, counters));
    }
    let (trials, counters) = measured.expect("the last set-up is measured");
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    if cfg.trace {
        let mut layer = layer_from_trials(w, &trials);
        layer_from_reopens(&mut layer, &reopens);
        layer_from_batches(&mut layer, &counters);
        out.metrics = crate::trace::finish_layers(layer, w, cfg, scratch)?;
    } else {
        out.metrics = end_to_end(&trials, &setup_s, &reopens);
        out.detail.extend(detail_json(&trials, &reopens));
    }
    out.detail.push((
        "trials".into(),
        trials
            .iter()
            .filter(|t| t.mode == Mode::Sampled)
            .count()
            .to_string(),
    ));
    Ok(out)
}

// ---- recover-reopen ----------------------------------------------------------

/// Key number `i` of the crash image: increasing in `i`, its low byte
/// drawn from the seed, so inserting in descending `i` lands every key at
/// the head of its bucket chain (the fill stays linear in the population)
/// while the keys — hence their buckets and shards — differ per seed.
fn recover_key(seed: u64, i: u64) -> u64 {
    (i << 8) | (mix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 0xFF)
}

/// The crash child: fills a store with acknowledged inserts, then
/// acknowledged removes of the smallest keys, says so, and waits to be
/// SIGKILLed — no destructor, no clean close, retired nodes unreclaimed.
pub fn crash_fill(
    dir: &Path,
    seed: u64,
    inserts: u64,
    removes: u64,
    pool_bytes: u64,
) -> io::Result<()> {
    let store = KvStore::create(dir, PolicyKind::NvTraverse, SHARDS, pool_bytes)?;
    let sets = Harness::new();
    let mut workers = vec![&store; THREADS as usize];
    let (_, refused) = timed_threads(&mut workers, sets.set, sets.cpus, |t, store| {
        // Each thread fills its own shards: two threads interleaved in one
        // bucket chain would each walk past the other's keys.
        let store: &KvStore = store;
        let mine = |n: u64| {
            (0..n)
                .map(|i| recover_key(seed, i))
                .filter(move |&k| store.shard_index_of(k) % THREADS as usize == t)
        };
        let mut bad = 0;
        for k in mine(inserts).rev() {
            bad += u64::from(store.try_insert(k, k.wrapping_mul(VALUE_MULT)) != Ok(true));
        }
        for k in mine(removes) {
            bad += u64::from(store.try_remove(k) != Ok(true));
        }
        bad
    });
    let mut stdout = io::stdout().lock();
    writeln!(
        stdout,
        "filled {}",
        refused.iter().map(|r| r.1).sum::<u64>()
    )?;
    stdout.flush()?;
    drop(stdout);
    loop {
        std::thread::park();
    }
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Builds the crash image: spawns the fill child, waits for its
/// acknowledgement, SIGKILLs it, and snapshots the directory it left.
fn build_crash_image(w: &Workload, cfg: &RunCfg, work: &Path, image: &Path) -> io::Result<u64> {
    let _ = std::fs::remove_dir_all(work);
    let _ = std::fs::remove_dir_all(image);
    let mut child = std::process::Command::new(std::env::current_exe()?)
        .arg("crash-fill")
        .arg(work)
        .args(
            [
                cfg.seed,
                spec::RECOVER_INSERTS / cfg.shrink,
                spec::RECOVER_REMOVES / cfg.shrink,
                w.pool_bytes,
            ]
            .map(|n| n.to_string()),
        )
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .spawn()?;
    let mut line = String::new();
    let read = io::BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    // Dead either way before anything else happens: the kill *is* the crash.
    let _ = child.kill();
    child.wait()?;
    read?;
    let refused = line
        .strip_prefix("filled ")
        .and_then(|n| n.trim().parse::<u64>().ok());
    let refused =
        refused.ok_or_else(|| io::Error::other(format!("crash-fill child said {line:?}")))?;
    copy_dir(work, image)?;
    Ok(refused)
}

/// Checks the reopened store against every acknowledged operation: its
/// contents must be exactly the keys numbered `live`, each with its
/// value — nothing missing, nothing extra, nothing twice. Returns the key
/// count found and the number of keys that are wrong. (Shard by shard,
/// against the key rule rather than a materialised expectation: a second
/// copy of the key set would be most of this process's anonymous memory.)
fn verify_recovered(
    store: &KvStore,
    seed: u64,
    live: std::ops::Range<u64>,
    value_mult: u64,
) -> (u64, u64) {
    let KvStore::Nvt(set) = store else {
        unreachable!("the crash image is an NVTraverse store")
    };
    let (mut found, mut good) = (0u64, 0u64);
    for shard in set.shards() {
        let mut pairs = shard.iter_snapshot();
        pairs.sort_unstable();
        found += pairs.len() as u64;
        let distinct = |i: usize| i == 0 || pairs[i - 1].0 != pairs[i].0;
        good += (0..pairs.len())
            .filter(|&i| {
                let (k, v) = pairs[i];
                distinct(i)
                    && live.contains(&(k >> 8))
                    && recover_key(seed, k >> 8) == k
                    && v == k.wrapping_mul(value_mult)
            })
            .count() as u64;
    }
    let expected = live.end - live.start;
    (found, (found - good) + expected.saturating_sub(good))
}

fn run_recover(w: &Workload, cfg: &RunCfg, scratch: &Scratch) -> io::Result<Outcome> {
    let sets = Harness::new();
    let (inserts, removes) = (
        spec::RECOVER_INSERTS / cfg.shrink,
        spec::RECOVER_REMOVES / cfg.shrink,
    );
    let probes_per_thread = cfg.ops_per_thread(w).max(1);
    let (work, image) = (scratch.path().join("store"), scratch.path().join("image"));
    let (mut setup_s, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    for _ in 0..if cfg.trace { 1 } else { spec::SETUPS } {
        let t0 = Instant::now();
        failed += build_crash_image(w, cfg, &work, &image)?;
        attempted += inserts + removes;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let value_mult = if cfg.wrong_oracle {
        VALUE_MULT + 2
    } else {
        VALUE_MULT
    };

    let window = if cfg.trace {
        cfg.seconds * TRACE_WINDOW_SHARE
    } else {
        cfg.seconds
    };
    let (mut trials, mut reopens) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for idx in 0u64.. {
        if trials.len() >= MIN_TRIALS && started.elapsed().as_secs_f64() >= window {
            break;
        }
        // Restore the crashed image (untimed), then time the open.
        let _ = std::fs::remove_dir_all(&work);
        copy_dir(&image, &work)?;
        let one_cpu = OneCpu::confine();
        let t0 = Instant::now();
        let store = KvStore::open(&work)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(one_cpu);

        // What every acknowledged operation left: keys `removes..inserts`.
        let (found, wrong) = verify_recovered(&store, cfg.seed, removes..inserts, value_mult);
        attempted += inserts;
        failed += wrong;
        reopens.push(Reopen {
            ms,
            live_keys: found,
            reports: store.recovery_reports(),
        });

        // Then the first reads after recovery: gets of surviving keys,
        // every one timed. (Removed keys are the smallest, so a get of one
        // stops at a chain's head: mixing them in would put the median on
        // the border between two modes.)
        let mut workers = vec![&store; THREADS as usize];
        let (before, steal_before) = (sets.read(), steal_ticks(sets.cpus));
        let (elapsed, outs) = timed_threads(&mut workers, sets.set, sets.cpus, |t, store| {
            let mut rng = Rng::new(stream_seed(cfg.seed, workload_tag(w), t as u64, idx));
            let mut out = ThreadTrial {
                lat: Vec::with_capacity(probes_per_thread as usize),
                ..ThreadTrial::default()
            };
            let mut clock = ChunkClock::new(w.chunk_ops, probes_per_thread);
            for i in 0..probes_per_thread {
                let k = recover_key(cfg.seed, removes + rng.below(inserts - removes));
                let t0 = Instant::now();
                let got = KvStore::get(store, k);
                out.lat.push(ns_since(t0));
                out.failed += u64::from(got != Some(k.wrapping_mul(VALUE_MULT)));
                clock.done(i);
            }
            out.chunks = clock.chunks;
            out
        });
        let steal = steal_ticks(sets.cpus) - steal_before;
        let obs = sets.read().since(&before);
        drop(store);
        attempted += probes_per_thread * THREADS;
        failed += outs.iter().map(|o| o.1.failed).sum::<u64>();
        let (mut rate, mut lat) = (0.0, Vec::new());
        for (busy_s, mut o) in outs {
            rate += o.rate(w.chunk_ops, probes_per_thread, busy_s);
            lat.extend(o.lat);
        }
        lat.sort_unstable();
        let kinds = [lat.clone(), Vec::new(), Vec::new()];
        // Probes are timed one by one in both modes, so alternate labels
        // only to give the traced run its overhead pair.
        let mode = if cfg.trace && idx % 2 == 1 {
            Mode::Spans
        } else {
            Mode::Sampled
        };
        trials.push(Trial {
            mode,
            elapsed,
            rate,
            ops: probes_per_thread * THREADS,
            lat,
            kinds,
            split: Default::default(),
            obs,
            steal,
        });
    }

    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    if cfg.trace {
        let mut layer = layer_from_trials(w, &trials);
        layer_from_reopens(&mut layer, &reopens);
        out.metrics = crate::trace::finish_layers(layer, w, cfg, scratch)?;
    } else {
        out.metrics = end_to_end(&trials, &setup_s, &reopens);
        out.detail.extend(detail_json(&trials, &reopens));
    }
    out.detail.push(("trials".into(), trials.len().to_string()));
    Ok(out)
}

// ---- metrics ---------------------------------------------------------------

fn over<T>(items: &[T], f: impl Fn(&T) -> f64) -> Summary {
    stats::summarize(&items.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics from a run's untraced trials.
fn end_to_end(trials: &[Trial], setup_s: &[f64], reopens: &[Reopen]) -> Vec<MetricOut> {
    let per_op = |t: &Trial, n: u64| n as f64 / t.ops as f64;
    let quiet_trials = undisturbed(trials);
    spec::END_TO_END
        .iter()
        .map(|m| {
            let spread = match m.name {
                "setup_s" => stats::summarize(setup_s),
                "ops_per_s" => over(&quiet_trials, |t| t.rate),
                "lat_p50_us" => over(&quiet_trials, |t| {
                    stats::quantile(&t.lat, 0.50) as f64 / 1e3
                }),
                "flushes_per_op" => over(trials, |t| per_op(t, t.obs.all.total_flushes())),
                "fences_per_op" => over(trials, |t| per_op(t, t.obs.all.total_fences())),
                "reopen_ms" => over(reopens, |r| r.ms),
                "bytes_per_key" => over(reopens, Reopen::bytes_per_key),
                "peak_rss_mb" => {
                    return MetricOut {
                        name: m.name,
                        unit: m.unit,
                        value: crate::host::peak_rss_mib(),
                        spread: None,
                    }
                }
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            MetricOut {
                name: m.name,
                unit: m.unit,
                value: if m.fastest { spread.min } else { spread.median },
                spread: Some(spread),
            }
        })
        .collect()
}

/// What the detail line says beside the metrics: the latency tail, the
/// plain wall-clock throughput, and how much the hypervisor interfered.
fn detail_json(trials: &[Trial], reopens: &[Reopen]) -> Vec<(String, String)> {
    let steal = format!(
        "{{\"trial_ticks\":{},\"trials\":{},\"trials_used\":{},\"reopens\":{}}}",
        trials.iter().map(|t| t.steal).sum::<u64>(),
        trials.len(),
        undisturbed(trials).len(),
        reopens.len(),
    );
    vec![
        ("tail".into(), tail_json(trials)),
        (
            "wall_ops_per_s".into(),
            crate::json::num(over(trials, Trial::wall_ops_per_s).median),
        ),
        ("steal".into(), steal),
    ]
}

/// The tail the latency samples can support, per the ten-beyond rule.
fn tail_json(trials: &[Trial]) -> String {
    let mut all: Vec<u32> = trials.iter().flat_map(|t| t.lat.iter().copied()).collect();
    all.sort_unstable();
    let t = stats::tail(&all);
    format!(
        "{{\"percentile\":{},\"us\":{},\"samples\":{}}}",
        t.percentile,
        t.value as f64 / 1e3,
        t.samples
    )
}

/// Per-layer values, keyed by name; every name of `spec::PER_LAYER` is
/// present from the start, reading 0 until something measures it.
pub type Layers = BTreeMap<&'static str, f64>;

fn pooled(trials: &[Trial], pick: impl Fn(&Trial) -> &Vec<u32>) -> Vec<u32> {
    let mut all: Vec<u32> = trials
        .iter()
        .filter(|t| t.mode == Mode::Spans)
        .flat_map(|t| pick(t).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// Spans and counts of the workload's own traced trials.
fn layer_from_trials(w: &Workload, trials: &[Trial]) -> Layers {
    let mut l: Layers = spec::PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, 0.0))
        .collect();
    let span_prefix = match w.kind {
        Kind::LibHash | Kind::Recover => Some("server.store"),
        Kind::LibSkiplist => Some("structures.skiplist"),
        Kind::Wire { .. } => None,
    };
    if let Some(prefix) = span_prefix {
        for (kind, op) in ["get", "insert", "remove"].iter().enumerate() {
            let spans = pooled(trials, |t| &t.kinds[kind]);
            for (suffix, q) in [("_ns", 0.5), ("_ns_p99", 0.99)] {
                *l.get_mut(format!("{prefix}.{op}{suffix}").as_str())
                    .expect("span metric is listed") = stats::quantile(&spans, q) as f64;
            }
        }
    } else {
        l.insert(
            "server.client.send_ns",
            stats::quantile(&pooled(trials, |t| &t.split.0), 0.5) as f64,
        );
        l.insert(
            "server.client.recv_wait_ns",
            stats::quantile(&pooled(trials, |t| &t.split.1), 0.5) as f64,
        );
        l.insert(
            "server.rtt_p999_us",
            stats::quantile(&pooled(trials, |t| &t.lat), 0.999) as f64 / 1e3,
        );
    }

    // Counts are the same traced or not, so every trial contributes.
    let mut obs = ObsRead::default();
    trials.iter().for_each(|t| obs.add(&t.obs));
    let ops = trials.iter().map(|t| t.ops).sum::<u64>().max(1) as f64;
    let a = &obs.all;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    l.insert(
        "core.policy.flushes_traversal_per_op",
        a.flushes[Phase::Traversal as usize] as f64 / ops,
    );
    l.insert(
        "core.policy.flushes_critical_per_op",
        a.flushes[Phase::Critical as usize] as f64 / ops,
    );
    l.insert(
        "core.policy.fences_critical_per_op",
        a.fences[Phase::Critical as usize] as f64 / ops,
    );
    l.insert(
        "core.alloc.flushes_alloc_per_op",
        a.flushes[Phase::Alloc as usize] as f64 / ops,
    );
    l.insert(
        "core.alloc.pool_attributed_ratio",
        ratio(obs.pools.total_flushes(), a.total_flushes()),
    );
    let allocs = a.counter(Counter::MagHit) + a.counter(Counter::MagMiss);
    l.insert(
        "pool.engine.mag_hit_ratio",
        ratio(a.counter(Counter::MagHit), allocs),
    );
    l.insert("pool.engine.allocs_per_op", allocs as f64 / ops);
    l.insert(
        "pool.engine.cas_retry_per_op",
        a.counter(Counter::CasRetry) as f64 / ops,
    );
    l.insert(
        "pool.engine.remote_free_ratio",
        ratio(
            a.counter(Counter::RemoteFree),
            a.counter(Counter::ShardPush),
        ),
    );
    l.insert(
        "pool.engine.slab_carves",
        a.counter(Counter::SlabCarve) as f64,
    );

    let by_mode = |m: Mode| {
        let v: Vec<f64> = trials
            .iter()
            .filter(|t| t.mode == m)
            .map(|t| t.rate)
            .collect();
        stats::median(&v)
    };
    let (traced, untraced) = (by_mode(Mode::Spans), by_mode(Mode::Sampled));
    let sampled: Vec<&Trial> = trials.iter().filter(|t| t.mode == Mode::Sampled).collect();
    l.insert(
        "lat_p99_us",
        over(&sampled, |t| stats::quantile(&t.lat, 0.99) as f64 / 1e3).median,
    );
    l.insert("harness.traced_ops_per_s", traced);
    l.insert("harness.untraced_ops_per_s", untraced);
    l.insert(
        "harness.trace_overhead_pct",
        if untraced > 0.0 {
            (1.0 - traced / untraced) * 100.0
        } else {
            0.0
        },
    );
    l
}

/// Recovery phases of the run's reopens (median over reopens).
fn layer_from_reopens(l: &mut Layers, reopens: &[Reopen]) {
    let med = |f: &dyn Fn(&Reopen) -> f64| over(reopens, f).median;
    l.insert(
        "pool.gc.heap_walk_ms",
        med(&|r| r.phase_ms(|p| p.phases.heap_walk_nanos)),
    );
    l.insert(
        "pool.gc.mark_ms",
        med(&|r| r.phase_ms(|p| p.phases.mark_nanos)),
    );
    l.insert(
        "pool.gc.sweep_ms",
        med(&|r| r.phase_ms(|p| p.phases.sweep_nanos)),
    );
    l.insert(
        "pool.gc.rebuild_ms",
        med(&|r| r.phase_ms(|p| p.phases.rebuild_nanos)),
    );
    l.insert(
        "pool.gc.reclaimed_blocks",
        med(&|r| r.reports.iter().map(|p| p.reclaimed_blocks).sum::<usize>() as f64),
    );
    l.insert(
        "pool.gc.live_blocks",
        med(&|r| r.reports.iter().map(|p| p.live_blocks).sum::<usize>() as f64),
    );
    // What is left of the open after the pool's own phases: attaching
    // the roots and the structures' recover().
    l.insert(
        "structures.recover_ms",
        med(&|r| (r.ms - r.pool_ms()).max(0.0)),
    );
}

/// `Server::batch_counters()` deltas over the measured trials.
fn layer_from_batches(l: &mut Layers, counters: &[u64]) {
    let [batches, batched_ops, deferred, closing, executed] = counters else {
        return;
    };
    let frames = batches + (executed - batched_ops);
    if frames == 0 {
        return;
    }
    l.insert(
        "server.batch.ops_per_frame",
        *executed as f64 / frames as f64,
    );
    l.insert(
        "server.batch.fences_saved_per_op",
        deferred.saturating_sub(*closing) as f64 / *executed as f64,
    );
    l.insert(
        "server.batch.closing_fences_per_frame",
        if *batches == 0 {
            0.0
        } else {
            *closing as f64 / *batches as f64
        },
    );
}

/// Runs `w` as `cfg` asks.
pub fn run(w: &Workload, cfg: &RunCfg, scratch: &Scratch) -> io::Result<Outcome> {
    match w.kind {
        Kind::LibHash => run_steady::<KvSut>(w, cfg, scratch),
        Kind::LibSkiplist => run_steady::<SkipSut>(w, cfg, scratch),
        Kind::Wire { .. } => run_steady::<WireSut>(w, cfg, scratch),
        Kind::Recover => run_recover(w, cfg, scratch),
    }
}
