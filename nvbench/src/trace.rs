//! The workload-independent half of a traced run: calibrations (one
//! public function in a tight loop) and the op-anatomy ladder (one
//! operation stream replayed at successive layer boundaries).
//!
//! The ladder is single-threaded on purpose: uncontended, a faster layer
//! saves at most its ladder share, which is what an adjacent difference
//! states. The workloads are multi-threaded; under their contention a
//! change can save more than its share.
//!
//! Every hash rung holds the structure constant — one table of 64
//! buckets, which is what `create_root`/`ShardedSet::create`/
//! `KvStore::create` build per pool — so `sharded`, `kvstore`, … run one
//! shard and an adjacent difference is the added layer alone.

use crate::drive::{drive, ExecTarget, NullTarget, SetTarget, Target, Untimed, WireTarget};
use crate::gen::{prefill_keys, stream_seed, KeyDist, OpGen, Shadow, VALUE_MULT};
use crate::host::Scratch;
use crate::spec::{self, Kind, Workload, SERVER_WORKERS};
use crate::stats;
use crate::workloads::{Harness, Layers, MetricOut, RunCfg, Sl};
use nvtraverse::policy::{Izraelevitz, NvTraverse, Volatile};
use nvtraverse::{PoolCtx, TypedRoots};
use nvtraverse_obs::{self as obs, Counter};
use nvtraverse_pmem::{Backend, Clwb, MmapBackend, Noop};
use nvtraverse_pool::Pool;
use nvtraverse_server::{
    proto, Client, ConnTokens, KvStore, NvtShard, PolicyKind, Reply, Request, Server, ServerConfig,
    SoftShard,
};
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::sharded::ShardedSet;
use nvtraverse_structures::skiplist::SkipList;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Buckets of every hash rung (the pooled default).
const BUCKETS: usize = 64;
/// Timed passes per rung or calibration. The fastest is reported: a pass
/// is tens of milliseconds of identical single-threaded work, and on a
/// shared host whatever is slower than the fastest is the neighbours —
/// with the median of three, `pooled_ns` read 714 and 1326 in two runs of
/// one binary and adjacent differences went negative.
const PASSES: usize = 5;
/// Operations per pass of an in-process hash rung.
const HASH_RUNG_OPS: u64 = 60_000;
/// Operations per pass of a socket rung (each a ~10 µs round trip).
const SOCKET_RUNG_OPS: u64 = 6_000;
/// Operations per pass of a skiplist rung.
const SKIPLIST_RUNG_OPS: u64 = 20_000;
/// Iterations per pass of a calibration loop.
const CALIBRATION_ITERS: u64 = 120_000;
/// Pool file size of a rung.
const RUNG_POOL_BYTES: u64 = 16 << 20;

fn fastest(passes: &[f64]) -> f64 {
    passes.iter().copied().fold(f64::INFINITY, f64::min)
}

fn ns_per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let passes: Vec<f64> = (0..=PASSES)
        .map(|_| {
            let t0 = Instant::now();
            (0..iters).for_each(&mut f);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .skip(1) // the first pass warms caches and lazy state
        .collect();
    fastest(&passes)
}

/// What one ladder rung measured.
struct Rung {
    /// ns per operation: the fastest timed pass.
    ns: f64,
    /// ns per operation of every timed pass. Pass `n` replays stream `n` on
    /// every rung, so two rungs compare pass by pass.
    passes: Vec<f64>,
    failed: u64,
    flushes_per_op: f64,
    fences_per_op: f64,
    allocs_per_op: f64,
}

/// Prefills `target` with the stream's half and replays it: one warm-up
/// pass, then [`PASSES`] timed ones.
fn replay<T: Target>(
    target: &mut T,
    stream: &Workload,
    seed: u64,
    ops: u64,
    sets: &Harness,
) -> Rung {
    let _attr = obs::attribute_to(Some(sets.set));
    let mut shadow = Shadow::new(stream.key_bits, 0, 1);
    let mut failed = 0;
    for k in prefill_keys(seed, stream.key_bits, 0, 1) {
        failed += u64::from(target.insert(k, k.wrapping_mul(VALUE_MULT)) != Some(true));
        shadow.set(k, true);
    }
    let mut pass = |n: u64| {
        let mut gen = OpGen::new(
            stream_seed(seed, 0xA7A7, 0, n),
            stream.key_bits,
            KeyDist::Uniform,
            stream.mix,
            0,
            1,
        );
        let t0 = Instant::now();
        let bad = drive(target, &mut gen, &mut shadow, ops, &mut Untimed);
        (t0.elapsed().as_nanos() as f64 / ops as f64, bad)
    };
    failed += pass(0).1;
    let before = sets.read();
    let timed: Vec<(f64, u64)> = (1..=PASSES as u64).map(&mut pass).collect();
    let d = sets.read().since(&before).all;
    let total = (ops * PASSES as u64) as f64;
    let passes: Vec<f64> = timed.iter().map(|t| t.0).collect();
    Rung {
        ns: fastest(&passes),
        passes,
        failed: failed + timed.iter().map(|t| t.1).sum::<u64>(),
        flushes_per_op: d.total_flushes() as f64 / total,
        fences_per_op: d.total_fences() as f64 / total,
        allocs_per_op: (d.counter(Counter::MagHit) + d.counter(Counter::MagMiss)) as f64 / total,
    }
}

fn rung_pool(dir: &Path) -> io::Result<Pool> {
    std::fs::create_dir_all(dir)?;
    Pool::builder()
        .path(dir.join("rung.pool"))
        .capacity(RUNG_POOL_BYTES)
        .create()
}

/// The `pooled` rung: `HashMapDs` under NVTraverse in a pool via
/// `create_root`. Also what the `NVT_OBS=off` child runs.
fn pooled_rung(dir: &Path, stream: &Workload, seed: u64, sets: &Harness) -> io::Result<Rung> {
    let pool = rung_pool(dir)?;
    let map = pool.create_root::<NvtShard>("rung")?;
    let rung = replay(&mut SetTarget(&*map), stream, seed, HASH_RUNG_OPS, sets);
    map.close()?;
    Ok(rung)
}

/// Entry point of the `rung-pooled` child: prints ns/op of the pooled
/// rung under whatever `NVT_OBS` it was started with.
pub fn pooled_rung_child(dir: &Path, seed: u64) -> io::Result<()> {
    let stream = spec::workload("lib-hash-a").expect("ladder stream");
    let rung = pooled_rung(dir, stream, seed, &Harness::new())?;
    println!("{} {}", rung.ns, rung.failed);
    Ok(())
}

fn pooled_obs_off(dir: &Path, seed: u64) -> io::Result<(f64, u64)> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .arg("rung-pooled")
        .arg(dir)
        .arg(seed.to_string())
        .env("NVT_OBS", "off")
        .stdin(std::process::Stdio::null())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace();
    let parsed = (|| Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?)))();
    parsed.filter(|_| out.status.success()).ok_or_else(|| {
        io::Error::other(format!(
            "rung-pooled child failed: {text} {}",
            String::from_utf8_lossy(&out.stderr)
        ))
    })
}

fn kv(dir: &Path, policy: PolicyKind) -> io::Result<KvStore> {
    KvStore::create(dir, policy, 1, RUNG_POOL_BYTES)
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        drain_timeout: Duration::from_secs(5),
    }
}

/// Runs the ladder; returns failed operations and fills `l`.
fn ladder(l: &mut Layers, seed: u64, scratch: &Scratch, sets: &mut Harness) -> io::Result<u64> {
    let hash = spec::workload("lib-hash-a").expect("ladder stream");
    let skip = spec::workload("lib-skiplist-b").expect("skiplist ladder stream");
    let mut failed = 0;
    let mut record = |l: &mut Layers, name: &'static str, rung: Rung| {
        failed += rung.failed;
        l.insert(name, rung.ns);
        rung
    };
    let dir = |name: &str| scratch.fresh(name);

    // Bare structures on the volatile heap: policy, then backend.
    macro_rules! bare {
        ($name:literal, $policy:ty) => {
            let map = HashMapDs::<u64, u64, $policy>::new(BUCKETS);
            record(
                l,
                $name,
                replay(&mut SetTarget(&map), hash, seed, HASH_RUNG_OPS, sets),
            );
        };
    }
    bare!("anatomy.volatile_ns", Volatile);
    bare!("anatomy.policy_noop_ns", NvTraverse<Noop>);
    bare!("anatomy.clwb_ns", NvTraverse<Clwb>);
    bare!("anatomy.izraelevitz_clwb_ns", Izraelevitz<Clwb>);

    // In a pool file: allocator, PoolCtx, obs attribution.
    let pooled = record(
        l,
        "anatomy.pooled_ns",
        pooled_rung(&dir("rung-pooled"), hash, seed, sets)?,
    );
    let (off_ns, off_failed) = pooled_obs_off(&dir("rung-obs-off"), seed)?;
    l.insert("anatomy.pooled_obs_off_ns", off_ns);
    {
        let pool = rung_pool(&dir("rung-soft"))?;
        let map = pool.create_root::<SoftShard>("rung")?;
        record(
            l,
            "anatomy.soft_pooled_ns",
            replay(&mut SetTarget(&*map), hash, seed, HASH_RUNG_OPS, sets),
        );
        map.close()?;
    }

    // Routing, the policy-erased façade, the request executor.
    {
        let set = ShardedSet::<NvtShard>::create(dir("rung-sharded"), 1, RUNG_POOL_BYTES)?;
        record(
            l,
            "anatomy.sharded_ns",
            replay(&mut SetTarget(&set), hash, seed, HASH_RUNG_OPS, sets),
        );
        set.close()?;
    }
    {
        let store = kv(&dir("rung-kvstore"), PolicyKind::NvTraverse)?;
        record(
            l,
            "anatomy.kvstore_ns",
            replay(&mut &store, hash, seed, HASH_RUNG_OPS, sets),
        );
        store.close()?;
    }
    {
        let store = kv(&dir("rung-exec"), PolicyKind::NvTraverse)?;
        let mut target = ExecTarget {
            store: &store,
            tokens: ConnTokens::new(),
        };
        record(
            l,
            "anatomy.exec_ns",
            replay(&mut target, hash, seed, HASH_RUNG_OPS, sets),
        );
        drop(target);
        store.close()?;
    }

    // The wire: Unix socket, then loopback TCP, one connection each.
    {
        let sock = scratch.fresh("rung.sock");
        let server = Server::start_uds(
            &sock,
            kv(&dir("rung-uds"), PolicyKind::NvTraverse)?,
            server_cfg(),
        )?;
        sets.server = Some(server.metrics());
        let mut target = WireTarget {
            client: Client::connect_uds(&sock)?,
            split: None,
        };
        record(
            l,
            "anatomy.uds_ns",
            replay(&mut target, hash, seed, SOCKET_RUNG_OPS, sets),
        );
        drop(target);
        server.shutdown()?;
    }
    {
        let server = Server::start_tcp(
            "127.0.0.1:0",
            kv(&dir("rung-tcp"), PolicyKind::NvTraverse)?,
            server_cfg(),
        )?;
        sets.server = Some(server.metrics());
        let addr = server.tcp_addr().expect("tcp server has an address");
        let mut target = WireTarget {
            client: Client::connect_tcp(addr)?,
            split: None,
        };
        record(
            l,
            "anatomy.tcp_ns",
            replay(&mut target, hash, seed, SOCKET_RUNG_OPS, sets),
        );
        drop(target);
        server.shutdown()?;
    }
    sets.server = None;

    // The journey: the lib-skiplist-b stream, volatile against pooled. A
    // skiplist pass is not identical work — a successful remove walks its
    // level from the head, so a pass costs what its stream's removes cost —
    // and the share is therefore taken pass by pass (same stream on both
    // rungs) and reported as the median of those ratios.
    let sk_volatile = record(
        l,
        "anatomy.skiplist_volatile_ns",
        replay(
            &mut SetTarget(&SkipList::<u64, u64, Volatile>::new()),
            skip,
            seed,
            SKIPLIST_RUNG_OPS,
            sets,
        ),
    );
    let sk_pooled = {
        std::fs::create_dir_all(dir("rung-skiplist"))?;
        let pool = Pool::builder()
            .path(scratch.path().join("rung-skiplist/rung.pool"))
            .capacity(skip.pool_bytes)
            .create()?;
        let list = pool.create_root::<Sl>("rung")?;
        let rung = record(
            l,
            "anatomy.skiplist_pooled_ns",
            replay(&mut SetTarget(&*list), skip, seed, SKIPLIST_RUNG_OPS, sets),
        );
        list.close()?;
        rung
    };
    let shares: Vec<f64> = sk_volatile
        .passes
        .iter()
        .zip(&sk_pooled.passes)
        .map(|(v, p)| v / p)
        .collect();
    l.insert("anatomy.skiplist_journey_share", stats::median(&shares));

    // Adjacent differences: each layer's self cost.
    for (name, upper, lower) in [
        (
            "core.policy.self_ns",
            "anatomy.policy_noop_ns",
            "anatomy.volatile_ns",
        ),
        (
            "pmem.backend.self_ns",
            "anatomy.clwb_ns",
            "anatomy.policy_noop_ns",
        ),
        ("pool.self_ns", "anatomy.pooled_ns", "anatomy.clwb_ns"),
        (
            "structures.sharded.self_ns",
            "anatomy.sharded_ns",
            "anatomy.pooled_ns",
        ),
        (
            "server.store.self_ns",
            "anatomy.kvstore_ns",
            "anatomy.sharded_ns",
        ),
        (
            "server.batch.self_ns",
            "anatomy.exec_ns",
            "anatomy.kvstore_ns",
        ),
        (
            "server.net.uds_self_ns",
            "anatomy.uds_ns",
            "anatomy.exec_ns",
        ),
        ("server.net.tcp_self_ns", "anatomy.tcp_ns", "anatomy.uds_ns"),
        (
            "obs.self_ns",
            "anatomy.pooled_ns",
            "anatomy.pooled_obs_off_ns",
        ),
    ] {
        l.insert(name, l[upper] - l[lower]);
    }
    // The cost model the paper's argument implies, against the measured
    // pooled total: where the residual is large is the next target.
    let model = l["anatomy.volatile_ns"]
        + pooled.flushes_per_op * l["pmem.backend.flush_ns"]
        + pooled.fences_per_op * l["pmem.backend.fence_ns"]
        + pooled.allocs_per_op * l["pool.engine.alloc_free_ns"];
    l.insert("anatomy.model_residual_ns", pooled.ns - model);
    Ok(failed + off_failed)
}

/// Tight loops over one public function each.
fn calibrate(l: &mut Layers, scratch: &Scratch, sets: &Harness) -> io::Result<()> {
    let _attr = obs::attribute_to(Some(sets.set));

    // 1024 lines: each line is written, then flushed, then fenced, so the
    // flush always has a dirty line to write back. flush = (store+flush) −
    // store; fence = (store+flush+fence) − (store+flush).
    let mut lines = vec![0u64; 8 * 1024];
    let mut touch = |i: u64, flush: bool, fence: bool| {
        let word = &mut lines[(i as usize % 1024) * 8];
        // SAFETY: `word` is a live, aligned element of `lines`.
        unsafe { std::ptr::write_volatile(word, i) };
        if flush {
            MmapBackend::flush(std::ptr::from_mut(word).cast());
        }
        if fence {
            MmapBackend::fence();
        }
    };
    let store = ns_per_iter(CALIBRATION_ITERS, |i| touch(i, false, false));
    let flushed = ns_per_iter(CALIBRATION_ITERS, |i| touch(i, true, false));
    let fenced = ns_per_iter(CALIBRATION_ITERS, |i| touch(i, true, true));
    MmapBackend::fence();
    l.insert("pmem.backend.flush_ns", (flushed - store).max(0.0));
    l.insert("pmem.backend.fence_ns", (fenced - flushed).max(0.0));

    let collector = nvtraverse_ebr::Collector::new();
    l.insert(
        "ebr.pin_ns",
        ns_per_iter(CALIBRATION_ITERS, |_| drop(black_box(collector.pin()))),
    );
    l.insert(
        "obs.scope_ns",
        ns_per_iter(CALIBRATION_ITERS, |_| {
            let target = obs::attribute_to(Some(sets.set));
            let phase = obs::phase(obs::Phase::Critical);
            drop(black_box((phase, target)));
        }),
    );

    let (mut frame, mut reply_frame) = (Vec::with_capacity(64), Vec::with_capacity(64));
    l.insert(
        "server.proto.codec_ns",
        ns_per_iter(CALIBRATION_ITERS, |i| {
            frame.clear();
            proto::encode_request(&Request::Get(i), &mut frame);
            let req = proto::decode_request(black_box(&frame)).expect("own encoding decodes");
            reply_frame.clear();
            proto::encode_reply(&Reply::Value(i), &mut reply_frame);
            black_box(
                proto::decode_reply(&req, black_box(&reply_frame)).expect("own encoding decodes"),
            );
        }),
    );

    let pool = rung_pool(&scratch.fresh("calibration"))?;
    let ctx = PoolCtx::of(&pool);
    l.insert(
        "core.alloc.ctx_enter_ns",
        ns_per_iter(CALIBRATION_ITERS, |_| drop(black_box(ctx.enter()))),
    );
    l.insert(
        "pool.engine.alloc_free_ns",
        ns_per_iter(CALIBRATION_ITERS, |_| {
            let block = pool
                .alloc(64, 8)
                .expect("calibration pool has room for one block");
            // SAFETY: `block` came from `pool.alloc` just above, was never
            // shared, and is freed exactly once.
            unsafe { pool.dealloc(black_box(block)) };
        }),
    );
    MmapBackend::fence();
    Ok(())
}

/// The generator and shadow model against a store that does nothing.
fn gen_cost(w: &Workload, seed: u64) -> f64 {
    // `recover-reopen` draws its probes from 2^19 key numbers.
    let bits = if w.kind == Kind::Recover {
        19
    } else {
        w.key_bits
    };
    let mut gen = OpGen::new(seed, bits, crate::workloads::key_dist(w), w.mix, 0, 1);
    let mut shadow = Shadow::new(bits, 0, 1);
    let ops = 500_000;
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(drive(
                &mut NullTarget,
                &mut gen,
                &mut shadow,
                ops,
                &mut Untimed,
            ));
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    fastest(&passes)
}

/// Adds the calibrations, the harness's own cost and the ladder to the
/// workload's own layer values, and lays them out in `spec` order.
pub fn finish_layers(
    mut l: Layers,
    w: &Workload,
    cfg: &RunCfg,
    scratch: &Scratch,
) -> io::Result<Vec<MetricOut>> {
    // One thread, one CPU: the socket rungs' server threads inherit it.
    let mut sets = Harness::on_one_cpu();
    calibrate(&mut l, scratch, &sets)?;
    l.insert("harness.gen_ns_per_op", gen_cost(w, cfg.seed));
    let failed = ladder(&mut l, cfg.seed, scratch, &mut sets)?;
    if failed > 0 {
        return Err(io::Error::other(format!(
            "{failed} ladder operations returned wrong replies"
        )));
    }
    Ok(spec::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| MetricOut {
            name,
            unit,
            value: l[name],
            spread: None,
        })
        .collect())
}
