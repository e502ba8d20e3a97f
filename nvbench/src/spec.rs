//! What the benchmark is: the six workloads, the nine end-to-end metrics
//! with their bounds, the per-layer metric names, and the frozen sizes.
//!
//! `BENCHMARK.json` at the repository root states the same names, units,
//! directions and bounds for the driver; a unit test here keeps the two in
//! step. The sizes are constants on purpose: they are identical on both
//! sides of any comparison, and every JSON document is stamped with them.

use crate::gen::Mix;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's median by which it may worsen.
    pub bound: f64,
    /// Absolute slack added to the bound (counts near zero: one stray
    /// flush in a million operations is not a regression).
    pub abs_slack: f64,
    /// Whether a run reports the fastest of its samples rather than their
    /// median: the work is identical every time, so whatever is slower
    /// than the fastest is the host, not the code.
    pub fastest: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        abs_slack: 0.0,
        fastest: false,
    }
}

/// The end-to-end metrics. Every workload reports all of them; what each
/// one measures on each workload is in `README.md`.
///
/// The issue asked for nine, with tighter bounds on the three time
/// metrics (0.10, 0.10, 0.15). The A/A runs on the two-core virtual
/// machine this was sized on decided otherwise: ten same-code runs spread
/// (interquartile, as a share of the median) 3–14 % on `ops_per_s`,
/// 2–15 % on `lat_p50_us` and 6–24 % on `reopen_ms`, so those carry the
/// widest bound the contract allows; and `lat_p99_us` spread 25–50 %,
/// which no bound holds, so — as the issue provides — it is a per-layer
/// metric instead. The counts are the precise instrument.
pub const END_TO_END: [Metric; 8] = [
    m("setup_s", "s", Better::Lower, 0.25),
    m("ops_per_s", "ops/s", Better::Higher, 0.25),
    m("lat_p50_us", "us", Better::Lower, 0.25),
    // 0.05, not the issue's 0.02: the allocator's share of the flushes
    // (magazine drains, remote frees) follows the thread interleaving, and
    // on `wire-batch64` — 0.29 flushes per operation, a fifth of them the
    // allocator's — same-code runs spread 1.4 %.
    Metric {
        abs_slack: 0.005,
        ..m("flushes_per_op", "count", Better::Lower, 0.05)
    },
    Metric {
        abs_slack: 0.005,
        ..m("fences_per_op", "count", Better::Lower, 0.02)
    },
    Metric {
        fastest: true,
        ..m("reopen_ms", "ms", Better::Lower, 0.25)
    },
    m("bytes_per_key", "B", Better::Lower, 0.02),
    m("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// The per-layer metrics of a traced run: `(name, unit, better)`. Prefixes
/// are this repository's crates and modules. A span metric reads 0 on a
/// workload that never crosses that boundary.
pub const PER_LAYER: [(&str, &str, Better); 72] = [
    // demoted from end-to-end (see `END_TO_END`): median over the untraced
    // trials of the per-trial p99.
    ("lat_p99_us", "us", Better::Lower),
    // server: spans around the public client/store calls, batch counters.
    ("server.client.send_ns", "ns", Better::Lower),
    ("server.client.recv_wait_ns", "ns", Better::Lower),
    ("server.rtt_p999_us", "us", Better::Lower),
    ("server.batch.ops_per_frame", "count", Better::Higher),
    ("server.batch.fences_saved_per_op", "count", Better::Higher),
    (
        "server.batch.closing_fences_per_frame",
        "count",
        Better::Lower,
    ),
    ("server.store.get_ns", "ns", Better::Lower),
    ("server.store.get_ns_p99", "ns", Better::Lower),
    ("server.store.insert_ns", "ns", Better::Lower),
    ("server.store.insert_ns_p99", "ns", Better::Lower),
    ("server.store.remove_ns", "ns", Better::Lower),
    ("server.store.remove_ns_p99", "ns", Better::Lower),
    ("server.proto.codec_ns", "ns", Better::Lower),
    // structures
    ("structures.skiplist.get_ns", "ns", Better::Lower),
    ("structures.skiplist.get_ns_p99", "ns", Better::Lower),
    ("structures.skiplist.insert_ns", "ns", Better::Lower),
    ("structures.skiplist.insert_ns_p99", "ns", Better::Lower),
    ("structures.skiplist.remove_ns", "ns", Better::Lower),
    ("structures.skiplist.remove_ns_p99", "ns", Better::Lower),
    ("structures.recover_ms", "ms", Better::Lower),
    ("structures.sharded.self_ns", "ns", Better::Lower),
    // core: obs deltas by phase, divided by operations.
    (
        "core.policy.flushes_traversal_per_op",
        "count",
        Better::Lower,
    ),
    (
        "core.policy.flushes_critical_per_op",
        "count",
        Better::Lower,
    ),
    ("core.policy.fences_critical_per_op", "count", Better::Lower),
    ("core.policy.self_ns", "ns", Better::Lower),
    ("core.alloc.flushes_alloc_per_op", "count", Better::Lower),
    ("core.alloc.ctx_enter_ns", "ns", Better::Lower),
    ("core.alloc.pool_attributed_ratio", "ratio", Better::Higher),
    // pool: allocator counters and the reopen's recovery phases.
    ("pool.engine.mag_hit_ratio", "ratio", Better::Higher),
    ("pool.engine.cas_retry_per_op", "count", Better::Lower),
    ("pool.engine.remote_free_ratio", "ratio", Better::Lower),
    ("pool.engine.slab_carves", "count", Better::Lower),
    ("pool.engine.alloc_free_ns", "ns", Better::Lower),
    ("pool.gc.heap_walk_ms", "ms", Better::Lower),
    ("pool.gc.mark_ms", "ms", Better::Lower),
    ("pool.gc.sweep_ms", "ms", Better::Lower),
    ("pool.gc.rebuild_ms", "ms", Better::Lower),
    ("pool.gc.reclaimed_blocks", "count", Better::Higher),
    ("pool.self_ns", "ns", Better::Lower),
    // calibrations: tight loops over one public function.
    ("pmem.backend.flush_ns", "ns", Better::Lower),
    ("pmem.backend.fence_ns", "ns", Better::Lower),
    ("pmem.backend.self_ns", "ns", Better::Lower),
    ("ebr.pin_ns", "ns", Better::Lower),
    ("obs.scope_ns", "ns", Better::Lower),
    ("obs.self_ns", "ns", Better::Lower),
    // anatomy ladder: the lib-hash-a stream, one thread, at successive
    // layer boundaries; adjacent differences are the *.self_ns above/below.
    ("anatomy.volatile_ns", "ns", Better::Lower),
    ("anatomy.policy_noop_ns", "ns", Better::Lower),
    ("anatomy.clwb_ns", "ns", Better::Lower),
    ("anatomy.pooled_ns", "ns", Better::Lower),
    ("anatomy.sharded_ns", "ns", Better::Lower),
    ("anatomy.kvstore_ns", "ns", Better::Lower),
    ("anatomy.exec_ns", "ns", Better::Lower),
    ("anatomy.uds_ns", "ns", Better::Lower),
    ("anatomy.tcp_ns", "ns", Better::Lower),
    ("anatomy.soft_pooled_ns", "ns", Better::Lower),
    ("anatomy.izraelevitz_clwb_ns", "ns", Better::Lower),
    ("anatomy.pooled_obs_off_ns", "ns", Better::Lower),
    ("anatomy.skiplist_volatile_ns", "ns", Better::Lower),
    ("anatomy.skiplist_pooled_ns", "ns", Better::Lower),
    ("anatomy.skiplist_journey_share", "ratio", Better::Higher),
    ("anatomy.model_residual_ns", "ns", Better::Lower),
    ("server.store.self_ns", "ns", Better::Lower),
    ("server.batch.self_ns", "ns", Better::Lower),
    ("server.net.uds_self_ns", "ns", Better::Lower),
    ("server.net.tcp_self_ns", "ns", Better::Lower),
    // harness: the benchmark's own cost.
    ("harness.gen_ns_per_op", "ns", Better::Lower),
    ("harness.trace_overhead_pct", "%", Better::Lower),
    // context a reader of the per-layer numbers needs beside them.
    ("harness.traced_ops_per_s", "ops/s", Better::Higher),
    ("harness.untraced_ops_per_s", "ops/s", Better::Higher),
    ("pool.engine.allocs_per_op", "count", Better::Lower),
    ("pool.gc.live_blocks", "count", Better::Lower),
];

/// Harness threads of a `lib-*` workload, connections of a `wire-*` one
/// (the box's core count; ownership needs a power of two).
pub const THREADS: u64 = 2;
/// Shard pools of every `KvStore`.
pub const SHARDS: usize = 2;
/// Acceptor threads of the in-process server, pinned so the host's core
/// count does not change the server's shape.
pub const SERVER_WORKERS: usize = 2;
/// Times a run sets its system up; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// One latency sample every this many operations on `lib-*` workloads.
pub const SAMPLE_EVERY: u64 = 32;
/// Zipfian skew of the `wire-*` workloads.
pub const ZIPF_THETA: f64 = 0.99;
/// Acknowledged inserts of `recover-reopen`'s crash image.
pub const RECOVER_INSERTS: u64 = 1 << 19;
/// Acknowledged removes that follow them.
pub const RECOVER_REMOVES: u64 = 1 << 18;
/// Gets issued against the reopened store, per trial.
pub const RECOVER_PROBES: u64 = 1 << 11;

/// What a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Embedded `KvStore` under the NVTraverse policy.
    LibHash,
    /// `SkipList` in one pool via `create_root`.
    LibSkiplist,
    /// `Server::start_uds` + `Client`s; `batch` operations per frame.
    Wire {
        /// Operations per frame (1 = plain requests).
        batch: usize,
        /// Whether the store runs the SOFT policy.
        soft: bool,
    },
    /// Crash image built by a child process, reopened per trial.
    Recover,
}

/// One workload: name, reason, and frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as later issues cite it.
    pub name: &'static str,
    /// One line: what it stresses and why it exists.
    pub why: &'static str,
    /// What it runs against.
    pub kind: Kind,
    /// Keys are `0..2^key_bits`.
    pub key_bits: u32,
    /// Operation mix.
    pub mix: Mix,
    /// Whether keys are zipfian (else uniform).
    pub zipfian: bool,
    /// Operations each thread executes per trial (frozen; a trial is this
    /// much work however long it takes).
    pub ops_per_thread: u64,
    /// Operations per throughput chunk (see `drive::ChunkClock`): about a
    /// millisecond of work, a power of two.
    pub chunk_ops: u64,
    /// Bytes of each pool file.
    pub pool_bytes: u64,
    /// Keys prefilled above the key space the operations draw from: never
    /// touched by an operation, never on a hot key's search path, they
    /// give the store a realistic population.
    pub cold_keys: u64,
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lib-hash-c",
        why: "read path alone on the embedded KvStore: short chains, Protocol-1 window persist and fixed per-op overhead; no allocation, no retire",
        kind: Kind::LibHash,
        key_bits: 9,
        mix: Mix::C,
        zipfian: false,
        ops_per_thread: 300_000,
        chunk_ops: 1024,
        pool_bytes: 16 << 20,
        cold_keys: 1 << 17,
    },
    Workload {
        name: "lib-hash-a",
        why: "same store, 50% get / 25% insert / 25% remove: Protocol-2 flushes and fences, PoolCtx, allocator and EBR retire dominate",
        kind: Kind::LibHash,
        key_bits: 9,
        mix: Mix::A,
        zipfian: false,
        ops_per_thread: 250_000,
        chunk_ops: 1024,
        pool_bytes: 16 << 20,
        cold_keys: 1 << 17,
    },
    Workload {
        name: "lib-skiplist-b",
        why: "pooled skiplist, 2^16 keys (8 MiB of nodes, twice the L2), 95% get: long traversals against a constant-size persist at the destination",
        kind: Kind::LibSkiplist,
        key_bits: 16,
        mix: Mix::B,
        zipfian: false,
        ops_per_thread: 32_000,
        chunk_ops: 1024,
        pool_bytes: 256 << 20,
        cold_keys: 0,
    },
    Workload {
        name: "wire-single",
        why: "one frame per op over UDS, zipfian, 95% GET: framing, syscalls and wake-ups around a sub-microsecond store op",
        kind: Kind::Wire { batch: 1, soft: false },
        key_bits: 12,
        mix: Mix::B,
        zipfian: true,
        ops_per_thread: 6_000,
        chunk_ops: 64,
        pool_bytes: 16 << 20,
        cold_keys: 1 << 17,
    },
    Workload {
        name: "wire-batch64",
        why: "BATCH of 64 over a SOFT store, 50% GET: group commit amortises the wire, so run_batch, FenceBatch and SOFT structures do the work",
        kind: Kind::Wire { batch: 64, soft: true },
        key_bits: 12,
        mix: Mix::A,
        zipfian: true,
        ops_per_thread: 64 * 1_000,
        chunk_ops: 1024,
        pool_bytes: 16 << 20,
        cold_keys: 1 << 17,
    },
    Workload {
        name: "recover-reopen",
        why: "KvStore::open of a crashed 2^19-insert image: heap walk, mark-sweep GC, structure recovery; catches work moved into open",
        kind: Kind::Recover,
        key_bits: 0,
        mix: Mix::C,
        zipfian: false,
        ops_per_thread: RECOVER_PROBES / THREADS,
        chunk_ops: 16,
        pool_bytes: 32 << 20,
        cold_keys: 0,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metric called `name`.
#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The frozen sizes as a JSON object, stamped into every document.
/// `smoke` divides every operation count by `shrink`.
pub fn frozen_json(shrink: u64) -> String {
    let per_workload: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{}:{{\"key_bits\":{},\"ops_per_thread_per_trial\":{},\"chunk_ops\":{},\"pool_bytes\":{},\"cold_keys\":{}}}",
                crate::json::quote(w.name),
                w.key_bits,
                (w.ops_per_thread / shrink).max(1),
                w.chunk_ops,
                w.pool_bytes,
                w.cold_keys
            )
        })
        .collect();
    format!(
        "{{\"threads\":{THREADS},\"shards\":{SHARDS},\"server_workers\":{SERVER_WORKERS},\"setups\":{SETUPS},\
         \"sample_every\":{SAMPLE_EVERY},\"zipf_theta\":{ZIPF_THETA},\"recover_inserts\":{},\"recover_removes\":{},\
         \"recover_probes\":{},\"workloads\":{{{}}}}}",
        RECOVER_INSERTS / shrink,
        RECOVER_REMOVES / shrink,
        (RECOVER_PROBES / shrink).max(THREADS),
        per_workload.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn field<'a>(v: &'a Value, k: &str) -> &'a str {
        v.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no {k}"))
    }

    /// `BENCHMARK.json` and this file are two statements of one contract.
    #[test]
    fn benchmark_json_states_the_same_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let listed = |k: &str| {
            doc.get(k)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("no {k}"))
                .to_vec()
        };

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((field(j, "name"), field(j, "why")), (w.name, w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.name, m.unit, m.better.name())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (*name, *unit, better.name())
            );
        }
        assert_eq!(
            doc.get("paths").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|l| l.0));
        let ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
        assert!(frozen_json(1).starts_with('{') && json::parse(&frozen_json(100)).is_ok());
    }
}
