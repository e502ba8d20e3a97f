//! Benchmark harness for the NVTraverse reproduction.
//!
//! [`workload`] implements the paper's §5.1 methodology: prefill to half the
//! key range, uniform random keys, an insert/delete/lookup mix where updates
//! split evenly between inserts and deletes, fixed-duration measurement,
//! throughput in Mops/s.
//!
//! [`figures`] regenerates every figure of the evaluation (5a–f, 6g–o) plus
//! two ablations; see DESIGN.md's experiment index. Run with
//! `cargo run --release -p nvtraverse-bench --bin figures -- <id|all>`, or
//! `cargo bench` for the quick sweep.
//!
//! Pass `--json <path>` to the `figures` binary to additionally emit every
//! measured point as machine-readable JSON ([`json`]), e.g.
//! `figures --quick --json BENCH_quick.json all`.
//!
//! Beyond the paper's figures, [`alloc_scaling`] measures pool
//! allocator throughput (threads x size-class mix over the lock-free
//! magazine/shard design) under the same `--json` pipeline:
//! `figures --quick --json BENCH_alloc.json alloc_scaling` — and
//! [`pool_structs`] measures end-to-end *structure* throughput on
//! pool-resident instances (allocator + policy fences together),
//! structure × threads: `figures --quick --json BENCH_ps.json pool_structs` —
//! and [`persist_ops`] counts flushes/fences **per operation** for every
//! pool-resident structure under both durable policies, attributed to the
//! owning pool's `nvtraverse-obs` metric set (with per-phase splits):
//! `figures --quick --json BENCH_persist_ops.json persist_ops` — and
//! [`kv_service`] drives the `nvtraverse-server` KV front-end with
//! YCSB-style zipfian load, sweeping policy × batch size × client
//! threads to show fences/op falling toward 1/B under batching:
//! `figures --quick --json BENCH_kv.json kv_service`.

pub mod alloc_scaling;
pub mod figures;
pub mod json;
pub mod kv_service;
pub mod persist_ops;
pub mod pool_shards;
pub mod pool_structs;
pub mod workload;
