//! Cross-process crash recovery: a child process mutates a pool-backed
//! structure, is SIGKILLed mid-workload, and the parent reopens the pool,
//! runs recovery, and checks durable-linearizability invariants.
//!
//! This is the real-world counterpart of the simulator crash tests: the
//! "crash" is an actual process death with the pool file as the only
//! surviving state. (On a page-cache-backed mapping, pages written before
//! the kill survive by kernel guarantee; on a DAX NVRAM mapping the same
//! code is power-fail durable via `MmapBackend`'s `clwb`/`sfence`.)
//!
//! Every structure type of the suite gets its own SIGKILL round-trip:
//!
//! * the five **sets** (list, hash, skiplist, both BSTs) share one generic
//!   child workload and one intent/ack oracle (below);
//! * the **queue** is validated against a consecutive-range FIFO oracle;
//! * the **stack** against a LIFO replay oracle;
//! * the **allocator** itself against a persistent slot-array audit
//!   (the 8-thread alloc/free/move storm at the end of this file).
//!
//! ## Set oracle
//!
//! The child writes an intent/ack log (`fsync`ed line by line) beside the
//! pool:
//!
//! * `i <k>` — insert of `k` is about to start; `I <k>` — it returned true.
//! * `r <k>` — remove of `k` is about to start; `R <k>` — it returned true.
//!
//! Keys are never reinserted after removal, so after recovery:
//!
//! * an acked remove (`R`) ⇒ key **absent**;
//! * an acked insert (`I`) with no remove intent (`r`) ⇒ key **present**;
//! * any other intent ⇒ the op was in flight at the kill: either outcome
//!   is a valid durable linearization;
//! * a key with no intent at all ⇒ **absent** (nothing may invent keys).
//!
//! For the **list** and **hash** children the workload runs through the
//! detectable API instead, and the intent lines carry each operation's
//! predicted durable [`OpId`]. The *library* is then the primary oracle:
//! after reopening, `Pool::op_outcome` must answer every logged `OpId`, and
//! the newest one — the only operation that can have been in flight at the
//! kill — must answer `Committed` exactly when its effect survived. The
//! intent/ack log above is kept as a cross-check, not as the judge.

use nvtraverse::detect::{DetectablePool, OpToken};
use nvtraverse::policy::{NvTraverse, Soft};
use nvtraverse::pool::Pool;
use nvtraverse::{DurableSet, OpId, OpOutcome, PoolAttach, PooledHandle};
use nvtraverse_pmem::{Backend, MmapBackend};
use nvtraverse_structures::ellen_bst::EllenBst;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::nm_bst::NmBst;
use nvtraverse_structures::queue::MsQueue;
use nvtraverse_structures::sharded::ShardedSet;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::soft_hash::SoftHash;
use nvtraverse_structures::soft_list::SoftList;
use nvtraverse_structures::stack::TreiberStack;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

type PooledList = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
type PooledHash = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;
type PooledSkip = SkipList<u64, u64, NvTraverse<MmapBackend>>;
type PooledEllen = EllenBst<u64, u64, NvTraverse<MmapBackend>>;
type PooledNm = NmBst<u64, u64, NvTraverse<MmapBackend>>;
type PooledQueue = MsQueue<u64, NvTraverse<MmapBackend>>;
type PooledStack = TreiberStack<u64, NvTraverse<MmapBackend>>;
type PooledSoftList = SoftList<u64, u64, Soft<MmapBackend>>;
type PooledSoftHash = SoftHash<u64, u64, Soft<MmapBackend>>;

const ROOT: &str = "crash-struct";
const POOL_CAP: u64 = 16 << 20;

/// Shards of the sharded-set crash test (≥ 2: the point is several pools
/// open concurrently in one process).
const SHARD_COUNT: usize = 3;
const SHARD_CAP: u64 = 8 << 20;

// NOTE: pools used to be process-global (one installed allocator), which
// forced every test here onto a serializing mutex. Pools are first-class
// now — each structure carries its own allocation context — so the tests
// run concurrently, each on its own pool file(s).

mod common;
use common::{create_pooled, open_pooled, unseal};

fn paths(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let pool = dir.join(format!("nvt-crashproc-{}-{tag}.pool", std::process::id()));
    let log = dir.join(format!("nvt-crashproc-{}-{tag}.log", std::process::id()));
    (pool, log)
}

fn open_log(path: &str) -> std::fs::File {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap()
}

/// Child-process entry point, dispatched via environment variables. When
/// `NVT_CRASH_CHILD` is unset (the normal test run) this test is a no-op;
/// when set, its value picks the structure under attack.
#[test]
fn child_entry() {
    let Ok(kind) = std::env::var("NVT_CRASH_CHILD") else {
        return;
    };
    match kind.as_str() {
        "list" => detectable_set_child::<PooledList>(),
        "hash" => detectable_set_child::<PooledHash>(),
        "skiplist" => set_child::<PooledSkip>(),
        "ellen" => set_child::<PooledEllen>(),
        "nm" => set_child::<PooledNm>(),
        "soft-list" => set_child::<PooledSoftList>(),
        "soft-hash" => set_child::<PooledSoftHash>(),
        "queue" => queue_child(),
        "stack" => stack_child(),
        "churn" => churn_child(),
        "sharded" => sharded_child(),
        other => panic!("unknown NVT_CRASH_CHILD kind {other:?}"),
    }
}

/// Sharded-set workload: the same insert/remove intent-ack discipline as
/// the single-pool sets, but over a [`ShardedSet`] whose `NVT_POOL` is a
/// *directory* holding one pool of shard roots, keys hash-routed across
/// them. The SIGKILL therefore dirties every shard at once.
fn sharded_child() {
    let dir = std::env::var("NVT_POOL").unwrap();
    let log_path = std::env::var("NVT_LOG").unwrap();
    let start_key: u64 = std::env::var("NVT_START_KEY").unwrap().parse().unwrap();

    let set = ShardedSet::<PooledList>::open(&dir).unwrap();
    let mut log = open_log(&log_path);
    let mut record = |tag: &str, k: u64| {
        writeln!(log, "{tag} {k}").unwrap();
        log.sync_data().unwrap();
    };

    let mut k = start_key;
    loop {
        record("i", k);
        if set.insert(k, k.wrapping_mul(7)) {
            record("I", k);
        }
        if k % 3 == 2 {
            let victim = k - 2;
            record("r", victim);
            if set.remove(victim) {
                record("R", victim);
            }
        }
        k += 1;
        if k > start_key + 2_000_000 {
            std::process::exit(3);
        }
    }
}

/// Churn-heavy list workload for the leak-regression oracle: insert `k`,
/// and as soon as the window is full remove `k - CHURN_WINDOW`, so all but
/// the last few keys are dead. Almost every node the child allocates is
/// retired to EBR — exactly the population a SIGKILL strands as
/// allocated-but-unreachable, which the reopen GC must reclaim. Victims
/// are unique and never reinserted (same intent/ack oracle as the sets).
const CHURN_WINDOW: u64 = 8;

fn churn_child() {
    let pool_path = std::env::var("NVT_POOL").unwrap();
    let log_path = std::env::var("NVT_LOG").unwrap();
    let start_key: u64 = std::env::var("NVT_START_KEY").unwrap().parse().unwrap();

    let set = open_pooled::<PooledList>(&pool_path, ROOT).unwrap();
    let mut log = open_log(&log_path);
    let mut record = |tag: &str, k: u64| {
        writeln!(log, "{tag} {k}").unwrap();
        log.sync_data().unwrap();
    };

    let mut k = start_key;
    loop {
        record("i", k);
        if set.insert(k, k.wrapping_mul(7)) {
            record("I", k);
        }
        if k >= start_key + CHURN_WINDOW {
            let victim = k - CHURN_WINDOW;
            record("r", victim);
            if set.remove(victim) {
                record("R", victim);
            }
        }
        k += 1;
        if k > start_key + 2_000_000 {
            std::process::exit(3);
        }
    }
}

/// The set workload of [`set_child`], driven through the **detectable**
/// API: every mutation registers under a durable [`OpId`], predicted ahead
/// of the call (`(slot, last seq + 1)`) and written into the `fsync`ed
/// intent line — so the parent can ask the library, by id, what happened to
/// the operation the kill interrupted.
fn detectable_set_child<S: PoolAttach + nvtraverse::PoolTrace + DurableSet<u64, u64>>() {
    let pool_path = std::env::var("NVT_POOL").unwrap();
    let log_path = std::env::var("NVT_LOG").unwrap();
    let start_key: u64 = std::env::var("NVT_START_KEY").unwrap().parse().unwrap();

    let set = open_pooled::<S>(&pool_path, ROOT).unwrap();
    // A fresh descriptor slot per child run: crashed slots stay answerable.
    let mut tok = set.pool().op_token().unwrap();
    let mut log = open_log(&log_path);
    let mut record = |tag: &str, k: u64, id: OpId| {
        writeln!(log, "{tag} {k} {}", id.to_bits()).unwrap();
        log.sync_data().unwrap();
    };
    fn next_id(tok: &OpToken) -> OpId {
        OpId::new(tok.slot(), tok.last_op().map_or(0, |id| id.seq()) + 1)
    }

    let mut k = start_key;
    loop {
        let predicted = next_id(&tok);
        record("i", k, predicted);
        let (id, fresh) = set.insert_detectable(&mut tok, k, k.wrapping_mul(7)).unwrap();
        assert_eq!(id, predicted, "insert armed under an unpredicted OpId");
        if fresh {
            record("I", k, id);
        }
        if k % 3 == 2 {
            let victim = k - 2;
            let predicted = next_id(&tok);
            record("r", victim, predicted);
            let (id, hit) = set.remove_detectable(&mut tok, victim).unwrap();
            assert_eq!(id, predicted, "remove armed under an unpredicted OpId");
            if hit {
                record("R", victim, id);
            }
        }
        k += 1;
        // The parent kills us long before this; bail out in case it died.
        if k > start_key + 2_000_000 {
            std::process::exit(3);
        }
    }
}

/// The shared set workload: insert `start_key, start_key+1, …`; after every
/// key ≡ 2 (mod 3), remove the key ≡ 0 (mod 3) two below it. Victims are
/// unique and never reinserted, which is what makes the parent's oracle
/// exact.
fn set_child<S: PoolAttach + nvtraverse::PoolTrace + DurableSet<u64, u64>>() {
    let pool_path = std::env::var("NVT_POOL").unwrap();
    let log_path = std::env::var("NVT_LOG").unwrap();
    let start_key: u64 = std::env::var("NVT_START_KEY").unwrap().parse().unwrap();

    let set = open_pooled::<S>(&pool_path, ROOT).unwrap();
    let mut log = open_log(&log_path);
    let mut record = |tag: &str, k: u64| {
        writeln!(log, "{tag} {k}").unwrap();
        log.sync_data().unwrap();
    };

    let mut k = start_key;
    loop {
        record("i", k);
        if set.insert(k, k.wrapping_mul(7)) {
            record("I", k);
        }
        if k % 3 == 2 {
            let victim = k - 2;
            record("r", victim);
            if set.remove(victim) {
                record("R", victim);
            }
        }
        k += 1;
        // The parent kills us long before this; bail out in case it died.
        if k > start_key + 2_000_000 {
            std::process::exit(3);
        }
    }
}

/// Queue workload: enqueue `start_key, start_key+1, …` (intent `i`, ack
/// `I`); every fifth step dequeue once (intent `d`, ack `D <value>`). The
/// 5:1 ratio keeps the queue non-empty, so every dequeue returns a value.
fn queue_child() {
    let pool_path = std::env::var("NVT_POOL").unwrap();
    let log_path = std::env::var("NVT_LOG").unwrap();
    let start_key: u64 = std::env::var("NVT_START_KEY").unwrap().parse().unwrap();

    let q = open_pooled::<PooledQueue>(&pool_path, ROOT).unwrap();
    let mut log = open_log(&log_path);
    let mut record = |tag: &str, k: u64| {
        writeln!(log, "{tag} {k}").unwrap();
        log.sync_data().unwrap();
    };

    let mut k = start_key;
    loop {
        record("i", k);
        q.enqueue(k);
        record("I", k);
        k += 1;
        if k.is_multiple_of(5) {
            record("d", 0);
            if let Some(v) = q.dequeue() {
                record("D", v);
            }
        }
        if k > start_key + 2_000_000 {
            std::process::exit(3);
        }
    }
}

/// Stack workload: push `start_key, start_key+1, …` (intent `u`, ack `U`);
/// every fourth step pop once (intent `p`, ack `P <value>`). The 4:1 ratio
/// keeps the stack non-empty, so every pop returns a value.
fn stack_child() {
    let pool_path = std::env::var("NVT_POOL").unwrap();
    let log_path = std::env::var("NVT_LOG").unwrap();
    let start_key: u64 = std::env::var("NVT_START_KEY").unwrap().parse().unwrap();

    let s = open_pooled::<PooledStack>(&pool_path, ROOT).unwrap();
    let mut log = open_log(&log_path);
    let mut record = |tag: &str, k: u64| {
        writeln!(log, "{tag} {k}").unwrap();
        log.sync_data().unwrap();
    };

    let mut k = start_key;
    loop {
        record("u", k);
        s.push(k);
        record("U", k);
        k += 1;
        if k.is_multiple_of(4) {
            record("p", 0);
            if let Some(v) = s.pop() {
                record("P", v);
            }
        }
        if k > start_key + 2_000_000 {
            std::process::exit(3);
        }
    }
}

#[derive(Default, Debug, Clone, Copy)]
struct KeyLog {
    intent_insert: bool,
    acked_insert: bool,
    intent_remove: bool,
    acked_remove: bool,
    /// Durable [`OpId`] bits from a detectable child's insert intent line.
    insert_op: Option<u64>,
    /// Durable [`OpId`] bits from a detectable child's remove intent line.
    remove_op: Option<u64>,
}

fn parse_set_log(path: &Path) -> BTreeMap<u64, KeyLog> {
    let mut out: BTreeMap<u64, KeyLog> = BTreeMap::new();
    let data = std::fs::read_to_string(path).unwrap_or_default();
    for line in data.lines() {
        // The final line can be torn by the kill; ignore anything malformed
        // (a torn intent line means the op had not started: `sync_data`
        // completes before the operation runs).
        let mut parts = line.split_whitespace();
        let (Some(tag), Some(k)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(k) = k.parse::<u64>() else { continue };
        // Detectable children append the op's predicted OpId bits; a line
        // missing them (plain children, or torn mid-line) carries none.
        let op = parts.next().and_then(|b| b.parse::<u64>().ok());
        let e = out.entry(k).or_default();
        match tag {
            "i" => {
                e.intent_insert = true;
                e.insert_op = op.or(e.insert_op);
            }
            "I" => e.acked_insert = true,
            "r" => {
                e.intent_remove = true;
                e.remove_op = op.or(e.remove_op);
            }
            "R" => e.acked_remove = true,
            _ => {}
        }
    }
    out
}

/// Where a child whose progress log is `log` writes its stderr: the file
/// beside the log, created empty, and the handle the child writes through.
fn child_stderr(log: &Path) -> (PathBuf, std::process::Stdio) {
    let path = log.with_extension("stderr");
    let file = std::fs::File::create(&path).unwrap();
    (path, file.into())
}

/// The last lines a child wrote to its stderr file `path`, for the panic
/// that reports the child exiting on its own.
fn stderr_tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}

/// Spawns a `kind` child, waits for it to ack at least `min_acks`
/// operations (any uppercase tag), SIGKILLs it, and returns.
fn run_child_until(kind: &str, pool: &Path, log: &Path, start_key: u64, min_acks: usize) {
    let exe = std::env::current_exe().unwrap();
    let (stderr_path, stderr) = child_stderr(log);
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "child_entry", "--test-threads=1", "--nocapture"])
        .env("NVT_CRASH_CHILD", kind)
        .env("NVT_POOL", pool)
        .env("NVT_LOG", log)
        .env("NVT_START_KEY", start_key.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(stderr)
        .spawn()
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let acks = std::fs::read_to_string(log)
            .unwrap_or_default()
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
            .count();
        if acks >= min_acks {
            break;
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!(
                "child exited on its own before the kill: {status:?}; its stderr ends:\n{}",
                stderr_tail(&stderr_path)
            );
        }
        assert!(
            Instant::now() < deadline,
            "child too slow: only {acks}/{min_acks} acked ops"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // SIGKILL: no destructors, no msync, no clean-close marker.
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_file(&stderr_path);
}

/// Reopens the pool after a kill and asserts the invariants every structure
/// shares: the kill left no clean-shutdown marker, and the heap's allocator
/// metadata verifies block by block.
fn reopen_checked<S: PoolAttach + nvtraverse::PoolTrace>(pool_path: &Path) -> PooledHandle<S> {
    // Reopen: Pool::open → root lookup → recover(), all inside the handle.
    let h = open_pooled::<S>(pool_path, ROOT).unwrap();
    assert!(
        !h.pool().recovery_report().clean_shutdown,
        "SIGKILL must not leave a clean-shutdown marker"
    );
    h.pool().verify_heap().unwrap_or_else(|e| {
        panic!("pool heap corrupt after SIGKILL: {e}");
    });
    h
}

/// The set oracle: key-by-key durable linearizability from the intent/ack
/// log. `snapshot` and `check` supply the structure-specific quiescent walk
/// and invariant checker. Returns the highest attempted key.
fn validate_set<S>(
    pool_path: &Path,
    log_path: &Path,
    snapshot: impl Fn(&S) -> Vec<(u64, u64)>,
    check: impl Fn(&S) -> Result<usize, String>,
) -> u64
where
    S: PoolAttach + nvtraverse::PoolTrace + DurableSet<u64, u64>,
{
    let set = reopen_checked::<S>(pool_path);
    // Structural invariants: recovery left no marked node / pending op.
    check(&set).unwrap_or_else(|e| panic!("invariants violated after recovery: {e}"));

    let log = parse_set_log(log_path);
    let present: BTreeMap<u64, u64> = snapshot(&set).into_iter().collect();

    // No invented keys: everything present must at least have been attempted.
    for &k in present.keys() {
        assert!(
            log.get(&k).is_some_and(|e| e.intent_insert),
            "key {k} present but never attempted"
        );
    }
    // Durable linearizability, key by key.
    let mut max_intent = 0;
    for (&k, e) in &log {
        max_intent = max_intent.max(k);
        let here = present.contains_key(&k);
        if e.acked_remove {
            assert!(!here, "key {k}: remove was acked but the key came back");
        } else if e.acked_insert && !e.intent_remove {
            assert!(here, "key {k}: insert was acked but the key is lost");
            assert_eq!(present[&k], k.wrapping_mul(7), "key {k}: wrong value");
        }
        // Any other combination was in flight at the kill: either outcome
        // is a correct durable linearization.
    }

    // Detectable children: the library itself is the primary oracle. Every
    // logged OpId must be answerable — descriptor slots are never reused,
    // so ops from earlier cycles (and earlier kills) stay classified — and
    // the newest logged op, the only one that can have been in flight at
    // the kill, must answer `Committed` exactly when its effect survived.
    let pool = set.pool();
    // (bits, key, is_remove, acked)
    let mut newest: Option<(u64, u64, bool, bool)> = None;
    for (&k, e) in &log {
        let ops = [
            e.insert_op.map(|b| (b, k, false, e.acked_insert)),
            e.remove_op.map(|b| (b, k, true, e.acked_remove)),
        ];
        for op in ops.into_iter().flatten() {
            assert!(
                pool.op_outcome(OpId::from_bits(op.0)).is_some(),
                "key {k}: the library has no answer for logged op {:#x}",
                op.0
            );
            if newest.is_none_or(|(bits, ..)| op.0 > bits) {
                newest = Some(op);
            }
        }
    }
    if let Some((bits, k, is_remove, acked)) = newest {
        let outcome = pool.op_outcome(OpId::from_bits(bits)).unwrap();
        let here = present.contains_key(&k);
        if acked {
            // The op returned (and in this workload every completed op is
            // effectful: inserts are fresh, removes hit), so its closing
            // fence made both its effect and its descriptor durable.
            assert_eq!(
                outcome,
                OpOutcome::Committed,
                "key {k}: newest op was acked effectful but the library disagrees"
            );
        } else {
            let effect_survived = if is_remove { !here } else { here };
            assert_eq!(
                outcome == OpOutcome::Committed,
                effect_survived,
                "key {k}: in-flight {} answered {outcome:?} but present={here}",
                if is_remove { "remove" } else { "insert" }
            );
        }
        if !is_remove && outcome == OpOutcome::Committed {
            assert_eq!(present[&k], k.wrapping_mul(7), "committed insert lost its value");
        }
    }

    // The recovered structure stays fully usable.
    assert!(set.insert(u64::MAX - 1, 42));
    assert_eq!(set.get(u64::MAX - 1), Some(42));
    assert!(set.remove(u64::MAX - 1));
    set.close().unwrap();
    max_intent
}

/// The generic set round-trip: create → (SIGKILL → reopen → recover →
/// verify) × `cycles`, each child continuing where the log left off so
/// every cycle revalidates the accumulated history.
fn sigkill_set_roundtrip<S>(
    kind: &str,
    cycles: usize,
    snapshot: impl Fn(&S) -> Vec<(u64, u64)>,
    check: impl Fn(&S) -> Result<usize, String>,
) where
    S: PoolAttach + nvtraverse::PoolTrace + DurableSet<u64, u64>,
{
    let (pool_path, log_path) = paths(kind);
    let _ = std::fs::remove_file(&pool_path);
    let _ = std::fs::remove_file(&log_path);

    // Create the pool and the named structure crash-free, then let go.
    create_pooled::<S>(&pool_path, POOL_CAP, ROOT)
        .unwrap()
        .close()
        .unwrap();

    let mut start_key = 0;
    for cycle in 0..cycles {
        run_child_until(kind, &pool_path, &log_path, start_key, 150 * (cycle + 1));
        let max_intent = validate_set::<S>(&pool_path, &log_path, &snapshot, &check);
        // Next child starts past everything attempted, keeping the
        // "victims are never reinserted" oracle exact (aligned to 3).
        start_key = (max_intent + 3).next_multiple_of(3);
    }

    std::fs::remove_file(&pool_path).unwrap();
    std::fs::remove_file(&log_path).unwrap();
}

#[test]
fn sigkill_mid_workload_recovers_list() {
    sigkill_set_roundtrip::<PooledList>(
        "list",
        3,
        |s| s.iter_snapshot(),
        |s| s.check_consistency(false),
    );
}

#[test]
fn sigkill_mid_workload_recovers_hash() {
    sigkill_set_roundtrip::<PooledHash>(
        "hash",
        2,
        |s| s.iter_snapshot(),
        |s| s.check_consistency(false),
    );
}

#[test]
fn sigkill_mid_workload_recovers_skiplist() {
    // check_consistency(false) also audits the rebuilt towers: every tower
    // link must point at a live bottom node, sorted per level.
    sigkill_set_roundtrip::<PooledSkip>(
        "skiplist",
        2,
        |s| s.iter_snapshot(),
        |s| s.check_consistency(false),
    );
}

#[test]
fn sigkill_mid_workload_recovers_ellen_bst() {
    // require_clean: recovery must have helped every flagged/marked update
    // word to completion.
    sigkill_set_roundtrip::<PooledEllen>(
        "ellen",
        2,
        |s| s.iter_snapshot(),
        |s| s.check_consistency(true),
    );
}

#[test]
fn sigkill_mid_workload_recovers_nm_bst() {
    // require_clean: recovery must have completed every injected deletion.
    sigkill_set_roundtrip::<PooledNm>(
        "nm",
        2,
        |s| s.iter_snapshot(),
        |s| s.check_consistency(true),
    );
}

#[test]
fn sigkill_mid_workload_recovers_soft_list() {
    // SOFT: the pool file holds no trustworthy link words at all — the
    // reopen must rebuild the entire chain from the validity headers, and
    // the recovery GC must keep sealed-but-unlinked nodes.
    sigkill_set_roundtrip::<PooledSoftList>(
        "soft-list",
        3,
        |s| s.iter_snapshot(),
        |s| s.check_consistency(false),
    );
}

#[test]
fn sigkill_mid_workload_recovers_soft_hash() {
    sigkill_set_roundtrip::<PooledSoftHash>(
        "soft-hash",
        2,
        |s| s.iter_snapshot(),
        |s| s.check_consistency(false),
    );
}

/// The leak-regression oracle: after a churn-heavy SIGKILL, reopen (the
/// root-driven mark-sweep runs inside `root::<S>`), recover, drain the
/// collector — and then the pool's allocated-block count must equal the
/// structure's reachable footprint **exactly**: one head sentinel plus one
/// node per live key. Any surplus is a leak the sweep failed to reclaim;
/// any deficit means it freed reachable data. Returns the next cycle's
/// start key.
fn validate_churn(pool_path: &Path, log_path: &Path) -> u64 {
    let set = reopen_checked::<PooledList>(pool_path);
    let report = set.pool().recovery_report();
    assert!(
        report.gc_ran,
        "single-root pool opened through PooledHandle must run the recovery GC"
    );
    assert!(
        report.reclaimed_blocks > 0,
        "a SIGKILL mid-churn strands retired-but-unreclaimed nodes, \
         yet the sweep reclaimed nothing"
    );
    assert!(
        report.reclaimed_bytes as usize >= report.reclaimed_blocks * 32,
        "reclaimed byte accounting below the minimum block size"
    );
    set.check_consistency(false)
        .unwrap_or_else(|e| panic!("list invariants violated after GC + recovery: {e}"));

    // Durable linearizability, same key rules as the set oracle — the GC
    // must not have changed any answer.
    let log = parse_set_log(log_path);
    let present: BTreeMap<u64, u64> = set.iter_snapshot().into_iter().collect();
    let mut max_intent = 0;
    for (&k, e) in &log {
        max_intent = max_intent.max(k);
        let here = present.contains_key(&k);
        if e.acked_remove {
            assert!(!here, "key {k}: remove was acked but the key came back");
        } else if e.acked_insert && !e.intent_remove {
            assert!(here, "key {k}: insert was acked but the key is lost");
        }
    }
    for &k in present.keys() {
        assert!(
            log.get(&k).is_some_and(|e| e.intent_insert),
            "key {k} present but never attempted"
        );
    }

    // The oracle itself: reachable footprint == allocated footprint.
    set.pool().collector().drain();
    let live = set.pool().live_offsets().len();
    eprintln!(
        "churn cycle: GC reclaimed {} blocks / {} bytes in {} µs; \
         {live} allocated blocks remain for {} live keys",
        report.reclaimed_blocks,
        report.reclaimed_bytes,
        report.gc_nanos / 1_000,
        present.len()
    );
    assert_eq!(
        live,
        1 + present.len(),
        "pool holds {live} allocated blocks but the list reaches only \
         1 (head) + {} (nodes): the crash leaked blocks past the GC",
        present.len()
    );
    set.close().unwrap();
    (max_intent + CHURN_WINDOW + 1).next_multiple_of(CHURN_WINDOW)
}

/// The churn-heavy SIGKILL round ISSUE 4 asks for: kill a child that
/// retires almost everything it allocates, then prove the reopen GC
/// returns the pool to exactly the reachable live set — and that a clean
/// close leaves the GC nothing at all to reclaim.
#[test]
fn sigkill_churn_reclaims_leaked_blocks() {
    let (pool_path, log_path) = paths("churn");
    let _ = std::fs::remove_file(&pool_path);
    let _ = std::fs::remove_file(&log_path);

    create_pooled::<PooledList>(&pool_path, POOL_CAP, ROOT)
        .unwrap()
        .close()
        .unwrap();

    let mut start_key = 0;
    for cycle in 0..2 {
        run_child_until("churn", &pool_path, &log_path, start_key, 300 * (cycle + 1));
        start_key = validate_churn(&pool_path, &log_path);
    }

    // validate_churn closed cleanly (collector drained): the sweep of a
    // clean close/reopen must find exactly nothing. The close sealed the
    // pool, and the typed attach collects nothing on a sealed open: open
    // it unsealed.
    unseal(&pool_path);
    let set = open_pooled::<PooledList>(&pool_path, ROOT).unwrap();
    let report = set.pool().recovery_report();
    assert!(report.gc_ran);
    assert_eq!(
        report.reclaimed_blocks, 0,
        "clean close must leave no unreachable blocks for the sweep"
    );
    assert_eq!(report.reclaimed_bytes, 0);
    set.close().unwrap();

    std::fs::remove_file(&pool_path).unwrap();
    std::fs::remove_file(&log_path).unwrap();
}

/// Queue oracle: with one single-threaded child enqueuing consecutive
/// integers and dequeuing in FIFO order, the surviving contents must be a
/// consecutive ascending run whose boundaries are pinned by the log:
///
/// * tail: every acked enqueue survives; at most the one in-flight enqueue
///   may additionally have landed (`last ∈ [max acked, max intended]`);
/// * head: no acked dequeue resurfaces (`first > max acked dequeue`), and
///   the number of *silently* consumed values is bounded by the number of
///   unacked dequeue intents (one per kill at most).
///
/// Returns the next child's start key (one past the surviving tail, keeping
/// the contents consecutive across cycles).
fn validate_queue(pool_path: &Path, log_path: &Path, base: u64) -> u64 {
    let q = reopen_checked::<PooledQueue>(pool_path);
    let contents = q.iter_snapshot();

    let data = std::fs::read_to_string(log_path).unwrap_or_default();
    let (mut max_enq_intent, mut max_enq_ack, mut max_deq_ack) = (None, None, None);
    let (mut d_intents, mut d_acks) = (0usize, 0usize);
    for line in data.lines() {
        let mut parts = line.split_whitespace();
        let (Some(tag), Some(k)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(k) = k.parse::<u64>() else { continue };
        match tag {
            "i" => max_enq_intent = max_enq_intent.max(Some(k)),
            "I" => max_enq_ack = max_enq_ack.max(Some(k)),
            "d" => d_intents += 1,
            "D" => {
                d_acks += 1;
                max_deq_ack = max_deq_ack.max(Some(k));
            }
            _ => {}
        }
    }

    assert!(!contents.is_empty(), "oracle is vacuous: queue came back empty");
    assert!(
        contents.windows(2).all(|w| w[1] == w[0] + 1),
        "queue lost or reordered values: {contents:?}"
    );
    let (first, last) = (contents[0], *contents.last().unwrap());
    let max_enq_ack = max_enq_ack.expect("child acked no enqueue");
    assert!(last >= max_enq_ack, "acked enqueue {max_enq_ack} lost (tail {last})");
    assert!(
        last <= max_enq_intent.unwrap(),
        "value {last} present but never attempted"
    );
    let floor = max_deq_ack.map_or(base, |v| v + 1);
    assert!(first >= floor, "acked dequeue resurfaced: head {first} < {floor}");
    assert!(
        (first - floor) as usize <= d_intents - d_acks,
        "{} values vanished from the head but only {} dequeues were in flight",
        first - floor,
        d_intents - d_acks
    );
    q.close().unwrap();
    last + 1
}

#[test]
fn sigkill_mid_workload_recovers_queue() {
    let (pool_path, log_path) = paths("queue");
    let _ = std::fs::remove_file(&pool_path);
    let _ = std::fs::remove_file(&log_path);

    create_pooled::<PooledQueue>(&pool_path, POOL_CAP, ROOT)
        .unwrap()
        .close()
        .unwrap();

    let mut start_key = 0;
    for cycle in 0..2 {
        run_child_until("queue", &pool_path, &log_path, start_key, 150 * (cycle + 1));
        start_key = validate_queue(&pool_path, &log_path, 0);
    }

    std::fs::remove_file(&pool_path).unwrap();
    std::fs::remove_file(&log_path).unwrap();
}

/// Stack oracle: replay the cycle's acked ops over the state resolved after
/// the previous kill; the surviving stack must equal the replayed stack,
/// modulo the single in-flight op at the kill (one extra value on top if an
/// unacked push landed, one missing if an unacked pop landed).
///
/// `expected` carries the resolved bottom→top state across cycles; returns
/// the next child's start key.
fn validate_stack(pool_path: &Path, log_path: &Path, expected: &mut Vec<u64>) -> u64 {
    let s = reopen_checked::<PooledStack>(pool_path);
    let mut actual = s.iter_snapshot();
    actual.reverse(); // iter_snapshot is top-first; compare bottom→top

    let data = std::fs::read_to_string(log_path).unwrap_or_default();
    let mut in_flight: Option<(char, u64)> = None;
    let mut next_key = expected.iter().copied().max().map_or(0, |k| k + 1);
    for line in data.lines() {
        let mut parts = line.split_whitespace();
        let (Some(tag), Some(k)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(k) = k.parse::<u64>() else { continue };
        match tag {
            "u" => {
                in_flight = Some(('u', k));
                next_key = next_key.max(k + 1);
            }
            "U" => {
                expected.push(k);
                in_flight = None;
            }
            "p" => in_flight = Some(('p', 0)),
            "P" => {
                assert_eq!(expected.pop(), Some(k), "pop acked a non-top value");
                in_flight = None;
            }
            _ => {}
        }
    }

    let matches_exactly = actual == *expected;
    let landed_push = matches!(in_flight, Some(('u', k))
        if actual.len() == expected.len() + 1
            && actual[..expected.len()] == expected[..]
            && actual[expected.len()] == k);
    let landed_pop = matches!(in_flight, Some(('p', _))
        if actual.len() + 1 == expected.len() && expected[..actual.len()] == actual[..]);
    assert!(
        matches_exactly || landed_push || landed_pop,
        "stack state diverges from the log replay:\n  expected {:?}\n  actual   {:?}\n  in-flight {:?}",
        &expected[expected.len().saturating_sub(8)..],
        &actual[actual.len().saturating_sub(8)..],
        in_flight
    );
    // Resolve the ambiguity: the observed state is the truth from here on.
    *expected = actual;
    s.close().unwrap();
    next_key
}

#[test]
fn sigkill_mid_workload_recovers_stack() {
    let (pool_path, log_path) = paths("stack");
    let _ = std::fs::remove_file(&pool_path);
    let _ = std::fs::remove_file(&log_path);

    create_pooled::<PooledStack>(&pool_path, POOL_CAP, ROOT)
        .unwrap()
        .close()
        .unwrap();

    let mut expected = Vec::new();
    let mut start_key = 0;
    for _cycle in 0..2 {
        // Fresh log per cycle: the replay oracle folds each cycle's ops
        // onto the state resolved after the previous kill.
        let _ = std::fs::remove_file(&log_path);
        run_child_until("stack", &pool_path, &log_path, start_key, 150);
        start_key = validate_stack(&pool_path, &log_path, &mut expected);
    }

    std::fs::remove_file(&pool_path).unwrap();
    std::fs::remove_file(&log_path).unwrap();
}

// ---- sharded set: N roots of one pool SIGKILLed at once, one recovery -----

/// Post-kill validation of the sharded set — the acceptance oracle for a
/// multi-root pool:
///
/// 1. the pool reopens through one typed open of every shard root (one
///    heap walk, one mark-sweep GC traced from every shard, its
///    dirty-shutdown marker, each shard's `recover()`), and every shard
///    passes its own consistency check;
/// 2. every surviving key lives in exactly the shard the hash routes it
///    to (no key leaks across shards);
/// 3. the union of shards passes the same durable-linearizability oracle
///    as the single-pool sets.
///
/// Returns the next cycle's start key.
fn validate_sharded(dir: &Path, log_path: &Path) -> u64 {
    let set = ShardedSet::<PooledList>::open(dir).unwrap();
    assert_eq!(set.shard_count(), SHARD_COUNT);
    for report in set.recovery_reports() {
        assert!(
            !report.clean_shutdown,
            "SIGKILL must not leave a clean-shutdown marker"
        );
        assert!(
            report.gc_ran,
            "open_roots hands the collection every shard's tracer — the GC must run"
        );
    }
    set.shard(0)
        .pool()
        .verify_heap()
        .unwrap_or_else(|e| panic!("heap corrupt after SIGKILL: {e}"));
    for i in 0..set.shard_count() {
        set.shard(i)
            .check_consistency(false)
            .unwrap_or_else(|e| panic!("shard {i} invariants violated after recovery: {e}"));
    }

    // Union snapshot, checking the routing invariant on the way.
    let mut present: BTreeMap<u64, u64> = BTreeMap::new();
    for i in 0..set.shard_count() {
        for (k, v) in set.shard(i).iter_snapshot() {
            assert_eq!(
                set.shard_index_of(k),
                i,
                "key {k} surfaced in shard {i}, not the shard it routes to"
            );
            assert!(present.insert(k, v).is_none(), "key {k} present in two shards");
        }
    }

    // The set oracle, over the union (identical rules to validate_set).
    let log = parse_set_log(log_path);
    for &k in present.keys() {
        assert!(
            log.get(&k).is_some_and(|e| e.intent_insert),
            "key {k} present but never attempted"
        );
    }
    let mut max_intent = 0;
    for (&k, e) in &log {
        max_intent = max_intent.max(k);
        let here = present.contains_key(&k);
        if e.acked_remove {
            assert!(!here, "key {k}: remove was acked but the key came back");
        } else if e.acked_insert && !e.intent_remove {
            assert!(here, "key {k}: insert was acked but the key is lost");
            assert_eq!(present[&k], k.wrapping_mul(7), "key {k}: wrong value");
        }
    }

    // The recovered sharded set stays fully usable across all shards.
    for k in 0..2 * SHARD_COUNT as u64 {
        assert!(set.insert(u64::MAX - 1 - k, 42));
        assert_eq!(set.get(u64::MAX - 1 - k), Some(42));
        assert!(set.remove(u64::MAX - 1 - k));
    }
    set.close().unwrap();
    (max_intent + 3).next_multiple_of(3)
}

/// A sharded set's shard roots, all in one pool, SIGKILLed mid-workload:
/// one open recovers every shard, with the `ShardedSet` oracle passing.
#[test]
fn sigkill_mid_workload_recovers_sharded_set() {
    let dir = std::env::temp_dir().join(format!("nvt-crashproc-{}-sharded.shards", std::process::id()));
    let log_path = std::env::temp_dir().join(format!("nvt-crashproc-{}-sharded.log", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&log_path);

    ShardedSet::<PooledList>::create(&dir, SHARD_COUNT, SHARD_CAP)
        .unwrap()
        .close()
        .unwrap();

    let mut start_key = 0;
    for cycle in 0..2 {
        run_child_until("sharded", &dir, &log_path, start_key, 150 * (cycle + 1));
        start_key = validate_sharded(&dir, &log_path);
    }

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_file(&log_path).unwrap();
}

// ---- concurrent allocator storm under SIGKILL ------------------------------

/// Threads in the allocator-storm child.
const STORM_THREADS: usize = 8;
/// Block-reference slots each storm thread owns.
const STORM_SLOTS: usize = 64;
const STORM_ROOT: &str = "storm-slots";

/// Child-process entry point for the allocator storm (see
/// `sigkill_mid_alloc_storm_recovers`): 8 threads hammer the lock-free
/// allocator with alloc/free/move while every held block is tracked in a
/// persistent slot array inside the pool itself, so the parent can audit
/// the live set after the kill.
///
/// Per-slot protocol (all slot writes flushed + fenced):
///
/// * free:    slot := 0, persist, then `dealloc` — a kill in between leaks
///   the block (it stays allocated, referenced by nothing), never the
///   reverse: a nonzero slot always names an allocated block.
/// * alloc:   `alloc`, stamp + flush the payload, persist, then slot := off.
/// * move:    `alloc` new, copy + stamp + flush, fence, slot := new,
///   persist, then `dealloc` old (a full pool makes it a free).
///
/// So at any kill point, every nonzero slot points at an allocated block
/// with a valid stamp, and at most 2 blocks per thread (a move holds two
/// from its alloc to its free) are allocated but untracked.
#[test]
fn alloc_storm_child_entry() {
    let Ok(_) = std::env::var("NVT_STORM_CHILD") else {
        return;
    };
    let pool_path = std::env::var("NVT_POOL").unwrap();
    let log_path = std::env::var("NVT_LOG").unwrap();
    let pool = Pool::builder().path(&pool_path).open().unwrap();
    let slots_off = pool.root_offset(STORM_ROOT).unwrap();
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log_path)
        .unwrap();

    fn persist(p: *const u64) {
        MmapBackend::flush(p as *const u8);
        MmapBackend::fence();
    }
    let progress = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..STORM_THREADS {
            let pool = pool.clone();
            let progress = &progress;
            s.spawn(move || {
                let mut x = (t as u64).wrapping_mul(0x9E37_79B9) + 0xDEAD;
                loop {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let idx = t * STORM_SLOTS + (x % STORM_SLOTS as u64) as usize;
                    let slot = (pool.at(slots_off) as *mut u64).wrapping_add(idx);
                    let cur = unsafe { slot.read_volatile() };
                    let stamp = |p: *mut u8, size: usize| {
                        // First word = slot index, so the parent can verify
                        // block↔slot agreement; last byte spot-checked too.
                        unsafe {
                            (p as *mut u64).write(idx as u64);
                            p.add(size - 1).write(idx as u8);
                        }
                        MmapBackend::flush_range(p, size);
                    };
                    if cur != 0 {
                        let size = 24 + (x % 4000) as usize;
                        let moved = if x.is_multiple_of(4) { pool.alloc(size, 8) } else { None };
                        if let Some(np) = moved {
                            // Move: copy, retrack, then free the old block.
                            let p = pool.at(cur);
                            let keep = (pool.usable_size(p) as usize).min(size);
                            unsafe { std::ptr::copy_nonoverlapping(p, np, keep) };
                            stamp(np, size);
                            MmapBackend::fence();
                            unsafe { slot.write_volatile(pool.offset_of(np as *const u8)) };
                            persist(slot);
                            unsafe { pool.dealloc(p) };
                        } else {
                            // Free: untrack first.
                            unsafe { slot.write_volatile(0) };
                            persist(slot);
                            unsafe { pool.dealloc(pool.at(cur)) };
                        }
                    } else {
                        let size = 24 + (x % 4000) as usize;
                        if let Some(p) = pool.alloc(size, 8) {
                            stamp(p, size);
                            MmapBackend::fence();
                            unsafe { slot.write_volatile(pool.offset_of(p as *const u8)) };
                            persist(slot);
                        }
                    }
                    progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        // Report progress until the kill.
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let n = progress.load(std::sync::atomic::Ordering::Relaxed);
            writeln!(log, "{n}").unwrap();
            log.sync_data().unwrap();
        }
    });
}

/// Audits the pool after a storm kill: heap verifies, every tracked slot
/// points at a distinct allocated block with the right stamp, and at most
/// `2 × STORM_THREADS` allocated blocks are untracked (in-flight at the
/// kill). Frees the untracked blocks (nothing references them) so leaks do
/// not accumulate across cycles, and returns the pool to a state where the
/// next storm child can continue.
fn storm_validate(pool_path: &Path) {
    let pool = Pool::builder().path(pool_path).open().unwrap();
    assert!(!pool.recovery_report().clean_shutdown);
    let report = pool
        .verify_heap()
        .unwrap_or_else(|e| panic!("pool heap corrupt after SIGKILL storm: {e}"));
    let slots_off = pool.root_offset(STORM_ROOT).unwrap();
    let total_slots = STORM_THREADS * STORM_SLOTS;

    // Collect tracked offsets; check uniqueness (a block in two slots would
    // mean the allocator handed one block out twice).
    let mut tracked = std::collections::BTreeMap::new();
    for idx in 0..total_slots {
        let off = unsafe { (pool.at(slots_off) as *const u64).add(idx).read() };
        if off != 0 {
            if let Some(prev) = tracked.insert(off, idx) {
                panic!("block {off:#x} tracked by slots {prev} and {idx}");
            }
        }
    }
    // Every tracked block is live, stamped with its slot index.
    let live: std::collections::BTreeMap<u64, u64> = report
        .live
        .iter()
        .map(|&(block, payload)| (block + 16, payload))
        .collect();
    for (&off, &idx) in &tracked {
        let payload = live.get(&off).unwrap_or_else(|| {
            panic!("slot {idx} references {off:#x}, which is not an allocated block")
        });
        let first = unsafe { (pool.at(off) as *const u64).read() };
        assert_eq!(first, idx as u64, "block {off:#x} stamped for the wrong slot");
        assert!(*payload >= 24, "block {off:#x} smaller than any storm alloc");
    }
    // The slot array itself is one allocated block; anything else untracked
    // was in flight at the kill — bounded by 2 per thread per kill. Free
    // the strays so leakage does not accumulate across kill cycles.
    let mut strays = Vec::new();
    for &off in live.keys() {
        if off != slots_off && !tracked.contains_key(&off) {
            strays.push(off);
        }
    }
    assert!(
        !tracked.is_empty(),
        "storm audit is vacuous: no slot held a block at the kill"
    );
    assert!(
        strays.len() <= 2 * STORM_THREADS,
        "{} untracked live blocks — more than {} in-flight ops can explain",
        strays.len(),
        2 * STORM_THREADS
    );
    for off in strays {
        unsafe { pool.dealloc(pool.at(off)) };
    }
    // The recovered allocator must be fully usable: drain-and-restore one
    // block per class size without tripping any header invariant.
    for size in [16usize, 100, 1000, 5000, 70_000] {
        let p = pool.alloc(size, 8).unwrap();
        unsafe { pool.dealloc(p) };
    }
    pool.verify_heap().unwrap();
    drop(pool);
}

#[test]
fn sigkill_mid_alloc_storm_recovers() {
    let dir = std::env::temp_dir();
    let pool_path = dir.join(format!("nvt-storm-{}.pool", std::process::id()));
    let log_path = dir.join(format!("nvt-storm-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&pool_path);
    let _ = std::fs::remove_file(&log_path);

    // Create the pool and the persistent slot array.
    {
        let pool = Pool::builder().path(&pool_path).capacity(64 << 20).create().unwrap();
        let total = STORM_THREADS * STORM_SLOTS;
        let slots = pool.alloc(total * 8, 8).unwrap();
        unsafe { std::ptr::write_bytes(slots, 0, total * 8) };
        MmapBackend::flush_range(slots, total * 8);
        MmapBackend::fence();
        pool.set_root_offset(STORM_ROOT, pool.offset_of(slots)).unwrap();
    }

    for _cycle in 0..2 {
        // Fresh progress log per cycle: the child's op counter restarts at
        // zero, so a stale line from the previous cycle would satisfy (or
        // double) the threshold.
        let _ = std::fs::remove_file(&log_path);
        let exe = std::env::current_exe().unwrap();
        let (stderr_path, stderr) = child_stderr(&log_path);
        let mut child = std::process::Command::new(exe)
            .args(["--exact", "alloc_storm_child_entry", "--test-threads=1", "--nocapture"])
            .env("NVT_STORM_CHILD", "1")
            .env("NVT_POOL", &pool_path)
            .env("NVT_LOG", &log_path)
            .stdout(std::process::Stdio::null())
            .stderr(stderr)
            .spawn()
            .unwrap();
        // Wait until the threads have collectively done enough ops.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let ops: u64 = std::fs::read_to_string(&log_path)
                .unwrap_or_default()
                .lines()
                .rev()
                .find_map(|l| l.trim().parse().ok())
                .unwrap_or(0);
            if ops >= 100_000 {
                break;
            }
            if let Some(status) = child.try_wait().unwrap() {
                panic!(
                    "storm child exited on its own: {status:?}; its stderr ends:\n{}",
                    stderr_tail(&stderr_path)
                );
            }
            assert!(Instant::now() < deadline, "storm child too slow: {ops} ops");
            std::thread::sleep(Duration::from_millis(10));
        }
        child.kill().unwrap();
        child.wait().unwrap();
        let _ = std::fs::remove_file(&stderr_path);
        storm_validate(&pool_path);
    }

    std::fs::remove_file(&pool_path).unwrap();
    std::fs::remove_file(&log_path).unwrap();
}
