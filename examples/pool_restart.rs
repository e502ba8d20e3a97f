//! Data surviving a full process exit, via the persistent pool — for three
//! differently-shaped structures sharing one pool file.
//!
//! Run it twice (same default pool path):
//!
//! ```text
//! $ cargo run --example pool_restart
//! created pool …: list 0..32, queue 0..16, skiplist 0..64
//! $ cargo run --example pool_restart
//! reopened pool …: all three structures recovered and verified
//! ```
//!
//! The first run creates a pool file and builds three durably linearizable
//! structures inside it — a Harris list, an MS queue, and a skiplist — each
//! a first-class typed root (`pool.create_root::<S>("name")`), then exits
//! without any serialization step. The second run reopens the file and asks
//! for all three roots back by name and type in one call
//! (`pool.open_roots::<(A, B, C)>([…])` = lookup → collect → attach →
//! `recover()`): the list checks inserts *and* removes, the queue checks
//! FIFO contents and that the rebuilt tail shortcut appends at the real
//! end, the skiplist checks lookups through its freshly rebuilt towers.
//!
//! Each run after the first also prints which path the open took: `sealed`
//! when the previous run closed cleanly and left a summary (no heap walk,
//! nothing to collect), `walked` after a crash — kill the second run with
//! SIGKILL between open and close to see one.
//!
//! Pass a path argument to choose the pool file; pass `--reset` to delete it
//! first.

use nvtraverse_suite::core::policy::NvTraverse;
use nvtraverse_suite::core::pool::Pool;
use nvtraverse_suite::core::{DurableSet, TypedRoots};
use nvtraverse_suite::pmem::MmapBackend;
use nvtraverse_suite::structures::list::HarrisList;
use nvtraverse_suite::structures::queue::MsQueue;
use nvtraverse_suite::structures::skiplist::SkipList;

type PooledList = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
type PooledQueue = MsQueue<u64, NvTraverse<MmapBackend>>;
type PooledSkip = SkipList<u64, u64, NvTraverse<MmapBackend>>;

const LIST_KEYS: u64 = 32;
const QUEUE_VALS: u64 = 16;
const SKIP_KEYS: u64 = 64;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let reset = args.iter().any(|a| a == "--reset");
    args.retain(|a| a != "--reset");
    let path = args.first().cloned().unwrap_or_else(|| {
        std::env::temp_dir()
            .join("nvtraverse-restart-demo.pool")
            .to_string_lossy()
            .into_owned()
    });
    if reset {
        let _ = std::fs::remove_file(&path);
    }

    if !std::path::Path::new(&path).exists() {
        // ---- first run: create three structures, mutate, exit ----------
        let pool = Pool::builder().path(&path).capacity(8 << 20).create().unwrap();
        let list = pool.create_root::<PooledList>("demo-list").unwrap();
        for k in 0..LIST_KEYS {
            assert!(list.insert(k, k * k));
        }
        // Odd keys are removed again, so the second run can also check
        // that removals are as durable as inserts.
        for k in (1..LIST_KEYS).step_by(2) {
            assert!(list.remove(k));
        }

        // Further structures in the same pool are just further typed
        // roots — each handle guarantees its structure's destructor never
        // runs (the nodes live in the file, not in this process).
        let queue = pool.create_root::<PooledQueue>("demo-queue").unwrap();
        for v in 0..QUEUE_VALS {
            queue.enqueue(v);
        }
        assert_eq!(queue.dequeue(), Some(0)); // 1..16 remain

        let skip = pool.create_root::<PooledSkip>("demo-skip").unwrap();
        for k in 0..SKIP_KEYS {
            assert!(skip.insert(k, k + 1000));
        }

        queue.close().unwrap();
        skip.close().unwrap();
        list.close().unwrap();
        println!(
            "created pool {path}: list keys 0..{LIST_KEYS} (odd ones removed again), \
             queue values 1..{QUEUE_VALS}, skiplist keys 0..{SKIP_KEYS} — \
             run me again to watch them come back from the file"
        );
    } else {
        // ---- second run: reopen, recover each root, verify -------------
        let pool = Pool::builder().path(&path).open().unwrap();
        // The ring's `Open` event names the path this open took.
        let open_path = nvtraverse_suite::obs::ring::recent()
            .into_iter()
            .rev()
            .find(|e| e.kind == nvtraverse_suite::obs::ring::EventKind::Open)
            .map_or("unrecorded", |e| if e.b == 1 { "sealed" } else { "walked" });
        // One call names every root with its type. After a crash it traces
        // all three, sweeps what none reaches, then attaches and recovers
        // each; after a clean close it only attaches.
        let (list, queue, skip) = pool
            .open_roots::<(PooledList, PooledQueue, PooledSkip)>(["demo-list", "demo-queue", "demo-skip"])
            .unwrap();
        let mut recovered = 0;
        for k in 0..LIST_KEYS {
            match list.get(k) {
                Some(v) if k % 2 == 0 => {
                    assert_eq!(v, k * k, "list key {k} came back with the wrong value");
                    recovered += 1;
                }
                None if k % 2 == 1 => {} // durably removed
                other => panic!("list key {k}: unexpected state {other:?}"),
            }
        }

        assert_eq!(queue.iter_snapshot(), (1..QUEUE_VALS).collect::<Vec<_>>());
        queue.enqueue(99); // the rebuilt tail must append at the real end
        assert_eq!(*queue.iter_snapshot().last().unwrap(), 99);
        // Restore the canonical contents so the example can be re-run any
        // number of times (drain everything, re-enqueue 1..QUEUE_VALS).
        let drained = queue.drain_to_vec();
        assert_eq!(drained.last(), Some(&99), "FIFO order lost");
        for v in 1..QUEUE_VALS {
            queue.enqueue(v);
        }

        for k in 0..SKIP_KEYS {
            assert_eq!(skip.get(k), Some(k + 1000), "skiplist key {k} lost");
        }
        let report = pool.recovery_report();

        println!(
            "reopened pool {path} (open path: {open_path}): {recovered} list keys, \
             {} queued values, {} skiplist keys ({} live blocks, clean_shutdown={}, \
             sealed={}, gc_ran={}, gc reclaimed {} blocks / {} bytes in {} µs) — all verified",
            queue.len(),
            skip.len(),
            report.live_blocks,
            report.clean_shutdown,
            report.sealed,
            report.gc_ran,
            report.reclaimed_blocks,
            report.reclaimed_bytes,
            report.gc_nanos / 1_000,
        );
        println!("delete it (or pass --reset) to start over");
        queue.close().unwrap();
        skip.close().unwrap();
        list.close().unwrap();
    }
}
