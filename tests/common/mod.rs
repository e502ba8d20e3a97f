//! Shared crash-test harness.
#![allow(dead_code)] // each test binary uses a different subset

//!
//! Implements the validation strategy described in DESIGN.md: run a
//! deterministic workload against a structure on the simulated NVRAM, crash
//! it at an injected step, roll back to persisted state, run the structure's
//! recovery, and check **durable linearizability** key by key
//! (`nvtraverse::model::key_verdict`), plus structural invariants, plus
//! post-recovery usability.

use nvtraverse::model::{key_verdict, MutOp};
use nvtraverse::DurableSet;
use nvtraverse_pmem::sim::{run_crashable, SimHandle};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// A deterministic workload step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `insert(key, value)`.
    Insert(u64, u64),
    /// `remove(key)`.
    Remove(u64),
    /// `get(key)`.
    Get(u64),
}

impl Step {
    pub fn key(&self) -> u64 {
        match *self {
            Step::Insert(k, _) | Step::Remove(k) | Step::Get(k) => k,
        }
    }
}

/// Outcome counters, so callers can sanity-check coverage.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrashStats {
    pub crash_points: usize,
    pub crashed_runs: usize,
    pub poisoned_cells_total: usize,
}

/// Runs `workload` to completion once to learn the step span, then replays
/// it with a crash injected at every selected step (exhaustively when the
/// span is small, evenly sampled otherwise), validating after each crash.
///
/// `factory` must build the structure with a `Sim`-backed policy. A
/// leaking collector gives the purest sweep (no block reuse between crash
/// points); a reclaiming collector additionally stresses the
/// free/rollback interactions (the structure must fence tombstones before
/// blocks reach the allocator). `check` is the structure's own invariant
/// checker (e.g. `check_consistency(false)` after recovery).
///
/// # Panics
///
/// Panics (failing the test) on any durable-linearizability violation,
/// invariant violation, or poison read.
pub fn exhaustive_crash_test<S, F, C>(
    factory: F,
    prefill: &[(u64, u64)],
    workload: &[Step],
    max_points: usize,
    check: C,
) -> CrashStats
where
    S: DurableSet<u64, u64>,
    F: Fn() -> S,
    C: Fn(&S) -> Result<usize, String>,
{
    // Pass 1: learn the deterministic step span of prefill and workload.
    let (steps_before, steps_total) = {
        let sim = SimHandle::new();
        let guard = sim.enter();
        let s = factory();
        for &(k, v) in prefill {
            s.insert(k, v);
        }
        let before = sim.steps();
        for op in workload {
            match *op {
                Step::Insert(k, v) => {
                    s.insert(k, v);
                }
                Step::Remove(k) => {
                    s.remove(k);
                }
                Step::Get(k) => {
                    s.get(k);
                }
            }
        }
        let total = sim.steps();
        drop(s);
        drop(guard);
        (before, total)
    };
    assert!(steps_total > steps_before, "workload performed no sim steps");

    let span = steps_total - steps_before;
    let points: Vec<u64> = if span as usize <= max_points {
        (steps_before + 1..=steps_total + 1).collect()
    } else {
        let stride = span as f64 / max_points as f64;
        (0..max_points)
            .map(|i| steps_before + 1 + (i as f64 * stride) as u64)
            .chain(std::iter::once(steps_total + 1))
            .collect()
    };

    let mut stats = CrashStats {
        crash_points: points.len(),
        ..Default::default()
    };
    for &crash_at in &points {
        let (crashed, poisoned) =
            run_one_crash(&factory, prefill, workload, crash_at, &check);
        stats.crashed_runs += crashed as usize;
        stats.poisoned_cells_total += poisoned;
    }
    stats
}

/// One crash-at-step run; returns (did it crash, poisoned cell count).
fn run_one_crash<S, F, C>(
    factory: &F,
    prefill: &[(u64, u64)],
    workload: &[Step],
    crash_at: u64,
    check: &C,
) -> (bool, usize)
where
    S: DurableSet<u64, u64>,
    F: Fn() -> S,
    C: Fn(&S) -> Result<usize, String>,
{
    let sim = SimHandle::new();
    let guard = sim.enter();
    let s = factory();
    for &(k, v) in prefill {
        s.insert(k, v);
    }
    let completed: RefCell<Vec<MutOp>> = RefCell::new(Vec::new());
    let in_flight: Cell<Option<MutOp>> = Cell::new(None);

    sim.arm_crash_at_step(crash_at);
    let result = run_crashable(|| {
        for op in workload {
            match *op {
                Step::Insert(k, v) => {
                    in_flight.set(Some(MutOp::Insert {
                        key: k,
                        succeeded: false,
                    }));
                    let ok = s.insert(k, v);
                    completed.borrow_mut().push(MutOp::Insert {
                        key: k,
                        succeeded: ok,
                    });
                }
                Step::Remove(k) => {
                    in_flight.set(Some(MutOp::Remove {
                        key: k,
                        succeeded: false,
                    }));
                    let ok = s.remove(k);
                    completed.borrow_mut().push(MutOp::Remove {
                        key: k,
                        succeeded: ok,
                    });
                }
                Step::Get(k) => {
                    in_flight.set(None);
                    s.get(k);
                }
            }
            in_flight.set(None);
        }
    });
    let crashed = result.is_err();
    if !crashed {
        in_flight.set(None);
        sim.arm_crash_at_step(u64::MAX); // effectively disarm
    }

    // The crash: volatile state reverts to whatever was persisted.
    let report = unsafe { sim.crash_and_rollback() };

    // Recovery, then validation — any panic in here (e.g. a poison read) is
    // a durability bug and must fail the test loudly.
    s.recover();

    check(&s).unwrap_or_else(|e| {
        panic!("invariant violation after crash at step {crash_at}: {e}")
    });

    // Durable linearizability, key by key.
    let completed = completed.into_inner();
    let in_flight = in_flight.get();
    let mut initially: BTreeMap<u64, bool> = BTreeMap::new();
    for &(k, _) in prefill {
        initially.insert(k, true);
    }
    let mut keys: Vec<u64> = prefill.iter().map(|&(k, _)| k).collect();
    keys.extend(workload.iter().map(|op| op.key()));
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        let history: Vec<MutOp> = completed
            .iter()
            .copied()
            .filter(|op| op.key() == k)
            .collect();
        let fl = in_flight.filter(|op| op.key() == k);
        let verdict = key_verdict(initially.get(&k).copied().unwrap_or(false), &history, fl);
        let present = s.contains(k);
        assert!(
            verdict.allows(present),
            "durable linearizability violated for key {k} after crash at step \
             {crash_at}: present={present}, verdict={verdict:?}, \
             history={history:?}, in_flight={fl:?}"
        );
    }

    // The structure must be fully usable after recovery.
    let probe = 0xFFFF_0000u64;
    assert!(s.insert(probe, 1), "post-recovery insert failed");
    assert_eq!(s.get(probe), Some(1), "post-recovery get failed");
    assert!(s.remove(probe), "post-recovery remove failed");

    drop(s);
    drop(guard);
    (crashed, report.poisoned)
}

/// A compact mixed workload over a small key universe: duplicate inserts,
/// removes of absent keys, reinsertion after removal — the interesting
/// transitions.
pub fn standard_workload() -> (Vec<(u64, u64)>, Vec<Step>) {
    let prefill = vec![(2, 20), (4, 40), (6, 60), (8, 80)];
    let workload = vec![
        Step::Insert(1, 11),
        Step::Get(2),
        Step::Remove(4),
        Step::Insert(5, 55),
        Step::Insert(2, 99), // duplicate: must fail and change nothing
        Step::Remove(3),     // absent: must fail
        Step::Remove(2),
        Step::Insert(4, 44), // reinsert a removed key
        Step::Get(5),
        Step::Remove(8),
        Step::Insert(3, 33),
        Step::Remove(1),
    ];
    (prefill, workload)
}

/// `Pool::builder().create()` + typed root in one call — the composition
/// the pool-lifecycle and crash tests repeat constantly. (The returned
/// handle keeps the pool mapped; closing it releases the file.)
#[allow(dead_code)] // not every test binary uses every helper
pub fn create_pooled<S: nvtraverse::PoolTrace>(
    path: impl AsRef<std::path::Path>,
    capacity: u64,
    name: &str,
) -> std::io::Result<nvtraverse::PooledHandle<S>> {
    use nvtraverse::TypedRoots;
    nvtraverse::pool::Pool::builder()
        .path(path)
        .capacity(capacity)
        .create()?
        .create_root::<S>(name)
}

/// `Pool::builder().open()` + typed root in one call.
#[allow(dead_code)]
pub fn open_pooled<S: nvtraverse::PoolTrace>(
    path: impl AsRef<std::path::Path>,
    name: &str,
) -> std::io::Result<nvtraverse::PooledHandle<S>> {
    use nvtraverse::TypedRoots;
    nvtraverse::pool::Pool::builder().path(path).open()?.root::<S>(name)
}

/// The restart-loop form: heal whatever is missing.
#[allow(dead_code)]
pub fn open_or_create_pooled<S: nvtraverse::PoolTrace>(
    path: impl AsRef<std::path::Path>,
    capacity: u64,
    name: &str,
) -> std::io::Result<nvtraverse::PooledHandle<S>> {
    use nvtraverse::TypedRoots;
    nvtraverse::pool::Pool::builder()
        .path(path)
        .capacity(capacity)
        .open_or_create()?
        .root_or_create::<S>(name)
}

/// Clears a closed pool file's clean flag (header byte 40), as a crash
/// leaves it: the next open ignores the sealed summary, walks the heap and
/// runs the recovery collection.
#[allow(dead_code)]
pub fn unseal(path: impl AsRef<std::path::Path>) {
    use std::os::unix::fs::FileExt;
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.write_all_at(&0u64.to_le_bytes(), 40).unwrap();
}
