//! Graceful degradation on pool exhaustion: a structure whose tiny pool
//! runs out of blocks must surface a recoverable [`OpError::PoolFull`] —
//! never a panic, never a silent volatile fallback — bump the pool's
//! `pool_full` obs counter, and stay fully usable for reads and removes
//! afterwards. One body runs over every sorted-chain structure (the Harris
//! list, the SOFT list and table, the skiplist); the Harris list also keeps
//! its detectable operations working.

mod common;

use common::create_pooled;
use nvtraverse::detect::{DetectablePool, OpError};
use nvtraverse::policy::{NvTraverse, Soft};
use nvtraverse::pool::MIN_CAPACITY;
use nvtraverse::{DurableSet, PoolAttach, PoolTrace, PooledHandle};
use nvtraverse_obs as obs;
use nvtraverse_pmem::MmapBackend;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::soft_hash::SoftHash;
use nvtraverse_structures::soft_list::SoftList;
use std::path::PathBuf;

/// The smallest pool `Pool::builder` accepts, holding `S` as root `"full"`:
/// headers and roots eat most of it, so a structure exhausts it within a
/// few hundred inserts.
fn tiny_pool<S: PoolAttach + PoolTrace>(tag: &str) -> (PooledHandle<S>, PathBuf) {
    let path = std::env::temp_dir().join(format!("nvt-poolfull-{tag}-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    (create_pooled::<S>(&path, MIN_CAPACITY, "full").unwrap(), path)
}

/// The shared body: inserts fresh keys until the pool refuses one, then
/// checks that the refusal was recoverable, counted, and changed nothing.
/// Returns how many keys fit.
fn exhaust<S: PoolAttach + PoolTrace + DurableSet<u64, u64>>(set: &PooledHandle<S>) -> u64 {
    let before = set.pool().metrics().snapshot();
    let mut inserted = 0u64;
    let full_at = loop {
        match set.try_insert(inserted, inserted * 10) {
            Ok(fresh) => {
                assert!(fresh, "keys are unique");
                inserted += 1;
                assert!(inserted < 100_000, "tiny pool never filled up");
            }
            Err(OpError::PoolFull) => break inserted,
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    assert!(full_at > 0, "not even one insert fit");

    // The refusal was observed and attributed to this pool.
    let after = set.pool().metrics().snapshot();
    assert!(
        after.counter(obs::Counter::PoolFull) > before.counter(obs::Counter::PoolFull),
        "pool_full counter did not move"
    );

    // The structure survives the refusal: everything inserted is intact...
    for k in 0..full_at {
        assert_eq!(set.get(k), Some(k * 10), "key {k} lost after pool-full");
    }
    assert_eq!(set.len() as u64, full_at);
    // ...further full inserts keep failing recoverably (not panicking)...
    assert_eq!(set.try_insert(u64::MAX - 1, 1), Err(OpError::PoolFull));
    assert_eq!(set.get(u64::MAX - 1), None);
    // ...and removes still work (they allocate nothing).
    assert!(set.remove(0));
    assert_eq!(set.get(0), None);
    full_at
}

#[test]
fn tiny_pool_exhaustion_is_recoverable() {
    let (list, path) = tiny_pool::<HarrisList<u64, u64, NvTraverse<MmapBackend>>>("harris");
    // Register the detectable slot while blocks are still free (the
    // descriptor table itself needs an allocation).
    let mut tok = list.pool().op_token().unwrap();
    exhaust(&list);

    // The detectable path degrades the same way: arming uses the
    // pre-registered descriptor slot, so exhaustion still reports PoolFull
    // without burning the sequence number on a panic.
    assert_eq!(
        list.insert_detectable(&mut tok, u64::MAX - 2, 1),
        Err(OpError::PoolFull)
    );
    // A detectable remove allocates nothing and must still succeed.
    let (_, hit) = list.remove_detectable(&mut tok, 1).unwrap();
    assert!(hit);

    list.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// The body, for a structure with no detectable operations.
fn exhaust_and_close<S: PoolAttach + PoolTrace + DurableSet<u64, u64>>(tag: &str) {
    let (set, path) = tiny_pool::<S>(tag);
    exhaust(&set);
    set.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn soft_list_exhaustion_is_recoverable() {
    exhaust_and_close::<SoftList<u64, u64, Soft<MmapBackend>>>("soft-list");
}

#[test]
fn skiplist_exhaustion_is_recoverable() {
    exhaust_and_close::<SkipList<u64, u64, NvTraverse<MmapBackend>>>("skiplist");
}

#[test]
fn soft_hash_exhaustion_is_recoverable() {
    exhaust_and_close::<SoftHash<u64, u64, Soft<MmapBackend>>>("soft-hash");
}
