//! Cross-crate integration: every structure under every policy through the
//! shared [`DurableSet`] surface, trait objects, shared collectors, and the
//! prelude aliases — the way a downstream user would consume the library.

use nvtraverse::policy::{Durability, Izraelevitz, LinkPersist, NvTraverse, Volatile};
use nvtraverse::DurableSet;
use nvtraverse_ebr::Collector;
use nvtraverse_onefile::{TmBst, TmList};
use nvtraverse_pmem::{Clwb, ClflushSync, Noop};
use nvtraverse_structures::ellen_bst::EllenBst;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::nm_bst::NmBst;
use nvtraverse_structures::prelude::*;
use nvtraverse_structures::skiplist::SkipList;

/// One workout applied through the trait, policy- and structure-agnostic.
fn workout(s: &dyn DurableSet<u64, u64>) {
    for k in 0..100u64 {
        assert!(s.insert(k, k * 7), "insert({k})");
    }
    for k in 0..100u64 {
        assert!(!s.insert(k, 0), "duplicate insert({k}) must fail");
        assert_eq!(s.get(k), Some(k * 7), "get({k})");
    }
    for k in (0..100u64).step_by(2) {
        assert!(s.remove(k), "remove({k})");
    }
    for k in 0..100u64 {
        assert_eq!(s.contains(k), k % 2 == 1, "contains({k})");
    }
    assert_eq!(s.len(), 50);
    s.recover(); // recovery on a healthy quiescent structure is a no-op
    assert_eq!(s.len(), 50);
}

fn all_policies_for<F, S>(make: F)
where
    S: DurableSet<u64, u64> + 'static,
    F: Fn() -> S,
{
    workout(&make());
}

#[test]
fn every_structure_every_policy() {
    macro_rules! matrix {
        ($ctor:ident) => {
            all_policies_for(|| $ctor::<u64, u64, Volatile>::new());
            all_policies_for(|| $ctor::<u64, u64, NvTraverse<Clwb>>::new());
            all_policies_for(|| $ctor::<u64, u64, NvTraverse<ClflushSync>>::new());
            all_policies_for(|| $ctor::<u64, u64, Izraelevitz<Noop>>::new());
            all_policies_for(|| $ctor::<u64, u64, LinkPersist<Clwb>>::new());
        };
    }
    matrix!(HarrisList);
    matrix!(EllenBst);
    matrix!(NmBst);
    matrix!(SkipList);
    all_policies_for(|| HashMapDs::<u64, u64, Volatile>::new(16));
    all_policies_for(|| HashMapDs::<u64, u64, NvTraverse<Clwb>>::new(16));
    all_policies_for(|| HashMapDs::<u64, u64, Izraelevitz<Noop>>::new(16));
    all_policies_for(|| HashMapDs::<u64, u64, LinkPersist<Clwb>>::new(16));
}

#[test]
fn ptm_structures_through_the_same_trait() {
    workout(&TmList::<u64, u64, Clwb>::new());
    workout(&TmBst::<u64, u64, Clwb>::new());
}

#[test]
fn prelude_aliases_compile_and_work() {
    workout(&DurableList::<u64, u64>::new());
    workout(&DurableHashMap::<u64, u64>::new(8));
    workout(&DurableEllenBst::<u64, u64>::new());
    let q = DurableQueue::<u64>::new();
    q.enqueue(1);
    assert_eq!(q.dequeue(), Some(1));
}

#[test]
fn heterogeneous_trait_objects() {
    let sets: Vec<Box<dyn DurableSet<u64, u64>>> = vec![
        Box::new(DurableList::<u64, u64>::new()),
        Box::new(DurableHashMap::<u64, u64>::new(8)),
        Box::new(DurableEllenBst::<u64, u64>::new()),
        Box::new(NmBst::<u64, u64, NvTraverse<Clwb>>::new()),
        Box::new(SkipList::<u64, u64, NvTraverse<Clwb>>::new()),
        Box::new(TmList::<u64, u64, Clwb>::new()),
    ];
    for s in &sets {
        assert!(s.insert(1, 10));
        assert_eq!(s.get(1), Some(10));
    }
}

#[test]
fn structures_can_share_one_collector() {
    let collector = Collector::new();
    let list = HarrisList::<u64, u64, NvTraverse<Clwb>>::with_collector(collector.clone());
    let tree = EllenBst::<u64, u64, NvTraverse<Clwb>>::with_collector(collector.clone());
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..500u64 {
                list.insert(k, k);
                list.remove(k);
            }
        });
        s.spawn(|| {
            for k in 0..500u64 {
                tree.insert(k, k);
                tree.remove(k);
            }
        });
    });
    assert!(list.is_empty());
    assert!(tree.is_empty());
    collector.synchronize();
}

#[test]
fn signed_key_structures_cross_check() {
    fn check<S: DurableSet<i64, u64>>(s: S) {
        for k in [-100i64, -1, 0, 1, 100] {
            assert!(s.insert(k, (k.unsigned_abs()) + 1));
        }
        assert_eq!(s.get(-100), Some(101));
        assert!(s.remove(-1));
        assert_eq!(s.len(), 4);
    }
    check(HarrisList::<i64, u64, NvTraverse<Clwb>>::new());
    check(EllenBst::<i64, u64, NvTraverse<Clwb>>::new());
    check(NmBst::<i64, u64, NvTraverse<Clwb>>::new());
    check(SkipList::<i64, u64, NvTraverse<Clwb>>::new());
    check(HashMapDs::<i64, u64, NvTraverse<Clwb>>::new(8));
}

#[test]
fn the_generic_driver_is_policy_agnostic() {
    // The same TraversalOps implementation must behave identically across
    // policies on a fixed op sequence.
    fn trace<D: Durability>() -> Vec<(u64, Option<u64>)> {
        let l: HarrisList<u64, u64, D> = HarrisList::new();
        let mut out = Vec::new();
        for k in [5u64, 3, 9, 3, 5] {
            l.insert(k, k + 1);
        }
        l.remove(3);
        for k in 0..10u64 {
            out.push((k, l.get(k)));
        }
        out
    }
    let reference = trace::<Volatile>();
    assert_eq!(trace::<NvTraverse<Clwb>>(), reference);
    assert_eq!(trace::<Izraelevitz<Noop>>(), reference);
    assert_eq!(trace::<LinkPersist<Clwb>>(), reference);
}
