//! Harris's sorted chain, written once.
//!
//! [`HarrisList`](crate::list::HarrisList) (durable links),
//! [`SoftList`](crate::soft_list::SoftList) (volatile links over sealed
//! headers) and the bottom level of [`SkipList`](crate::skiplist::SkipList)
//! each keep their data in a Harris sorted chain: deletion marks the
//! victim's link, then swings its predecessor past it. "Efficient Lock-Free
//! Durable Sets" presents link-free and SOFT as two disciplines over one
//! Harris skeleton; this module is that skeleton — the window walk
//! ([`traverse`]), `deleteMarkedNodes` ([`trim`]), recovery's marked-run
//! [`disconnect`], the one quiescent [`walk`], the [`teardown`] walk and
//! the [`allocating`] bracket — generic over the node
//! ([`ChainNode`]) and the policy, and monomorphised into each caller. Each
//! structure keeps only what its discipline decides: node layout and
//! allocation, the linearizing write, the Protocol-1 fields, recovery
//! policy and tracing.
//!
//! Node pointers passed in are live nodes of one chain: read under an EBR
//! guard the caller still holds, or, where a function says so, on a
//! quiescent chain (recovery, inspection, exclusive teardown).

use nvtraverse::alloc::{clear_pool_full, pool_full_seen, PoolCtx};
use nvtraverse::detect::OpError;
use nvtraverse::marked::MarkedPtr;
use nvtraverse::policy::Durability;
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{Backend, PCell, Word, POISON};
use std::ops::ControlFlow;

/// Where a chain node keeps its key, its value and its chain link: their
/// byte offsets in the node (`std::mem::offset_of!`), read through the
/// `#[inline]` accessors.
///
/// # Safety
///
/// In every node, each offset names a cell of the accessor's type inside
/// the node's own allocation. `KEY` and `VALUE` name words written before
/// the node is linked and never again; `NEXT` names the link the chain's
/// deletions mark and swing.
// SAFETY: an implementor vouches for its offsets, per the contract above.
pub unsafe trait ChainNode: Sized {
    /// The key (ordered wherever the chain compares keys).
    type K: Word;
    /// The value.
    type V: Word;
    /// The backend the cells flush through.
    type B: Backend;
    /// Offset of the key cell.
    const KEY: usize;
    /// Offset of the value cell.
    const VALUE: usize;
    /// Offset of the chain link: successor pointer plus the deletion mark.
    const NEXT: usize;

    /// The key cell.
    ///
    /// # Safety
    /// `node` is live for `'a`.
    #[inline]
    unsafe fn key<'a>(node: *mut Self) -> &'a PCell<Self::K, Self::B> {
        // SAFETY: `node` is live (the caller's contract) and `KEY` names its key cell (the trait's).
        unsafe { &*node.cast::<u8>().add(Self::KEY).cast() }
    }

    /// The value cell.
    ///
    /// # Safety
    /// `node` is live for `'a`.
    #[inline]
    unsafe fn value<'a>(node: *mut Self) -> &'a PCell<Self::V, Self::B> {
        // SAFETY: as for `key`, with `VALUE`.
        unsafe { &*node.cast::<u8>().add(Self::VALUE).cast() }
    }

    /// The chain link.
    ///
    /// # Safety
    /// `node` is live for `'a`.
    #[inline]
    unsafe fn next<'a>(node: *mut Self) -> &'a PCell<MarkedPtr<Self>, Self::B> {
        // SAFETY: as for `key`, with `NEXT`.
        unsafe { &*node.cast::<u8>().add(Self::NEXT).cast() }
    }
}

/// The traversal window (paper §3.1): `left`, `right`, and enough to trim
/// the marked run between them.
#[derive(Debug)]
pub struct Window<N> {
    /// The node whose link reached `left` (its current parent, for the
    /// Lemma 4.1 `ensureReachable`).
    pub(crate) left_parent: *mut N,
    /// Last unmarked node whose key is before the search point (or base).
    pub(crate) left: *mut N,
    /// The word read from `left`'s link when `left` was selected; its
    /// pointer is the first node of the marked run (or `right` itself).
    pub(crate) left_succ: MarkedPtr<N>,
    /// First unmarked node after `left` whose key is not; null = the end.
    pub(crate) right: *mut N,
}

impl<N: ChainNode<K: Ord>> Window<N> {
    /// Whether `right` holds exactly `key`: the search hit.
    #[inline]
    pub(crate) fn hit<D: Durability<B = N::B>>(&self, key: N::K) -> bool {
        // SAFETY: `right` was read under the caller's guard (module contract).
        !self.right.is_null() && D::load_fixed(unsafe { N::key(self.right) }) == key
    }

    /// `right`'s value; only after a [`hit`](Self::hit).
    #[inline]
    pub(crate) fn value<D: Durability<B = N::B>>(&self) -> N::V {
        // SAFETY: as in `hit`; a hit means `right` is non-null.
        D::load_fixed(unsafe { N::value(self.right) })
    }
}

/// Harris's window walk from `base` while the keys are `before` the search
/// point: with `|k| k < key`, `right` is the first live node with key ≥
/// `key`; with `|_| false`, the chain's first live node. `base` is a node
/// before the search point — `head` itself, or a shortcut entry (the
/// skiplist's tower descent). A `base` found marked, deleted since the
/// shortcut was taken, is replaced by `head`, the never-marked sentinel: a
/// marked node must never become `left`, or trim would CAS its frozen link,
/// resurrecting it and splicing live nodes out. Every link is read through
/// the policy's traversal load; nothing is written.
#[inline]
pub(crate) fn traverse<N: ChainNode, D: Durability<B = N::B>>(
    head: *mut N,
    base: *mut N,
    before: impl Fn(N::K) -> bool,
) -> Window<N> {
    // SAFETY: every node reached hangs off a live link read under the caller's guard; retired nodes are not freed until every guard from before the retire drops.
    unsafe {
        let mut base = base;
        let mut succ = D::t_load_link(N::next(base));
        if succ.is_marked() {
            base = head;
            succ = D::t_load_link(N::next(base));
        }
        let mut w = Window {
            left_parent: base,
            left: base,
            left_succ: succ,
            right: std::ptr::null_mut(),
        };
        let (mut pred, mut curr) = (base, base);
        loop {
            if !succ.is_marked() {
                if curr != base && !before(D::load_fixed(N::key(curr))) {
                    break;
                }
                // `curr` is unmarked and before the search point: new left.
                w.left_parent = pred;
                w.left = curr;
                w.left_succ = succ;
            }
            pred = curr;
            curr = succ.ptr();
            if curr.is_null() {
                break;
            }
            succ = D::t_load_link(N::next(curr));
        }
        w.right = curr;
        w
    }
}

/// `deleteMarkedNodes` (Algorithm 4, lines 40–57): swing `w.left` past the
/// marked run to `w.right` with the unique disconnection CAS (Property 5),
/// handing each disconnected node to `retire`. The skiplist passes `None`:
/// each of its nodes is retired by its deleter once it is off every level,
/// so its trimmer neither retires nor walks the run.
///
/// `false` means the caller must re-traverse: the CAS lost, or `right` got
/// marked meanwhile (lines 50–53).
pub(crate) fn trim<N: ChainNode, D: Durability<B = N::B>, R: FnMut(*mut N)>(
    w: &Window<N>,
    retire: Option<R>,
) -> bool {
    if w.left_succ.ptr() == w.right {
        // Left and right are already adjacent.
        return true;
    }
    // SAFETY: the window's nodes were read under the caller's guard (module contract); a disconnected node is only read, never freed, here.
    unsafe {
        if D::c_cas_link(N::next(w.left), w.left_succ, MarkedPtr::new(w.right)).is_err() {
            return false;
        }
        if let Some(mut retire) = retire {
            // The run [left_succ .. right) is now unreachable and every
            // node in it is marked (frozen), so plain loads suffice.
            let mut cur = w.left_succ.ptr();
            while !cur.is_null() && cur != w.right {
                // nvt-lint: allow(raw-pcell-access): reading the frozen (marked) run just trimmed; plain loads suffice
                let nxt = N::next(cur).load();
                debug_assert!(nxt.is_marked(), "trimmed an unmarked node");
                retire(cur);
                cur = nxt.ptr();
            }
        }
        w.right.is_null() || !D::c_load_link(N::next(w.right)).is_marked()
    }
}

/// Recovery's `disconnect(root)` (Supplement 1) as one walk from `head`:
/// behind each live node, the run of marked nodes is disconnected with the
/// policy's CAS (the unique legal disconnection, Property 5) and handed to
/// `retire` node by node; then `live` sees the next live node, in chain
/// order (the skiplist threads its towers there). A lost CAS — a concurrent
/// trim, which Supplement 1 allows — rescans from the same node.
pub(crate) fn disconnect<N: ChainNode, D: Durability<B = N::B>>(
    head: *mut N,
    mut retire: impl FnMut(*mut N),
    mut live: impl FnMut(*mut N),
) {
    let mut pred = head;
    // SAFETY: recovery runs on a quiescent chain, or under the caller's guard beside concurrent trims; every pointer comes from a link of the chain.
    unsafe {
        loop {
            // Raw loads: the link-and-persist dirty bit is stripped before
            // the word becomes a CAS expectation.
            // nvt-lint: begin-allow(raw-pcell-access): recovery reads raw bits (marks, the dirty bit) by design
            let start = N::next(pred).load().without_dirty();
            debug_assert!(!start.is_marked(), "predecessor must be unmarked");
            let mut cur = start.ptr();
            while !cur.is_null() {
                let nw = N::next(cur).load();
                if !nw.is_marked() {
                    break;
                }
                cur = nw.ptr();
            }
            if cur != start.ptr() {
                if D::c_cas_link(N::next(pred), start, MarkedPtr::new(cur)).is_err() {
                    continue;
                }
                let mut dead = start.ptr();
                while !dead.is_null() && dead != cur {
                    let nxt = N::next(dead).load().ptr();
                    // nvt-lint: end-allow(raw-pcell-access)
                    retire(dead);
                    dead = nxt;
                }
            }
            if cur.is_null() {
                break;
            }
            live(cur);
            pred = cur;
        }
    }
}

/// The one quiescent walk: `visit(node, marked)` on every node linked
/// behind `head`, in chain order, until `visit` breaks — its value is
/// returned — or the chain ends.
pub(crate) fn walk<N: ChainNode, T>(
    head: *mut N,
    mut visit: impl FnMut(*mut N, bool) -> ControlFlow<T>,
) -> Option<T> {
    // SAFETY: quiescent (module contract): every link read names a live node.
    unsafe {
        // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
        let mut cur = N::next(head).load().ptr();
        while !cur.is_null() {
            let nw = N::next(cur).load();
            // nvt-lint: end-allow(raw-pcell-access)
            if let ControlFlow::Break(found) = visit(cur, nw.is_marked()) {
                return Some(found);
            }
            cur = nw.ptr();
        }
    }
    None
}

/// Quiescent: the number of live (unmarked) nodes behind `head`.
pub(crate) fn len<N: ChainNode>(head: *mut N) -> usize {
    let mut n = 0;
    walk::<N, ()>(head, |_, marked| {
        n += usize::from(!marked);
        ControlFlow::Continue(())
    });
    n
}

/// Quiescent: the live `(key, value)` pairs, in key order.
pub(crate) fn snapshot<N: ChainNode>(head: *mut N) -> Vec<(N::K, N::V)> {
    let mut out = Vec::new();
    walk::<N, ()>(head, |n, marked| {
        if !marked {
            // SAFETY: quiescent; `n` is a linked node.
            // nvt-lint: allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            out.push(unsafe { (N::key(n).load(), N::value(n).load()) });
        }
        ControlFlow::Continue(())
    });
    out
}

/// Quiescent: verifies the chain's invariants — keys strictly increasing,
/// no reachable marked node unless `allow_marked` (it is false right after
/// recovery), and `node_ok` on every live node (SOFT's sealed header) —
/// returning the number of live nodes, or a description of the first
/// violation.
pub(crate) fn check<N: ChainNode<K: Ord>>(
    head: *mut N,
    allow_marked: bool,
    mut node_ok: impl FnMut(*mut N) -> Result<(), String>,
) -> Result<usize, String> {
    let mut live = 0;
    let mut last: Option<N::K> = None;
    let broken = walk(head, |n, marked| {
        if marked {
            return match allow_marked {
                true => ControlFlow::Continue(()),
                false => ControlFlow::Break("reachable marked node after recovery".into()),
            };
        }
        if let Err(e) = node_ok(n) {
            return ControlFlow::Break(e);
        }
        // SAFETY: quiescent; `n` is a linked node.
        // nvt-lint: allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
        let k = unsafe { N::key(n).load() };
        if last.is_some_and(|prev| prev >= k) {
            return ControlFlow::Break("keys not strictly increasing".into());
        }
        last = Some(k);
        live += 1;
        ControlFlow::Continue(())
    });
    broken.map_or(Ok(live), Err)
}

/// Teardown with exclusive access: `free` on every node from `head` on, the
/// sentinel included, marked or not. A link poisoned by an unrecovered
/// simulated crash ends the walk and the tail leaks, as it would on a
/// persistent heap.
pub(crate) fn teardown<N: ChainNode>(head: *mut N, mut free: impl FnMut(*mut N)) {
    let mut cur = head;
    while !cur.is_null() {
        // SAFETY: exclusive access; `cur` is not freed until its link is read.
        // nvt-lint: allow(raw-pcell-access): teardown owns the structure exclusively; raw bits so a poisoned link ends the walk
        let bits = unsafe { N::next(cur).peek_bits() };
        free(cur);
        cur = if bits == POISON {
            std::ptr::null_mut()
        } else {
            MarkedPtr::<N>::from_bits_raw(bits).ptr()
        };
    }
}

/// The bracket of an operation that may allocate: enter the structure's
/// allocation context, pin, clear the pool-full flag and run `op`. A pool
/// that ran out during `op` (the critical section then changed nothing)
/// surfaces as [`OpError::PoolFull`].
#[inline]
pub(crate) fn allocating<T>(
    ctx: &PoolCtx,
    collector: &Collector,
    op: impl FnOnce(&Guard) -> T,
) -> Result<T, OpError> {
    let _scope = ctx.enter();
    let guard = collector.pin();
    clear_pool_full();
    let out = op(&guard);
    if pool_full_seen() {
        return Err(OpError::PoolFull);
    }
    Ok(out)
}
