//! A Michael–Scott queue in traversal form.
//!
//! The paper (§3) notes that traversal data structures capture "not just set
//! data structures, but also queues, stacks, priority queues…" — a queue is
//! a degenerate core tree (a path) with *two* entry points, the head and the
//! tail (§3: "data structures with several entry points, like a queue with a
//! head and a tail, can be traversal data structures as well").
//!
//! Durability follows the same split the paper's DurableQueue ancestor
//! (Friedman et al., PPoPP 2018) uses:
//!
//! * the node chain and the `head` pointer are the persistent core — node
//!   contents are persisted before linking, the link CAS and the head-swing
//!   CAS go through Protocol 2;
//! * the `tail` pointer is a volatile shortcut (an auxiliary entry point):
//!   it is never flushed, and recovery recomputes it by walking from `head`
//!   to the end of the chain.

use nvtraverse::alloc::{alloc_node, free, PoolCtx};
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::PoolAttach;
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{Backend, PCell, Word};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;
use std::marker::PhantomData;

/// A queue node; `value` is immutable, `next` is the persistent link.
#[repr(C)]
pub struct QueueNode<V: Word, B: Backend> {
    value: PCell<V, B>,
    next: PCell<MarkedPtr<QueueNode<V, B>>, B>,
}

impl<V: Word, B: Backend> fmt::Debug for QueueNode<V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("QueueNode")
    }
}

type NodePtr<V, B> = *mut QueueNode<V, B>;

/// The two persistent-root cells plus the volatile tail shortcut.
#[repr(C)]
struct Anchor<V: Word, B: Backend> {
    /// Persistent: points at the current sentinel.
    head: PCell<MarkedPtr<QueueNode<V, B>>, B>,
    /// Volatile shortcut: at or behind the real last node; never flushed.
    tail: PCell<MarkedPtr<QueueNode<V, B>>, B>,
}

/// One queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp<V> {
    /// Append a value at the tail.
    Enqueue(V),
    /// Remove the value at the head.
    Dequeue,
}

/// The traversal window for a queue operation.
#[derive(Debug)]
pub struct QueueWindow<V: Word, B: Backend> {
    /// Enqueue: the last node; dequeue: the current sentinel.
    node: NodePtr<V, B>,
    /// The word read from `node.next` during the traversal.
    next: MarkedPtr<QueueNode<V, B>>,
    /// Whether this window was built for an enqueue.
    enq: bool,
}

/// A lock-free multi-producer multi-consumer FIFO queue.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse_pmem::Clwb;
/// use nvtraverse_structures::queue::MsQueue;
///
/// let q: MsQueue<u64, NvTraverse<Clwb>> = MsQueue::new();
/// q.enqueue(1);
/// q.enqueue(2);
/// assert_eq!(q.dequeue(), Some(1));
/// assert_eq!(q.dequeue(), Some(2));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct MsQueue<V: Word, D: Durability> {
    anchor: *mut Anchor<V, D::B>,
    collector: Collector,
    /// Which heap this structure's nodes come from — its own pool for a
    /// pooled instance, the volatile heap otherwise. Captured at
    /// construction (from the enclosing allocation scope) and re-entered
    /// around every allocating operation, so concurrent structures in
    /// different pools allocate from the right files.
    ctx: PoolCtx,
    _marker: PhantomData<fn() -> D>,
}

// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<V: Word, D: Durability> Send for MsQueue<V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<V: Word, D: Durability> Sync for MsQueue<V, D> {}

impl<V, D> MsQueue<V, D>
where
    V: Word,
    D: Durability,
{
    /// Creates an empty queue (one sentinel node).
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty queue retiring into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        let sentinel = alloc_node::<_, D::B>(QueueNode {
            value: PCell::new(V::from_bits(0)),
            next: PCell::new(MarkedPtr::null()),
        });
        let anchor = alloc_node::<_, D::B>(Anchor {
            head: PCell::new(MarkedPtr::new(sentinel)),
            tail: PCell::new(MarkedPtr::new(sentinel)),
        });
        // The tail shortcut is volatile by design (recomputed by `recover`);
        // tell any vet observer so it is exempt from durability rules.
        // SAFETY: `anchor` was just allocated and is exclusively ours.
        nvtraverse_pmem::sim::current_mark_volatile_range(
            unsafe { (*anchor).tail.addr() as usize },
            8,
        );
        D::persist_new_node(sentinel as *const u8, std::mem::size_of::<QueueNode<V, D::B>>());
        D::persist_new_node(anchor as *const u8, std::mem::size_of::<Anchor<V, D::B>>());
        D::before_return();
        MsQueue {
            anchor,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }

    /// Appends `value` at the tail.
    pub fn enqueue(&self, value: V) {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        let _ = run_operation(self, &guard, QueueOp::Enqueue(value));
    }

    /// Removes and returns the oldest value, or `None` when empty.
    pub fn dequeue(&self) -> Option<V> {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        run_operation(self, &guard, QueueOp::Dequeue)
    }

    /// Quiescent: number of queued values.
    pub fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*(*self.anchor).head.load().ptr()).next.load().ptr();
            while !cur.is_null() {
                n += 1;
                cur = (*cur).next.load().ptr();
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
        n
    }

    /// Quiescent: whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Post-crash recovery: recompute the volatile tail shortcut by walking
    /// the persistent chain from `head` (no marked nodes exist in a queue).
    ///
    /// The walk reads every link through the policy's *critical* load, which
    /// flushes the word (and clears link-and-persist dirty bits): a node
    /// that a crashed enqueue managed to link — whether or not its link CAS
    /// had been flushed at the kill — is thereby durably **adopted** before
    /// any post-restart operation builds on it, and the closing fence makes
    /// the whole chain's reachability persistent at once.
    pub fn recover(&self) {
        if !D::DURABLE {
            return;
        }
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe {
            let mut last = D::c_load_link(&(*self.anchor).head).ptr();
            loop {
                let next = D::c_load_link(&(*last).next);
                if next.is_null() {
                    break;
                }
                last = next.ptr();
            }
            // Volatile store: the shortcut needs no flush.
            // nvt-lint: allow(raw-pcell-access): single-threaded recovery reads raw bits (marks, flags, poison) by design
            (*self.anchor).tail.store(MarkedPtr::new(last));
        }
        D::before_return();
    }

    /// Quiescent: the queued values, oldest first, without dequeuing
    /// (crash-test oracles audit the surviving contents non-destructively).
    pub fn iter_snapshot(&self) -> Vec<V> {
        let mut out = Vec::new();
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*(*self.anchor).head.load().ptr()).next.load().ptr();
            while !cur.is_null() {
                out.push((*cur).value.load());
                cur = (*cur).next.load().ptr();
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
        out
    }

    /// The anchor block (for pool root registration below).
    fn anchor_ptr(&self) -> *mut Anchor<V, D::B> {
        self.anchor
    }

    /// Rebuilds a queue handle around an existing anchor — the attach half
    /// of the pool lifecycle. The caller must run [`MsQueue::recover`]
    /// before any operation: the persisted tail shortcut is stale until the
    /// head walk recomputes it.
    ///
    /// # Safety
    ///
    /// `anchor` must be the anchor of a queue built with the *same* `V`/`D`
    /// parameters, reachable and quiescent, and the caller must not drop two
    /// handles to the same queue (the pooled lifecycle never drops — see
    /// `nvtraverse::PooledHandle`).
    unsafe fn attach_at(anchor: *mut Anchor<V, D::B>, collector: Collector) -> Self {
        MsQueue {
            anchor,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }

    /// Quiescent: drains into a vector (test helper).
    pub fn drain_to_vec(&self) -> Vec<V> {
        let mut out = Vec::new();
        while let Some(v) = self.dequeue() {
            out.push(v);
        }
        out
    }
}

impl<V, D> TraversalOps for MsQueue<V, D>
where
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = QueueOp<V>;
    type Output = Option<V>;
    type Entry = NodePtr<V, D::B>;
    type Window = QueueWindow<V, D::B>;

    fn find_entry(&self, _guard: &Guard, input: Self::Input) -> Self::Entry {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            match input {
                // The tail shortcut is the auxiliary entry point; it may lag.
                // nvt-lint: begin-allow(raw-pcell-access): volatile tail shortcut — never flushed, recomputed on recovery
                QueueOp::Enqueue(_) => (*self.anchor).tail.load().ptr(),
                QueueOp::Dequeue => (*self.anchor).head.load().ptr(),
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            match input {
                QueueOp::Enqueue(_) => {
                    // Walk from the shortcut to the true last node.
                    let mut node = entry;
                    let mut next = D::t_load_link(&(*node).next);
                    while !next.is_null() {
                        node = next.ptr();
                        next = D::t_load_link(&(*node).next);
                    }
                    QueueWindow { node, next, enq: true }
                }
                QueueOp::Dequeue => {
                    let node = entry;
                    let next = D::t_load_link(&(*node).next);
                    QueueWindow { node, next, enq: false }
                }
            }
        }
    }

    fn collect_persist_set(&self, w: &Self::Window, out: &mut PersistSet) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // Dequeue windows hang off the head root cell. An enqueue's
            // window (the last node) is instead reachable through persisted
            // links — every link CAS was flushed when installed — so the
            // head flush would be pure overhead and is skipped (Lemma 4.1).
            if !w.enq {
                out.set_parent((*self.anchor).head.addr());
            }
            out.push((*w.node).next.addr());
        }
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        match input {
            QueueOp::Enqueue(value) => {
                let node = alloc_node::<_, D::B>(QueueNode {
                    value: PCell::new(value),
                    next: PCell::new(MarkedPtr::null()),
                });
                D::persist_new_node(node as *const u8, std::mem::size_of::<QueueNode<V, D::B>>());
                match D::c_cas_link(
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    unsafe { &(*w.node).next },
                    MarkedPtr::null(),
                    MarkedPtr::new(node),
                ) {
                    Ok(()) => {
                        // Advance the volatile shortcut (best effort).
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        unsafe {
                            // nvt-lint: begin-allow(raw-pcell-access): volatile tail shortcut — never flushed, recomputed on recovery
                            let t = (*self.anchor).tail.load();
                            let _ = (*self.anchor)
                                .tail
                                .compare_exchange(t, MarkedPtr::new(node));
                                // nvt-lint: end-allow(raw-pcell-access)
                        }
                        Critical::Done(None)
                    }
                    Err(_) => {
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { free(node) };
                        Critical::Restart
                    }
                }
            }
            QueueOp::Dequeue => {
                if w.next.is_null() {
                    return Critical::Done(None);
                }
                let first = w.next.ptr();
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let value = D::load_fixed(unsafe { &(*first).value });
                match D::c_cas_link(
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    unsafe { &(*self.anchor).head },
                    MarkedPtr::new(w.node),
                    MarkedPtr::new(first),
                ) {
                    Ok(()) => {
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { guard.retire(w.node) };
                        Critical::Done(Some(value))
                    }
                    Err(_) => Critical::Restart,
                }
            }
        }
    }
}

impl<V, D> PoolAttach for MsQueue<V, D>
where
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        let _scope = PoolCtx::of(pool).enter();
        let q = Self::with_collector(Collector::new());
        pool.set_root_ptr_checked(name, q.anchor_ptr())?;
        Ok(q)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let anchor = pool.attach_root_ptr::<Anchor<V, D::B>>(name)?;
        // Entered so `attach_at`'s context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(anchor, Collector::new()) })
    }

    fn recover_attached(&self, _pool: &Pool) {
        self.recover();
    }

    fn collector_of(&self) -> &Collector {
        &self.collector
    }
}

// SAFETY: mirrors `recover`'s adoption walk — the anchor block, then the
// node chain from the durable `head` pointer to the end. The persisted
// `tail` word is a volatile shortcut recovery recomputes without reading
// (it can trail arbitrarily far behind, even pointing at long-dequeued
// nodes), so the trace ignores it; every node recovery or any later
// operation can reach is on the head chain.
// SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
unsafe impl<V, D> nvtraverse::PoolTrace for MsQueue<V, D>
where
    V: Word,
    D: Durability,
{
    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) {
        if !marker.mark(root) {
            return;
        }
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe {
            let anchor = root as *mut Anchor<V, D::B>;
            // nvt-lint: begin-allow(raw-pcell-access): GC tracer follows raw pointers on a quiescent heap
            crate::trace_chains(marker, &mut [(*anchor).head.load().ptr()], |_, n| {
                (*n).next.load().ptr()
                // nvt-lint: end-allow(raw-pcell-access)
            });
        }
    }
}

impl<V: Word, D: Durability> Default for MsQueue<V, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Word, D: Durability> fmt::Debug for MsQueue<V, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsQueue").field("len", &self.len()).finish()
    }
}

impl<V: Word, D: Durability> Drop for MsQueue<V, D> {
    fn drop(&mut self) {
        // Poisoned links (unrecovered crash) end the walk; the tail leaks.
        let teardown = |bits: u64| {
            if bits == nvtraverse_pmem::POISON {
                std::ptr::null_mut()
            } else {
                MarkedPtr::<QueueNode<V, D::B>>::from_bits_raw(bits).ptr()
            }
        };
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): teardown/drop owns the structure exclusively; nothing durable happens after it
            let mut cur = teardown((*self.anchor).head.peek_bits());
            while !cur.is_null() {
                let nxt = teardown((*cur).next.peek_bits());
                // nvt-lint: end-allow(raw-pcell-access)
                free(cur);
                cur = nxt;
            }
            free(self.anchor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::policy::{Izraelevitz, NvTraverse, Volatile};
    use nvtraverse_pmem::{Clwb, Noop};

    fn fifo_smoke<D: Durability>() {
        let q: MsQueue<u64, D> = MsQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.dequeue(), None);
        for v in 0..100u64 {
            q.enqueue(v);
        }
        assert_eq!(q.len(), 100);
        for v in 0..100u64 {
            assert_eq!(q.dequeue(), Some(v), "FIFO order violated");
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn volatile_fifo() {
        fifo_smoke::<Volatile>();
    }

    #[test]
    fn nvtraverse_fifo() {
        fifo_smoke::<NvTraverse<Clwb>>();
    }

    #[test]
    fn izraelevitz_fifo() {
        fifo_smoke::<Izraelevitz<Clwb>>();
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let q: MsQueue<u64, NvTraverse<Noop>> = MsQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(4));
    }

    #[test]
    fn concurrent_producers_consumers_preserve_multiset() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        const PRODUCERS: u64 = 2;
        const CONSUMERS: usize = 2;
        const PER: u64 = 2000;
        let q: MsQueue<u64, NvTraverse<Clwb>> = MsQueue::new();
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER {
                        q.enqueue(p * PER + i);
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut misses = 0;
                    while local.len() < (PRODUCERS * PER) as usize && misses < 1_000_000 {
                        match q.dequeue() {
                            Some(v) => local.push(v),
                            None => misses += 1,
                        }
                        if seen.lock().unwrap().len() + local.len()
                            >= (PRODUCERS * PER) as usize
                        {
                            break;
                        }
                    }
                    seen.lock().unwrap().extend(local);
                });
            }
        });
        // Drain leftovers.
        while let Some(v) = q.dequeue() {
            seen.lock().unwrap().insert(v);
        }
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), (PRODUCERS * PER) as usize, "lost or duplicated items");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        let q: MsQueue<u64, NvTraverse<Clwb>> = MsQueue::new();
        std::thread::scope(|s| {
            for p in 0..2u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..1000 {
                        q.enqueue((p << 32) | i);
                    }
                });
            }
        });
        let all = q.drain_to_vec();
        for p in 0..2u64 {
            let mine: Vec<u64> = all
                .iter()
                .copied()
                .filter(|v| v >> 32 == p)
                .collect();
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "producer {p}'s items out of order"
            );
        }
    }

    #[test]
    fn recovery_rebuilds_tail_shortcut() {
        let q: MsQueue<u64, NvTraverse<Noop>> = MsQueue::new();
        for v in 0..10u64 {
            q.enqueue(v);
        }
        // Wreck the volatile tail (points back at the sentinel).
        unsafe {
            let h = (*q.anchor).head.load();
            (*q.anchor).tail.store(h);
        }
        q.recover();
        q.enqueue(10);
        let all = q.drain_to_vec();
        assert_eq!(all, (0..=10u64).collect::<Vec<_>>());
    }
}
