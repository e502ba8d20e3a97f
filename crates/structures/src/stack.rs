//! A Treiber stack in traversal form — the smallest possible traversal data
//! structure (paper §3: stacks are traversal data structures; the traversal
//! is empty and the entry point is the top-of-stack anchor).

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

/// A stack node; `value` and `next` are immutable after initialization
/// (a popped node is disconnected, never relinked).
#[repr(C)]
pub struct StackNode<V: Word, B: Backend> {
    value: PCell<V, B>,
    next: PCell<MarkedPtr<StackNode<V, B>>, B>,
}

impl<V: Word, B: Backend> fmt::Debug for StackNode<V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StackNode")
    }
}

/// One stack operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackOp<V> {
    /// Push a value.
    Push(V),
    /// Pop the most recent value.
    Pop,
}

/// A lock-free LIFO stack.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse_pmem::Clwb;
/// use nvtraverse_structures::stack::TreiberStack;
///
/// let s: TreiberStack<u64, NvTraverse<Clwb>> = TreiberStack::new();
/// s.push(1);
/// s.push(2);
/// assert_eq!(s.pop(), Some(2));
/// assert_eq!(s.pop(), Some(1));
/// assert_eq!(s.pop(), None);
/// ```
pub struct TreiberStack<V: Word, D: Durability> {
    top: *mut PCell<MarkedPtr<StackNode<V, D::B>>, D::B>,
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
unsafe impl<V: Word, D: Durability> Send for TreiberStack<V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<V: Word, D: Durability> Sync for TreiberStack<V, D> {}

impl<V, D> TreiberStack<V, D>
where
    V: Word,
    D: Durability,
{
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty stack retiring into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        let top = alloc_node::<_, D::B>(PCell::new(MarkedPtr::null()));
        D::persist_new_node(top as *const u8, 8);
        D::before_return();
        TreiberStack {
            top,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }

    /// Pushes `value`.
    pub fn push(&self, value: V) {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        let _ = run_operation(self, &guard, StackOp::Push(value));
    }

    /// Pops the most recently pushed value.
    pub fn pop(&self) -> Option<V> {
        let guard = self.collector.pin();
        run_operation(self, &guard, StackOp::Pop)
    }

    /// Quiescent: number of values.
    pub fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*self.top).load().ptr();
            while !cur.is_null() {
                n += 1;
                cur = (*cur).next.load().ptr();
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
        n
    }

    /// Quiescent: whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        // nvt-lint: allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
        unsafe { (*self.top).load().is_null() }
    }

    /// Post-crash recovery — deliberately (almost) a no-op, and *correctly*
    /// so. The stack's durable core is exactly the `top` word plus the chain
    /// below it, and both are already consistent at every instant:
    ///
    /// * node `value`/`next` fields are immutable and persisted (flushed +
    ///   fenced by `persist_new_node`) **before** the publishing CAS, so the
    ///   durable `top` can only ever point at a fully persisted chain;
    /// * every successful push/pop CAS on `top` is flushed by Protocol 2
    ///   before the operation returns, so an acked operation is durable;
    /// * popped nodes are disconnected and never relinked — a stack has no
    ///   logically-deleted (marked) state, hence no `disconnect(root)` pass
    ///   (Supplement 1 degenerates to nothing);
    /// * there is no volatile auxiliary structure to rebuild (contrast the
    ///   skiplist's towers or the queue's tail shortcut).
    ///
    /// The one deferred obligation is the link-and-persist policy's dirty
    /// bit: a crash can leave the durable `top` word dirty-tagged. The
    /// critical re-read below clears and flushes it eagerly, instead of
    /// lazily on the first post-restart operation — so recovery still
    /// upholds the §2 contract that after it returns, no pre-crash write is
    /// left in a half-published state.
    pub fn recover(&self) {
        if !D::DURABLE {
            return;
        }
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        let _ = D::c_load_link(unsafe { &*self.top });
        D::before_return();
    }

    /// Quiescent: the stacked values, top first, without popping
    /// (crash-test oracles audit the surviving contents non-destructively).
    pub fn iter_snapshot(&self) -> Vec<V> {
        let mut out = Vec::new();
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            let mut cur = (*self.top).load().ptr();
            while !cur.is_null() {
                out.push((*cur).value.load());
                cur = (*cur).next.load().ptr();
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
        out
    }

    /// The top-of-stack cell (for pool root registration below).
    fn top_ptr(&self) -> *mut PCell<MarkedPtr<StackNode<V, D::B>>, D::B> {
        self.top
    }

    /// Rebuilds a stack handle around an existing top cell — the attach half
    /// of the pool lifecycle.
    ///
    /// # Safety
    ///
    /// `top` must be the top cell of a stack built with the *same* `V`/`D`
    /// parameters, reachable and quiescent, and the caller must not drop two
    /// handles to the same stack (the pooled lifecycle never drops — see
    /// `nvtraverse::PooledHandle`).
    unsafe fn attach_at(
        top: *mut PCell<MarkedPtr<StackNode<V, D::B>>, D::B>,
        collector: Collector,
    ) -> Self {
        TreiberStack {
            top,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }
}

impl<V, D> TraversalOps for TreiberStack<V, D>
where
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = StackOp<V>;
    type Output = Option<V>;
    type Entry = ();
    /// The window is the observed top word.
    type Window = MarkedPtr<StackNode<V, D::B>>;

    fn find_entry(&self, _guard: &Guard, _input: Self::Input) {}

    fn traverse(&self, _guard: &Guard, _entry: (), _input: Self::Input) -> Self::Window {
        // The "journey" is empty: the destination is the top word itself.
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        D::t_load_link(unsafe { &*self.top })
    }

    fn collect_persist_set(&self, _w: &Self::Window, out: &mut PersistSet) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        out.push(unsafe { (*self.top).addr() });
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let top = unsafe { &*self.top };
        match input {
            StackOp::Push(value) => {
                let node = alloc_node::<_, D::B>(StackNode {
                    value: PCell::new(value),
                    next: PCell::new(w),
                });
                D::persist_new_node(node as *const u8, std::mem::size_of::<StackNode<V, D::B>>());
                match D::c_cas_link(top, w, MarkedPtr::new(node)) {
                    Ok(()) => Critical::Done(None),
                    Err(_) => {
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { free(node) };
                        Critical::Restart
                    }
                }
            }
            StackOp::Pop => {
                if w.is_null() {
                    return Critical::Done(None);
                }
                let node = w.ptr();
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let next = D::load_fixed(unsafe { &(*node).next });
                match D::c_cas_link(top, w, next) {
                    Ok(()) => {
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        let value = D::load_fixed(unsafe { &(*node).value });
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { guard.retire(node) };
                        Critical::Done(Some(value))
                    }
                    Err(_) => Critical::Restart,
                }
            }
        }
    }
}

impl<V, D> PoolAttach for TreiberStack<V, D>
where
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        let _scope = PoolCtx::of(pool).enter();
        let s = Self::with_collector(Collector::new());
        pool.set_root_ptr_checked(name, s.top_ptr())?;
        Ok(s)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let top = pool.attach_root_ptr::<PCell<MarkedPtr<StackNode<V, D::B>>, D::B>>(name)?;
        // Entered so `attach_at`'s context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(top, Collector::new()) })
    }

    fn recover_attached(&self, _pool: &Pool) {
        self.recover();
    }

    fn collector_of(&self) -> &Collector {
        &self.collector
    }
}

// SAFETY: the durable state is exactly the top cell plus the immutable
// chain below it — the same fact that makes `recover` a near-no-op. Popped
// nodes are disconnected, never relinked, and a stack has no marked state,
// so the top chain is the complete reachable set.
// SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
unsafe impl<V, D> nvtraverse::PoolTrace for TreiberStack<V, D>
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
            let top = root as *mut PCell<MarkedPtr<StackNode<V, D::B>>, D::B>;
            // `.ptr()` strips the link-and-persist dirty bit a crash can
            // leave on the top word.
            // nvt-lint: allow(raw-pcell-access): GC tracer follows raw pointers on a quiescent heap
            crate::trace_chains(marker, &mut [(*top).load().ptr()], |_, n| (*n).next.load().ptr());
        }
    }
}

impl<V: Word, D: Durability> Default for TreiberStack<V, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Word, D: Durability> fmt::Debug for TreiberStack<V, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreiberStack")
            .field("len", &self.len())
            .finish()
    }
}

impl<V: Word, D: Durability> Drop for TreiberStack<V, D> {
    fn drop(&mut self) {
        // Poisoned links (unrecovered crash) end the walk; the tail leaks.
        let teardown = |bits: u64| {
            if bits == nvtraverse_pmem::POISON {
                std::ptr::null_mut()
            } else {
                MarkedPtr::<StackNode<V, D::B>>::from_bits_raw(bits).ptr()
            }
        };
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): teardown/drop owns the structure exclusively; nothing durable happens after it
            let mut cur = teardown((*self.top).peek_bits());
            while !cur.is_null() {
                let nxt = teardown((*cur).next.peek_bits());
                // nvt-lint: end-allow(raw-pcell-access)
                free(cur);
                cur = nxt;
            }
            free(self.top);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::policy::{Izraelevitz, NvTraverse, Volatile};
    use nvtraverse_pmem::{Clwb, Noop};

    fn lifo_smoke<D: Durability>() {
        let s: TreiberStack<u64, D> = TreiberStack::new();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        for v in 0..50u64 {
            s.push(v);
        }
        assert_eq!(s.len(), 50);
        for v in (0..50u64).rev() {
            assert_eq!(s.pop(), Some(v), "LIFO order violated");
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn volatile_lifo() {
        lifo_smoke::<Volatile>();
    }

    #[test]
    fn nvtraverse_lifo() {
        lifo_smoke::<NvTraverse<Clwb>>();
    }

    #[test]
    fn izraelevitz_lifo() {
        lifo_smoke::<Izraelevitz<Clwb>>();
    }

    #[test]
    fn push_pop_interleaving() {
        let s: TreiberStack<u64, NvTraverse<Noop>> = TreiberStack::new();
        s.push(1);
        s.push(2);
        assert_eq!(s.pop(), Some(2));
        s.push(3);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(1));
    }

    #[test]
    fn concurrent_push_pop_conserves_items() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        const THREADS: u64 = 4;
        const PER: u64 = 1500;
        let s: TreiberStack<u64, NvTraverse<Clwb>> = TreiberStack::new();
        let popped = Mutex::new(HashSet::new());
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let s = &s;
                let popped = &popped;
                sc.spawn(move || {
                    let mut local = HashSet::new();
                    for i in 0..PER {
                        s.push(t * PER + i);
                        if i % 2 == 0 {
                            if let Some(v) = s.pop() {
                                local.insert(v);
                            }
                        }
                    }
                    popped.lock().unwrap().extend(local);
                });
            }
        });
        let mut all = popped.into_inner().unwrap();
        while let Some(v) = s.pop() {
            assert!(all.insert(v), "duplicate value {v}");
        }
        assert_eq!(all.len(), (THREADS * PER) as usize, "lost items");
    }
}
