//! Fence amortization: deferring *closing* fences across a batch of
//! operations.
//!
//! The paper's whole design concentrates persistence cost at the
//! destination: an operation's last persistence instruction is a single
//! fence "before the operation returns its result" (Protocol 2, last
//! rule). That fence does not order anything *inside* the structure — the
//! linking CAS already fenced before installing, and every flush of the
//! critical section has been issued — it only guarantees the flushes have
//! *reached* persistent memory before the caller acts on the result.
//!
//! That guarantee is exactly as strong at a later point, provided the
//! result is not released to the caller in between. So a server executing
//! N operations from one request batch may run every link CAS and header
//! flush individually, skip each operation's closing fence, and issue
//! **one** `sfence` at the batch durability point — after which all N
//! replies are released together (group commit: no reply escapes before
//! its fence).
//!
//! [`FenceBatch`] is that scope. While one is alive on a thread, the
//! durability policies' `before_return` calls [`defer_closing_fence`]
//! instead of fencing; the batch's [`close`](FenceBatch::close) (or drop,
//! on panic paths) issues the single shared fence. Only the *closing*
//! fence is deferrable: pre-CAS fences and `make_persistent`'s fence
//! order stores for other threads (helping) and must stay where the
//! protocols put them.
//!
//! The state is thread-local: a batch covers the operations *this* thread
//! executes inside the scope, which is the server's unit of group commit
//! (one connection handler executes one connection's batch).
//!
//! # Example
//!
//! ```
//! use nvtraverse_pmem::batch::{defer_closing_fence, FenceBatch};
//! use nvtraverse_pmem::{Backend, Noop};
//!
//! let batch = FenceBatch::<Noop>::begin();
//! for _ in 0..8 {
//!     // ... link CASes and flushes run normally ...
//!     if !defer_closing_fence() {
//!         Noop::fence(); // not reached: the batch absorbs it
//!     }
//! }
//! assert_eq!(batch.deferred(), 8);
//! assert_eq!(batch.close(), 8); // one real fence for all 8 ops
//! ```

use crate::Backend;
use std::cell::Cell;
use std::marker::PhantomData;

thread_local! {
    /// Nesting depth of live [`FenceBatch`] scopes on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Closing fences deferred (and not yet discharged) on this thread.
    static PENDING: Cell<u64> = const { Cell::new(0) };
}

/// Records one deferred closing fence if a [`FenceBatch`] is active on
/// this thread, returning `true` (the caller must then *skip* its fence).
/// Returns `false` — caller fences as usual — outside any batch.
///
/// This is the hook the durability policies' `before_return` consults; it
/// must only ever guard an operation's closing fence, never an ordering
/// fence.
#[inline]
pub fn defer_closing_fence() -> bool {
    DEPTH
        .try_with(|d| {
            if d.get() == 0 {
                return false;
            }
            let _ = PENDING.try_with(|p| p.set(p.get() + 1));
            true
        })
        .unwrap_or(false)
}

/// A thread-local fence-amortization scope: operations executed while it
/// is alive defer their closing fences; dropping (or
/// [`close`](FenceBatch::close)-ing) the outermost scope issues a single
/// `B::fence()` covering all of them.
///
/// Scopes nest; deferred fences discharge when the outermost scope ends.
/// The guard is `!Send` (thread-local state) and fences on drop even
/// during unwinding, so a panic mid-batch cannot leak unfenced results.
#[derive(Debug)]
pub struct FenceBatch<B: Backend> {
    /// `PENDING` at begin — for [`deferred`](FenceBatch::deferred).
    start_pending: u64,
    /// Keeps the guard on its thread: thread-local state must unwind here.
    _not_send: PhantomData<*const ()>,
    _backend: PhantomData<fn() -> B>,
}

impl<B: Backend> FenceBatch<B> {
    /// Opens a batch scope on the current thread.
    #[must_use = "the batch lasts only while the scope is alive"]
    pub fn begin() -> Self {
        DEPTH.with(|d| d.set(d.get() + 1));
        FenceBatch {
            start_pending: PENDING.with(|p| p.get()),
            _not_send: PhantomData,
            _backend: PhantomData,
        }
    }

    /// Closing fences deferred since this scope opened.
    pub fn deferred(&self) -> u64 {
        PENDING.with(|p| p.get()).wrapping_sub(self.start_pending)
    }

    /// Ends the batch, returning how many closing fences it absorbed. The
    /// outermost scope issues the one shared `B::fence()` (none at all if
    /// nothing was deferred — a batch of pure reads under a policy whose
    /// gets need no fence stays fence-free).
    pub fn close(self) -> u64 {
        let n = self.deferred();
        drop(self);
        n
    }
}

impl<B: Backend> Drop for FenceBatch<B> {
    fn drop(&mut self) {
        let depth = DEPTH.with(|d| {
            let depth = d.get().saturating_sub(1);
            d.set(depth);
            depth
        });
        if depth == 0 && PENDING.with(|p| p.replace(0)) > 0 {
            // The batch durability point: everything flushed by the
            // deferred operations becomes persistent here, before any
            // of their results escape.
            B::fence();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Count, Noop};

    type CB = Count<Noop>;

    fn fences(f: impl FnOnce()) -> u64 {
        crate::counted(f).1
    }

    fn closing_fence() {
        if !defer_closing_fence() {
            CB::fence();
        }
    }

    /// Whether a [`FenceBatch`] is currently active on this thread.
    fn batch_active() -> bool {
        DEPTH.try_with(|d| d.get() > 0).unwrap_or(false)
    }

    #[test]
    fn outside_a_batch_fences_pass_through() {
        assert!(!batch_active());
        let n = fences(|| {
            closing_fence();
            closing_fence();
        });
        assert_eq!(n, 2);
    }

    #[test]
    fn a_batch_of_n_ops_fences_once() {
        let n = fences(|| {
            let b = FenceBatch::<CB>::begin();
            assert!(batch_active());
            for _ in 0..10 {
                closing_fence();
            }
            assert_eq!(b.deferred(), 10);
            assert_eq!(b.close(), 10);
        });
        assert_eq!(n, 1, "10 deferred closing fences must merge into one");
    }

    #[test]
    fn an_empty_batch_fences_never() {
        let n = fences(|| {
            let b = FenceBatch::<CB>::begin();
            assert_eq!(b.close(), 0);
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn nested_batches_discharge_at_the_outermost_close() {
        let n = fences(|| {
            let outer = FenceBatch::<CB>::begin();
            closing_fence();
            {
                let inner = FenceBatch::<CB>::begin();
                closing_fence();
                closing_fence();
                assert_eq!(inner.close(), 2, "inner scope absorbed two");
            }
            assert!(batch_active(), "outer scope still open");
            assert_eq!(outer.deferred(), 3);
            assert_eq!(outer.close(), 3);
        });
        assert_eq!(n, 1, "one fence for the whole nest");
    }

    #[test]
    fn drop_on_panic_still_fences() {
        let n = fences(|| {
            let r = std::panic::catch_unwind(|| {
                let _b = FenceBatch::<CB>::begin();
                closing_fence();
                panic!("mid-batch");
            });
            assert!(r.is_err());
        });
        assert_eq!(n, 1, "unwinding must not leak the deferred fence");
        assert!(!batch_active(), "panic must not leave the scope open");
    }

    #[test]
    fn state_is_thread_local() {
        let _b = FenceBatch::<CB>::begin();
        std::thread::spawn(|| {
            assert!(!batch_active(), "a batch must not leak across threads");
        })
        .join()
        .unwrap();
    }
}
