//! [`PCell`]: the 64-bit shared cell every node field is made of.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::Backend;
use crate::sim;
use crate::word::Word;

/// A shared, atomically accessed 64-bit cell living in (possibly simulated)
/// persistent memory.
///
/// `PCell` is the unit of persistence in this reproduction: flushes operate
/// on cell addresses, and the crash simulator snapshots and rolls back cells.
/// The type parameter `B` selects the [`Backend`]; for hardware backends the
/// cell is exactly an `AtomicU64` with zero overhead, while for [`crate::Sim`]
/// every access is routed through the thread's simulation context.
///
/// Memory orderings are fixed: loads are `Acquire`, stores are `Release`, and
/// compare-and-swap is `AcqRel`/`Acquire` — the orderings the lock-free
/// algorithms in this repository require.
///
/// # Example
///
/// ```
/// use nvtraverse_pmem::{Noop, PCell};
///
/// let c: PCell<i64, Noop> = PCell::new(-3);
/// assert_eq!(c.load(), -3);
/// assert_eq!(c.compare_exchange(-3, 10), Ok(-3));
/// assert_eq!(c.load(), 10);
/// ```
#[repr(transparent)]
pub struct PCell<T: Word, B: Backend> {
    bits: AtomicU64,
    // Variance-precise marker (the tuple-of-fn form is the point).
    #[allow(clippy::type_complexity)]
    _marker: PhantomData<(fn() -> T, fn() -> B)>,
}

impl<T: Word, B: Backend> PCell<T, B> {
    /// Creates a cell holding `value`.
    ///
    /// Creation does **not** register the cell with the crash simulator —
    /// registration happens when the cell has reached its final address (see
    /// [`crate::SimHandle::register_range`]), because a freshly constructed
    /// cell is typically moved into a node and then onto the heap.
    pub fn new(value: T) -> Self {
        PCell {
            bits: AtomicU64::new(value.to_bits()),
            _marker: PhantomData,
        }
    }

    /// The address used for flushing and simulator bookkeeping.
    #[inline]
    pub fn addr(&self) -> *const u8 {
        self.bits.as_ptr() as *const u8
    }

    /// Atomically loads the value (`Acquire`).
    ///
    /// # Panics
    ///
    /// Under the [`crate::Sim`] backend, panics if the cell holds
    /// [`crate::POISON`] — i.e. the caller is consuming data that a simulated
    /// crash proved was never persisted. That panic *is* the durability-bug
    /// detector.
    #[inline]
    pub fn load(&self) -> T {
        if B::SIM {
            sim::on_load(self.addr() as usize);
            let bits = self.bits.load(Ordering::Acquire);
            self.check_poison(bits);
            T::from_bits(bits)
        } else {
            T::from_bits(self.bits.load(Ordering::Acquire))
        }
    }

    /// Atomically stores `value` (`Release`).
    #[inline]
    pub fn store(&self, value: T) {
        if B::SIM {
            self.assert_not_poison(value.to_bits());
            sim::on_write(self.addr() as usize, sim::WriteKind::Store, |a| {
                a.store(value.to_bits(), Ordering::Release);
                true
            });
        } else {
            self.bits.store(value.to_bits(), Ordering::Release);
        }
    }

    /// Atomically compares-and-swaps `current` for `new` (`AcqRel` on
    /// success, `Acquire` on failure).
    ///
    /// # Errors
    ///
    /// Returns `Err(actual)` with the observed value if it differs from
    /// `current` (comparison is on the bit encoding).
    ///
    /// # Panics
    ///
    /// Like [`PCell::load`], panics under [`crate::Sim`] when the observed
    /// value is poison.
    #[inline]
    pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T> {
        if B::SIM {
            self.assert_not_poison(new.to_bits());
            let mut result = Ok(0u64);
            sim::on_write(self.addr() as usize, sim::WriteKind::Cas, |a| {
                match a.compare_exchange(
                    current.to_bits(),
                    new.to_bits(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(bits) => {
                        result = Ok(bits);
                        true
                    }
                    Err(bits) => {
                        result = Err(bits);
                        false
                    }
                }
            });
            match result {
                Ok(bits) => Ok(T::from_bits(bits)),
                Err(bits) => {
                    self.check_poison(bits);
                    Err(T::from_bits(bits))
                }
            }
        } else {
            match self.bits.compare_exchange(
                current.to_bits(),
                new.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(bits) => Ok(T::from_bits(bits)),
                Err(bits) => Err(T::from_bits(bits)),
            }
        }
    }

    /// Atomically swaps in `value`, returning the previous value (`AcqRel`).
    #[inline]
    pub fn swap(&self, value: T) -> T {
        if B::SIM {
            self.assert_not_poison(value.to_bits());
            let mut prev = 0u64;
            sim::on_write(self.addr() as usize, sim::WriteKind::Swap, |a| {
                prev = a.swap(value.to_bits(), Ordering::AcqRel);
                true
            });
            self.check_poison(prev);
            T::from_bits(prev)
        } else {
            T::from_bits(self.bits.swap(value.to_bits(), Ordering::AcqRel))
        }
    }

    /// Reads the raw bits without simulator bookkeeping, poison checking, or
    /// crash injection.
    ///
    /// Intended for validators and debuggers inspecting post-crash state.
    #[inline]
    pub fn peek_bits(&self) -> u64 {
        self.bits.load(Ordering::Acquire)
    }

    #[inline]
    fn check_poison(&self, bits: u64) {
        if bits == crate::POISON {
            panic!(
                "durability bug: loaded poison (never-persisted data) from {:p} \
                 after a simulated crash",
                self.addr()
            );
        }
    }

    #[inline]
    fn assert_not_poison(&self, bits: u64) {
        assert!(
            bits != crate::POISON,
            "storing the poison pattern itself is not supported under Sim"
        );
    }
}

impl<T: Word + fmt::Debug, B: Backend> fmt::Debug for PCell<T, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.peek_bits();
        if bits == crate::POISON {
            f.write_str("PCell(<poison>)")
        } else {
            write!(f, "PCell({:?})", T::from_bits(bits))
        }
    }
}

impl<T: Word, B: Backend> Drop for PCell<T, B> {
    fn drop(&mut self) {
        if B::SIM {
            sim::on_cell_drop(self.addr() as usize);
        }
    }
}

// SAFETY: the payload is a bare `AtomicU64`; `T` is only a phantom encoding
// and is never stored by reference.
unsafe impl<T: Word, B: Backend> Send for PCell<T, B> {}
unsafe impl<T: Word, B: Backend> Sync for PCell<T, B> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clwb, Noop};

    #[test]
    fn new_load_store_round_trip() {
        let c: PCell<u64, Noop> = PCell::new(1);
        assert_eq!(c.load(), 1);
        c.store(2);
        assert_eq!(c.load(), 2);
    }

    #[test]
    fn compare_exchange_success_and_failure() {
        let c: PCell<u64, Noop> = PCell::new(10);
        assert_eq!(c.compare_exchange(10, 11), Ok(10));
        assert_eq!(c.compare_exchange(10, 12), Err(11));
        assert_eq!(c.load(), 11);
    }

    #[test]
    fn swap_returns_previous() {
        let c: PCell<i64, Noop> = PCell::new(-1);
        assert_eq!(c.swap(5), -1);
        assert_eq!(c.load(), 5);
    }

    #[test]
    fn signed_values_round_trip_through_cell() {
        let c: PCell<i64, Clwb> = PCell::new(i64::MIN);
        assert_eq!(c.load(), i64::MIN);
        assert_eq!(c.compare_exchange(i64::MIN, -2), Ok(i64::MIN));
        assert_eq!(c.load(), -2);
    }

    #[test]
    fn pointer_values_round_trip_through_cell() {
        let x = Box::into_raw(Box::new(3u32));
        let c: PCell<*mut u32, Noop> = PCell::new(x);
        assert_eq!(c.load(), x);
        c.store(std::ptr::null_mut());
        assert!(c.load().is_null());
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn debug_formats_value() {
        let c: PCell<u64, Noop> = PCell::new(9);
        assert_eq!(format!("{c:?}"), "PCell(9)");
    }

    #[test]
    fn cell_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PCell<u64, Noop>>();
        assert_send_sync::<PCell<*mut u8, Clwb>>();
    }

    #[test]
    fn cell_is_word_sized() {
        assert_eq!(std::mem::size_of::<PCell<u64, Noop>>(), 8);
        assert_eq!(std::mem::align_of::<PCell<u64, Noop>>(), 8);
    }
}
