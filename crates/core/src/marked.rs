//! Tagged pointers: the representation of every link in a core tree.
//!
//! Lock-free structures steal low pointer bits for protocol state. This
//! repository reserves three (nodes are ≥ 8-byte aligned):
//!
//! * **bit 0** — the *mark* bit: logical deletion (Harris §2.1; a marked node
//!   is frozen and awaiting physical disconnection, paper Definition 1),
//! * **bit 1** — a second algorithm bit (Natarajan–Mittal's edge *flag*;
//!   together with bit 0 it also encodes Ellen et al.'s 2-bit update state),
//! * **bit 2** — the *dirty* bit, reserved exclusively for the
//!   link-and-persist durability policy (`LinkPersist`); data-structure code
//!   never sees it set because the policy strips it on every load.

use nvtraverse_pmem::Word;
use std::fmt;
use std::marker::PhantomData;

/// Bit 0: logical deletion mark.
pub const MARK_BIT: u64 = 0b001;
/// Bit 1: second algorithm tag bit (edge flag / update-state high bit).
pub const FLAG_BIT: u64 = 0b010;
/// Bit 2: link-and-persist dirty bit (owned by the durability policy).
pub const DIRTY_BIT: u64 = 0b100;
/// All bits that are not the pointer.
pub const TAG_MASK: u64 = 0b111;
/// The two bits available to data-structure algorithms.
pub const ALG_TAG_MASK: u64 = MARK_BIT | FLAG_BIT;

/// A pointer to `T` carrying up to two algorithm tag bits (plus the policy's
/// dirty bit, invisible to algorithms).
///
/// `MarkedPtr` is [`Word`]-encodable, so it is stored in
/// [`PCell`](nvtraverse_pmem::PCell)s like every other shared field.
///
/// # Example
///
/// ```
/// use nvtraverse::marked::MarkedPtr;
///
/// let node = Box::into_raw(Box::new(7u64));
/// let p = MarkedPtr::new(node);
/// assert!(!p.is_marked());
/// let m = p.with_mark();
/// assert!(m.is_marked());
/// assert_eq!(m.ptr(), node); // the mark does not change the address
/// unsafe { drop(Box::from_raw(node)) };
/// ```
pub struct MarkedPtr<T> {
    bits: u64,
    _marker: PhantomData<*mut T>,
}

impl<T> MarkedPtr<T> {
    /// The null pointer with no tags.
    #[inline]
    pub const fn null() -> Self {
        MarkedPtr {
            bits: 0,
            _marker: PhantomData,
        }
    }

    /// Wraps a raw pointer with no tags.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the pointer is at least 8-byte aligned (the low
    /// three bits must be free for tags).
    #[inline]
    pub fn new(ptr: *mut T) -> Self {
        let bits = ptr as usize as u64;
        debug_assert_eq!(bits & TAG_MASK, 0, "node pointers must be 8-byte aligned");
        MarkedPtr {
            bits,
            _marker: PhantomData,
        }
    }

    /// Reconstructs from raw bits (pointer plus tags).
    #[inline]
    pub const fn from_bits_raw(bits: u64) -> Self {
        MarkedPtr {
            bits,
            _marker: PhantomData,
        }
    }

    /// The raw bit representation (pointer plus tags).
    #[inline]
    pub const fn bits(self) -> u64 {
        self.bits
    }

    /// The untagged pointer.
    #[inline]
    pub fn ptr(self) -> *mut T {
        (self.bits & !TAG_MASK) as usize as *mut T
    }

    /// Whether the untagged pointer is null.
    #[inline]
    pub fn is_null(self) -> bool {
        self.bits & !TAG_MASK == 0
    }

    /// The two algorithm tag bits as a small integer in `0..4`.
    #[inline]
    pub fn tag(self) -> u64 {
        self.bits & ALG_TAG_MASK
    }

    /// Replaces the algorithm tag bits (dirty bit untouched).
    #[inline]
    pub fn with_tag(self, tag: u64) -> Self {
        debug_assert_eq!(tag & !ALG_TAG_MASK, 0, "tag out of range");
        MarkedPtr {
            bits: (self.bits & !ALG_TAG_MASK) | tag,
            _marker: PhantomData,
        }
    }

    /// Whether the mark (logical deletion) bit is set.
    #[inline]
    pub fn is_marked(self) -> bool {
        self.bits & MARK_BIT != 0
    }

    /// A copy with the mark bit set.
    #[inline]
    pub fn with_mark(self) -> Self {
        MarkedPtr {
            bits: self.bits | MARK_BIT,
            _marker: PhantomData,
        }
    }

    /// A copy with the mark bit clear.
    #[inline]
    pub fn without_mark(self) -> Self {
        MarkedPtr {
            bits: self.bits & !MARK_BIT,
            _marker: PhantomData,
        }
    }

    /// Whether the flag bit is set.
    #[inline]
    pub fn is_flagged(self) -> bool {
        self.bits & FLAG_BIT != 0
    }

    /// A copy with the flag bit set.
    #[inline]
    pub fn with_flag(self) -> Self {
        MarkedPtr {
            bits: self.bits | FLAG_BIT,
            _marker: PhantomData,
        }
    }

    /// A copy with all algorithm tags cleared (pointer only).
    #[inline]
    pub fn untagged(self) -> Self {
        MarkedPtr {
            bits: self.bits & !TAG_MASK,
            _marker: PhantomData,
        }
    }

    /// Whether the policy dirty bit is set. Only durability policies look at
    /// this; algorithm code never observes it.
    #[inline]
    pub fn is_dirty(self) -> bool {
        self.bits & DIRTY_BIT != 0
    }

    /// A copy with the dirty bit set (policy use only).
    #[inline]
    pub fn with_dirty(self) -> Self {
        MarkedPtr {
            bits: self.bits | DIRTY_BIT,
            _marker: PhantomData,
        }
    }

    /// A copy with the dirty bit clear (policy use only).
    #[inline]
    pub fn without_dirty(self) -> Self {
        MarkedPtr {
            bits: self.bits & !DIRTY_BIT,
            _marker: PhantomData,
        }
    }
}

impl<T> Clone for MarkedPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MarkedPtr<T> {}

impl<T> PartialEq for MarkedPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits
    }
}
impl<T> Eq for MarkedPtr<T> {}

impl<T> fmt::Debug for MarkedPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MarkedPtr({:p}{}{}{})",
            self.ptr(),
            if self.is_marked() { " MARK" } else { "" },
            if self.is_flagged() { " FLAG" } else { "" },
            if self.is_dirty() { " DIRTY" } else { "" },
        )
    }
}

impl<T> Default for MarkedPtr<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> Word for MarkedPtr<T> {
    #[inline]
    fn to_bits(self) -> u64 {
        self.bits
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        Self::from_bits_raw(bits)
    }
}

// SAFETY: a `MarkedPtr` is just bits; sharing it does not itself permit data
// races (dereferencing is already `unsafe`).
unsafe impl<T> Send for MarkedPtr<T> {}
unsafe impl<T> Sync for MarkedPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null_and_untagged() {
        let p: MarkedPtr<u64> = MarkedPtr::null();
        assert!(p.is_null());
        assert!(!p.is_marked() && !p.is_flagged() && !p.is_dirty());
        assert_eq!(p.tag(), 0);
    }

    #[test]
    fn mark_and_flag_are_independent() {
        let node = Box::into_raw(Box::new(1u64));
        let p = MarkedPtr::new(node);
        let m = p.with_mark();
        let f = p.with_flag();
        assert!(m.is_marked() && !m.is_flagged());
        assert!(f.is_flagged() && !f.is_marked());
        assert_eq!(m.without_mark(), p);
        assert_eq!(f.untagged(), p);
        assert_eq!(m.ptr(), node);
        assert_eq!(f.ptr(), node);
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn marked_null_is_still_null() {
        let p: MarkedPtr<u64> = MarkedPtr::null().with_mark();
        assert!(p.is_null());
        assert!(p.is_marked());
    }

    #[test]
    fn tag_round_trips_all_four_states() {
        let node = Box::into_raw(Box::new(1u64));
        let p = MarkedPtr::new(node);
        for tag in [0b00, 0b01, 0b10, 0b11] {
            let t = p.with_tag(tag);
            assert_eq!(t.tag(), tag);
            assert_eq!(t.ptr(), node);
        }
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn with_tag_preserves_dirty_bit() {
        let node = Box::into_raw(Box::new(1u64));
        let p = MarkedPtr::new(node).with_dirty();
        let t = p.with_tag(MARK_BIT);
        assert!(t.is_dirty(), "with_tag must not clobber the policy bit");
        assert!(t.is_marked());
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn dirty_is_invisible_to_equality_after_strip() {
        let node = Box::into_raw(Box::new(1u64));
        let p = MarkedPtr::new(node);
        assert_ne!(p.with_dirty(), p);
        assert_eq!(p.with_dirty().without_dirty(), p);
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn word_round_trip() {
        let node = Box::into_raw(Box::new(1u64));
        let p = MarkedPtr::new(node).with_mark().with_dirty();
        let q = <MarkedPtr<u64> as Word>::from_bits(p.to_bits());
        assert_eq!(p, q);
        unsafe { drop(Box::from_raw(node)) };
    }

    #[test]
    fn untagged_clears_everything() {
        let node = Box::into_raw(Box::new(1u64));
        let p = MarkedPtr::new(node).with_mark().with_flag().with_dirty();
        let u = p.untagged();
        assert_eq!(u, MarkedPtr::new(node));
        unsafe { drop(Box::from_raw(node)) };
    }
}
