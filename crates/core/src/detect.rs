//! Client-side **detectable operations**: tokens, arming, and
//! linearization-point publication.
//!
//! The persistent half — the per-pool operation-descriptor table, its
//! layout, and the recovery-time classification — lives in
//! [`pool::optable`](crate::pool::optable); read its module docs first.
//! This module is the volatile machinery a structure threads through its
//! traversal/critical pipeline to drive one descriptor slot:
//!
//! * [`OpToken`] — a client's claim on one descriptor slot (one token per
//!   registered client, typically per thread). [`OpToken::begin_insert`] /
//!   [`OpToken::begin_remove`] mint the next sequence number and hand back
//!   an [`ArmHandle`].
//! * [`ArmHandle::arm`] — called inside the structure's `critical` section,
//!   immediately before the linearizing CAS: writes the descriptor's intent
//!   words (seq, kind, key, value, target tag) and flushes them. No fence
//!   of its own: the linearizing
//!   [`c_cas_link`](crate::policy::Durability::c_cas_link)'s pre-CAS fence
//!   is what orders the armed descriptor before the operation's effect, so
//!   the common path pays **+1 flush, +0 fences** here. Re-arming after a
//!   CAS-failure `Restart` rewrites the same words — idempotent.
//! * [`ArmHandle::publish`] — called at the linearization point (or the
//!   no-op decision point): CASes the result word to the sequence-stamped
//!   outcome and flushes it, ordered durable by the operation's closing
//!   [`before_return`](crate::policy::Durability::before_return) fence —
//!   again **+1 flush, +0 fences**.
//!
//! After a crash, [`Pool::op_outcome`](crate::pool::Pool::op_outcome)
//! answers whether the operation took effect; the structure's re-attached
//! lookup settles the cases the descriptor alone cannot (see
//! `pool::optable`).
//!
//! [`OpTable`] is a heap-backed stand-in for the pool table with identical
//! slot layout, for `Sim`-backend crash sweeps (pools never run on `Sim`).

use crate::pool::optable::{
    descriptor_check, encode_result, OpId, OPW_CHECK, OPW_KEY, OPW_KIND, OPW_RESULT, OPW_SEQ,
    OPW_TARGET, OPW_VALUE, OP_KIND_INSERT, OP_KIND_REMOVE, OP_RESULT_APPLIED, OP_RESULT_NOOP,
    OP_SLOT_WORDS,
};
use crate::pool::{Pool, RawOp};
use nvtraverse_pmem::Backend;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a structure operation could not run (both variants are recoverable:
/// the structure stays fully usable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The structure does not implement detectable operations.
    Unsupported,
    /// The persistent pool is exhausted: the operation allocated nothing
    /// and changed nothing. Free capacity (remove entries, or grow into a
    /// larger pool) and retry.
    PoolFull,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Unsupported => write!(f, "structure does not support detectable operations"),
            OpError::PoolFull => write!(f, "persistent pool exhausted"),
        }
    }
}

impl std::error::Error for OpError {}

/// A client's claim on one descriptor slot: the volatile face of a
/// persistent slot obtained from [`Pool::op_token`] (or
/// [`OpTable::token`] in `Sim` tests).
///
/// `&mut` methods enforce the slot's single-writer discipline; the token is
/// `Send` (hand it to the owning thread) but deliberately not `Sync`.
#[derive(Debug)]
pub struct OpToken {
    base: *mut u64,
    slot: u16,
    /// Sequence number of the last operation begun through this token
    /// (volatile mirror of the slot's durable `seq` word).
    seq: u64,
}

// SAFETY: the slot memory is plain shared memory owned by this token's
// single writer; moving the writer to another thread is fine.
unsafe impl Send for OpToken {}

impl OpToken {
    /// Wraps a raw descriptor slot: `(slot index, slot base, last durable
    /// sequence number)` as returned by
    /// [`Pool::register_op_token_raw`](crate::pool::Pool::register_op_token_raw).
    pub fn from_raw(slot: u16, base: *mut u64, seq: u64) -> OpToken {
        OpToken { base, slot, seq }
    }

    /// The descriptor slot this token writes.
    pub fn slot(&self) -> u16 {
        self.slot
    }

    /// The identity of the last operation begun through this token, if any.
    // nvt-lint: allow(unused-pub): crash tests predict a resumed token's next `OpId`
    pub fn last_op(&self) -> Option<OpId> {
        (self.seq > 0).then(|| OpId::new(self.slot, self.seq))
    }

    /// Mints the next sequence number for one insert and returns the handle
    /// the structure arms and publishes with. Nothing is written until
    /// [`ArmHandle::arm`].
    pub fn begin_insert(&mut self, key_bits: u64, value_bits: u64) -> ArmHandle {
        self.begin(OP_KIND_INSERT, key_bits, value_bits)
    }

    /// Mints the next sequence number for one remove.
    pub fn begin_remove(&mut self, key_bits: u64) -> ArmHandle {
        self.begin(OP_KIND_REMOVE, key_bits, 0)
    }

    fn begin(&mut self, kind: u64, key_bits: u64, value_bits: u64) -> ArmHandle {
        self.seq += 1;
        ArmHandle {
            base: self.base,
            id: OpId::new(self.slot, self.seq),
            kind,
            key: key_bits,
            value: value_bits,
        }
    }
}

/// One in-flight detectable operation: the writer of one descriptor slot
/// for one sequence number. `Copy` so structures can thread it through
/// their operation `Input` and retry loops freely.
#[derive(Debug, Clone, Copy)]
pub struct ArmHandle {
    base: *mut u64,
    id: OpId,
    kind: u64,
    key: u64,
    value: u64,
}

// SAFETY: same single-writer slot memory as OpToken.
unsafe impl Send for ArmHandle {}

impl ArmHandle {
    /// The durable identity this operation will have.
    pub fn id(&self) -> OpId {
        self.id
    }

    /// The op-tag word an insert stamps into its new node
    /// ([`OpId::to_bits`] — never 0 for a real operation).
    pub fn tag(&self) -> u64 {
        self.id.to_bits()
    }

    /// Writes and flushes the descriptor's intent words — seq, kind, key,
    /// value, and `target_tag` (the removed node's op tag; [`OP_TARGET_MISS`]
    /// when a remove armed against an absent key; 0 for inserts).
    ///
    /// Call inside `critical`, before the linearizing CAS: that CAS's
    /// pre-fence (or, on the no-op paths, the closing `before_return`
    /// fence) is what makes the armed words durable — arming itself adds no
    /// fence. The stale result word is deliberately *not* flushed: its
    /// embedded sequence number already distinguishes it from this
    /// operation. Idempotent across `Restart` retries.
    ///
    /// [`OP_TARGET_MISS`]: crate::pool::optable::OP_TARGET_MISS
    pub fn arm<B: Backend>(&self, target_tag: u64) {
        slot_write::<B>(self.base, OPW_KIND, self.kind);
        slot_write::<B>(self.base, OPW_KEY, self.key);
        slot_write::<B>(self.base, OPW_VALUE, self.value);
        slot_write::<B>(self.base, OPW_TARGET, target_tag);
        slot_write::<B>(
            self.base,
            OPW_CHECK,
            descriptor_check(self.id.seq(), self.kind, self.key, self.value, target_tag),
        );
        slot_write::<B>(self.base, OPW_SEQ, self.id.seq());
        // Torn-arm safety: the 8-byte words persist individually (Sim rolls
        // back per word; hardware guarantees 8-byte failure atomicity), so a
        // crash during the fence that would have made this arm durable can
        // persist any subset of the words — including this arm's payload
        // under the *previous* arm's sequence number. The checksum word lets
        // recovery detect every such tear ([`RawOp::intact`]): a torn
        // descriptor's operation never linearized (a fence strictly precedes
        // the linearizing CAS), so classification falls back to the result
        // word, which arming never touches and which the previous operation
        // left durable. One flush covers words 0..=4 plus the checksum: the
        // slot is 64-byte-aligned, so they share a cache line (Sim flushes
        // per word — strictly more adversarial, never less durable). The
        // stale result word (the word after the checksum) is deliberately
        // not flushed.
        //
        // [`RawOp::intact`]: crate::pool::RawOp::intact
        B::flush_range(self.base as *const u8, (OPW_CHECK + 1) * 8);
    }

    /// CAS-publishes the sequence-stamped outcome into the result word and
    /// flushes it: the detectable layer's linearization-point publication.
    /// `applied` is `false` for the no-op outcomes (duplicate insert,
    /// remove miss). Ordered durable by the operation's closing
    /// `before_return` fence; adds no fence of its own.
    pub fn publish<B: Backend>(&self, applied: bool) {
        let code = if applied {
            OP_RESULT_APPLIED
        } else {
            OP_RESULT_NOOP
        };
        let word = encode_result(self.id.seq(), code);
        // SAFETY: in-bounds slot word, 8-aligned, shared memory.
        let cell = unsafe { AtomicU64::from_ptr(self.base.add(OPW_RESULT)) };
        let seen = cell.load(Ordering::Relaxed);
        if seen != word {
            if B::SIM {
                // Route through the simulator's write tracking (single
                // writer per slot, so the plain store is race-free).
                slot_write::<B>(self.base, OPW_RESULT, word);
            } else {
                // Single writer per slot: failure means an idempotent retry
                // already published this very word.
                let _ = cell.compare_exchange(seen, word, Ordering::Relaxed, Ordering::Relaxed);
            }
        }
        B::flush(unsafe { self.base.add(OPW_RESULT) } as *const u8);
    }
}

/// One descriptor-word store, visible to the crash simulator: raw volatile
/// on real backends; on `Sim` it must be a *tracked* write, otherwise the
/// simulator's flush-version monotonicity silently discards every later
/// flush of the cell and the descriptor never persists.
#[inline]
fn slot_write<B: Backend>(base: *mut u64, word: usize, bits: u64) {
    if B::SIM {
        nvtraverse_pmem::sim::current_tracked_write(unsafe { base.add(word) } as usize, bits);
    } else {
        unsafe { base.add(word).write_volatile(bits) };
    }
}

/// Extension trait: mint [`OpToken`]s from a [`Pool`]'s descriptor table.
pub trait DetectablePool {
    /// Claims the next free descriptor slot as a typed token (one per
    /// client; slots are never reused within a pool file's lifetime).
    ///
    /// # Errors
    ///
    /// Fails when the pool is exhausted, out of descriptor slots, or
    /// rebased — see
    /// [`Pool::register_op_token_raw`](crate::pool::Pool::register_op_token_raw).
    fn op_token(&self) -> std::io::Result<OpToken>;
}

impl DetectablePool for Pool {
    fn op_token(&self) -> std::io::Result<OpToken> {
        let (slot, base, seq) = self.register_op_token_raw()?;
        Ok(OpToken::from_raw(slot, base, seq))
    }
}

/// A heap-backed descriptor table with the pool table's exact slot layout,
/// for backends that never see a real pool — above all `Sim` crash sweeps,
/// where the table memory is registered with the active simulation so
/// un-flushed descriptor words roll back at a simulated crash exactly like
/// structure memory.
// nvt-lint: allow(unused-pub): the `Sim` tests' stand-in for a pool's op table
pub struct OpTable<B: Backend> {
    slots: Box<[SlotLine]>,
    _backend: std::marker::PhantomData<fn() -> B>,
}

/// One slot, padded and aligned to its own cache line so flush accounting
/// matches the pool table's.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct SlotLine([u64; OP_SLOT_WORDS]);

impl<B: Backend> fmt::Debug for OpTable<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpTable")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl<B: Backend> OpTable<B> {
    /// Allocates a zeroed table of `slots` descriptor slots and persists
    /// the zeroed state (a simulated crash must roll untouched slots back
    /// to zero, not to poison).
    pub fn new(slots: usize) -> OpTable<B> {
        let lines = vec![SlotLine([0; OP_SLOT_WORDS]); slots].into_boxed_slice();
        let table = OpTable {
            slots: lines,
            _backend: std::marker::PhantomData,
        };
        let (addr, len) = table.region();
        if B::SIM {
            nvtraverse_pmem::sim::current_register_range(addr, len);
        }
        B::flush_range(addr as *const u8, len);
        B::fence();
        table
    }

    fn region(&self) -> (usize, usize) {
        (
            self.slots.as_ptr() as usize,
            self.slots.len() * std::mem::size_of::<SlotLine>(),
        )
    }

    fn base(&self, slot: usize) -> *mut u64 {
        assert!(slot < self.slots.len(), "op table slot out of range");
        self.slots[slot].0.as_ptr() as *mut u64
    }

    /// A token for `slot`, its sequence number re-read from the (possibly
    /// crash-rolled-back) slot memory — call again after a simulated crash
    /// to resume the slot where the surviving state says it is. Resumes
    /// past the slot's latest durable sequence number from *either* half
    /// of the descriptor ([`RawOp::latest_seq`]): the result word can run
    /// ahead of the arm words on the no-op paths.
    pub fn token(&self, slot: usize) -> OpToken {
        let seq = self.raw(slot).map_or(0, |raw| raw.latest_seq());
        OpToken::from_raw(slot as u16, self.base(slot), seq)
    }

    /// Reads `slot` back as the recovery-side [`RawOp`], or `None` while no
    /// operation ever durably recorded itself in it (neither an armed
    /// sequence number nor a published result) — the same words
    /// `Pool::open`'s snapshot would see.
    pub fn raw(&self, slot: usize) -> Option<RawOp> {
        let base = self.base(slot);
        let read = |w: usize| unsafe { base.add(w).read_volatile() };
        let seq = read(OPW_SEQ);
        (seq > 0 || read(OPW_RESULT) > 0).then(|| RawOp {
            slot: slot as u16,
            seq,
            kind: read(OPW_KIND),
            key: read(OPW_KEY),
            value: read(OPW_VALUE),
            target_tag: read(OPW_TARGET),
            result: read(OPW_RESULT),
            check: read(OPW_CHECK),
        })
    }
}

impl<B: Backend> Drop for OpTable<B> {
    fn drop(&mut self) {
        if B::SIM {
            let (addr, len) = self.region();
            nvtraverse_pmem::sim::current_deregister_range(addr, len);
        }
    }
}
