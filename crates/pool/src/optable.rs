//! Persistent **operation-descriptor table**: the pool half of detectable
//! operations ("Tracking in Order to Recover", Attiya et al.).
//!
//! NVTraverse makes structures durably linearizable, but durable
//! linearizability alone cannot tell a recovering client whether its
//! in-flight operation took effect. This module gives every pool a
//! crash-safe table of per-client operation descriptors, reachable from the
//! reserved root [`OPS_ROOT`] so the recovery GC keeps it:
//!
//! * A **slot** (one cache line: 8 words, [`OP_SLOT_WORDS`]) belongs to one
//!   registered client ([`Pool::register_op_token_raw`]) and holds a
//!   monotonically increasing durable sequence number, the op kind / key /
//!   value words, a remove-target tag, an arm **checksum**
//!   ([`descriptor_check`], detects torn arms) and a **result word** that
//!   the structure CAS-publishes and flushes at the operation's
//!   linearization point.
//! * An [`OpId`] names one operation forever: the slot index packed with
//!   the sequence number the operation was armed under. The same packing is
//!   written into inserted nodes as their *op tag*, which is what lets
//!   recovery re-run a lookup and attribute the surviving state to a
//!   specific descriptor.
//! * [`PoolBuilder::open`](crate::PoolBuilder::open) snapshots the table
//!   before any structure attaches;
//!   [`Pool::op_outcome`] then classifies any queried [`OpId`] as
//!   [`OpOutcome::Committed`] / [`OpOutcome::NotApplied`] — consulting the
//!   recovered structure (via [`Pool::resolve_op`], driven by the typed
//!   root attach in `nvtraverse`) for the in-between cases where the
//!   descriptor alone cannot decide.
//!
//! # Why the lookup decides, not the published result
//!
//! The result word is flushed at the linearization point, but the flush of
//! the result and the flush of the linearizing link CAS drain independently
//! at the next fence — a crash between them can persist either one without
//! the other (the `Sim` backend's fence even drains its flush buffer in
//! LIFO order to force exactly this). Classification therefore never trusts
//! a published "applied" result blindly: whenever the descriptor's sequence
//! number matches the query, the **recovered structure state** (does a node
//! tagged with this `OpId` survive? does the remove's target survive?) is
//! the authority, and the published word is only a shortcut for the
//! unambiguous no-op case. By construction the reported outcome then always
//! agrees with the surviving state.

use crate::{Pool, RecoveryReport, MAX_ROOT_NAME};
use std::io;

/// Reserved root name of the per-pool operation-descriptor table.
pub const OPS_ROOT: &str = "__nvt_ops";

/// Number of descriptor slots a pool's table holds. Slots are handed out
/// monotonically (never reused within a pool file's lifetime), one per
/// [`Pool::register_op_token_raw`] call.
pub const OP_SLOTS: usize = 128;

/// Words per descriptor slot (one 64-byte cache line: 7 used + 1 pad).
pub const OP_SLOT_WORDS: usize = 8;

/// Words of table header preceding the first slot
/// (`[capacity, next_slot, reserved…]`).
pub const OPS_HEADER_WORDS: usize = 8;

/// Word index of `seq` within a slot.
pub const OPW_SEQ: usize = 0;
/// Word index of the op kind within a slot.
pub const OPW_KIND: usize = 1;
/// Word index of the key bits within a slot.
pub const OPW_KEY: usize = 2;
/// Word index of the value bits within a slot.
pub const OPW_VALUE: usize = 3;
/// Word index of the remove-target tag within a slot.
pub const OPW_TARGET: usize = 4;
/// Word index of the arm checksum within a slot (see [`descriptor_check`]).
/// Deliberately adjacent to the other intent words so one
/// `flush_range(base, 48)` covers the whole arm.
pub const OPW_CHECK: usize = 5;
/// Word index of the CAS-published result within a slot — *after* the
/// checksum, so arming can flush words `0..=OPW_CHECK` as one range without
/// touching the previous operation's result.
pub const OPW_RESULT: usize = 6;

/// Kind code of an insert descriptor (`OPW_KIND`).
pub const OP_KIND_INSERT: u64 = 1;
/// Kind code of a remove descriptor (`OPW_KIND`).
pub const OP_KIND_REMOVE: u64 = 2;

/// Result code: the operation applied (inserted / removed its target).
pub const OP_RESULT_APPLIED: u64 = 1;
/// Result code: the operation completed as a no-op (duplicate insert,
/// remove of an absent key).
pub const OP_RESULT_NOOP: u64 = 2;

/// `OPW_TARGET` sentinel recorded when a remove armed against an absent
/// key (distinguishes "no-op remove" from "remove of an untagged node",
/// whose tag is 0).
pub const OP_TARGET_MISS: u64 = u64::MAX;

/// Encodes a result word: the arming sequence number stamped over the code,
/// so a stale result from the slot's previous operation can never be
/// mistaken for this one's.
pub fn encode_result(seq: u64, code: u64) -> u64 {
    (seq << 2) | code
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The arm checksum over a descriptor's intent words, stored in
/// [`OPW_CHECK`] by every arm. Recovery recomputes it to detect a **torn
/// arm**: a crash inside the very fence that was persisting a new arm can
/// persist any subset of the slot's intent words, mixing the new
/// operation's words with the previous one's. A mismatch proves the tear —
/// and because a fence strictly precedes every linearizing CAS, the torn
/// operation can never have taken effect, while the slot's *previous*
/// operation completed and left its sequence-stamped result word (which
/// arming never touches) durable and authoritative.
pub fn descriptor_check(seq: u64, kind: u64, key: u64, value: u64, target_tag: u64) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for w in [seq, kind, key, value, target_tag] {
        h = mix64(h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// A durable operation identity: descriptor slot (high 16 bits) packed with
/// the arming sequence number (low 48 bits). The same packing is written
/// into inserted nodes as their op tag; `OpId(0)` never names a real
/// operation (sequence numbers start at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(u64);

impl OpId {
    /// Packs a slot index and sequence number.
    pub fn new(slot: u16, seq: u64) -> OpId {
        debug_assert!(seq < 1 << 48);
        OpId(((slot as u64) << 48) | (seq & ((1 << 48) - 1)))
    }

    /// The descriptor slot this operation ran in.
    pub fn slot(self) -> u16 {
        (self.0 >> 48) as u16
    }

    /// The durable sequence number the operation was armed under.
    pub fn seq(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }

    /// The packed word form (also the node op-tag encoding).
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its packed form.
    pub fn from_bits(bits: u64) -> OpId {
        OpId(bits)
    }
}

/// What recovery concluded about one detectable operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation's effect survives in the recovered state (the insert's
    /// node is present; the remove's target is gone).
    Committed,
    /// The operation left no surviving effect: it either never durably
    /// happened, or it completed as a no-op (duplicate insert, remove of an
    /// absent key). Re-executing it is safe.
    NotApplied,
    /// A later operation on the same descriptor slot was durably armed
    /// after this one, so this operation completed before the crash; its
    /// per-op result is no longer held by the slot. Only stale queries see
    /// this — the slot's *latest* operation never does.
    Superseded,
}

/// One descriptor slot as found at [`PoolBuilder::open`](crate::PoolBuilder::open) (raw words, decoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawOp {
    /// Slot index in the table.
    pub slot: u16,
    /// Durable sequence number of the slot's latest armed operation.
    pub seq: u64,
    /// Kind code ([`OP_KIND_INSERT`] / [`OP_KIND_REMOVE`]).
    pub kind: u64,
    /// Key bits the operation was armed with.
    pub key: u64,
    /// Value bits (inserts; 0 for removes).
    pub value: u64,
    /// Remove-target tag ([`OP_TARGET_MISS`] when armed against an absent
    /// key; the target node's op tag otherwise — 0 for untagged nodes).
    pub target_tag: u64,
    /// Raw result word (see [`encode_result`]).
    pub result: u64,
    /// Arm checksum word (see [`descriptor_check`]).
    pub check: u64,
}

impl RawOp {
    /// The identity of the slot's latest durably recorded operation
    /// ([`RawOp::latest_seq`]).
    pub fn id(&self) -> OpId {
        OpId::new(self.slot, self.latest_seq())
    }

    /// The published result code for the slot's latest sequence number, if
    /// the result word was durably published for it (`None`: unpublished or
    /// stale from a previous operation).
    pub fn published(&self) -> Option<u64> {
        let latest = self.latest_seq();
        if latest > 0 && self.result >> 2 == latest {
            Some(self.result & 0b11)
        } else {
            None
        }
    }

    /// Whether the intent words form one complete arm (checksum matches).
    /// `false` means the crash tore a new arm mid-persist — see
    /// [`descriptor_check`].
    pub fn intact(&self) -> bool {
        self.check == descriptor_check(self.seq, self.kind, self.key, self.value, self.target_tag)
    }

    /// The highest sequence number this slot durably recorded, from either
    /// half of the descriptor:
    ///
    /// * the **arm** words, counted only when they persisted whole
    ///   ([`RawOp::intact`] — the sequence word is flushed first and drained
    ///   last, so a durable sequence number implies the whole arm), and
    /// * the **result** word's embedded sequence number, which can run
    ///   *ahead* of the arm: on the no-op paths nothing fences between arm
    ///   and publish, and a crash mid-drain can persist the result (issued
    ///   last, drained first) while the arm words are lost.
    pub fn latest_seq(&self) -> u64 {
        let armed = if self.intact() { self.seq } else { 0 };
        armed.max(self.result >> 2)
    }
}

/// What the descriptor words alone can conclude about a queried [`OpId`],
/// before any structure lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawClass {
    /// Decided by the descriptor alone.
    Decided(OpOutcome),
    /// The sequence numbers match and no no-op was published: only the
    /// recovered structure state can decide (see the module docs).
    NeedsLookup,
}

/// Classifies `id` against the slot's recovered descriptor words, as far as
/// the descriptor alone can. `raw` is `None` when the slot was never armed
/// (sequence number 0 at the crash).
pub fn classify_raw(raw: Option<&RawOp>, id: OpId) -> RawClass {
    let Some(raw) = raw else {
        // The slot never durably armed any operation: the queried op's arm
        // flush was lost (or never issued) — it cannot have taken effect.
        return RawClass::Decided(OpOutcome::NotApplied);
    };
    let latest = raw.latest_seq();
    let result_seq = raw.result >> 2;
    if id.seq() < latest {
        // A later operation durably recorded itself in the slot, and a
        // client issues operations one at a time: this one completed first.
        return RawClass::Decided(OpOutcome::Superseded);
    }
    if id.seq() > latest {
        // Later than anything the slot durably recorded: the arm flush was
        // lost (or torn — caught by the checksum), so the operation never
        // reached its linearizing CAS, which a fence strictly precedes.
        return RawClass::Decided(OpOutcome::NotApplied);
    }
    // id.seq() == latest: the queried operation is the slot's latest.
    if result_seq == id.seq() && result_seq > 0 {
        if raw.result & 0b11 == OP_RESULT_NOOP {
            // A published no-op is unambiguous: the operation linearized
            // with no effect, and no structure state could contradict that.
            return RawClass::Decided(OpOutcome::NotApplied);
        }
        if raw.seq != id.seq() || !raw.intact() {
            // Published "applied", and a *later* arm already tore over this
            // descriptor: the operation completed before that arm began, so
            // its closing fence made its effect durable.
            return RawClass::Decided(OpOutcome::Committed);
        }
        // Published "applied" with the arm still in place: the crash may
        // have hit mid-closing-fence, where the result word (drained first)
        // persists while the link flush is lost. The structure decides.
        return RawClass::NeedsLookup;
    }
    if latest == 0 {
        // Nothing durably recorded at all (torn first-ever arm).
        return RawClass::Decided(OpOutcome::NotApplied);
    }
    // Armed (whole, by `latest_seq`) but unpublished: the structure decides.
    RawClass::NeedsLookup
}

/// Byte length of a table with `slots` slots.
pub(crate) fn table_len(slots: usize) -> usize {
    (OPS_HEADER_WORDS + slots * OP_SLOT_WORDS) * 8
}

/// The open-time snapshot of a pool's descriptor table, plus the
/// per-descriptor resolutions structures report back.
#[derive(Debug, Default)]
pub(crate) struct OpsState {
    /// Whether an ops table was present (and readable) at open.
    pub(crate) present: bool,
    /// Slot capacity read from the table header.
    pub(crate) capacity: u64,
    /// Slots with a nonzero sequence number, as found at open.
    pub(crate) snapshot: Vec<RawOp>,
    /// Structure-reported outcome per `snapshot` entry.
    pub(crate) resolved: Vec<Option<OpOutcome>>,
}

/// Recovery-GC tracer for the reserved ops root: the table is a single
/// block with no outgoing pointers, so marking the root block itself is the
/// complete walk.
// SAFETY: `root` is the reserved ops-table block, single-owner during the quiescent recovery walk.
pub(crate) unsafe fn ops_trace(root: *mut u8, marker: &mut crate::gc::Marker<'_>) {
    marker.mark(root);
}

impl Pool {
    /// The heap offset of this pool's descriptor table, if one was ever
    /// created.
    pub fn ops_table_offset(&self) -> Option<u64> {
        match self.root_offset(OPS_ROOT) {
            Some(off) if off != 0 => Some(off),
            _ => None,
        }
    }

    /// Creates the descriptor table on first use (allocated from the
    /// pool's own engine, zeroed, persisted, then registered under
    /// [`OPS_ROOT`] — a crash in between leaves only an unreachable block
    /// for the next recovery GC to sweep). Returns the table offset.
    ///
    /// Caller holds the `ops` mutex: concurrent registrants must not race
    /// the check-then-create, or the loser's slots would live in a block
    /// the winning root never reaches.
    fn ensure_ops_table(&self) -> io::Result<u64> {
        if let Some(off) = self.ops_table_offset() {
            return Ok(off);
        }
        debug_assert!(OPS_ROOT.len() <= MAX_ROOT_NAME);
        let len = table_len(OP_SLOTS);
        let ptr = self.alloc(len, 16).ok_or_else(|| {
            io::Error::other("pool exhausted while creating the operation-descriptor table")
        })?;
        let off = self.offset_of(ptr);
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        unsafe { std::ptr::write_bytes(ptr, 0, len) };
        self.inner.mem.store(off, OP_SLOTS as u64);
        // Contents durable before the root that makes them reachable.
        self.inner.mem.persist_range(off as usize, len);
        self.set_root_offset(OPS_ROOT, off)?;
        Ok(off)
    }

    /// Claims the next free descriptor slot for one client (typically one
    /// thread), creating the table on first use. Returns
    /// `(slot index, slot base pointer, current sequence number)` — the raw
    /// parts the typed `OpToken` in the `nvtraverse` crate wraps.
    ///
    /// Slots are never reused within a pool file's lifetime: a client that
    /// re-registers after a crash gets a fresh slot, and the crashed slot's
    /// descriptor stays answerable via [`Pool::op_outcome`].
    ///
    /// # Errors
    ///
    /// Fails when the pool is exhausted or the table is out of slots.
    pub fn register_op_token_raw(&self) -> io::Result<(u16, *mut u64, u64)> {
        let inner = &*self.inner;
        // The ops mutex serializes table creation and slot hand-out (it
        // nests *outside* the roots lock, which `ensure_ops_table` takes
        // internally; nothing locks in the other order).
        let _guard = inner.ops.lock().unwrap_or_else(|e| e.into_inner());
        let off = self.ensure_ops_table()?;
        let capacity = inner.mem.load(off);
        let next = inner.mem.load(off + 8);
        if next >= capacity {
            return Err(io::Error::other(format!(
                "all {capacity} operation-descriptor slots in use"
            )));
        }
        inner.mem.store(off + 8, next + 1);
        inner.mem.persist_u64(off + 8);
        let slot_off = off + ((OPS_HEADER_WORDS + next as usize * OP_SLOT_WORDS) * 8) as u64;
        let base = self.at(slot_off) as *mut u64;
        // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
        let seq = unsafe { base.add(OPW_SEQ).read_volatile() };
        Ok((next as u16, base, seq))
    }

    /// Classifies the operation named by `id` against the descriptor table
    /// **as it stood when this pool was opened** — the crash-recovery
    /// question ("did my in-flight op take effect?").
    ///
    /// Returns `None` when the pool has no descriptor table, the slot index
    /// is out of range, or the descriptor still awaits its structure's
    /// lookup (resolution runs when the owning structure attaches through
    /// the typed-root API; see [`Pool::unresolved_ops`]).
    pub fn op_outcome(&self, id: OpId) -> Option<OpOutcome> {
        let ops = self.inner.ops.lock().unwrap_or_else(|e| e.into_inner());
        if !ops.present || (id.slot() as u64) >= ops.capacity {
            return None;
        }
        let idx = ops.snapshot.iter().position(|r| r.slot == id.slot());
        match classify_raw(idx.map(|i| &ops.snapshot[i]), id) {
            RawClass::Decided(o) => Some(o),
            RawClass::NeedsLookup => ops.resolved[idx.expect("lookup implies a snapshot entry")],
        }
    }

    /// The open-time descriptors whose outcome still needs the recovered
    /// structure's lookup (neither decided by sequence numbers nor by a
    /// published no-op, and not yet [resolved](Pool::resolve_op)).
    pub fn unresolved_ops(&self) -> Vec<RawOp> {
        let ops = self.inner.ops.lock().unwrap_or_else(|e| e.into_inner());
        ops.snapshot
            .iter()
            .zip(&ops.resolved)
            .filter(|(r, done)| {
                done.is_none() && classify_raw(Some(r), r.id()) == RawClass::NeedsLookup
            })
            .map(|(r, _)| *r)
            .collect()
    }

    /// Records the structure-side classification of one open-time
    /// descriptor (the lookup half of the recovery contract — see the
    /// module docs), and folds it into the
    /// [recovery report](Pool::recovery_report)'s outcome counts.
    ///
    /// Ignored when `id` does not name a snapshot entry (wrong slot or
    /// stale sequence number).
    pub fn resolve_op(&self, id: OpId, outcome: OpOutcome) {
        let mut ops = self.inner.ops.lock().unwrap_or_else(|e| e.into_inner());
        let Some(idx) = ops
            .snapshot
            .iter()
            .position(|r| r.slot == id.slot() && r.seq == id.seq())
        else {
            return;
        };
        if ops.resolved[idx].replace(outcome).is_none() {
            let mut report = self.inner.report.lock().unwrap_or_else(|e| e.into_inner());
            report.ops_pending = report.ops_pending.saturating_sub(1);
            match outcome {
                OpOutcome::Committed => report.ops_committed += 1,
                _ => report.ops_not_applied += 1,
            }
        }
    }
}

/// Reads the descriptor table at `table_off` into an [`OpsState`] snapshot
/// and seeds the report's outcome counts. Called from `Pool::open` recovery
/// (quiescent, headers verified).
pub(crate) fn snapshot_ops(
    mem: crate::Mem,
    table_off: u64,
    report: &mut RecoveryReport,
) -> OpsState {
    let capacity = mem.load(table_off);
    if capacity == 0 || capacity > 4096 {
        // Not a plausible table (torn creation): leave it unreadable.
        return OpsState::default();
    }
    let mut state = OpsState {
        present: true,
        capacity,
        ..Default::default()
    };
    for slot in 0..capacity as usize {
        let base = table_off + ((OPS_HEADER_WORDS + slot * OP_SLOT_WORDS) * 8) as u64;
        let seq = mem.load(base + (OPW_SEQ * 8) as u64);
        if seq == 0 && mem.load(base + (OPW_RESULT * 8) as u64) == 0 {
            // Never armed and never published: virgin slot.
            continue;
        }
        let raw = RawOp {
            slot: slot as u16,
            seq,
            kind: mem.load(base + (OPW_KIND * 8) as u64),
            key: mem.load(base + (OPW_KEY * 8) as u64),
            value: mem.load(base + (OPW_VALUE * 8) as u64),
            target_tag: mem.load(base + (OPW_TARGET * 8) as u64),
            result: mem.load(base + (OPW_RESULT * 8) as u64),
            check: mem.load(base + (OPW_CHECK * 8) as u64),
        };
        report.ops_descriptors += 1;
        match classify_raw(Some(&raw), raw.id()) {
            RawClass::Decided(OpOutcome::Committed) => report.ops_committed += 1,
            RawClass::Decided(_) => report.ops_not_applied += 1,
            RawClass::NeedsLookup => report.ops_pending += 1,
        }
        state.snapshot.push(raw);
        state.resolved.push(None);
    }
    state
}
