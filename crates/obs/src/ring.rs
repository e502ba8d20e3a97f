//! A bounded lock-free ring of recent pool lifecycle events.
//!
//! The ring keeps the last [`CAPACITY`] events — pool create/open, recovery
//! GC runs, clean closes — for post-mortem dumps: when a
//! process wedges or a recovery surprises, `recent()` (or the `events`
//! section of [`crate::stats_json`]) answers "what did the pools just do?"
//! without any logging infrastructure.
//!
//! Writers claim a slot with one `fetch_add` on a global head and publish
//! through a per-slot sequence word (a seqlock): the slot's data fields are
//! plain relaxed atomics, and a reader accepts a slot only when it observes
//! the same even sequence number before and after reading the fields. A
//! writer lapping a reader therefore causes a *skipped* event in the dump,
//! never a torn one. Recording is wait-free apart from the claim
//! `fetch_add`; reading is lock-free.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of slots the ring retains (newest events overwrite oldest).
pub const CAPACITY: usize = 256;

/// Bytes of the event label stored inline (longer labels are truncated).
pub const LABEL_BYTES: usize = 24;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum EventKind {
    /// A pool file was created and formatted.
    Create = 1,
    /// An existing pool file was opened (after recovery finished). `a` =
    /// live blocks, `b` = which path the open took: 1 when it read the
    /// sealed summary of a clean close, 0 when it walked the heap.
    Open = 2,
    /// A pool's recovery collection ran. `a` = blocks reclaimed, `b` =
    /// bytes.
    Gc = 3,
    /// A pool was cleanly closed (last handle dropped). `a` = 1 when the
    /// close sealed a summary for the next open, 0 when it could not.
    Close = 5,
}

impl EventKind {
    /// Stable lowercase name (JSON).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Create => "create",
            EventKind::Open => "open",
            EventKind::Gc => "gc",
            EventKind::Close => "close",
        }
    }

    fn from_u64(v: u64) -> Option<EventKind> {
        match v {
            1 => Some(EventKind::Create),
            2 => Some(EventKind::Open),
            3 => Some(EventKind::Gc),
            5 => Some(EventKind::Close),
            _ => None,
        }
    }
}

/// A decoded ring event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotone sequence number of the event (global order of recording).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Short label — the pool's file name, truncated to [`LABEL_BYTES`].
    pub label: String,
    /// First payload word (kind-specific; e.g. blocks reclaimed).
    pub a: u64,
    /// Second payload word (kind-specific; e.g. bytes reclaimed).
    pub b: u64,
}

/// One ring slot. `seq` is the seqlock word: 0 = never written, odd =
/// write in progress, even `2n+2` = slot holds the event claimed with
/// ticket `n`. Data fields are relaxed atomics so concurrent read/write
/// races are defined (the seq check discards torn combinations).
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    label: [AtomicU64; LABEL_BYTES / 8],
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            label: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

static HEAD: AtomicU64 = AtomicU64::new(0);
static RING: [Slot; CAPACITY] = [const { Slot::new() }; CAPACITY];

fn pack_label(label: &str) -> [u64; LABEL_BYTES / 8] {
    let mut bytes = [0u8; LABEL_BYTES];
    let src = label.as_bytes();
    let n = src.len().min(LABEL_BYTES);
    bytes[..n].copy_from_slice(&src[..n]);
    let mut words = [0u64; LABEL_BYTES / 8];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
    }
    words
}

fn unpack_label(words: [u64; LABEL_BYTES / 8]) -> String {
    let mut bytes = [0u8; LABEL_BYTES];
    for (i, w) in words.iter().enumerate() {
        bytes[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(LABEL_BYTES);
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}

/// Records one lifecycle event (no-op when [`crate::enabled`] is off).
/// Labels longer than [`LABEL_BYTES`] bytes are truncated; multi-byte
/// UTF-8 cut at the boundary decodes lossily in [`recent`].
pub fn record(kind: EventKind, label: &str, a: u64, b: u64) {
    if !crate::enabled() {
        return;
    }
    let ticket = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &RING[(ticket as usize) % CAPACITY];
    // Odd = write in progress. Release so the data stores below can be
    // relaxed; the closing even store publishes them.
    slot.seq.store(2 * ticket + 1, Ordering::Release);
    slot.kind.store(kind as u64, Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    for (dst, word) in slot.label.iter().zip(pack_label(label)) {
        dst.store(word, Ordering::Relaxed);
    }
    slot.seq.store(2 * ticket + 2, Ordering::Release);
}

/// The retained events, oldest → newest. Slots a writer is mid-way through
/// (or laps during the read) are skipped rather than returned torn.
pub fn recent() -> Vec<Event> {
    let head = HEAD.load(Ordering::Acquire);
    let window = (head as usize).min(CAPACITY) as u64;
    let mut out = Vec::with_capacity(window as usize);
    for ticket in head.saturating_sub(window)..head {
        let slot = &RING[(ticket as usize) % CAPACITY];
        let seq0 = slot.seq.load(Ordering::Acquire);
        if seq0 != 2 * ticket + 2 {
            continue; // empty, mid-write, or already overwritten
        }
        let kind = slot.kind.load(Ordering::Relaxed);
        let a = slot.a.load(Ordering::Relaxed);
        let b = slot.b.load(Ordering::Relaxed);
        let mut label = [0u64; LABEL_BYTES / 8];
        for (dst, src) in label.iter_mut().zip(slot.label.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        // Seqlock validation: unchanged even seq ⇒ the reads above were
        // not interleaved with a writer.
        if slot.seq.load(Ordering::Acquire) != seq0 {
            continue;
        }
        if let Some(kind) = EventKind::from_u64(kind) {
            out.push(Event {
                seq: ticket,
                kind,
                label: unpack_label(label),
                a,
                b,
            });
        }
    }
    out
}

/// The retained events as a JSON array (used by [`crate::stats_json`]).
pub fn events_json() -> String {
    let mut out = String::from("[");
    for (i, e) in recent().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"label\":\"{}\",\"a\":{},\"b\":{}}}",
            e.seq,
            e.kind.name(),
            crate::json_escape(&e.label),
            e.a,
            e.b
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order_with_payloads() {
        record(EventKind::Create, "ring-test-a.pool", 0, 0);
        record(EventKind::Gc, "ring-test-a.pool", 7, 4096);
        record(EventKind::Close, "ring-test-a.pool", 0, 0);
        let events = recent();
        let mine: Vec<&Event> = events
            .iter()
            .filter(|e| e.label == "ring-test-a.pool")
            .collect();
        assert!(mine.len() >= 3);
        let gc = mine.iter().find(|e| e.kind == EventKind::Gc).unwrap();
        assert_eq!((gc.a, gc.b), (7, 4096));
        // Global order is preserved within the filtered view.
        assert!(mine.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn long_labels_truncate_without_panicking() {
        let long = "x".repeat(100);
        record(EventKind::Open, &long, 1, 2);
        let events = recent();
        let e = events
            .iter()
            .rev()
            .find(|e| e.kind == EventKind::Open && e.label.starts_with('x'))
            .unwrap();
        assert_eq!(e.label.len(), LABEL_BYTES);
    }

    #[test]
    fn overwrite_keeps_only_the_window() {
        for i in 0..(CAPACITY as u64 + 50) {
            record(EventKind::Gc, "ring-flood", i, 0);
        }
        let events = recent();
        assert!(events.len() <= CAPACITY);
        // The newest flood event must be present.
        assert!(events
            .iter()
            .any(|e| e.label == "ring-flood" && e.a == CAPACITY as u64 + 49));
    }

    #[test]
    fn json_array_is_well_formed() {
        record(EventKind::Open, "json\"quote", 0, 0);
        let json = events_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("json\\\"quote"));
    }
}
