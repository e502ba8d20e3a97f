//! The sealed summary a clean close leaves, so the next open needs no heap
//! walk.
//!
//! After a crash, an open must rebuild the allocator from the block headers
//! (the heap walk) and collect what the crash stranded (the recovery GC).
//! After a clean close there is nothing to rebuild: the close knows every
//! free block. When the last handle closes a pool whose collector drained
//! with nothing stranded, whose magazines are all back in the class
//! bitmaps and whose heap holds no crash garbage a collection has not
//! ruled out, it writes a **summary record** above the frontier — outside
//! the heap, so `heap_bytes` does not change — and the next open fills the
//! engine from it instead of walking.
//!
//! The record is sealed in the order of uOS-embedded's NVRAM data records
//! (`nvdata.c`): the state it describes reaches the file first (the
//! close's `msync`), then the record and its CRC, then the signature, then
//! the clean flag, each persisted before the next is written. The
//! signature is XOR-poisoned while the pool is open — the open's one
//! header persist, the one that clears the clean flag, carries it — so a
//! crash at any point leaves either no clean flag or a poisoned signature,
//! and a clean flag with a valid signature names a record that was whole
//! before either was written.
//!
//! An open trusts the record only when the clean flag reads
//! [`CLEAN_SEALED`], the signature is [`SIGNATURE`], the CRC matches and
//! the record's frontier is the header's; any mismatch takes the full walk.
//! A build that predates the seal closes with clean flag 1, so a pool it
//! touched is walked.
//!
//! Record layout, in 8-byte words at the 64-aligned offset the header's
//! `OFF_SEAL_AT` names:
//!
//! ```text
//! [ crc | words | frontier | live | free | count × 13 | free block offsets … ]
//!   crc-64 over every word after it; `words` counts the whole record;
//!   offsets grouped by class (oversize last), each group in address order
//! ```

use crate::{Mem, BLOCK_ALIGN, HEAP_START, NUM_CLASSES};

/// The signature of a sealed record: `"NVTSEAL1"` as little-endian bytes.
pub(crate) const SIGNATURE: u64 = u64::from_le_bytes(*b"NVTSEAL1");
/// XORed into the signature while the pool is open (`nvdata.c`'s `0xDEAD`).
pub(crate) const POISON: u64 = 0xDEAD;
/// The clean flag of a close that sealed a record; a close that could not
/// seal writes 1, an open writes 0.
pub(crate) const CLEAN_SEALED: u64 = 2;

/// Record words before the offsets: crc, words, frontier, live, free and
/// one count per class.
const FIXED: usize = 5 + NUM_CLASSES;

/// A verified record: the live count and each class's free block count; the
/// offsets stay in the mapping until [`Record::blocks`] reads them.
#[derive(Debug)]
pub(crate) struct Record {
    at: u64,
    pub(crate) live: u64,
    pub(crate) counts: [u64; NUM_CLASSES],
}

impl Record {
    /// Free blocks over all classes.
    pub(crate) fn free_blocks(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Every free block as `(class, offset)`: class by class, oversize
    /// last, each class in address order.
    pub(crate) fn blocks(&self, mem: Mem) -> impl Iterator<Item = (usize, u64)> + '_ {
        classes(&self.counts).zip((FIXED as u64..).map(move |i| mem.load(self.at + 8 * i)))
    }
}

/// The class of each record offset, in record order: `counts[class]` of
/// each class, oversize last.
fn classes(counts: &[u64; NUM_CLASSES]) -> impl Iterator<Item = usize> + '_ {
    counts.iter().enumerate().flat_map(|(class, &n)| (0..n).map(move |_| class))
}

/// Notes one step of the close sequence, so a test can check their order.
#[cfg(test)]
pub(crate) fn step(name: &'static str) {
    STEPS.with(|steps| steps.borrow_mut().push(name));
}

#[cfg(not(test))]
pub(crate) fn step(_: &'static str) {}

#[cfg(test)]
thread_local! {
    /// The close steps this thread ran, in order.
    pub(crate) static STEPS: std::cell::RefCell<Vec<&'static str>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Writes the record of a heap ending at `frontier` with `live` allocated
/// blocks and `counts[class]` free ones, whose `(class, offset)` pairs
/// `blocks` yields in [`Record::blocks`] order, at the first 64-byte
/// boundary above the frontier, and persists it, CRC included, to the
/// file. The offsets go straight into the mapping, never past the
/// `counts`' room. `false` (and no offset written to `at_field`) when the
/// pool has no room above the frontier, or `blocks` does not match
/// `counts` class for class.
pub(crate) fn write_record(
    mem: Mem,
    at_field: u64,
    frontier: u64,
    live: u64,
    counts: &[u64; NUM_CLASSES],
    blocks: impl IntoIterator<Item = (usize, u64)>,
) -> bool {
    let free: u64 = counts.iter().sum();
    let words = FIXED as u64 + free;
    let at = frontier.next_multiple_of(64);
    if at.checked_add(8 * words).is_none_or(|end| end > mem.len() as u64) {
        return false;
    }
    let mut crc = Crc64::default();
    let mut i = 1;
    let mut put = |w: u64| {
        mem.store(at + 8 * i, w);
        crc.word(w);
        i += 1;
    };
    [words, frontier, live, free].into_iter().chain(counts.iter().copied()).for_each(&mut put);
    let mut expected = classes(counts);
    for (class, off) in blocks {
        if expected.next() != Some(class) {
            return false;
        }
        put(off);
    }
    if expected.next().is_some() {
        return false;
    }
    mem.store(at, crc.finish());
    mem.store(at_field, at);
    mem.persist_range(at as usize, 8 * words as usize);
    mem.persist_u64(at_field);
    mem.sync_range(at as usize, 8 * words as usize);
    step("record");
    true
}

/// The record at the offset `at_field` names, if it is whole — its CRC
/// matches, its counts add up, every offset lies in the heap, 16-aligned
/// and ascending within its class — and describes a heap ending at
/// `frontier`. One pass over the record's words, all read from the mapping.
pub(crate) fn read_record(mem: Mem, at_field: u64, frontier: u64) -> Option<Record> {
    let at = mem.load(at_field);
    let len = mem.len() as u64;
    let fits = |n: u64| n.checked_mul(8).and_then(|b| at.checked_add(b)).is_some_and(|end| end <= len);
    if at < frontier || !at.is_multiple_of(64) || !fits(FIXED as u64) {
        return None;
    }
    let word = |i: u64| mem.load(at + 8 * i);
    let (words, free) = (word(1), word(4));
    if words.checked_sub(FIXED as u64) != Some(free) || !fits(words) || word(2) != frontier {
        return None;
    }
    let mut crc = Crc64::default();
    (1..FIXED as u64).for_each(|i| crc.word(word(i)));
    let mut record = Record { at, live: word(3), counts: [0; NUM_CLASSES] };
    record.counts.iter_mut().enumerate().for_each(|(class, c)| *c = word(5 + class as u64));
    if record.counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c)) != Some(free) {
        return None;
    }
    let mut i = FIXED as u64;
    for &count in &record.counts {
        let mut last = None;
        for _ in 0..count {
            let off = word(i);
            crc.word(off);
            if off < HEAP_START || off >= frontier || !off.is_multiple_of(BLOCK_ALIGN) || last >= Some(off) {
                return None;
            }
            last = Some(off);
            i += 1;
        }
    }
    (crc.finish() == word(0)).then_some(record)
}

/// What a heap holds, as a test compares it: a sealed open must restore
/// what a walk of the same heap finds.
#[cfg(test)]
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Summary {
    /// The frontier the heap ends at.
    pub(crate) frontier: u64,
    /// Allocated blocks below the frontier.
    pub(crate) live: u64,
    /// Each class's free blocks (oversize last), in address order.
    pub(crate) free: [Vec<u64>; NUM_CLASSES],
}

/// A running CRC-64/XZ over words' little-endian bytes.
struct Crc64(u64);

impl Default for Crc64 {
    fn default() -> Self {
        Crc64(!0)
    }
}

impl Crc64 {
    /// Eight bytes at once (slicing-by-8): the eight lookups are
    /// independent, where a byte at a time chains them.
    fn word(&mut self, w: u64) {
        let c = self.0 ^ w;
        self.0 = (0..8).fold(0, |acc, i| acc ^ CRC64_TABLES[7 - i][((c >> (8 * i)) & 0xFF) as usize]);
    }

    #[cfg(test)]
    fn byte(&mut self, b: u8) {
        self.0 = CRC64_TABLES[0][((self.0 ^ u64::from(b)) & 0xFF) as usize] ^ (self.0 >> 8);
    }

    fn finish(&self) -> u64 {
        !self.0
    }
}

/// CRC-64/XZ (ECMA-182, reflected) tables for slicing-by-8: `[0]` is the
/// byte table, `[k]` advances a byte's contribution past `k` more zero
/// bytes. A 64-bit CRC detects every burst of up to 64 bits, so any change
/// confined to one record word is always caught.
const CRC64_TABLES: [[u64; 256]; 8] = {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u64;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ 0xC96C_5795_D787_0F42 } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_xz_check_value() {
        let mut crc = Crc64::default();
        b"123456789".iter().for_each(|&b| crc.byte(b));
        assert_eq!(crc.finish(), 0x995D_C9BB_DF19_39FA);
        // A word at a time is the same CRC as its bytes one at a time.
        let words = [0x0123_4567_89AB_CDEF, 0, u64::MAX, 0xDEAD];
        let (mut by_word, mut by_byte) = (Crc64::default(), Crc64::default());
        for w in words {
            by_word.word(w);
            w.to_le_bytes().into_iter().for_each(|b| by_byte.byte(b));
        }
        assert_eq!(by_word.finish(), by_byte.finish());
    }

    #[test]
    fn a_record_round_trips_and_any_one_word_change_is_refused() {
        let mut buf = vec![0u64; 1024];
        let mem = Mem { base: buf.as_mut_ptr() as usize, len: 8 * buf.len() };
        let (at_field, frontier) = (56, HEAP_START + 1024);
        let mut counts = [0; NUM_CLASSES];
        counts[1] = 2;
        counts[NUM_CLASSES - 1] = 1;
        let blocks = [(1, HEAP_START), (1, HEAP_START + 64), (NUM_CLASSES - 1, HEAP_START + 512)];
        assert!(write_record(mem, at_field, frontier, 7, &counts, blocks));
        let read = |frontier| read_record(mem, at_field, frontier).map(|r| (r.live, r.counts, r.blocks(mem).collect::<Vec<_>>()));
        assert_eq!(read(frontier), Some((7, counts, blocks.to_vec())));
        assert!(read(frontier + 4096).is_none(), "another frontier");
        let at = mem.load(at_field);
        let words = mem.load(at + 8);
        for i in 0..words {
            let w = mem.load(at + 8 * i);
            for bad in [w ^ 1, w ^ (1 << 63), 0, !w] {
                if bad == w {
                    continue;
                }
                mem.store(at + 8 * i, bad);
                assert!(read(frontier).is_none(), "word {i} = {bad:#x} accepted");
                mem.store(at + 8 * i, w);
            }
        }
        assert!(!write_record(mem, at_field, frontier, 7, &counts, blocks[..2].iter().copied()), "a short block list");
        // A block list longer than `counts`, or grouped differently, is
        // refused, and nothing is written past the record's room.
        let end = at + 8 * words;
        mem.store(end, 0x5EA1);
        let long = blocks.into_iter().chain([(NUM_CLASSES - 1, HEAP_START + 768)]);
        assert!(!write_record(mem, at_field, frontier, 7, &counts, long), "a long block list");
        assert_eq!(mem.load(end), 0x5EA1, "a long block list wrote past the record");
        let regrouped = [(1, HEAP_START), (NUM_CLASSES - 1, HEAP_START + 64), (NUM_CLASSES - 1, HEAP_START + 512)];
        assert!(!write_record(mem, at_field, frontier, 7, &counts, regrouped), "a block filed in another class");
        drop(buf);
    }
}
