//! The dynamic persistency sanitizer: [`Vet`].
//!
//! `Vet` installs itself as a passive [`SimObserver`] on a
//! [`SimHandle`] and mirrors the simulator's cell registry through a
//! per-word state machine:
//!
//! ```text
//!            write                 flush                fence
//!   Clean ─────────▶ Dirty ─────────────▶ Flushed ─────────────▶ Persisted
//!     ▲                                                              │
//!     └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Each word carries a monotone `dirty_seq` (bumped by every tracked
//! write) and `persisted_seq` (raised when a fence lands a flush of that
//! sequence); `persisted_seq < dirty_seq` means the word's current value
//! would not survive a crash. On top of that the sanitizer keeps the node
//! extents reported by range registration, a per-thread buffer mirroring
//! the simulator's un-fenced flushes, and a per-operation write/flush log
//! (operations are delimited with [`Vet::op`]).
//!
//! Findings (see [`FindingKind`]) are classified per operation and
//! phase-attributed through the thread's current
//! [`nvtraverse_obs::Phase`]. Everything is observation-only: installing
//! a `Vet` never changes step counts, persisted state, or crash points.

use nvtraverse_obs as obs;
use nvtraverse_pmem::{SimHandle, SimObserver, WriteKind};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::thread::ThreadId;

/// Low bits data structures steal from aligned pointers (mark / flag /
/// link-and-persist dirty); masked off before treating a CAS'd value as a
/// potential node address.
const TAG_MASK: u64 = 0b111;

/// At most this many findings of each kind keep their full details;
/// further occurrences are only counted. Keeps pathological runs (a
/// mutant policy violating on every operation) from ballooning reports.
const MAX_DETAILED_PER_KIND: usize = 64;

/// Classification of a sanitizer finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A successful CAS on a durable link published a node some of whose
    /// words are not persisted: a crash now poisons reachable memory. The
    /// bug class behind "missing `flush(newNode)`" — what
    /// `tests/checker_detects_bugs.rs` needs a full crash sweep to expose.
    UnpersistedPublish,
    /// An operation returned while a durable word it wrote was still
    /// unpersisted — a durable-linearizability leak (the op's effects can
    /// be lost after its caller observed completion).
    DirtyAtReturn,
    /// A flush or fence touched a word whose registration was already
    /// removed (freed memory) — a dangling `Sim` registration.
    FlushAfterFree,
    /// Warn-level: the same word was flushed twice at the same write
    /// sequence within one operation; the second flush adds nothing.
    RedundantFlush,
    /// Warn-level: a fence was issued with no flush pending on the
    /// thread; in the persistency model it is a no-op.
    RedundantFence,
}

impl FindingKind {
    /// Every kind, errors first.
    pub const ALL: [FindingKind; 5] = [
        FindingKind::UnpersistedPublish,
        FindingKind::DirtyAtReturn,
        FindingKind::FlushAfterFree,
        FindingKind::RedundantFlush,
        FindingKind::RedundantFence,
    ];

    /// Whether this kind is an error (protocol violation) rather than a
    /// warn-level performance lint.
    pub fn is_error(self) -> bool {
        !matches!(self, FindingKind::RedundantFlush | FindingKind::RedundantFence)
    }

    /// Stable kebab-case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::UnpersistedPublish => "unpersisted-publish",
            FindingKind::DirtyAtReturn => "dirty-at-return",
            FindingKind::FlushAfterFree => "flush-after-free",
            FindingKind::RedundantFlush => "redundant-flush",
            FindingKind::RedundantFence => "redundant-fence",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One sanitizer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// The word the finding anchors to (the CAS'd link, the dirty word,
    /// the freed address).
    pub addr: usize,
    /// The thread's `nvtraverse-obs` phase at the event
    /// ([`obs::Phase::Unattributed`] when observability is off).
    pub phase: obs::Phase,
    /// Label of the enclosing [`Vet::op`] scope, if any.
    pub op: Option<String>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {:#x} ({}{}): {}",
            self.kind,
            self.addr,
            self.phase.name(),
            match &self.op {
                Some(l) => format!(", op {l}"),
                None => String::new(),
            },
            self.detail
        )
    }
}

/// Aggregated result of a sanitized run; see [`Vet::finish`].
#[derive(Debug, Clone, Default)]
pub struct VetReport {
    /// Detailed findings (capped per kind; `counts` has exact totals).
    pub findings: Vec<Finding>,
    /// Exact total occurrences per kind (uncapped).
    counts: HashMap<FindingKind, usize>,
    /// Operations delimited with [`Vet::op`].
    pub ops: u64,
}

impl VetReport {
    /// Total occurrences of `kind` (exact even beyond the detail cap).
    pub fn count(&self, kind: FindingKind) -> usize {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total error-level findings.
    pub fn errors(&self) -> usize {
        FindingKind::ALL
            .iter()
            .filter(|k| k.is_error())
            .map(|&k| self.count(k))
            .sum()
    }

    /// Total warn-level findings.
    pub fn warnings(&self) -> usize {
        FindingKind::ALL
            .iter()
            .filter(|k| !k.is_error())
            .map(|&k| self.count(k))
            .sum()
    }

    /// Serializes the report as one JSON object: per-kind counts, error
    /// and warning totals, the op count, and the detailed findings.
    /// Dependency-free, same style as `nvtraverse-obs`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.findings.len());
        out.push_str("{\"counts\":{");
        for (i, k) in FindingKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", k.name(), self.count(*k)));
        }
        out.push_str(&format!(
            "}},\"errors\":{},\"warnings\":{},\"ops\":{},\"findings\":[",
            self.errors(),
            self.warnings(),
            self.ops
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"addr\":{},\"phase\":\"{}\",\"op\":{},\"detail\":\"{}\"}}",
                f.kind.name(),
                f.addr,
                f.phase.name(),
                match &f.op {
                    Some(l) => format!("\"{}\"", json_escape(l)),
                    None => "null".to_string(),
                },
                json_escape(&f.detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Per-word sanitizer state.
struct CellState {
    /// Bumped by every tracked write. Starts at 1 on registration:
    /// freshly allocated contents are not persisted.
    dirty_seq: u64,
    /// Highest write sequence known persisted (flush of that sequence
    /// followed by a fence). Starts at 0.
    persisted_seq: u64,
    /// Declared volatile-by-design (recovery never reads it); exempt from
    /// durability rules.
    volatile: bool,
}

impl CellState {
    fn fresh() -> CellState {
        CellState {
            dirty_seq: 1,
            persisted_seq: 0,
            volatile: false,
        }
    }

    fn unpersisted(&self) -> bool {
        self.persisted_seq < self.dirty_seq
    }
}

/// Per-operation log (one [`Vet::op`] scope on one thread).
struct OpState {
    label: String,
    /// Non-volatile words written during the op.
    written: HashSet<usize>,
    /// `(addr, dirty_seq)` pairs flushed during the op (redundancy check).
    flushed: HashSet<(usize, u64)>,
}

#[derive(Default)]
struct ThreadState {
    /// Mirror of the simulator's un-fenced flush buffer: `(addr, seq)`.
    pending: Vec<(usize, u64)>,
    op: Option<OpState>,
}

#[derive(Default)]
struct State {
    cells: HashMap<usize, CellState>,
    /// Registered node extents: `start -> len`.
    ranges: BTreeMap<usize, usize>,
    threads: HashMap<ThreadId, ThreadState>,
    findings: Vec<Finding>,
    counts: HashMap<FindingKind, usize>,
    ops: u64,
}

impl State {
    fn record(&mut self, kind: FindingKind, addr: usize, detail: String) {
        let n = self.counts.entry(kind).or_insert(0);
        *n += 1;
        if *n <= MAX_DETAILED_PER_KIND {
            let op = self
                .threads
                .get(&std::thread::current().id())
                .and_then(|t| t.op.as_ref())
                .map(|o| o.label.clone());
            self.findings.push(Finding {
                kind,
                addr,
                phase: obs::current_phase(),
                op,
                detail,
            });
        }
    }

    /// The registered range containing `addr`, if any.
    fn range_of(&self, addr: usize) -> Option<(usize, usize)> {
        let (&start, &len) = self.ranges.range(..=addr).next_back()?;
        (addr < start + len).then_some((start, len))
    }

    fn thread(&mut self) -> &mut ThreadState {
        self.threads.entry(std::thread::current().id()).or_default()
    }
}

struct Shared {
    state: Mutex<State>,
}

impl SimObserver for Shared {
    fn on_register_range(&self, addr: usize, len: usize) {
        let mut s = self.state.lock();
        // A re-registration supersedes whatever previously occupied the
        // address space (memory reuse after free).
        let overlapping: Vec<usize> = s
            .ranges
            .range(..addr + len)
            .filter(|&(&start, &l)| start + l > addr)
            .map(|(&start, _)| start)
            .collect();
        for start in overlapping {
            s.ranges.remove(&start);
        }
        s.ranges.insert(addr, len);
        for w in (addr..addr + len.div_ceil(8) * 8).step_by(8) {
            s.cells.insert(w, CellState::fresh());
        }
    }

    fn on_deregister_range(&self, addr: usize, len: usize) {
        let mut s = self.state.lock();
        for w in (addr..addr + len.div_ceil(8) * 8).step_by(8) {
            s.cells.remove(&w);
        }
        // Drop any recorded extent fully covered by the deregistration.
        let covered: Vec<usize> = s
            .ranges
            .range(addr..addr + len)
            .filter(|&(&start, &l)| start + l <= addr + len)
            .map(|(&start, _)| start)
            .collect();
        for start in covered {
            s.ranges.remove(&start);
        }
    }

    fn on_mark_volatile_range(&self, addr: usize, len: usize) {
        let mut s = self.state.lock();
        for w in (addr..addr + len.div_ceil(8) * 8).step_by(8) {
            if let Some(c) = s.cells.get_mut(&w) {
                c.volatile = true;
            }
        }
    }

    fn on_tracked_write(&self, addr: usize, bits: u64, kind: WriteKind, wrote: bool) {
        if !wrote {
            return;
        }
        let mut s = self.state.lock();
        let (volatile, known) = match s.cells.get_mut(&addr) {
            Some(c) => {
                c.dirty_seq += 1;
                (c.volatile, true)
            }
            None => (false, false),
        };
        if known && !volatile {
            let tid = std::thread::current().id();
            if let Some(op) = s.threads.entry(tid).or_default().op.as_mut() {
                op.written.insert(addr);
            }
        }
        // Publish check: a successful CAS on a durable link whose new value
        // points at another registered extent makes that extent durably
        // reachable — every durable word of it must already be persisted.
        if kind == WriteKind::Cas && known && !volatile {
            let target = (bits & !TAG_MASK) as usize;
            if target != 0 {
                let writer_range = s.range_of(addr);
                if let Some((start, len)) = s.range_of(target) {
                    if writer_range.map(|(ws, _)| ws) != Some(start) {
                        let mut dirty_words = 0usize;
                        let mut first = None;
                        for w in (start..start + len.div_ceil(8) * 8).step_by(8) {
                            if let Some(c) = s.cells.get(&w) {
                                if !c.volatile && c.unpersisted() {
                                    dirty_words += 1;
                                    first.get_or_insert(w);
                                }
                            }
                        }
                        if let Some(first) = first {
                            s.record(
                                FindingKind::UnpersistedPublish,
                                addr,
                                format!(
                                    "CAS published node {start:#x} (+{len}B) with {dirty_words} \
                                     unpersisted word(s), first at offset {}",
                                    first - start
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    fn on_flush(&self, addr: usize) {
        let mut s = self.state.lock();
        let seq = match s.cells.get(&addr) {
            None => {
                s.record(
                    FindingKind::FlushAfterFree,
                    addr,
                    "flush of an unregistered (freed) cell".to_string(),
                );
                return;
            }
            Some(c) => c.dirty_seq,
        };
        let redundant = {
            let t = s.thread();
            let redundant = match t.op.as_mut() {
                Some(op) => !op.flushed.insert((addr, seq)),
                None => false,
            };
            t.pending.push((addr, seq));
            redundant
        };
        if redundant {
            s.record(
                FindingKind::RedundantFlush,
                addr,
                format!("word flushed twice at write seq {seq} within one operation"),
            );
        }
    }

    fn on_fence(&self) {
        let mut s = self.state.lock();
        let t = s.thread();
        let in_op = t.op.is_some();
        let pending = std::mem::take(&mut t.pending);
        if pending.is_empty() {
            if in_op {
                s.record(
                    FindingKind::RedundantFence,
                    0,
                    "fence with no flush pending on this thread".to_string(),
                );
            }
            return;
        }
        let mut freed = Vec::new();
        for (addr, seq) in pending {
            match s.cells.get_mut(&addr) {
                Some(c) => c.persisted_seq = c.persisted_seq.max(seq),
                None => freed.push(addr),
            }
        }
        for addr in freed {
            s.record(
                FindingKind::FlushAfterFree,
                addr,
                "cell freed between its flush and the fence".to_string(),
            );
        }
    }
}

/// The dynamic persistency sanitizer. See the [module docs](self).
///
/// # Example
///
/// ```
/// use nvtraverse_pmem::{Backend, PCell, Sim, SimHandle};
/// use nvtraverse_vet::Vet;
///
/// let sim = SimHandle::new();
/// let _g = sim.enter();
/// let vet = Vet::install(&sim);
/// let cell: Box<PCell<u64, Sim>> = Box::new(PCell::new(0));
/// sim.register_cell(cell.addr() as usize);
/// vet.op("store+persist", || {
///     cell.store(7);
///     Sim::flush(cell.addr());
///     Sim::fence();
/// });
/// let report = vet.finish(&sim);
/// assert_eq!(report.errors(), 0);
/// ```
pub struct Vet {
    shared: Arc<Shared>,
}

impl fmt::Debug for Vet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.shared.state.lock();
        f.debug_struct("Vet")
            .field("cells", &s.cells.len())
            .field("findings", &s.findings.len())
            .finish()
    }
}

impl Vet {
    /// Creates a sanitizer and installs it as `sim`'s observer (replacing
    /// any previous observer).
    ///
    /// Cells already registered before installation are unknown to the
    /// sanitizer; install before building the structure under test.
    pub fn install(sim: &SimHandle) -> Vet {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
        });
        sim.set_observer(Some(shared.clone()));
        Vet { shared }
    }

    /// Runs `f` as one delimited operation.
    ///
    /// Within the scope, flush/fence redundancy is tracked; when `f`
    /// returns, every non-volatile word the operation wrote (and did not
    /// free) must be persisted, or a [`FindingKind::DirtyAtReturn`] error
    /// is recorded against `label`.
    pub fn op<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        {
            let mut s = self.shared.state.lock();
            s.ops += 1;
            let t = s.thread();
            assert!(t.op.is_none(), "Vet::op scopes do not nest");
            t.op = Some(OpState {
                label: label.to_string(),
                written: HashSet::new(),
                flushed: HashSet::new(),
            });
        }
        let r = f();
        let mut s = self.shared.state.lock();
        let op = s
            .thread()
            .op
            .take()
            .expect("Vet::op scope vanished mid-operation");
        let mut dirty: Vec<usize> = op
            .written
            .iter()
            .copied()
            .filter(|addr| {
                s.cells
                    .get(addr)
                    .is_some_and(|c| !c.volatile && c.unpersisted())
            })
            .collect();
        dirty.sort_unstable();
        for addr in dirty {
            s.record(
                FindingKind::DirtyAtReturn,
                addr,
                format!("operation `{}` returned with this word unpersisted", op.label),
            );
        }
        r
    }

    /// Snapshot of the findings so far without uninstalling.
    pub fn report(&self) -> VetReport {
        let s = self.shared.state.lock();
        VetReport {
            findings: s.findings.clone(),
            counts: s.counts.clone(),
            ops: s.ops,
        }
    }

    /// Uninstalls the sanitizer from `sim` and returns the final report.
    pub fn finish(self, sim: &SimHandle) -> VetReport {
        sim.set_observer(None);
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse_pmem::{Backend, PCell, Sim};

    fn setup() -> (SimHandle, nvtraverse_pmem::sim::SimGuard) {
        let sim = SimHandle::new();
        let g = sim.enter();
        (sim, g)
    }

    fn reg_cell(sim: &SimHandle, v: u64) -> Box<PCell<u64, Sim>> {
        let c = Box::new(PCell::new(v));
        sim.register_cell(c.addr() as usize);
        c
    }

    #[test]
    fn clean_store_flush_fence_has_no_findings() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let c = reg_cell(&sim, 0);
        vet.op("store", || {
            c.store(5);
            Sim::flush(c.addr());
            Sim::fence();
        });
        let r = vet.finish(&sim);
        assert_eq!(r.errors(), 0, "{:?}", r.findings);
        assert_eq!(r.warnings(), 0, "{:?}", r.findings);
        assert_eq!(r.ops, 1);
    }

    #[test]
    fn dirty_at_return_is_flagged() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let c = reg_cell(&sim, 0);
        vet.op("leaky", || c.store(5));
        let r = vet.finish(&sim);
        assert_eq!(r.count(FindingKind::DirtyAtReturn), 1, "{:?}", r.findings);
    }

    #[test]
    fn flush_without_fence_still_dirty_at_return() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let c = reg_cell(&sim, 0);
        vet.op("no-fence", || {
            c.store(5);
            Sim::flush(c.addr());
        });
        let r = vet.finish(&sim);
        assert_eq!(r.count(FindingKind::DirtyAtReturn), 1, "{:?}", r.findings);
    }

    #[test]
    fn unpersisted_publish_is_flagged_and_persisted_publish_is_not() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        // A "link" cell and a "node" the link will point at.
        let link = reg_cell(&sim, 0);
        let node: Box<[u64; 2]> = Box::new([0, 0]);
        let addr = node.as_ptr() as usize;
        sim.register_range(addr, 16);

        // Publish without persisting the node: flagged.
        let link_cell: &PCell<u64, Sim> = &link;
        assert!(link_cell.compare_exchange(0, addr as u64).is_ok());
        let r = vet.report();
        assert_eq!(r.count(FindingKind::UnpersistedPublish), 1, "{:?}", r.findings);

        // Persist the node, then republish: no new finding.
        Sim::flush(addr as *const u8);
        Sim::flush((addr + 8) as *const u8);
        Sim::fence();
        assert!(link_cell.compare_exchange(addr as u64, 0).is_ok());
        assert!(link_cell.compare_exchange(0, addr as u64).is_ok());
        let r = vet.finish(&sim);
        assert_eq!(r.count(FindingKind::UnpersistedPublish), 1, "{:?}", r.findings);
    }

    #[test]
    fn volatile_marked_links_are_exempt_from_publish_check() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let link = reg_cell(&sim, 0);
        nvtraverse_pmem::sim::current_mark_volatile_range(link.addr() as usize, 8);
        let node: Box<[u64; 1]> = Box::new([0]);
        let addr = node.as_ptr() as usize;
        sim.register_range(addr, 8);
        let link_cell: &PCell<u64, Sim> = &link;
        assert!(link_cell.compare_exchange(0, addr as u64).is_ok());
        // A write to a volatile cell is also exempt from dirty-at-return.
        let r = vet.finish(&sim);
        assert_eq!(r.errors(), 0, "{:?}", r.findings);
    }

    #[test]
    fn flush_after_free_is_flagged() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let node: Box<[u64; 1]> = Box::new([7]);
        let addr = node.as_ptr() as usize;
        sim.register_range(addr, 8);
        sim.deregister_range(addr, 8);
        Sim::flush(addr as *const u8);
        let r = vet.finish(&sim);
        assert_eq!(r.count(FindingKind::FlushAfterFree), 1, "{:?}", r.findings);
    }

    #[test]
    fn free_between_flush_and_fence_is_flagged() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let node: Box<[u64; 1]> = Box::new([7]);
        let addr = node.as_ptr() as usize;
        sim.register_range(addr, 8);
        Sim::flush(addr as *const u8);
        sim.deregister_range(addr, 8);
        Sim::fence();
        let r = vet.finish(&sim);
        assert_eq!(r.count(FindingKind::FlushAfterFree), 1, "{:?}", r.findings);
    }

    #[test]
    fn redundant_flush_and_fence_warn_within_an_op() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let c = reg_cell(&sim, 0);
        vet.op("wasteful", || {
            c.store(1);
            Sim::flush(c.addr());
            Sim::flush(c.addr()); // same word, same write seq
            Sim::fence();
            Sim::fence(); // nothing pending
        });
        let r = vet.finish(&sim);
        assert_eq!(r.count(FindingKind::RedundantFlush), 1, "{:?}", r.findings);
        assert_eq!(r.count(FindingKind::RedundantFence), 1, "{:?}", r.findings);
        assert_eq!(r.errors(), 0, "warnings must not be errors: {:?}", r.findings);
    }

    #[test]
    fn freed_writes_do_not_leak_dirty_at_return() {
        // A failed insert allocates, writes, then frees — no finding.
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        vet.op("alloc-free", || {
            let node: Box<PCell<u64, Sim>> = Box::new(PCell::new(0));
            sim.register_cell(node.addr() as usize);
            node.store(3);
            drop(node); // PCell drop deregisters
        });
        let r = vet.finish(&sim);
        assert_eq!(r.errors(), 0, "{:?}", r.findings);
    }

    #[test]
    fn report_json_is_well_formed() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let c = reg_cell(&sim, 0);
        vet.op("leak \"quoted\"", || c.store(1));
        let r = vet.finish(&sim);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"dirty-at-return\":1"), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
    }

    #[test]
    fn observer_uninstalls_on_finish() {
        let (sim, _g) = setup();
        let vet = Vet::install(&sim);
        let c = reg_cell(&sim, 0);
        let r = vet.finish(&sim);
        assert_eq!(r.errors(), 0);
        c.store(9); // no observer: must not panic or record
    }
}
