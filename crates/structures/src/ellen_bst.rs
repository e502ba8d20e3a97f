//! Ellen et al.'s non-blocking external binary search tree (PODC 2010) in
//! traversal form — one of the two BSTs of the paper's evaluation (§5).
//!
//! The tree is *external*: internal nodes carry routing keys only, all data
//! lives in leaves, and every internal node has exactly two children. Updates
//! coordinate through each internal node's `update` word — an info-record
//! pointer plus a 2-bit state (`CLEAN`/`IFLAG`/`DFLAG`/`MARK`) — which makes
//! threads *help* stalled operations instead of blocking on them.
//!
//! In traversal-data-structure terms (paper §3):
//!
//! * `traverse` is the descent from the root to a leaf, recording the last
//!   two internal nodes (`gp`, `p`), their update words, and the child links
//!   followed — a constant-size suffix of the path;
//! * the *mark* of Definition 1 is the `MARK` state in an internal node's
//!   update word: a marked internal is frozen and will be disconnected by
//!   `helpMarked`, the unique disconnection instruction (Property 5);
//! * `critical` is the flag/mark/help machinery, with Protocol 2 flushes
//!   injected through the `Durability` policy's `c_*` methods;
//! * the recovery `disconnect` pass (Supplement 1) walks the tree and helps
//!   every non-`CLEAN` update word to completion.

use nvtraverse::alloc::{alloc_node, free, PoolCtx};
use nvtraverse::marked::MarkedPtr;
use nvtraverse::ops::{run_operation, Critical, PersistSet, TraversalOps};
use nvtraverse::policy::Durability;
use nvtraverse::set::{DurableSet, PoolAttach, SetOp};
use nvtraverse_ebr::{Collector, Guard};
use nvtraverse_pmem::{Backend, PCell, Word};
use nvtraverse_pool::Pool;
use std::fmt;
use std::io;
use std::marker::PhantomData;

/// Update-word states (the two algorithm tag bits of [`MarkedPtr`]).
const CLEAN: u64 = 0b00;
const IFLAG: u64 = 0b01;
const DFLAG: u64 = 0b10;
const MARK: u64 = 0b11;

/// Sentinel rank: 0 = ordinary key, 1 = ∞₁, 2 = ∞₂ (root). Every ordinary
/// key compares below both infinities, so the initial tree
/// `root(∞₂) → [leaf(∞₁), leaf(∞₂)]` routes all keys into its left spine.
const RANK_NORMAL: u64 = 0;
const RANK_INF1: u64 = 1;
const RANK_INF2: u64 = 2;

/// A tree node (internal or leaf). `key`, `rank`, `leaf` and `value` are
/// immutable after initialization; `left`/`right`/`update` are only used on
/// internal nodes.
#[repr(C)]
pub struct BstNode<K: Word, V: Word, B: Backend> {
    key: PCell<K, B>,
    value: PCell<V, B>,
    rank: PCell<u64, B>,
    leaf: PCell<bool, B>,
    left: PCell<MarkedPtr<BstNode<K, V, B>>, B>,
    right: PCell<MarkedPtr<BstNode<K, V, B>>, B>,
    update: PCell<MarkedPtr<Info<K, V, B>>, B>,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for BstNode<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BstNode")
            .field("leaf", &self.leaf)
            .finish()
    }
}

/// An operation descriptor. One record serves both insert (`p`, `l`,
/// `new_internal`) and delete (`gp`, `p`, `l`, `pupdate`); all fields are
/// immutable and persisted before the record is published by a flag CAS, so
/// helpers (and the recovery pass) can always rely on them.
#[repr(C)]
pub struct Info<K: Word, V: Word, B: Backend> {
    gp: PCell<*mut BstNode<K, V, B>, B>,
    p: PCell<*mut BstNode<K, V, B>, B>,
    l: PCell<*mut BstNode<K, V, B>, B>,
    new_internal: PCell<*mut BstNode<K, V, B>, B>,
    /// The `p.update` word observed by the deleter (bits of a `MarkedPtr`).
    pupdate: PCell<u64, B>,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for Info<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Info")
    }
}

type NodePtr<K, V, B> = *mut BstNode<K, V, B>;
/// A child-pointer cell of an internal node.
type ChildCell<K, V, D> =
    PCell<MarkedPtr<BstNode<K, V, <D as Durability>::B>>, <D as Durability>::B>;

/// The traversal window: the search's destination plus the two ancestors the
/// critical method may modify (Ellen et al.'s `Search` result).
pub struct SeekRecord<K: Word, V: Word, B: Backend> {
    /// Grandparent of the leaf (null only while the tree is trivially
    /// shallow).
    gp: NodePtr<K, V, B>,
    /// Parent of the leaf.
    p: NodePtr<K, V, B>,
    /// The leaf the search arrived at.
    l: NodePtr<K, V, B>,
    /// `gp.update` as read during the traversal.
    gpupdate: MarkedPtr<Info<K, V, B>>,
    /// `p.update` as read during the traversal.
    pupdate: MarkedPtr<Info<K, V, B>>,
    /// Address of the child cell followed into `gp` (ensureReachable).
    anc_link: *const u8,
    /// Address of the child cell followed `gp → p`.
    gp_link: *const u8,
    /// Address of the child cell followed `p → l`.
    p_link: *const u8,
}

impl<K: Word, V: Word, B: Backend> fmt::Debug for SeekRecord<K, V, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeekRecord")
            .field("gp", &self.gp)
            .field("p", &self.p)
            .field("l", &self.l)
            .finish()
    }
}

/// Ellen et al.'s lock-free external BST, parameterized by durability policy.
///
/// # Example
///
/// ```
/// use nvtraverse::policy::NvTraverse;
/// use nvtraverse::DurableSet;
/// use nvtraverse_pmem::Clwb;
/// use nvtraverse_structures::ellen_bst::EllenBst;
///
/// let t: EllenBst<u64, u64, NvTraverse<Clwb>> = EllenBst::new();
/// assert!(t.insert(5, 50));
/// assert_eq!(t.get(5), Some(50));
/// assert!(t.remove(5));
/// ```
pub struct EllenBst<K: Word, V: Word, D: Durability> {
    root: NodePtr<K, V, D::B>,
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
unsafe impl<K: Word, V: Word, D: Durability> Send for EllenBst<K, V, D> {}
// SAFETY: all shared mutation goes through atomics/PCells; raw node pointers are only dereferenced under EBR guards.
unsafe impl<K: Word, V: Word, D: Durability> Sync for EllenBst<K, V, D> {}

impl<K, V, D> EllenBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    /// Creates the initial tree: `root(∞₂)` over `leaf(∞₁)` and `leaf(∞₂)`.
    pub fn new() -> Self {
        Self::with_collector(Collector::new())
    }

    /// Creates an empty tree retiring into `collector`.
    pub fn with_collector(collector: Collector) -> Self {
        let inf1 = Self::alloc_leaf_ranked(K::from_bits(0), V::from_bits(0), RANK_INF1);
        let inf2 = Self::alloc_leaf_ranked(K::from_bits(0), V::from_bits(0), RANK_INF2);
        let root = alloc_node::<_, D::B>(BstNode {
            key: PCell::new(K::from_bits(0)),
            value: PCell::new(V::from_bits(0)),
            rank: PCell::new(RANK_INF2),
            leaf: PCell::new(false),
            left: PCell::new(MarkedPtr::new(inf1)),
            right: PCell::new(MarkedPtr::new(inf2)),
            update: PCell::new(MarkedPtr::null()),
        });
        let size = std::mem::size_of::<BstNode<K, V, D::B>>();
        D::persist_new_node(inf1 as *const u8, size);
        D::persist_new_node(inf2 as *const u8, size);
        D::persist_new_node(root as *const u8, size);
        D::before_return();
        EllenBst {
            root,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }

    fn alloc_leaf_ranked(key: K, value: V, rank: u64) -> NodePtr<K, V, D::B> {
        alloc_node::<_, D::B>(BstNode {
            key: PCell::new(key),
            value: PCell::new(value),
            rank: PCell::new(rank),
            leaf: PCell::new(true),
            left: PCell::new(MarkedPtr::null()),
            right: PCell::new(MarkedPtr::null()),
            update: PCell::new(MarkedPtr::null()),
        })
    }

    /// The collector nodes are retired into.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Rebuilds a tree handle around an existing root node — the attach
    /// half of the pool lifecycle. The caller must run
    /// [`EllenBst::recover_tree`] before any operation so every published
    /// Info record (flagged or marked update word) is helped to completion.
    ///
    /// # Safety
    ///
    /// `root` must be the `∞₂` root of a tree built with the *same*
    /// `K`/`V`/`D` parameters, reachable and quiescent, and the caller must
    /// not drop two handles to the same `Box`-backed tree (a pooled
    /// handle's drop frees no node — see `nvtraverse::PooledHandle`).
    unsafe fn attach_at(root: NodePtr<K, V, D::B>, collector: Collector) -> Self {
        EllenBst {
            root,
            collector,
            ctx: PoolCtx::current(),
            _marker: PhantomData,
        }
    }

    /// `true` if search key `k` routes left of `node` (considering ranks).
    #[inline]
    fn goes_left(k: K, node: NodePtr<K, V, D::B>) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let rank = D::load_fixed(&(*node).rank);
            if rank != RANK_NORMAL {
                true // every ordinary key < ∞₁ < ∞₂
            } else {
                k < D::load_fixed(&(*node).key)
            }
        }
    }

    /// Whether leaf `l` holds exactly ordinary key `k`.
    #[inline]
    fn leaf_is(l: NodePtr<K, V, D::B>, k: K) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            D::load_fixed(&(*l).rank) == RANK_NORMAL && D::load_fixed(&(*l).key) == k
        }
    }

    /// Node-vs-node routing order for `casChild`: compares (rank, key).
    #[inline]
    fn node_lt(a: NodePtr<K, V, D::B>, b: NodePtr<K, V, D::B>) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let (ra, rb) = (D::load_fixed(&(*a).rank), D::load_fixed(&(*b).rank));
            if ra != rb {
                ra < rb
            } else if ra != RANK_NORMAL {
                false
            } else {
                D::load_fixed(&(*a).key) < D::load_fixed(&(*b).key)
            }
        }
    }

    /// `CAS-Child(parent, old, new)`: swings the correct child pointer of
    /// `parent` from `old` to `new`, choosing the side by `new`'s routing
    /// position (every key in the replaced subtree is on the same side).
    fn cas_child(
        parent: NodePtr<K, V, D::B>,
        old: NodePtr<K, V, D::B>,
        new: NodePtr<K, V, D::B>,
    ) -> bool {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        let cell = unsafe {
            if Self::node_lt(new, parent) {
                &(*parent).left
            } else {
                &(*parent).right
            }
        };
        D::c_cas_link(cell, MarkedPtr::new(old), MarkedPtr::new(new)).is_ok()
    }

    /// `Help(u)`: drives whichever operation the update word `u` describes.
    fn help(&self, u: MarkedPtr<Info<K, V, D::B>>) {
        match u.tag() {
            IFLAG => self.help_insert(u.ptr()),
            MARK => self.help_marked(u.ptr()),
            DFLAG => {
                let _ = self.help_delete(u.ptr());
            }
            _ => {}
        }
    }

    /// `HelpInsert(op)`: link the new internal node in place of the leaf,
    /// then unflag.
    fn help_insert(&self, op: *mut Info<K, V, D::B>) {
        debug_assert!(!op.is_null());
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let p = D::load_fixed(&(*op).p);
            let l = D::load_fixed(&(*op).l);
            let ni = D::load_fixed(&(*op).new_internal);
            Self::cas_child(p, l, ni);
            let flagged = MarkedPtr::new(op).with_tag(IFLAG);
            let _ = D::c_cas_link(&(*p).update, flagged, MarkedPtr::new(op).with_tag(CLEAN));
        }
    }

    /// `HelpDelete(op)`: try to mark the parent; on success complete via
    /// [`Self::help_marked`], otherwise help the obstruction and backtrack
    /// the grandparent's flag. Returns whether the delete went through.
    fn help_delete(&self, op: *mut Info<K, V, D::B>) -> bool {
        debug_assert!(!op.is_null());
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let gp = D::load_fixed(&(*op).gp);
            let p = D::load_fixed(&(*op).p);
            let pupdate = MarkedPtr::from_bits_raw(D::load_fixed(&(*op).pupdate));
            let mark_word = MarkedPtr::new(op).with_tag(MARK);
            let result = D::c_cas_link(&(*p).update, pupdate, mark_word);
            let marked = match result {
                Ok(()) => true,
                Err(actual) => actual == mark_word, // someone marked for us
            };
            if marked {
                self.help_marked(op);
                true
            } else {
                let actual = D::c_load_link(&(*p).update);
                self.help(actual);
                // Backtrack: unflag the grandparent so others can proceed.
                let flagged = MarkedPtr::new(op).with_tag(DFLAG);
                let _ =
                    D::c_cas_link(&(*gp).update, flagged, MarkedPtr::new(op).with_tag(CLEAN));
                false
            }
        }
    }

    /// `HelpMarked(op)`: the unique disconnection instruction — splice the
    /// marked parent (and its leaf) out by routing the sibling up, then
    /// unflag the grandparent.
    fn help_marked(&self, op: *mut Info<K, V, D::B>) {
        debug_assert!(!op.is_null());
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let gp = D::load_fixed(&(*op).gp);
            let p = D::load_fixed(&(*op).p);
            let l = D::load_fixed(&(*op).l);
            // p is marked ⇒ frozen ⇒ its children are stable.
            let right = D::c_load_link(&(*p).right);
            let other = if right.ptr() == l {
                D::c_load_link(&(*p).left).ptr()
            } else {
                right.ptr()
            };
            Self::cas_child(gp, p, other);
            let flagged = MarkedPtr::new(op).with_tag(DFLAG);
            let _ = D::c_cas_link(&(*gp).update, flagged, MarkedPtr::new(op).with_tag(CLEAN));
        }
    }

    /// Quiescent in-order walk collecting ordinary leaves.
    fn collect_leaves(
        &self,
        node: NodePtr<K, V, D::B>,
        out: &mut Vec<(K, V)>,
    ) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
            if (*node).leaf.load() {
                if (*node).rank.load() == RANK_NORMAL {
                    out.push(((*node).key.load(), (*node).value.load()));
                }
                return;
            }
            self.collect_leaves((*node).left.load().ptr(), out);
            self.collect_leaves((*node).right.load().ptr(), out);
            // nvt-lint: end-allow(raw-pcell-access)
        }
    }

    /// Quiescent: all `(key, value)` pairs in key order.
    pub fn iter_snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.collect_leaves(self.root, &mut out);
        out
    }

    /// Quiescent: checks the external-BST invariants, returning the number
    /// of ordinary keys.
    ///
    /// # Errors
    ///
    /// Reports BST-order violations, internal nodes without two children,
    /// and (if `require_clean`) any non-`CLEAN` update word.
    pub fn check_consistency(&self, require_clean: bool) -> Result<usize, String> {
        fn walk<K: Word + Ord, V: Word, D: Durability>(
            node: NodePtr<K, V, D::B>,
            require_clean: bool,
            count: &mut usize,
        ) -> Result<(), String> {
            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
            unsafe {
                if node.is_null() {
                    return Err("null child in tree".into());
                }
                // nvt-lint: begin-allow(raw-pcell-access): quiescent inspection walk — no concurrent mutators, no durability obligations
                if (*node).leaf.load() {
                    if (*node).rank.load() == RANK_NORMAL {
                        *count += 1;
                    }
                    return Ok(());
                }
                if require_clean && (*node).update.load().tag() != CLEAN {
                    return Err("non-clean update word after recovery".into());
                }
                let l = (*node).left.load().ptr();
                let r = (*node).right.load().ptr();
                // Routing invariant: left subtree < node ≤ right subtree.
                if !EllenBst::<K, V, D>::node_lt(l, node)
                    && (*l).rank.load() == RANK_NORMAL
                    // nvt-lint: end-allow(raw-pcell-access)
                {
                    return Err("left child not below routing key".into());
                }
                walk::<K, V, D>(l, require_clean, count)?;
                walk::<K, V, D>(r, require_clean, count)
            }
        }
        let mut count = 0;
        walk::<K, V, D>(self.root, require_clean, &mut count)?;
        // Keys must also be globally sorted and unique.
        let snap = self.iter_snapshot();
        for w in snap.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err("leaf keys not strictly increasing".into());
            }
        }
        Ok(count)
    }

    /// Recovery (Supplement 1): help every pending operation to completion.
    /// After the pass no update word is flagged or marked and no marked
    /// internal node is reachable.
    pub fn recover_tree(&self) {
        if !D::DURABLE {
            return;
        }
        let _guard = self.collector.pin();
        // Repeat until a full pass finds everything clean (helping a DFLAG
        // can expose the MARK it installs).
        loop {
            let mut dirty = false;
            self.recover_walk(self.root, &mut dirty);
            if !dirty {
                break;
            }
        }
        D::before_return();
    }

    fn recover_walk(&self, node: NodePtr<K, V, D::B>, dirty: &mut bool) {
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        unsafe {
            // nvt-lint: begin-allow(raw-pcell-access): single-threaded recovery reads raw bits (marks, flags, poison) by design
            if node.is_null() || (*node).leaf.load() {
                return;
            }
            let u = (*node).update.load();
            if u.tag() != CLEAN {
                *dirty = true;
                self.help(u);
            }
            self.recover_walk((*node).left.load().ptr(), dirty);
            self.recover_walk((*node).right.load().ptr(), dirty);
            // nvt-lint: end-allow(raw-pcell-access)
        }
    }

}

impl<K: Word, V: Word, D: Durability> EllenBst<K, V, D> {
    /// Teardown-safe child read: poisoned words (unrecovered crash) read as
    /// null, leaking the unreachable remainder.
    fn teardown_child(cell: &ChildCell<K, V, D>) -> NodePtr<K, V, D::B> {
        // nvt-lint: allow(raw-pcell-access): teardown/drop owns the structure exclusively; nothing durable happens after it
        let bits = cell.peek_bits();
        if bits == nvtraverse_pmem::POISON {
            std::ptr::null_mut()
        } else {
            MarkedPtr::<BstNode<K, V, D::B>>::from_bits_raw(bits).ptr()
        }
    }

    fn free_subtree(node: NodePtr<K, V, D::B>) {
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            if node.is_null() {
                return;
            }
            // nvt-lint: allow(raw-pcell-access): teardown/drop owns the structure exclusively; nothing durable happens after it
            let leaf_bits = (*node).leaf.peek_bits();
            if leaf_bits != nvtraverse_pmem::POISON && !bool::from_bits(leaf_bits) {
                Self::free_subtree(Self::teardown_child(&(*node).left));
                Self::free_subtree(Self::teardown_child(&(*node).right));
            }
            free(node);
        }
    }
}

impl<K, V, D> TraversalOps for EllenBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type D = D;
    type Input = SetOp<K, V>;
    type Output = Option<V>;
    type Entry = NodePtr<K, V, D::B>;
    type Window = SeekRecord<K, V, D::B>;

    fn find_entry(&self, _guard: &Guard, _input: Self::Input) -> Self::Entry {
        self.root
    }

    fn traverse(&self, _guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window {
        let key = match input {
            SetOp::Insert(k, _) | SetOp::Remove(k) | SetOp::Get(k) => k,
        };
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            let mut gp: NodePtr<K, V, D::B> = std::ptr::null_mut();
            let mut p: NodePtr<K, V, D::B> = std::ptr::null_mut();
            let mut l = entry;
            let mut gpupdate = MarkedPtr::null();
            let mut pupdate = MarkedPtr::null();
            let mut anc_link: *const u8 = std::ptr::null();
            let mut gp_link: *const u8 = std::ptr::null();
            let mut p_link: *const u8 = std::ptr::null();
            while !D::load_fixed(&(*l).leaf) {
                gp = p;
                p = l;
                gpupdate = pupdate;
                pupdate = D::t_load_link(&(*p).update);
                let cell = if Self::goes_left(key, p) {
                    &(*p).left
                } else {
                    &(*p).right
                };
                anc_link = gp_link;
                gp_link = p_link;
                p_link = cell.addr();
                l = D::t_load_link(cell).ptr();
            }
            SeekRecord {
                gp,
                p,
                l,
                gpupdate,
                pupdate,
                anc_link,
                gp_link,
                p_link,
            }
        }
    }

    fn collect_persist_set(&self, w: &Self::Window, out: &mut PersistSet) {
        // ensureReachable: the child cell that links the window's topmost
        // node (gp, or p when the tree is shallow) — Lemma 4.1 with k = 1,
        // since an insert links exactly one new internal node whose own
        // subtree was persisted before publication.
        if !w.anc_link.is_null() {
            out.set_parent(w.anc_link);
        } else if !w.gp_link.is_null() {
            out.set_parent(w.gp_link);
        }
        // makePersistent: every mutable field the traversal read in the
        // returned window — the two update words and the followed links.
        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
        unsafe {
            if !w.gp.is_null() {
                out.push((*w.gp).update.addr());
            }
            if !w.p.is_null() {
                out.push((*w.p).update.addr());
            }
        }
        if !w.gp_link.is_null() {
            out.push(w.gp_link);
        }
        if !w.p_link.is_null() {
            out.push(w.p_link);
        }
    }

    fn critical(
        &self,
        guard: &Guard,
        w: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output> {
        match input {
            SetOp::Get(key) => {
                if Self::leaf_is(w.l, key) {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    Critical::Done(Some(D::load_fixed(unsafe { &(*w.l).value })))
                } else {
                    Critical::Done(None)
                }
            }
            SetOp::Insert(key, value) => {
                if Self::leaf_is(w.l, key) {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    return Critical::Done(Some(D::load_fixed(unsafe { &(*w.l).value })));
                }
                if w.pupdate.tag() != CLEAN {
                    self.help(w.pupdate);
                    return Critical::Restart;
                }
                // Build the replacement subtree: a new internal whose
                // children are the new leaf and a copy of l, ordered by key.
                let new_leaf = Self::alloc_leaf_ranked(key, value, RANK_NORMAL);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                let l_copy = unsafe {
                    Self::alloc_leaf_ranked(
                        D::load_fixed(&(*w.l).key),
                        D::load_fixed(&(*w.l).value),
                        D::load_fixed(&(*w.l).rank),
                    )
                };
                let (lc, rc, ikey, irank) = if Self::node_lt(new_leaf, l_copy) {
                    // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                    unsafe {
                        (
                            new_leaf,
                            l_copy,
                            D::load_fixed(&(*w.l).key),
                            D::load_fixed(&(*w.l).rank),
                        )
                    }
                } else {
                    (l_copy, new_leaf, key, RANK_NORMAL)
                };
                let new_internal = alloc_node::<_, D::B>(BstNode {
                    key: PCell::new(ikey),
                    value: PCell::new(V::from_bits(0)),
                    rank: PCell::new(irank),
                    leaf: PCell::new(false),
                    left: PCell::new(MarkedPtr::new(lc)),
                    right: PCell::new(MarkedPtr::new(rc)),
                    update: PCell::new(MarkedPtr::null()),
                });
                let op = alloc_node::<_, D::B>(Info {
                    gp: PCell::new(std::ptr::null_mut()),
                    p: PCell::new(w.p),
                    l: PCell::new(w.l),
                    new_internal: PCell::new(new_internal),
                    pupdate: PCell::new(0),
                });
                let node_size = std::mem::size_of::<BstNode<K, V, D::B>>();
                D::persist_new_node(new_leaf as *const u8, node_size);
                D::persist_new_node(l_copy as *const u8, node_size);
                D::persist_new_node(new_internal as *const u8, node_size);
                D::persist_new_node(op as *const u8, std::mem::size_of::<Info<K, V, D::B>>());
                let iflag = MarkedPtr::new(op).with_tag(IFLAG);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                match D::c_cas_link(unsafe { &(*w.p).update }, w.pupdate, iflag) {
                    Ok(()) => {
                        self.help_insert(op);
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        unsafe {
                            // The old leaf was replaced by its copy.
                            guard.retire(w.l);
                            guard.retire(op);
                        }
                        Critical::Done(None)
                    }
                    Err(actual) => {
                        self.help(actual);
                        // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                        unsafe {
                            free(new_leaf);
                            free(l_copy);
                            free(new_internal);
                            free(op);
                        }
                        Critical::Restart
                    }
                }
            }
            SetOp::Remove(key) => {
                if !Self::leaf_is(w.l, key) {
                    return Critical::Done(None);
                }
                if w.gp.is_null() {
                    // Ordinary leaves sit at depth ≥ 2; a missing
                    // grandparent means our picture is stale.
                    return Critical::Restart;
                }
                if w.gpupdate.tag() != CLEAN {
                    self.help(w.gpupdate);
                    return Critical::Restart;
                }
                if w.pupdate.tag() != CLEAN {
                    self.help(w.pupdate);
                    return Critical::Restart;
                }
                let op = alloc_node::<_, D::B>(Info {
                    gp: PCell::new(w.gp),
                    p: PCell::new(w.p),
                    l: PCell::new(w.l),
                    new_internal: PCell::new(std::ptr::null_mut()),
                    pupdate: PCell::new(w.pupdate.bits()),
                });
                D::persist_new_node(op as *const u8, std::mem::size_of::<Info<K, V, D::B>>());
                let dflag = MarkedPtr::new(op).with_tag(DFLAG);
                // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                match D::c_cas_link(unsafe { &(*w.gp).update }, w.gpupdate, dflag) {
                    Ok(()) => {
                        if self.help_delete(op) {
                            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                            let value = D::load_fixed(unsafe { &(*w.l).value });
                            // SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
                            unsafe {
                                guard.retire(w.p);
                                guard.retire(w.l);
                                guard.retire(op);
                            }
                            Critical::Done(Some(value))
                        } else {
                            // Backtracked; op stays published as CLEAN bits.
                            // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                            unsafe { guard.retire(op) };
                            Critical::Restart
                        }
                    }
                    Err(actual) => {
                        self.help(actual);
                        // SAFETY: the node is unlinked (no new traversal can reach it); EBR defers the actual free until all pre-retire guards drop.
                        unsafe { free(op) };
                        Critical::Restart
                    }
                }
            }
        }
    }
}

impl<K, V, D> DurableSet<K, V> for EllenBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn insert(&self, key: K, value: V) -> bool {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Insert(key, value)).is_none()
    }

    fn remove(&self, key: K) -> bool {
        let _scope = self.ctx.enter();
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Remove(key)).is_some()
    }

    fn get(&self, key: K) -> Option<V> {
        let guard = self.collector.pin();
        run_operation(self, &guard, SetOp::Get(key))
    }

    fn len(&self) -> usize {
        self.iter_snapshot().len()
    }

    fn recover(&self) {
        self.recover_tree();
    }
}

impl<K, V, D> PoolAttach for EllenBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn create_in_pool(pool: &Pool, name: &str) -> io::Result<Self> {
        let _scope = PoolCtx::of(pool).enter();
        let t = Self::with_collector(pool.collector().clone());
        pool.set_root_ptr_checked(name, t.root)?;
        Ok(t)
    }

    // SAFETY: see `TraversalOps::attach_to_pool` — the caller guarantees the pool was created by this structure type under `name` and is quiescent.
    unsafe fn attach_to_pool(pool: &Pool, name: &str) -> Option<Self> {
        let root = pool.attach_root_ptr::<BstNode<K, V, D::B>>(name)?;
        // Entered so `attach_at`'s context snapshot captures this pool.
        let _scope = PoolCtx::of(pool).enter();
        // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
        Some(unsafe { Self::attach_at(root, pool.collector().clone()) })
    }
}

// SAFETY: the walk covers everything `recover_tree`'s helping can touch.
// Child links are followed with tags stripped; every internal node's
// update word is inspected, and a non-`CLEAN` word's `Info` record is
// marked **along with every node it names** (`gp`/`p`/`l`/`new_internal`
// as whole subtrees): `help_insert` links `new_internal` — a subtree that
// is *not yet* reachable through child pointers — and `help_marked`
// dereferences `p` and its children even when the splice already
// disconnected them, so all of those must survive the sweep. A `CLEAN`
// word's record pointer is only ever *compared* (never dereferenced), so
// retired-but-unreclaimed CLEAN records are provably garbage and are left
// for the sweep. The bitmap's newly-marked result bounds the worklist:
// shared nodes enqueue their children once.
// SAFETY: the pointer came from a live link read under this op's EBR guard; retired nodes are not freed until every guard from before the retire drops.
unsafe impl<K, V, D> nvtraverse::PoolTrace for EllenBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    type Plan = ();

    unsafe fn trace(root: *mut u8, marker: &mut nvtraverse_pool::Marker<'_>) {
        let mut work: Vec<NodePtr<K, V, D::B>> = vec![root as NodePtr<K, V, D::B>];
        while let Some(node) = work.pop() {
            if node.is_null() || !marker.mark(node as *const u8) {
                continue;
            }
            // SAFETY: recovery/attach runs single-threaded on a quiescent structure; every pointer read comes from the durable heap being rebuilt.
            unsafe {
                // nvt-lint: begin-allow(raw-pcell-access): GC tracer follows raw pointers on a quiescent heap
                if (*node).leaf.load() {
                    continue; // leaves carry no links
                }
                let u = (*node).update.load();
                if u.tag() != CLEAN {
                    let op = u.ptr();
                    if !op.is_null() && marker.mark(op as *const u8) {
                        work.push((*op).gp.load());
                        work.push((*op).p.load());
                        work.push((*op).l.load());
                        work.push((*op).new_internal.load());
                    }
                }
                work.push((*node).left.load().ptr());
                work.push((*node).right.load().ptr());
                // nvt-lint: end-allow(raw-pcell-access)
            }
        }
    }

    fn recover_attached(&self, (): ()) {
        self.recover_tree();
    }
}

impl<K, V, D> Default for EllenBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, D> fmt::Debug for EllenBst<K, V, D>
where
    K: Word + Ord,
    V: Word,
    D: Durability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EllenBst")
            .field("len", &self.len())
            .finish()
    }
}

impl<K: Word, V: Word, D: Durability> Drop for EllenBst<K, V, D> {
    fn drop(&mut self) {
        // A pooled tree's nodes belong to the pool: drop only the shell.
        if self.ctx.is_pooled() {
            return;
        }
        // Quiescent teardown: free the reachable tree. Unreachable (retired)
        // nodes belong to the collector.
        Self::free_subtree(self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse::model::ModelSet;
    use nvtraverse::policy::{Izraelevitz, LinkPersist, NvTraverse, Volatile};
    use nvtraverse_pmem::{Clwb, Noop};

    fn smoke<D: Durability>() {
        let t: EllenBst<u64, u64, D> = EllenBst::new();
        assert!(t.is_empty());
        assert!(t.insert(5, 50));
        assert!(t.insert(3, 30));
        assert!(t.insert(8, 80));
        assert!(!t.insert(5, 99));
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.len(), 3);
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.get(5), None);
        assert_eq!(t.iter_snapshot(), vec![(3, 30), (8, 80)]);
        t.check_consistency(false).unwrap();
    }

    #[test]
    fn volatile_semantics() {
        smoke::<Volatile>();
    }

    #[test]
    fn nvtraverse_semantics() {
        smoke::<NvTraverse<Clwb>>();
    }

    #[test]
    fn izraelevitz_semantics() {
        smoke::<Izraelevitz<Clwb>>();
    }

    #[test]
    fn link_persist_semantics() {
        smoke::<LinkPersist<Clwb>>();
    }

    #[test]
    fn ascending_and_descending_insertions() {
        let t: EllenBst<u64, u64, Volatile> = EllenBst::new();
        for k in 0..200u64 {
            assert!(t.insert(k, k));
        }
        for k in (200..400u64).rev() {
            assert!(t.insert(k, k));
        }
        assert_eq!(t.check_consistency(false).unwrap(), 400);
        for k in 0..400u64 {
            assert_eq!(t.get(k), Some(k));
        }
    }

    #[test]
    fn delete_down_to_empty_and_reuse() {
        let t: EllenBst<u64, u64, NvTraverse<Noop>> = EllenBst::new();
        for k in 0..50u64 {
            t.insert(k, k);
        }
        for k in 0..50u64 {
            assert!(t.remove(k), "remove({k})");
        }
        assert!(t.is_empty());
        assert!(t.insert(7, 70));
        assert_eq!(t.get(7), Some(70));
        t.check_consistency(false).unwrap();
    }

    #[test]
    fn matches_model_on_random_workload() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let t: EllenBst<u64, u64, NvTraverse<Noop>> = EllenBst::new();
        let mut model = ModelSet::new();
        for i in 0..4000u64 {
            let k = rng.random_range(0..128);
            match rng.random_range(0..3) {
                0 => assert_eq!(t.insert(k, i), model.insert(k, i), "insert({k})"),
                1 => assert_eq!(t.remove(k), model.remove(k), "remove({k})"),
                _ => assert_eq!(t.get(k), model.get(k), "get({k})"),
            }
        }
        let pairs: Vec<(u64, u64)> = model.iter().collect();
        assert_eq!(t.iter_snapshot(), pairs);
        t.check_consistency(false).unwrap();
    }

    #[test]
    fn signed_keys_route_correctly() {
        let t: EllenBst<i64, u64, Volatile> = EllenBst::new();
        for k in [-10i64, -1, 0, 1, 10] {
            assert!(t.insert(k, 0));
        }
        let keys: Vec<i64> = t.iter_snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![-10, -1, 0, 1, 10]);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        let t: EllenBst<u64, u64, NvTraverse<Clwb>> = EllenBst::new();
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let base = tid * 500;
                    for k in base..base + 500 {
                        assert!(t.insert(k, k));
                    }
                    for k in (base..base + 500).step_by(2) {
                        assert!(t.remove(k));
                    }
                });
            }
        });
        assert_eq!(t.check_consistency(false).unwrap(), 1000);
    }

    #[test]
    fn concurrent_contended_stress() {
        use rand::prelude::*;
        let t: EllenBst<u64, u64, NvTraverse<Clwb>> = EllenBst::new();
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(tid);
                    for _ in 0..3000 {
                        let k = rng.random_range(0..64);
                        match rng.random_range(0..10) {
                            0..=3 => {
                                t.insert(k, k);
                            }
                            4..=6 => {
                                t.remove(k);
                            }
                            _ => {
                                t.get(k);
                            }
                        }
                    }
                });
            }
        });
        t.check_consistency(false).unwrap();
    }

    #[test]
    fn recovery_completes_pending_delete() {
        // Simulate a crash between the DFLAG and the splice: flag gp by hand
        // with a fabricated DInfo, then let recovery finish the delete.
        let t: EllenBst<u64, u64, NvTraverse<Noop>> = EllenBst::new();
        for k in [10u64, 5, 15] {
            t.insert(k, k);
        }
        // Find leaf 5's gp/p via a raw walk.
        unsafe {
            let root = t.root;
            let mut gp: NodePtr<u64, u64, Noop> = std::ptr::null_mut();
            let mut p: NodePtr<u64, u64, Noop> = std::ptr::null_mut();
            let mut l = root;
            while !(*l).leaf.load() {
                gp = p;
                p = l;
                l = if EllenBst::<u64, u64, NvTraverse<Noop>>::goes_left(5, l) {
                    (*l).left.load().ptr()
                } else {
                    (*l).right.load().ptr()
                };
            }
            assert_eq!((*l).key.load(), 5);
            let op = alloc_node::<_, Noop>(Info {
                gp: PCell::new(gp),
                p: PCell::new(p),
                l: PCell::new(l),
                new_internal: PCell::new(std::ptr::null_mut()),
                pupdate: PCell::new((*p).update.load().bits()),
            });
            let dflag = MarkedPtr::new(op).with_tag(DFLAG);
            (*gp).update.store(dflag);
        }
        assert!(t.check_consistency(true).is_err(), "flag must be visible");
        t.recover();
        assert_eq!(t.get(5), None, "recovery must complete the delete");
        t.check_consistency(true).unwrap();
        assert!(t.insert(5, 55), "tree must be usable after recovery");
    }
}
