//! Reference models and the durable-linearizability verdict logic used by
//! the crash tests.
//!
//! Durable linearizability (Izraelevitz et al., adopted by the paper §2)
//! requires that after removing crash events the history is linearizable: the
//! effect of every *completed* operation survives the crash, and each
//! operation *in flight* at the crash either takes full effect or none.
//!
//! The crash tests arrange for every thread to own a disjoint key range, so
//! the per-key operation history is sequential and the allowed post-recovery
//! states can be computed exactly, key by key, by [`key_verdict`].

use std::collections::BTreeMap;

/// A sequential reference set with the same semantics as [`DurableSet`]
/// (insert fails on duplicates, remove fails on absent keys).
///
/// Property-based tests run random operation sequences against a real
/// structure and this model in lockstep.
///
/// [`DurableSet`]: crate::set::DurableSet
///
/// # Example
///
/// ```
/// use nvtraverse::model::ModelSet;
///
/// let mut m = ModelSet::new();
/// assert!(m.insert(1, 10));
/// assert!(!m.insert(1, 11)); // duplicate
/// assert_eq!(m.get(1), Some(10));
/// assert!(m.remove(1));
/// assert!(!m.remove(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
// nvt-lint: allow(unused-pub): the property tests' sequential oracle
pub struct ModelSet {
    map: BTreeMap<u64, u64>,
}

impl ModelSet {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts; `false` if the key was present (value unchanged).
    pub fn insert(&mut self, key: u64, value: u64) -> bool {
        use std::collections::btree_map::Entry;
        match self.map.entry(key) {
            Entry::Vacant(e) => {
                e.insert(value);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Removes; `false` if the key was absent.
    pub fn remove(&mut self, key: u64) -> bool {
        self.map.remove(&key).is_some()
    }

    /// Current value for `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }
}

/// A mutating set operation, as recorded by crash-test workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutOp {
    /// `insert(key, _)` and whether it returned `true`.
    Insert {
        /// The key inserted.
        key: u64,
        /// Whether the insert reported success.
        succeeded: bool,
    },
    /// `remove(key)` and whether it returned `true`.
    Remove {
        /// The key removed.
        key: u64,
        /// Whether the remove reported success.
        succeeded: bool,
    },
}

impl MutOp {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            MutOp::Insert { key, .. } | MutOp::Remove { key, .. } => key,
        }
    }
}

/// The set of post-recovery membership states durable linearizability allows
/// for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyVerdict {
    /// The key may legally be present after recovery.
    pub may_be_present: bool,
    /// The key may legally be absent after recovery.
    pub may_be_absent: bool,
}

impl KeyVerdict {
    /// Checks an observed membership against the verdict.
    pub fn allows(&self, present: bool) -> bool {
        if present {
            self.may_be_present
        } else {
            self.may_be_absent
        }
    }
}

/// Computes the allowed post-recovery states of one key, given that all
/// mutating operations on this key were issued by a single thread (so their
/// order is the program order).
///
/// * `initially_present` — membership after the (persisted) prefill.
/// * `completed` — mutating ops on this key that returned before the crash,
///   in program order. Their effects must survive.
/// * `in_flight` — the op (at most one: the owner thread's last) that had
///   started but not returned when the crash hit. It may take effect or not.
///
/// # Example
///
/// ```
/// use nvtraverse::model::{key_verdict, MutOp};
///
/// // Completed insert, crash during a later remove: both states legal.
/// let v = key_verdict(
///     false,
///     &[MutOp::Insert { key: 7, succeeded: true }],
///     Some(MutOp::Remove { key: 7, succeeded: false }),
/// );
/// assert!(v.may_be_present && v.may_be_absent);
///
/// // Completed insert, nothing in flight: the key MUST be there.
/// let v = key_verdict(false, &[MutOp::Insert { key: 7, succeeded: true }], None);
/// assert!(v.may_be_present && !v.may_be_absent);
/// ```
// nvt-lint: allow(unused-pub): the crash checkers' per-key oracle
pub fn key_verdict(
    initially_present: bool,
    completed: &[MutOp],
    in_flight: Option<MutOp>,
) -> KeyVerdict {
    // Membership after the last completed mutating op (set semantics make
    // this depend only on the last op's kind).
    let base = match completed.last() {
        Some(MutOp::Insert { .. }) => true,
        Some(MutOp::Remove { .. }) => false,
        None => initially_present,
    };
    match in_flight {
        None => KeyVerdict {
            may_be_present: base,
            may_be_absent: !base,
        },
        Some(MutOp::Insert { .. }) => KeyVerdict {
            may_be_present: true,
            may_be_absent: !base,
        },
        Some(MutOp::Remove { .. }) => KeyVerdict {
            may_be_present: base,
            may_be_absent: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(key: u64, succeeded: bool) -> MutOp {
        MutOp::Insert { key, succeeded }
    }
    fn rem(key: u64, succeeded: bool) -> MutOp {
        MutOp::Remove { key, succeeded }
    }

    #[test]
    fn model_set_has_set_semantics() {
        let mut m = ModelSet::new();
        assert!(m.insert(5, 50));
        assert!(!m.insert(5, 51), "duplicate insert must fail");
        assert_eq!(m.get(5), Some(50), "failed insert must not overwrite");
        assert!(m.remove(5));
        assert!(!m.remove(5));
        assert!(m.is_empty());
    }

    #[test]
    fn model_set_iterates_in_key_order() {
        let mut m = ModelSet::new();
        for k in [5u64, 1, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn no_ops_means_prefill_membership_is_mandatory() {
        let v = key_verdict(true, &[], None);
        assert!(v.allows(true) && !v.allows(false));
        let v = key_verdict(false, &[], None);
        assert!(!v.allows(true) && v.allows(false));
    }

    #[test]
    fn completed_ops_are_mandatory() {
        let v = key_verdict(false, &[ins(1, true)], None);
        assert!(v.allows(true) && !v.allows(false));
        let v = key_verdict(false, &[ins(1, true), rem(1, true)], None);
        assert!(!v.allows(true) && v.allows(false));
    }

    #[test]
    fn last_completed_op_wins() {
        let history = [ins(1, true), rem(1, true), ins(1, true)];
        let v = key_verdict(false, &history, None);
        assert!(v.allows(true) && !v.allows(false));
    }

    #[test]
    fn in_flight_insert_permits_both_only_if_absent_allowed() {
        // Base absent + in-flight insert: either state.
        let v = key_verdict(false, &[], Some(ins(1, false)));
        assert!(v.allows(true) && v.allows(false));
        // Base present + in-flight insert: must stay present (an unapplied
        // insert cannot *remove* the key).
        let v = key_verdict(true, &[], Some(ins(1, false)));
        assert!(v.allows(true) && !v.allows(false));
    }

    #[test]
    fn in_flight_remove_permits_both_only_if_present_allowed() {
        let v = key_verdict(true, &[], Some(rem(1, false)));
        assert!(v.allows(true) && v.allows(false));
        let v = key_verdict(false, &[], Some(rem(1, false)));
        assert!(!v.allows(true) && v.allows(false));
    }

    #[test]
    fn failed_completed_ops_still_pin_membership() {
        // A *completed* failed insert proves the key was present at its
        // linearization point; with set semantics the key is still present.
        let v = key_verdict(true, &[ins(1, false)], None);
        assert!(v.allows(true) && !v.allows(false));
    }

    #[test]
    fn mut_op_key_accessor() {
        assert_eq!(ins(9, true).key(), 9);
        assert_eq!(rem(3, false).key(), 3);
    }
}
