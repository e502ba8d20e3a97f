//! Persistency analyzer for the NVTraverse reproduction.
//!
//! Two halves, one goal: turn violations of the paper's persistency
//! protocols (§4) into immediate diagnostics instead of bugs that only an
//! exhaustive crash sweep — or real NVRAM — would surface.
//!
//! * [`Vet`] (in [`dynamic`]) is a **runtime sanitizer**: a passive
//!   [`nvtraverse_pmem::SimObserver`] over the crash simulator's cell
//!   registry that tracks every registered word through a
//!   `Clean → Dirty → Flushed → Persisted` state machine and classifies
//!   per-operation findings — an unpersisted node published by a link CAS,
//!   a dirty word alive at operation return, a flush of freed memory, and
//!   warn-level redundant flushes/fences. One ordinary run of a workload
//!   replaces a crash-point enumeration for these bug classes.
//! * [`lint`] is an **offline source analyzer** (exposed as the `nvt-lint`
//!   binary) enforcing the node-layout and policy-routing invariants the
//!   protocols rest on: `#[repr(C)]` on structs holding `PCell`s,
//!   `// SAFETY:` comments on `unsafe` code in the persistence-critical
//!   crates, no raw `PCell` accesses in `crates/structures` outside an
//!   explicit allowlist, no wall-clock reads (`Instant::now`,
//!   `SystemTime`) on persistence-critical paths, and no `pub` item that
//!   only tests name.
//!
//! Both halves are dependency-free beyond the workspace's own crates.

#![warn(missing_docs)]

pub mod dynamic;
pub mod lint;

pub use dynamic::{Finding, FindingKind, Vet, VetReport};
pub use lint::{lint_source, lint_workspace, Rule, Violation};
