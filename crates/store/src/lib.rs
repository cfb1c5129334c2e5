#![warn(missing_docs)]

//! # atd-store — durable mutation journal + generation store
//!
//! PR 6 made serving fault-tolerant *in memory*; this crate makes the
//! living graph fault-tolerant *on disk*. It implements a write-ahead
//! journal of [`atd_graph::GraphDelta`] mutations and a generation
//! store of checkpoints, with crash recovery that provably reproduces
//! every acknowledged mutation:
//!
//! * [`wal`] — the append-only log: checksummed, length-prefixed
//!   records, each sealed with the post-apply graph fingerprint; torn
//!   tails truncate cleanly, mid-stream corruption is a typed error.
//! * [`graphio`] — checksummed, self-validating graph dumps (the
//!   authoritative per-generation base state).
//! * [`manifest`] — the generation manifest, published by atomic
//!   tmp+rename: the single commit point of every checkpoint. Corrupt
//!   generations are quarantined, never deleted.
//! * [`journal`] — the orchestrator: open/recover, `append` (ack after
//!   durable), `checkpoint_with` (index persistence via
//!   `LabelSet::save_to` plugged in by the caller).
//! * [`faultpoint`] — deterministic crash injection
//!   (`store.wal_append`, `store.checkpoint`, `store.manifest_publish`)
//!   behind the `fault-injection` feature; free when disabled.
//!
//! The on-disk formats follow the untrusted-byte discipline of
//! `atd_distance::persist`: FNV-1a checksums, bounds-checked decoding,
//! structural validation of everything the checksum cannot see, typed
//! [`StoreError`]s and never a panic on hostile bytes.

pub mod codec;
pub mod error;
pub mod faultpoint;
pub mod graphio;
pub mod journal;
pub mod manifest;
pub mod wal;

pub use error::StoreError;
pub use journal::{AppendReceipt, Journal, JournalConfig, RecoveryReport, ReplayedTail};
pub use manifest::{GenerationEntry, GenerationStatus, Manifest};
pub use wal::{SegmentRead, WalHeader, WalRecord, WalWriter};
