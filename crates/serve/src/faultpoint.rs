//! Deterministic fault injection: `atd-store`'s faultpoint registry,
//! re-exported under this crate's path.
//!
//! The service's fault-tolerance claims (panic isolation, worker respawn,
//! swap-failure containment, deadline shedding) are only testable if the
//! faults themselves are *reproducible*. With the `fault-injection` cargo
//! feature, which turns on `atd-store`'s, a test arms a named point with
//! a [`FaultPlan`] — panic, fixed delay, or I/O error — and the next N
//! passages through it fire deterministically. Without it every hook is
//! an empty `#[inline]` function and the registry does not exist, so
//! production builds pay nothing.
//!
//! Faultpoints in this crate:
//!
//! | name                  | site                                   | armed effect |
//! |-----------------------|----------------------------------------|--------------|
//! | `serve.request`       | inside the worker's `catch_unwind`     | panic → `QueryPanicked`; delay → slow query |
//! | `serve.worker`        | worker loop, *outside* `catch_unwind`  | panic → worker dies → supervisor respawn |
//! | `serve.snapshot_load` | snapshot publication closure           | I/O error / panic → swap failure, old snapshot keeps serving |
//! | `serve.wal_append`    | durable publish path, before the journal append | I/O error → mutation rejected un-acknowledged; panic → killed publisher |
//! | `serve.incremental_patch` | durable publish path, after the ack, before the incremental label patch | panic → killed publisher mid-patch; recovery must fall back to a full rebuild bit-identically |
//! | `serve.admission`     | entry of `QueryService::submit`, before any shed decision | panic → submitting client dies (service unharmed); delay → slow admission |
//! | `serve.brownout`      | inside every brownout latency observation (worker, after the reply is sent) | panic → worker dies on the stats path → supervisor respawn, answer already delivered; delay → slow bookkeeping, queries unaffected |
//!
//! The durable publish path also passes through the store's own points
//! (`store.wal_append`, `store.checkpoint`, `store.manifest_publish`).
//! Both crates' points live in the one registry, so `reset()` clears
//! them all.

pub use atd_store::faultpoint::*;
