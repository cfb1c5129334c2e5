//! Immutable snapshots and the atomic swap cell.
//!
//! A [`Snapshot`] is a fully built [`Discovery`] engine plus a version
//! number, held behind an `Arc` and never mutated after publication.
//! The crate-private `SnapshotCell` is the single point of coordination between the swap
//! path and the query path: publishing stores a new `Arc`, serving clones
//! the current one. An in-flight request *pins* its snapshot — the clone
//! keeps the old engine alive until the last request drops it, so a swap
//! never invalidates running queries and old snapshots are freed exactly
//! when the final reference disappears.
//!
//! The cell is a `std::sync::RwLock` around the live `Arc`. Readers hold
//! the read lock only for the duration of one `Arc` clone and writers
//! (rare, already serialized by the service's swap thread) only for one
//! pointer exchange, so the lock is effectively uncontended next to a
//! multi-millisecond query. A panic cannot leave the guarded value
//! half-written — it is a whole `Arc`, replaced in a single move — so a
//! poisoned lock is recovered with `PoisonError::into_inner` instead of
//! propagating the panic to every later request.

use std::sync::{Arc, PoisonError, RwLock};

use atd_core::Discovery;

/// An immutable, versioned serving unit: one engine, one version stamp.
pub struct Snapshot {
    version: u64,
    engine: Discovery,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// Wraps a built engine as snapshot `version`.
    pub fn new(version: u64, engine: Discovery) -> Snapshot {
        Snapshot { version, engine }
    }

    /// The version stamp assigned at publication.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The query engine. Immutable — all of `Discovery`'s query methods
    /// take `&self`.
    pub fn engine(&self) -> &Discovery {
        &self.engine
    }
}

/// The hot-swap cell: readers pin the live snapshot, writers replace it.
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    live: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    pub fn new(initial: Arc<Snapshot>) -> SnapshotCell {
        SnapshotCell {
            live: RwLock::new(initial),
        }
    }

    /// Pins the current snapshot: the returned `Arc` stays valid (and
    /// keeps the engine alive) across any number of concurrent swaps.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.live.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the serving snapshot, returning the previous
    /// one (which stays alive while any request still pins it).
    pub fn swap(&self, next: Arc<Snapshot>) -> Arc<Snapshot> {
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *live, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atd_core::{Project, SkillIndexBuilder, Strategy};
    use atd_graph::GraphBuilder;

    fn tiny_engine(auth: f64) -> (Discovery, Project) {
        let mut b = GraphBuilder::new();
        let a = b.add_node(auth);
        let c = b.add_node(2.0);
        b.add_edge(a, c, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut sb = SkillIndexBuilder::new();
        let s = sb.intern("s");
        sb.grant(a, s);
        let idx = sb.build(g.num_nodes());
        (Discovery::new(g, idx).unwrap(), Project::new(vec![s]))
    }

    #[test]
    fn pinned_snapshot_survives_swap() {
        let (e1, project) = tiny_engine(1.0);
        let (e2, _) = tiny_engine(5.0);
        let cell = SnapshotCell::new(Arc::new(Snapshot::new(1, e1)));
        let pinned = cell.load();
        assert_eq!(pinned.version(), 1);
        let old = cell.swap(Arc::new(Snapshot::new(2, e2)));
        assert_eq!(old.version(), 1);
        assert_eq!(cell.load().version(), 2);
        // The pinned snapshot still answers queries after the swap.
        pinned
            .engine()
            .best(&project, Strategy::Cc)
            .expect("pinned snapshot still serves");
        assert_eq!(pinned.version(), 1);
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear_or_regress() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        // One writer swapping as fast as it can; several readers
        // hammering load(). Every load must observe a monotonically
        // nondecreasing version (per reader), every swap must return the
        // exact previous snapshot, and nothing deadlocks or double-frees.
        let (e1, _) = tiny_engine(1.0);
        let cell = Arc::new(SnapshotCell::new(Arc::new(Snapshot::new(0, e1))));
        let stop = Arc::new(AtomicBool::new(false));
        const SWAPS: u64 = 200;
        const READERS: usize = 4;
        // The writer starts swapping only once every reader has loaded,
        // so each reader runs while the swaps do, however the threads
        // are scheduled.
        let started = Arc::new(Barrier::new(READERS + 1));

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let mut last = cell.load().version();
                    let mut seen = 1u64;
                    started.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.load();
                        assert!(snap.version() >= last, "version went backwards");
                        last = snap.version();
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();

        started.wait();
        for version in 1..=SWAPS {
            let (engine, _) = tiny_engine(1.0 + version as f64);
            let old = cell.swap(Arc::new(Snapshot::new(version, engine)));
            assert_eq!(old.version(), version - 1, "swap returns the previous");
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().unwrap() > 0, "reader made progress");
        }
        assert_eq!(cell.load().version(), SWAPS);
    }
}
