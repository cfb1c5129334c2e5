//! One-to-many 2-hop-cover queries via source scattering.
//!
//! A pairwise label query merge-joins two rank-sorted lists — fine for one
//! lookup, wasteful when the same source is queried against many targets
//! (Algorithm 1 asks `t · |C(s)|` distances per candidate root). The
//! batched form scatters the source's label into a rank-indexed array
//! **once** (`O(|label(source)|)`); every subsequent target query is then a
//! single branch-light linear pass over the target's label slice
//! (`O(|label(target)|)`), with no rank comparisons and no merge state.
//!
//! This is the same trick PLL construction uses internally to prune
//! (`pll.rs` scatters each hub's label before its Dijkstra); this module
//! promotes it to a public query API. [`SourceScatter`] answers exactly
//! what [`LabelSet::query`] answers — bit-identical results, including
//! `INFINITY` for disconnected pairs — because it evaluates the same sums
//! over the same common hubs in the same (ascending-rank) order.

use crate::label::{LabelEntry, LabelSet};

/// Reusable scratch for one-to-many label queries.
///
/// `hub_dist[rank]` holds the loaded source's distance to that hub
/// (`INFINITY` when the hub is not in the source's label). The touched-rank
/// list makes reloading `O(|label(old)| + |label(new)|)` instead of
/// `O(num_ranks)`, so one scratch can serve millions of roots.
///
/// Typical root-scan shape (one scratch per worker thread):
///
/// ```
/// # use atd_distance::{LabelEntry, LabelSet, SourceScatter};
/// # let labels = LabelSet::from_lists(&[
/// #     vec![LabelEntry { hub_rank: 0, dist: 0.0 }],
/// #     vec![LabelEntry { hub_rank: 0, dist: 2.0 }],
/// # ]);
/// let mut scatter = SourceScatter::for_labels(&labels);
/// for root in 0..labels.num_nodes() {
///     scatter.load(&labels, root);
///     for target in 0..labels.num_nodes() {
///         assert_eq!(scatter.distance(&labels, target), labels.query(root, target));
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SourceScatter {
    /// Source-to-hub distance, indexed by hub rank.
    hub_dist: Vec<f64>,
    /// Ranks currently holding finite entries (for cheap reset).
    touched: Vec<u32>,
    /// The node whose label is loaded, if any.
    source: Option<usize>,
}

impl SourceScatter {
    /// Scratch for indices with `num_ranks` distinct hub ranks (= number of
    /// indexed nodes for PLL).
    pub fn new(num_ranks: usize) -> Self {
        SourceScatter {
            hub_dist: vec![f64::INFINITY; num_ranks],
            touched: Vec::new(),
            source: None,
        }
    }

    /// Scratch sized for `labels`.
    pub fn for_labels(labels: &LabelSet) -> Self {
        Self::new(labels.num_nodes())
    }

    /// The currently loaded source node, if any.
    #[inline]
    pub fn source(&self) -> Option<usize> {
        self.source
    }

    /// The number of hub-rank slots this scratch was sized for. A
    /// scratch only answers correctly against a label store with the
    /// same `num_nodes()` — callers that cache scratches across index
    /// swaps (e.g. a serving worker) compare this against the new
    /// store's node count to decide whether the scratch is reusable.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.hub_dist.len()
    }

    /// Unloads the current source, restoring all slots to `INFINITY`.
    pub fn clear(&mut self) {
        for &r in &self.touched {
            self.hub_dist[r as usize] = f64::INFINITY;
        }
        self.touched.clear();
        self.source = None;
    }

    /// Loads `source`'s label, replacing any previous source.
    pub fn load(&mut self, labels: &LabelSet, source: usize) {
        self.clear();
        let label = labels.of(source);
        for (&rank, &dist) in label.hub_ranks.iter().zip(label.dists) {
            self.hub_dist[rank as usize] = dist;
            self.touched.push(rank);
        }
        self.source = Some(source);
    }

    /// Loads a label presented as an entry iterator (used by PLL
    /// construction, whose labels live in a builder, not a [`LabelSet`]).
    /// `source` is recorded as the loaded node.
    pub fn load_entries(&mut self, source: usize, entries: impl IntoIterator<Item = LabelEntry>) {
        self.clear();
        for e in entries {
            self.hub_dist[e.hub_rank as usize] = e.dist;
            self.touched.push(e.hub_rank);
        }
        self.source = Some(source);
    }

    /// The loaded source's distance to the hub of `rank`, or `INFINITY`.
    #[inline]
    pub fn hub_distance(&self, rank: u32) -> f64 {
        self.hub_dist[rank as usize]
    }

    /// Distance from the loaded source to `target` over common hubs —
    /// bit-identical to `labels.query(source, target)`, including
    /// `INFINITY` for disconnected pairs and the `source == target` case.
    ///
    /// Instead of a two-pointer merge this direct-indexes the scatter array
    /// per target entry: hubs absent from the source's label contribute
    /// `INFINITY + d`, which can never win, so no rank comparison is
    /// needed. Same sums, same order, same float result as the merge-join.
    ///
    /// # Panics
    ///
    /// Panics when no source is loaded (fresh scratch, or after
    /// [`SourceScatter::clear`]) — in release builds too. An unloaded
    /// scatter would otherwise silently answer `INFINITY` for **every**
    /// pair, turning a caller bug into "all nodes disconnected"; the
    /// check is one predictable branch against a full label scan.
    #[inline]
    pub fn distance(&self, labels: &LabelSet, target: usize) -> f64 {
        assert!(
            self.source.is_some(),
            "SourceScatter::distance called with no source loaded (call load first)"
        );
        let label = labels.of(target);
        let mut best = f64::INFINITY;
        for (&rank, &dist) in label.hub_ranks.iter().zip(label.dists) {
            let d = self.hub_dist[rank as usize] + dist;
            if d < best {
                best = d;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(hub_rank: u32, dist: f64) -> LabelEntry {
        LabelEntry { hub_rank, dist }
    }

    fn lists() -> Vec<Vec<LabelEntry>> {
        vec![
            vec![e(0, 0.0)],
            vec![e(0, 1.0), e(1, 0.0)],
            vec![e(0, 2.5), e(1, 1.5), e(2, 0.0)],
            vec![e(3, 0.0)], // separate component
        ]
    }

    fn fixture() -> LabelSet {
        LabelSet::from_lists(&lists())
    }

    #[test]
    fn matches_merge_join_on_all_pairs() {
        let ls = fixture();
        let mut sc = SourceScatter::for_labels(&ls);
        for u in 0..ls.num_nodes() {
            sc.load(&ls, u);
            assert_eq!(sc.source(), Some(u));
            for v in 0..ls.num_nodes() {
                let (a, b) = (sc.distance(&ls, v), ls.query(u, v));
                assert!(
                    a.to_bits() == b.to_bits(),
                    "({u},{v}): scatter {a} vs merge {b}"
                );
            }
        }
    }

    /// The scatter reads the CSR planes the same way however the store
    /// was produced: from lists, from the construction builder, or
    /// re-read from its on-disk bytes.
    #[test]
    fn storages_agree_bitwise() {
        let csr = fixture();
        let mut flat: Vec<(usize, LabelEntry)> = Vec::new();
        for (v, list) in lists().into_iter().enumerate() {
            flat.extend(list.into_iter().map(|entry| (v, entry)));
        }
        flat.sort_by_key(|&(v, entry)| (entry.hub_rank, v));
        let mut builder = crate::label::LabelSetBuilder::new(csr.num_nodes());
        for (v, entry) in flat {
            builder.push(v, entry);
        }
        let built = builder.finish();
        let loaded = LabelSet::from_bytes(&csr.to_bytes(7), csr.num_nodes(), 7).unwrap();
        let mut sc_csr = SourceScatter::for_labels(&csr);
        for (name, other) in [("builder", &built), ("loaded", &loaded)] {
            let mut sc_other = SourceScatter::for_labels(other);
            for u in 0..csr.num_nodes() {
                sc_csr.load(&csr, u);
                sc_other.load(other, u);
                for v in 0..csr.num_nodes() {
                    assert_eq!(
                        sc_csr.distance(&csr, v).to_bits(),
                        sc_other.distance(other, v).to_bits(),
                        "({u},{v}) on {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn reload_resets_previous_source() {
        let ls = fixture();
        let mut sc = SourceScatter::for_labels(&ls);
        sc.load(&ls, 2); // touches ranks 0, 1, 2
        sc.load(&ls, 3); // touches rank 3 only
                         // Rank 0 must no longer be finite: node 0 unreachable from node 3.
        assert_eq!(sc.distance(&ls, 0), f64::INFINITY);
        assert_eq!(sc.hub_distance(0), f64::INFINITY);
        assert_eq!(sc.distance(&ls, 3), 0.0);
    }

    #[test]
    fn clear_unloads() {
        let ls = fixture();
        let mut sc = SourceScatter::for_labels(&ls);
        sc.load(&ls, 1);
        sc.clear();
        assert_eq!(sc.source(), None);
        assert!(sc.hub_distance(0).is_infinite());
        assert!(sc.hub_distance(1).is_infinite());
    }

    #[test]
    #[should_panic(expected = "no source loaded")]
    fn distance_without_a_loaded_source_panics_in_release_too() {
        // A plain assert (not debug_assert): an unloaded scatter answering
        // INFINITY for every pair would silently report every node
        // disconnected in release builds.
        let ls = fixture();
        let sc = SourceScatter::for_labels(&ls);
        let _ = sc.distance(&ls, 0);
    }

    #[test]
    #[should_panic(expected = "no source loaded")]
    fn distance_after_clear_panics_in_release_too() {
        let ls = fixture();
        let mut sc = SourceScatter::for_labels(&ls);
        sc.load(&ls, 1);
        sc.clear();
        let _ = sc.distance(&ls, 0);
    }

    #[test]
    fn load_entries_mirrors_load() {
        let ls = fixture();
        let mut via_load = SourceScatter::for_labels(&ls);
        let mut via_entries = SourceScatter::for_labels(&ls);
        via_load.load(&ls, 2);
        // Feed the same entries in reverse (builder chains are descending).
        let reversed: Vec<LabelEntry> = {
            let mut v: Vec<LabelEntry> = ls.entries(2).collect();
            v.reverse();
            v
        };
        via_entries.load_entries(2, reversed);
        for v in 0..ls.num_nodes() {
            assert_eq!(
                via_load.distance(&ls, v).to_bits(),
                via_entries.distance(&ls, v).to_bits()
            );
        }
    }
}
