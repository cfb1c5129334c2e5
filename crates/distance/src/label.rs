//! 2-hop cover label storage — flat CSR layout.
//!
//! Labels are stored struct-of-arrays: one `offsets` array indexed by node
//! id plus two parallel flat arrays (`hub_ranks`, `dists`). A node's label
//! is a contiguous slice pair, so the merge-join query walks two dense
//! arrays instead of heap-scattered per-node `Vec`s, and the one-to-many
//! [`SourceScatter`](crate::scatter::SourceScatter) scan is a single linear
//! pass over the holder's slice.
//!
//! Construction order (pruned landmark labeling) appends entries grouped by
//! *hub*, not by node, so the CSR store cannot be grown in place. The
//! [`LabelSetBuilder`] instead journals entries into one flat arena with
//! per-node backward links and converts to CSR in a final `O(total)`
//! counting pass — no per-node `Vec` intermediate at any point.

/// One label entry: this node is at distance `dist` from the hub with
/// construction rank `hub_rank`.
///
/// Storing the *rank* instead of the node id keeps label lists sorted by
/// construction order for free, which is exactly the merge order queries
/// need.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelEntry {
    /// Rank of the hub in the PLL vertex order (0 = most central).
    pub hub_rank: u32,
    /// Shortest-path distance from the owning node to that hub.
    pub dist: f64,
}

/// A borrowed view of one node's label: two parallel rank-sorted slices.
#[derive(Clone, Copy, Debug)]
pub struct LabelRef<'a> {
    /// Hub ranks, strictly ascending.
    pub hub_ranks: &'a [u32],
    /// Distances, parallel to `hub_ranks`.
    pub dists: &'a [f64],
}

impl<'a> LabelRef<'a> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.hub_ranks.len()
    }

    /// True when the label is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hub_ranks.is_empty()
    }

    /// Entries in ascending hub rank.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = LabelEntry> + ExactSizeIterator + 'a {
        self.hub_ranks
            .iter()
            .zip(self.dists)
            .map(|(&hub_rank, &dist)| LabelEntry { hub_rank, dist })
    }
}

/// The label lists of every node in flat CSR form.
///
/// ```
/// use atd_distance::{LabelEntry, LabelSet};
/// let labels = LabelSet::from_lists(&[
///     vec![LabelEntry { hub_rank: 0, dist: 0.0 }],
///     vec![LabelEntry { hub_rank: 0, dist: 1.5 }],
/// ]);
/// // Node 1's label is a contiguous slice pair.
/// assert_eq!(labels.of(1).hub_ranks, &[0]);
/// // Pairwise queries merge-join over common hubs.
/// assert_eq!(labels.query(0, 1), 1.5);
/// assert_eq!(labels.stats().total_entries, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LabelSet {
    // The three planes are (de)serialized field-by-field by `persist.rs`,
    // whose load-time validation re-establishes every invariant stated
    // here — keep the two in sync when changing the layout.
    /// `offsets[v]..offsets[v + 1]` is node `v`'s slice of the flat arrays.
    pub(crate) offsets: Vec<u32>,
    /// All hub ranks, concatenated per node, ascending within a node.
    pub(crate) hub_ranks: Vec<u32>,
    /// All distances, parallel to `hub_ranks`.
    pub(crate) dists: Vec<f64>,
}

/// Summary statistics of a built index.
///
/// `bytes` is the total footprint of the three CSR planes; the `*_bytes`
/// fields break it down (`bytes = offsets_bytes + ranks_bytes +
/// dists_bytes`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelStats {
    /// Number of indexed nodes.
    pub nodes: usize,
    /// Total label entries across all nodes.
    pub total_entries: usize,
    /// Mean entries per node.
    pub avg_entries: f64,
    /// Largest single label list.
    pub max_entries: usize,
    /// Total memory footprint of the label planes in bytes.
    pub bytes: usize,
    /// Bytes spent on the per-node entry offsets.
    pub offsets_bytes: usize,
    /// Bytes spent on the flat `u32` hub-rank plane.
    pub ranks_bytes: usize,
    /// Bytes spent on the flat `f64` distance plane.
    pub dists_bytes: usize,
}

impl LabelStats {
    /// The per-plane byte breakdown as a compact human-readable string,
    /// e.g. `"offsets 9 + ranks 1014 + dists 2028 KiB"` — what the
    /// `experiments` label-stats banner and the cold-start example print.
    pub fn breakdown_kib(&self) -> String {
        format!(
            "offsets {} + ranks {} + dists {} KiB",
            self.offsets_bytes / 1024,
            self.ranks_bytes / 1024,
            self.dists_bytes / 1024
        )
    }
}

impl LabelSet {
    /// An empty label set for `n` nodes.
    pub fn new(n: usize) -> Self {
        LabelSet {
            offsets: vec![0; n + 1],
            hub_ranks: Vec::new(),
            dists: Vec::new(),
        }
    }

    /// Builds a label set from per-node entry lists (each ascending in hub
    /// rank). Convenience for tests and fixtures; the PLL builder uses
    /// [`LabelSetBuilder`].
    pub fn from_lists(lists: &[Vec<LabelEntry>]) -> Self {
        let total: usize = lists.iter().map(|l| l.len()).sum();
        assert!(total <= u32::MAX as usize, "label store overflow");
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut hub_ranks = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        offsets.push(0);
        for list in lists {
            debug_assert!(
                list.windows(2).all(|w| w[0].hub_rank < w[1].hub_rank),
                "label entries must ascend in hub rank"
            );
            for e in list {
                hub_ranks.push(e.hub_rank);
                dists.push(e.dist);
            }
            offsets.push(hub_ranks.len() as u32);
        }
        LabelSet {
            offsets,
            hub_ranks,
            dists,
        }
    }

    /// Number of indexed nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The label of `node` as a slice-pair view.
    #[inline]
    pub fn of(&self, node: usize) -> LabelRef<'_> {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        LabelRef {
            hub_ranks: &self.hub_ranks[lo..hi],
            dists: &self.dists[lo..hi],
        }
    }

    /// `node`'s label entries in ascending hub rank.
    #[inline]
    pub fn entries(
        &self,
        node: usize,
    ) -> impl DoubleEndedIterator<Item = LabelEntry> + ExactSizeIterator + '_ {
        self.of(node).iter()
    }

    /// Merge-join query: minimum `d(u, hub) + d(hub, v)` over common hubs.
    /// Returns `f64::INFINITY` when the lists share no hub (disconnected).
    #[inline]
    pub fn query(&self, u: usize, v: usize) -> f64 {
        let (a, b) = (self.of(u), self.of(v));
        merge_join_min(a.hub_ranks, a.dists, b.hub_ranks, b.dists)
    }

    /// A copy of this store with the labels of `dirty` nodes (sorted,
    /// deduplicated indices) replaced by their lists in `work`; clean
    /// nodes are copied as contiguous spans. Produces exactly the store
    /// [`LabelSet::from_lists`] would build from the final lists — the
    /// incremental-maintenance patch path (`crate::incremental`).
    pub(crate) fn patched(&self, work: &[Vec<LabelEntry>], dirty: &[usize]) -> LabelSet {
        let n = self.num_nodes();
        debug_assert_eq!(work.len(), n);
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty must ascend");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut acc: usize = 0;
        let mut di = 0usize;
        for (v, wv) in work.iter().enumerate() {
            acc += if dirty.get(di) == Some(&v) {
                di += 1;
                wv.len()
            } else {
                (self.offsets[v + 1] - self.offsets[v]) as usize
            };
            assert!(acc <= u32::MAX as usize, "label store overflow");
            offsets.push(acc as u32);
        }
        let mut hub_ranks = Vec::with_capacity(acc);
        let mut dists = Vec::with_capacity(acc);
        let mut clean_from = 0usize;
        for &v in dirty {
            let lo = self.offsets[clean_from] as usize;
            let hi = self.offsets[v] as usize;
            hub_ranks.extend_from_slice(&self.hub_ranks[lo..hi]);
            dists.extend_from_slice(&self.dists[lo..hi]);
            debug_assert!(
                work[v].windows(2).all(|w| w[0].hub_rank < w[1].hub_rank),
                "label entries must ascend in hub rank"
            );
            for e in &work[v] {
                hub_ranks.push(e.hub_rank);
                dists.push(e.dist);
            }
            clean_from = v + 1;
        }
        let lo = self.offsets[clean_from] as usize;
        hub_ranks.extend_from_slice(&self.hub_ranks[lo..]);
        dists.extend_from_slice(&self.dists[lo..]);
        LabelSet {
            offsets,
            hub_ranks,
            dists,
        }
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> LabelStats {
        let nodes = self.num_nodes();
        let total_entries = self.hub_ranks.len();
        let max_entries = self
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        let offsets_bytes = std::mem::size_of::<u32>() * self.offsets.len();
        let ranks_bytes = std::mem::size_of::<u32>() * total_entries;
        let dists_bytes = std::mem::size_of::<f64>() * total_entries;
        LabelStats {
            nodes,
            total_entries,
            avg_entries: if nodes == 0 {
                0.0
            } else {
                total_entries as f64 / nodes as f64
            },
            max_entries,
            bytes: offsets_bytes + ranks_bytes + dists_bytes,
            offsets_bytes,
            ranks_bytes,
            dists_bytes,
        }
    }
}

/// Incremental label construction without per-node `Vec`s.
///
/// Entries are journaled into three flat arenas; `prev` links chain each
/// node's entries newest-first. [`LabelSetBuilder::finish`] converts to the
/// CSR [`LabelSet`] in one counting pass. The builder also answers the
/// traversals PLL construction needs mid-build ([`LabelSetBuilder::entries`],
/// in *descending* rank order — irrelevant for the min/scatter/reset loops
/// that consume it).
#[derive(Clone, Debug)]
pub struct LabelSetBuilder {
    /// Per-node index of the most recent arena entry, or `NONE`.
    head: Vec<u32>,
    /// Per-node entry counts (for the CSR counting pass).
    counts: Vec<u32>,
    arena_ranks: Vec<u32>,
    arena_dists: Vec<f64>,
    arena_prev: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl LabelSetBuilder {
    /// An empty builder for `n` nodes.
    pub fn new(n: usize) -> Self {
        LabelSetBuilder {
            head: vec![NONE; n],
            counts: vec![0; n],
            arena_ranks: Vec::new(),
            arena_dists: Vec::new(),
            arena_prev: Vec::new(),
        }
    }

    /// Appends an entry to `node`'s label.
    ///
    /// Construction visits hubs in ascending rank, so pushes keep each
    /// node's chain sorted by `hub_rank`; this is debug-asserted.
    #[inline]
    pub fn push(&mut self, node: usize, entry: LabelEntry) {
        debug_assert!(
            self.head[node] == NONE || self.arena_ranks[self.head[node] as usize] < entry.hub_rank,
            "label entries must be pushed in ascending hub rank"
        );
        let idx = self.arena_ranks.len() as u32;
        assert!(idx != NONE, "label arena overflow");
        self.arena_ranks.push(entry.hub_rank);
        self.arena_dists.push(entry.dist);
        self.arena_prev.push(self.head[node]);
        self.head[node] = idx;
        self.counts[node] += 1;
    }

    /// `node`'s entries so far, newest first (descending hub rank).
    #[inline]
    pub fn entries(&self, node: usize) -> BuilderEntries<'_> {
        BuilderEntries {
            builder: self,
            next: self.head[node],
        }
    }

    /// Converts to the flat CSR [`LabelSet`]. `O(nodes + entries)`:
    /// a prefix sum over the counts, then each chain is walked backwards,
    /// filling its segment from the end so ranks come out ascending.
    pub fn finish(self) -> LabelSet {
        let n = self.head.len();
        let total = self.arena_ranks.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &self.counts {
            acc += c;
            offsets.push(acc);
        }
        let mut hub_ranks = vec![0u32; total];
        let mut dists = vec![0.0f64; total];
        for v in 0..n {
            let mut slot = offsets[v + 1] as usize;
            let mut cur = self.head[v];
            while cur != NONE {
                let i = cur as usize;
                slot -= 1;
                hub_ranks[slot] = self.arena_ranks[i];
                dists[slot] = self.arena_dists[i];
                cur = self.arena_prev[i];
            }
            debug_assert_eq!(slot, offsets[v] as usize, "chain/count mismatch");
        }
        LabelSet {
            offsets,
            hub_ranks,
            dists,
        }
    }
}

/// Iterator over a node's in-construction label (descending hub rank).
pub struct BuilderEntries<'a> {
    builder: &'a LabelSetBuilder,
    next: u32,
}

impl Iterator for BuilderEntries<'_> {
    type Item = LabelEntry;

    #[inline]
    fn next(&mut self) -> Option<LabelEntry> {
        if self.next == NONE {
            return None;
        }
        let i = self.next as usize;
        self.next = self.builder.arena_prev[i];
        Some(LabelEntry {
            hub_rank: self.builder.arena_ranks[i],
            dist: self.builder.arena_dists[i],
        })
    }
}

/// Two-pointer merge over rank-sorted slice pairs, taking the min combined
/// distance over common hubs.
#[inline]
fn merge_join_min(a_ranks: &[u32], a_dists: &[f64], b_ranks: &[u32], b_dists: &[f64]) -> f64 {
    let mut best = f64::INFINITY;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a_ranks.len() && j < b_ranks.len() {
        let (ra, rb) = (a_ranks[i], b_ranks[j]);
        match ra.cmp(&rb) {
            std::cmp::Ordering::Equal => {
                let d = a_dists[i] + b_dists[j];
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(hub_rank: u32, dist: f64) -> LabelEntry {
        LabelEntry { hub_rank, dist }
    }

    fn set(lists: &[Vec<LabelEntry>]) -> LabelSet {
        LabelSet::from_lists(lists)
    }

    #[test]
    fn query_takes_min_over_common_hubs() {
        let ls = set(&[vec![e(0, 1.0), e(2, 0.5)], vec![e(0, 2.0), e(2, 5.0)]]);
        // Common hubs 0 (1+2=3) and 2 (0.5+5=5.5); min is 3.
        assert_eq!(ls.query(0, 1), 3.0);
    }

    #[test]
    fn disjoint_hubs_mean_infinity() {
        let ls = set(&[vec![e(0, 1.0)], vec![e(1, 1.0)]]);
        assert_eq!(ls.query(0, 1), f64::INFINITY);
    }

    #[test]
    fn empty_labels_mean_infinity() {
        let ls = LabelSet::new(2);
        assert_eq!(ls.query(0, 1), f64::INFINITY);
    }

    #[test]
    fn stats_counts_entries() {
        let ls = set(&[vec![e(0, 0.0)], vec![e(0, 1.0), e(1, 0.0)], vec![]]);
        let s = ls.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.total_entries, 3);
        assert_eq!(s.max_entries, 2);
        assert!((s.avg_entries - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builder_matches_from_lists() {
        let lists = vec![
            vec![e(0, 0.25), e(3, 1.5), e(7, 2.0)],
            vec![],
            vec![e(1, 0.5), e(2, 4.0)],
        ];
        // Interleave pushes across nodes in global rank order, the way PLL
        // construction does.
        let mut b = LabelSetBuilder::new(3);
        let mut flat: Vec<(usize, LabelEntry)> = Vec::new();
        for (v, l) in lists.iter().enumerate() {
            for &entry in l {
                flat.push((v, entry));
            }
        }
        flat.sort_by_key(|&(_, entry)| entry.hub_rank);
        for (v, entry) in flat {
            b.push(v, entry);
        }
        let built = b.finish();
        let reference = LabelSet::from_lists(&lists);
        for v in 0..3 {
            assert_eq!(built.of(v).hub_ranks, reference.of(v).hub_ranks);
            assert_eq!(built.of(v).dists, reference.of(v).dists);
        }
        assert_eq!(built.stats(), reference.stats());
    }

    #[test]
    fn builder_entries_descend() {
        let mut b = LabelSetBuilder::new(1);
        b.push(0, e(1, 1.0));
        b.push(0, e(4, 2.0));
        b.push(0, e(9, 3.0));
        let ranks: Vec<u32> = b.entries(0).map(|x| x.hub_rank).collect();
        assert_eq!(ranks, vec![9, 4, 1]);
    }

    #[test]
    fn label_ref_iterates_ascending() {
        let ls = set(&[vec![e(2, 1.0), e(5, 0.5)]]);
        let got: Vec<LabelEntry> = ls.of(0).iter().collect();
        assert_eq!(got, vec![e(2, 1.0), e(5, 0.5)]);
        assert_eq!(ls.of(0).len(), 2);
        assert!(!ls.of(0).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending hub rank")]
    fn push_enforces_rank_order_in_debug() {
        let mut b = LabelSetBuilder::new(1);
        b.push(0, e(5, 1.0));
        b.push(0, e(3, 1.0));
    }

    #[test]
    fn stats_reports_csr_bytes() {
        let ls = set(&[vec![e(0, 0.0)], vec![e(0, 1.0), e(1, 0.0)], vec![]]);
        let s = ls.stats();
        // offsets: (3 + 1) u32s; 3 entries: 3 u32 ranks + 3 f64 dists.
        assert_eq!(s.offsets_bytes, 4 * 4);
        assert_eq!(s.ranks_bytes, 3 * 4);
        assert_eq!(s.dists_bytes, 3 * 8);
        assert_eq!(s.bytes, 4 * 4 + 3 * 4 + 3 * 8);
        assert_eq!(LabelSet::new(2).stats().bytes, 3 * 4);
    }
}
