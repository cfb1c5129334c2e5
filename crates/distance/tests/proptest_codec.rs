//! The label codec's contract, for the flat CSR [`LabelSet`]: encoding
//! per-node label lists is lossless (`from_lists → entries` reproduces
//! every rank and every distance bit), the builder the PLL construction
//! journals into ([`LabelSetBuilder::finish`]) produces the same store as
//! the list encoder, the merge-join answers exactly the min-plus over
//! common hubs, and the stats count what the planes hold — on arbitrary
//! label shapes, including empty labels, wide rank gaps, zero distances
//! and heavy distance-value repetition.

use atd_distance::{LabelEntry, LabelSet, LabelSetBuilder};
use proptest::prelude::*;

/// Random per-node label lists: strictly ascending ranks built from
/// random gaps and arbitrary non-negative distances (including exact
/// zeros and heavy repetition — every third entry is drawn from a
/// handful of quantized values).
fn random_lists() -> impl Strategy<Value = Vec<Vec<LabelEntry>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..40_000, 0.0f64..50.0), 0..40),
        0..16,
    )
    .prop_map(|nodes| {
        nodes
            .into_iter()
            .map(|gaps| {
                let mut rank: u64 = 0;
                let mut list = Vec::with_capacity(gaps.len());
                for (i, (gap, dist)) in gaps.into_iter().enumerate() {
                    // First entry lands on `gap` itself (absolute rank may
                    // be 0); later entries advance strictly.
                    rank = if i == 0 {
                        gap as u64
                    } else {
                        rank + 1 + gap as u64
                    };
                    // Every eighth distance is an exact zero (hub
                    // self-entries are zero in real labels); every third
                    // is quantized so values repeat across nodes.
                    let dist = if i % 8 == 7 {
                        0.0
                    } else if i % 3 == 0 {
                        (gap % 5) as f64 * 0.25
                    } else {
                        dist
                    };
                    list.push(LabelEntry {
                        hub_rank: rank as u32,
                        dist,
                    });
                }
                list
            })
            .collect()
    })
}

/// The store the PLL construction path yields: pushes interleave across
/// nodes in global rank order, the way the build journals entries.
fn via_builder(lists: &[Vec<LabelEntry>]) -> LabelSet {
    let mut flat: Vec<(usize, LabelEntry)> = Vec::new();
    for (v, list) in lists.iter().enumerate() {
        for &entry in list {
            flat.push((v, entry));
        }
    }
    flat.sort_by_key(|&(v, entry)| (entry.hub_rank, v));
    let mut b = LabelSetBuilder::new(lists.len());
    for (v, entry) in flat {
        b.push(v, entry);
    }
    b.finish()
}

/// Min over common hubs of `d(u, hub) + d(hub, v)`, straight from the
/// lists by nested loops; `INFINITY` when no hub is shared.
fn reference_query(a: &[LabelEntry], b: &[LabelEntry]) -> f64 {
    let mut best = f64::INFINITY;
    for x in a {
        for y in b {
            if x.hub_rank == y.hub_rank && x.dist + y.dist < best {
                best = x.dist + y.dist;
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lossless round-trip: every rank and every distance bit survives
    /// `from_lists → entries`, and the slice view agrees with the
    /// iterator.
    #[test]
    fn roundtrip_is_bit_exact(lists in random_lists()) {
        let store = LabelSet::from_lists(&lists);
        prop_assert_eq!(store.num_nodes(), lists.len());
        for (v, list) in lists.iter().enumerate() {
            let decoded: Vec<LabelEntry> = store.entries(v).collect();
            prop_assert_eq!(decoded.len(), list.len(), "node {} length", v);
            prop_assert_eq!(store.of(v).len(), list.len(), "node {} view length", v);
            for (i, (got, want)) in decoded.iter().zip(list).enumerate() {
                prop_assert_eq!(got.hub_rank, want.hub_rank, "node {} entry {}", v, i);
                prop_assert_eq!(
                    got.dist.to_bits(),
                    want.dist.to_bits(),
                    "node {} entry {} dist {} vs {}",
                    v, i, got.dist, want.dist
                );
            }
        }
    }

    /// Both construction paths produce the same store: the list encoder
    /// and the builder the PLL construction journals into.
    #[test]
    fn construction_paths_agree(lists in random_lists()) {
        let via_lists = LabelSet::from_lists(&lists);
        let built = via_builder(&lists);
        prop_assert_eq!(built.num_nodes(), via_lists.num_nodes());
        for v in 0..lists.len() {
            let a: Vec<LabelEntry> = via_lists.entries(v).collect();
            let b: Vec<LabelEntry> = built.entries(v).collect();
            prop_assert_eq!(a.len(), b.len(), "finish differs in length at node {}", v);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.hub_rank, y.hub_rank, "finish differs at node {}", v);
                prop_assert_eq!(
                    x.dist.to_bits(), y.dist.to_bits(),
                    "finish differs at node {}", v
                );
            }
        }
        prop_assert_eq!(via_lists.stats(), built.stats());
    }

    /// Every pairwise merge-join query of the CSR store is bit-identical
    /// to the min-plus over common hubs computed from the lists,
    /// including `INFINITY` for hub-disjoint labels.
    #[test]
    fn every_query_matches_csr(lists in random_lists()) {
        let store = LabelSet::from_lists(&lists);
        for (u, a) in lists.iter().enumerate() {
            for (v, b) in lists.iter().enumerate() {
                let (got, want) = (store.query(u, v), reference_query(a, b));
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "({},{}): csr {} vs reference {}", u, v, got, want
                );
            }
        }
    }

    /// Stats agree with counts taken from the lists on everything except
    /// the byte footprint, which counts the real planes — and the plane
    /// breakdown sums to the total.
    #[test]
    fn stats_agree_except_bytes(lists in random_lists()) {
        let s = LabelSet::from_lists(&lists).stats();
        let total: usize = lists.iter().map(Vec::len).sum();
        prop_assert_eq!(s.nodes, lists.len());
        prop_assert_eq!(s.total_entries, total);
        prop_assert_eq!(s.max_entries, lists.iter().map(Vec::len).max().unwrap_or(0));
        let avg = if lists.is_empty() { 0.0 } else { total as f64 / lists.len() as f64 };
        prop_assert_eq!(s.avg_entries.to_bits(), avg.to_bits());
        prop_assert_eq!(s.offsets_bytes, 4 * (lists.len() + 1));
        prop_assert_eq!(s.ranks_bytes, 4 * total);
        prop_assert_eq!(s.dists_bytes, 8 * total);
        prop_assert_eq!(
            s.bytes,
            s.offsets_bytes + s.ranks_bytes + s.dists_bytes,
            "plane breakdown must sum to the total"
        );
    }
}
