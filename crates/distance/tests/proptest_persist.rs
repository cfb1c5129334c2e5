//! The persistence contract: `save → load` is bit-lossless (labels and
//! stats), files written by earlier builds keep loading byte for byte,
//! and loading is total — any corrupted, truncated, stale, foreign or
//! malicious byte stream yields a clean [`PersistError`], never a panic.
//! The corruption half flips every byte and cuts every prefix of real
//! dumps, then re-seals patched payloads with the format's own checksum
//! to drive the *structural* validation behind it (non-monotone offsets,
//! descending ranks, out-of-range ranks).

use atd_distance::persist::{checksum, HEADER_LEN};
use atd_distance::{
    graph_fingerprint, BuildConfig, LabelEntry, LabelSet, PersistError, PrunedLandmarkLabeling,
    VertexOrder,
};
use proptest::prelude::*;

/// Random per-node label lists: strictly ascending ranks from random
/// gaps and non-negative distances with heavy repetition. Ranks stay
/// below the node count often enough to exercise both small and large
/// gaps.
fn random_lists() -> impl Strategy<Value = Vec<Vec<LabelEntry>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..40_000, 0.0f64..50.0), 0..32),
        0..12,
    )
    .prop_map(|nodes| {
        nodes
            .into_iter()
            .map(|gaps| {
                let mut rank: u64 = 0;
                let mut list = Vec::with_capacity(gaps.len());
                for (i, (gap, dist)) in gaps.into_iter().enumerate() {
                    rank = if i == 0 {
                        gap as u64
                    } else {
                        rank + 1 + gap as u64
                    };
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

const HASH: u64 = 0x0123_4567_89ab_cdef;

fn assert_stores_bit_identical(a: &LabelSet, b: &LabelSet) {
    assert_eq!(a.stats(), b.stats());
    for v in 0..a.num_nodes() {
        let la: Vec<LabelEntry> = a.entries(v).collect();
        let lb: Vec<LabelEntry> = b.entries(v).collect();
        assert_eq!(la.len(), lb.len(), "node {v}");
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x.hub_rank, y.hub_rank, "node {v}");
            assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "node {v}");
        }
    }
}

/// Recomputes the payload checksum after a test patched payload bytes,
/// so the patch reaches the structural validation instead of dying at
/// the checksum gate.
fn reseal(bytes: &mut [u8]) {
    let sum = checksum(&bytes[HEADER_LEN..]);
    bytes[40..48].copy_from_slice(&sum.to_le_bytes());
}

fn e(hub_rank: u32, dist: f64) -> LabelEntry {
    LabelEntry { hub_rank, dist }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// save → load reproduces the labels of the one backend (flat CSR)
    /// bit-identically: same stats (hence same per-plane bytes), same
    /// rank and distance bits for every node.
    #[test]
    fn roundtrip_is_bit_lossless_for_every_backend(lists in random_lists()) {
        let store = LabelSet::from_lists(&lists);
        let bytes = store.to_bytes(HASH);
        let loaded = LabelSet::from_bytes(&bytes, store.num_nodes(), HASH)
            .unwrap_or_else(|err| panic!("{err}"));
        assert_stores_bit_identical(&store, &loaded);
    }

    /// Flipping ANY single byte of a valid dump makes loading fail
    /// cleanly: every byte is covered by the magic, a header field
    /// check, the fingerprint, or the payload checksum — and nothing
    /// panics.
    #[test]
    fn any_single_byte_flip_is_rejected(lists in random_lists(), seed in 0usize..1_000_000) {
        let store = LabelSet::from_lists(&lists);
        let mut bytes = store.to_bytes(HASH);
        let pos = seed % bytes.len();
        bytes[pos] ^= 0xff;
        let result = LabelSet::from_bytes(&bytes, store.num_nodes(), HASH);
        prop_assert!(
            result.is_err(),
            "flip at byte {pos} of {} went unnoticed",
            bytes.len()
        );
    }

    /// A dump loaded against a *different* snapshot fingerprint is
    /// rejected as stale.
    #[test]
    fn wrong_fingerprint_is_stale(lists in random_lists()) {
        let store = LabelSet::from_lists(&lists);
        let bytes = store.to_bytes(HASH);
        let err = LabelSet::from_bytes(&bytes, store.num_nodes(), HASH ^ 1).unwrap_err();
        prop_assert!(matches!(err, PersistError::StaleIndex { .. }), "{err}");
    }
}

#[test]
fn every_truncation_point_is_rejected_cleanly() {
    let lists = vec![
        vec![e(0, 0.25), e(1, 1.5), e(300, 2.0)],
        vec![],
        vec![e(2, 0.25), e(5, 1.5), e(6, 0.0)],
    ];
    let store = LabelSet::from_lists(&lists);
    let bytes = store.to_bytes(HASH);
    for cut in 0..bytes.len() {
        let result = LabelSet::from_bytes(&bytes[..cut], store.num_nodes(), HASH);
        assert!(
            result.is_err(),
            "truncation at {cut}/{} went unnoticed",
            bytes.len()
        );
    }
}

#[test]
fn header_field_corruption_yields_the_matching_error() {
    let store = LabelSet::from_lists(&[vec![e(0, 1.0)]]);
    let bytes = store.to_bytes(HASH);
    let load = |b: &[u8]| LabelSet::from_bytes(b, 1, HASH);

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(load(&bad_magic), Err(PersistError::BadMagic)));

    // Format v1 (byte-packed planes) is no longer read, and neither is
    // any future version.
    for version in [0u16, 1, 3, 99] {
        let mut bad_version = bytes.clone();
        bad_version[4..6].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            load(&bad_version),
            Err(PersistError::UnsupportedVersion(v)) if v == version
        ));
    }

    // Tags 1–3 named the retired compressed and dictionary layouts; only
    // tag 0 (flat CSR) loads.
    for tag in [1u8, 2, 3, 17] {
        let mut bad_tag = bytes.clone();
        bad_tag[6] = tag;
        assert!(matches!(
            load(&bad_tag),
            Err(PersistError::BadStorageTag(t)) if t == tag
        ));
    }

    let mut bad_reserved = bytes.clone();
    bad_reserved[7] = 1;
    assert!(matches!(load(&bad_reserved), Err(PersistError::Corrupt(_))));

    let mut bad_checksum = bytes.clone();
    bad_checksum[40] ^= 1;
    assert!(matches!(
        load(&bad_checksum),
        Err(PersistError::ChecksumMismatch)
    ));

    let mut flipped_payload = bytes.clone();
    let last = flipped_payload.len() - 1;
    flipped_payload[last] ^= 1;
    assert!(matches!(
        load(&flipped_payload),
        Err(PersistError::ChecksumMismatch)
    ));
}

#[test]
fn non_monotone_offsets_are_rejected_not_panicking() {
    // CSR v2 layout: max-rank word, then the offsets block = 8-byte
    // length prefix + [0, 1, 2] u32s. Patching offsets[1] to 5 breaks
    // monotonicity (and the slice bounds the unchecked `of()` would
    // have used).
    let store = LabelSet::from_lists(&[vec![e(0, 1.0)], vec![e(1, 2.0)]]);
    let mut bytes = store.to_bytes(HASH);
    let offset1 = HEADER_LEN + 8 + 8 + 4;
    bytes[offset1..offset1 + 4].copy_from_slice(&5u32.to_le_bytes());
    reseal(&mut bytes);
    let err = LabelSet::from_bytes(&bytes, 2, HASH).unwrap_err();
    assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
}

#[test]
fn descending_csr_ranks_are_rejected() {
    // Two entries for one node with swapped ranks: build the valid dump
    // first, then swap the two rank u32s (offsets 8+12 in) and re-seal.
    let store = LabelSet::from_lists(&[vec![e(3, 1.0), e(9, 2.0)]]);
    let mut bytes = store.to_bytes(HASH);
    let ranks_at = HEADER_LEN + 8 + (8 + 8) + 8; // max-rank word, offsets block, ranks length prefix
    bytes[ranks_at..ranks_at + 4].copy_from_slice(&9u32.to_le_bytes());
    bytes[ranks_at + 4..ranks_at + 8].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut bytes);
    let err = LabelSet::from_bytes(&bytes, 1, HASH).unwrap_err();
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("ascending")),
        "{err}"
    );
}

#[test]
fn inflated_max_rank_field_is_rejected() {
    // The payload's leading `max_rank` word must equal the largest rank
    // actually stored; patch it far past the planes and re-seal.
    let store = LabelSet::from_lists(&[vec![e(0, 0.5), e(2, 1.0)], vec![e(1, 0.0)]]);
    let mut bytes = store.to_bytes(HASH);
    bytes[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    reseal(&mut bytes);
    let err = LabelSet::from_bytes(&bytes, 2, HASH).unwrap_err();
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("max-rank")),
        "{err}"
    );
}

#[test]
fn pll_load_rejects_hub_ranks_beyond_the_node_count() {
    // Structurally valid store, but rank 5 cannot be a vertex rank in a
    // 1-node graph: LabelSet::load_from accepts it (raw label sets carry
    // no such bound), PrunedLandmarkLabeling::load_from must reject it —
    // its scatter scratch direct-indexes by rank.
    use atd_graph::GraphBuilder;
    let mut b = GraphBuilder::new();
    b.add_node(1.0);
    let g = b.build().unwrap();
    let store = LabelSet::from_lists(&[vec![e(5, 1.0)]]);
    let bytes = store.to_bytes(graph_fingerprint(&g));
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "atd_persist_rank_bound_{}_{:?}.atdl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, &bytes).unwrap();
    assert!(LabelSet::load_from(&path, &g).is_ok(), "store-level load");
    let err = PrunedLandmarkLabeling::load_from(&path, &g).unwrap_err();
    assert!(
        matches!(err, PersistError::Corrupt(msg) if msg.contains("rank")),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn pll_roundtrip_through_files_is_bit_identical_and_queryable() {
    // End-to-end through real files: build an index on a real graph,
    // save, load, and compare labels and a full pairwise query matrix
    // bitwise.
    use atd_graph::GraphBuilder;
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..12).map(|i| b.add_node(1.0 + i as f64)).collect();
    for i in 0..ids.len() {
        b.add_edge(ids[i], ids[(i + 1) % ids.len()], 1.0 + (i % 3) as f64 * 0.5)
            .unwrap();
        if i + 4 < ids.len() {
            b.add_edge(ids[i], ids[i + 4], 2.5).unwrap();
        }
    }
    let g = b.build().unwrap();
    let built = PrunedLandmarkLabeling::build(&g);
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "atd_persist_pll_roundtrip_{}_{:?}.atdl",
        std::process::id(),
        std::thread::current().id()
    ));
    built.save_to(&path, &g).unwrap();
    let loaded = PrunedLandmarkLabeling::load_from(&path, &g).unwrap();
    assert_stores_bit_identical(built.labels(), loaded.labels());
    let mut sc = loaded.scatter();
    for u in g.nodes() {
        loaded.load_source(&mut sc, u);
        for v in g.nodes() {
            assert_eq!(
                built.query_raw(u, v).to_bits(),
                loaded.query_raw(u, v).to_bits()
            );
            assert_eq!(
                loaded.query_one_to_many(&sc, v),
                built.query_one_to_many(
                    &{
                        let mut s2 = built.scatter();
                        built.load_source(&mut s2, u);
                        s2
                    },
                    v
                )
            );
        }
    }
    // A perturbed graph (one weight changed) must reject the file.
    let g2 = g.map_weights(|_, _, w| w * 2.0);
    let err = PrunedLandmarkLabeling::load_from(&path, &g2).unwrap_err();
    assert!(matches!(err, PersistError::StaleIndex { .. }), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A v2 CSR index of [`fixture_graph`], byte for byte as the writer
/// produced it while three other label layouts and a zero-copy loader
/// still existed. Stores written back then must keep loading unchanged,
/// and today's writer must still emit exactly these bytes.
#[rustfmt::skip]
const PINNED_V2_INDEX: [u8; 296] = [
    0x41, 0x54, 0x44, 0x4c, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x9e, 0x8c, 0x0a, 0xf3, 0x2d, 0x29, 0x67, 0x51, 0xf8, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xf9, 0x7a, 0xc0, 0x38, 0x20, 0xd2, 0xf5, 0x19,
    0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x0b, 0x00, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00,
    0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xf4, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xe8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfc, 0x3f, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Seven authors, six of them in one component; node 6 is isolated.
fn fixture_graph() -> atd_graph::ExpertGraph {
    use atd_graph::GraphBuilder;
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..7).map(|i| b.add_node(1.0 + i as f64)).collect();
    for (u, v, w) in [
        (0, 1, 0.5),
        (1, 2, 1.25),
        (2, 3, 0.75),
        (3, 0, 2.0),
        (1, 4, 1.5),
        (4, 5, 0.25),
        (2, 5, 3.0),
    ] {
        b.add_edge(ids[u], ids[v], w).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn pinned_v2_index_loads_and_reencodes_byte_for_byte() {
    let g = fixture_graph();
    let built = PrunedLandmarkLabeling::build_with_config(
        &g,
        VertexOrder::DegreeDescending,
        &BuildConfig::default(),
    );
    assert_eq!(
        built.labels().to_bytes(graph_fingerprint(&g)),
        PINNED_V2_INDEX,
        "the writer's byte layout changed"
    );

    let path = std::env::temp_dir().join(format!(
        "atd_persist_pinned_{}_{:?}.atdl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, PINNED_V2_INDEX).unwrap();
    let loaded = PrunedLandmarkLabeling::load_from(&path, &g).unwrap();
    std::fs::remove_file(&path).ok();
    assert_stores_bit_identical(built.labels(), loaded.labels());
    assert_eq!(
        loaded.labels().to_bytes(graph_fingerprint(&g)),
        PINNED_V2_INDEX,
        "load → save must reproduce the file"
    );
    let mut sc = loaded.scatter();
    for u in g.nodes() {
        loaded.load_source(&mut sc, u);
        for v in g.nodes() {
            assert_eq!(
                loaded.query_one_to_many(&sc, v).map(f64::to_bits),
                built
                    .query_raw(u, v)
                    .is_finite()
                    .then(|| built.query_raw(u, v).to_bits()),
                "({u},{v})"
            );
        }
    }
}
