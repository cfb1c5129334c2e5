//! Index persistence: load-from-disk vs rebuild — the cold-start
//! comparison behind `DiscoveryOptions::pll_index_path` (PR 5).
//!
//! One group, `pll_persist`:
//!
//! * `rebuild` — the full PLL construction (default config), the cost
//!   every process start paid before persistence existed;
//! * `load` — reading, validating and decoding the saved index (the
//!   cold-start path);
//! * `save` — serializing the index (the one-off cost after a build).
//!
//! Before any timing, the saved file is loaded once and asserted
//! **bit-identical** to the built index (stats + full entry-level label
//! comparison, a byte-exact `to_bytes` round-trip, and pairwise +
//! one-to-many query bits over sample sources) — this doubles as the CI
//! smoke for the on-disk format. The environment block on stderr records
//! graph shape and the file size.

use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};
use atd_distance::{
    graph_fingerprint, BuildConfig as PllBuildConfig, PrunedLandmarkLabeling, VertexOrder,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn graph_of(authors: usize) -> atd_graph::ExpertGraph {
    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed: 3,
        ..SynthConfig::default()
    });
    ExpertNetwork::build(synth.corpus, &BuildConfig::default())
        .expect("network")
        .graph
}

fn bench_pll_persist(c: &mut Criterion) {
    // 3000 authors → the 2270-node expert graph: the acceptance testbed
    // every BENCH_pr*.json cold-start claim is quoted against.
    let g = graph_of(3000);
    let reference = PrunedLandmarkLabeling::build_with_config(
        &g,
        VertexOrder::DegreeDescending,
        &PllBuildConfig::sequential(),
    );
    eprintln!(
        "pll_persist testbed: {} nodes, {} edges, {} label entries",
        g.num_nodes(),
        g.num_edges(),
        reference.stats().total_entries
    );

    let dir = std::env::temp_dir().join(format!("atd_pll_persist_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");

    let mut group = c.benchmark_group("pll_persist");
    group.sample_size(10);
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            black_box(PrunedLandmarkLabeling::build_with_config(
                &g,
                VertexOrder::DegreeDescending,
                &PllBuildConfig::default(),
            ))
            .stats()
        })
    });

    let path = dir.join("index.atdl");
    reference.save_to(&path, &g).expect("save");
    // Bit-identity gates before any timing: the saved file must
    // reproduce the built index exactly — label-by-label, byte-by-byte
    // (the loaded index re-serializes to the exact file bytes), and
    // query-by-query over sample sources (pairwise + one-to-many).
    let loaded = PrunedLandmarkLabeling::load_from(&path, &g).expect("load");
    assert_eq!(reference.stats(), loaded.stats(), "stats differ");
    for v in 0..g.num_nodes() {
        assert!(
            reference.labels().entries(v).eq(loaded.labels().entries(v)),
            "labels differ at node {v}"
        );
    }
    let file_bytes = std::fs::read(&path).expect("read back");
    assert_eq!(
        loaded.labels().to_bytes(graph_fingerprint(&g)),
        file_bytes,
        "loaded index must re-serialize to the file bytes"
    );
    let mut sc_built = reference.scatter();
    let mut sc_loaded = loaded.scatter();
    for u in g.nodes().step_by(97) {
        reference.load_source(&mut sc_built, u);
        loaded.load_source(&mut sc_loaded, u);
        for v in g.nodes() {
            assert_eq!(
                reference.query_raw(u, v).to_bits(),
                loaded.query_raw(u, v).to_bits(),
                "pairwise {u:?}→{v:?}"
            );
            assert_eq!(
                reference.query_one_to_many(&sc_built, v),
                loaded.query_one_to_many(&sc_loaded, v),
                "scatter {u:?}→{v:?}"
            );
        }
    }
    eprintln!("  index file: {} KiB on disk", file_bytes.len() / 1024);

    // The load bench measures the load itself, not the teardown:
    // `iter_with_large_drop` defers dropping the returned index out of
    // the timed region (it would otherwise time its allocator frees).
    group.bench_function("load", |b| {
        b.iter_with_large_drop(|| {
            black_box(PrunedLandmarkLabeling::load_from(&path, &g).expect("load"))
        })
    });
    group.bench_function("save", |b| {
        b.iter(|| {
            reference.save_to(&path, &g).expect("save");
            black_box(())
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_pll_persist);
criterion_main!(benches);
