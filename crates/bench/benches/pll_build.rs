//! Index-construction cost: pruned landmark labeling build time vs graph
//! size and builder configuration — the cold-start step the
//! batch-synchronous parallel builder attacks (PR 2).
//!
//! Two groups:
//!
//! * `pll_build` — build time per graph size with the default config
//!   (whatever parallelism the host offers), the historical series.
//! * `pll_build_config` — sequential vs parallel per thread count and
//!   batch size on the largest graph, the PR's headline comparison. Every
//!   configuration produces bit-identical labels (asserted here), so this
//!   measures pure construction-strategy cost.
//!
//! The environment block printed to stderr carries the label stats
//! (including the CSR byte footprint) and a per-batch search/merge/
//! repair profile of one parallel build — the numbers BENCH_pr2.json
//! records.

use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};
use atd_distance::{BuildConfig as PllBuildConfig, PrunedLandmarkLabeling, VertexOrder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

fn bench_pll_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pll_build");
    group.sample_size(10);
    for &authors in &[250usize, 500, 1000] {
        let g = graph_of(authors);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}nodes", g.num_nodes())),
            &g,
            |b, g| b.iter(|| black_box(PrunedLandmarkLabeling::build(g)).stats()),
        );
    }
    group.finish();
}

fn bench_pll_build_config(c: &mut Criterion) {
    let g = graph_of(1000);

    // Reference build: stats + one parallel profile for the env block.
    let seq = PrunedLandmarkLabeling::build_with_config(
        &g,
        VertexOrder::DegreeDescending,
        &PllBuildConfig::sequential(),
    );
    let stats = seq.stats();
    eprintln!(
        "pll_build testbed: {} nodes, {} entries, avg label {:.1}, max label {}, \
         {} KiB ({})",
        stats.nodes,
        stats.total_entries,
        stats.avg_entries,
        stats.max_entries,
        stats.bytes / 1024,
        stats.breakdown_kib(),
    );
    let par = PrunedLandmarkLabeling::build_with_config(
        &g,
        VertexOrder::DegreeDescending,
        &PllBuildConfig {
            threads: Some(4),
            batch_size: 64,
            ..PllBuildConfig::default()
        },
    );
    // The whole point of the design: any config, same bits.
    assert_eq!(par.stats(), seq.stats(), "parallel build must be identical");
    for v in 0..g.num_nodes() {
        let (a, b) = (seq.labels().of(v), par.labels().of(v));
        assert_eq!(a.hub_ranks, b.hub_ranks, "rank plane at {v}");
        assert!(
            a.dists
                .iter()
                .zip(b.dists)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "dist bits at {v}"
        );
    }
    let prof = par.build_profile();
    eprintln!(
        "parallel profile (t=4, b=64): {} batches, search {:.1?}, merge {:.1?}, \
         {} journaled -> {} committed, {} repaired hubs",
        prof.batches.len(),
        prof.search_time,
        prof.merge_time,
        prof.journaled_entries,
        prof.committed_entries,
        prof.repaired_hubs
    );
    for (i, b) in prof.batches.iter().enumerate() {
        eprintln!(
            "  batch {i:>2}: {:>3} hubs, journal {:>6}, commit {:>6}, {} repairs, \
             search {:.1?}, merge {:.1?}",
            b.hubs, b.journaled, b.committed, b.repairs, b.search, b.merge
        );
    }

    let mut group = c.benchmark_group("pll_build_config");
    group.sample_size(10);
    let configs: &[(&str, PllBuildConfig)] = &[
        ("seq", PllBuildConfig::sequential()),
        (
            "par_t2_b64",
            PllBuildConfig {
                threads: Some(2),
                batch_size: 64,
                ..PllBuildConfig::default()
            },
        ),
        (
            "par_t4_b64",
            PllBuildConfig {
                threads: Some(4),
                batch_size: 64,
                ..PllBuildConfig::default()
            },
        ),
        (
            "par_t4_b16",
            PllBuildConfig {
                threads: Some(4),
                batch_size: 16,
                ..PllBuildConfig::default()
            },
        ),
    ];
    for (name, cfg) in configs {
        group.bench_function(*name, |b| {
            b.iter(|| {
                black_box(PrunedLandmarkLabeling::build_with_config(
                    &g,
                    VertexOrder::DegreeDescending,
                    cfg,
                ))
                .stats()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pll_build, bench_pll_build_config);
criterion_main!(benches);
