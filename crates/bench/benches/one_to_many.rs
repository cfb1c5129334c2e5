//! The PR's headline measurement: Algorithm 1's root scan answered by the
//! one-to-many scatter engine vs. independent per-pair merge-joins.
//!
//! Both variants run the identical scan shape — every node as candidate
//! root × every holder of every required skill — against the same PLL
//! index; only the query mechanism differs:
//!
//! * `merge_join` — each `DIST(root, v)` is a fresh two-pointer merge of
//!   both label lists (the pre-CSR engine's inner loop).
//! * `scatter` — the root's label is scattered once per root; each holder
//!   lookup is a direct-indexed scan of the holder's label only.
//!
//! The scatter variant removes the `t·|C(s)|` repeated root-side label
//! walks per root, which is where the ≥2× comes from. Both scans must
//! sum to the same bits before either is timed (asserted in-bench), so
//! a smoke run checks answers, not just speed.

use atd_bench::{project, testbed};
use atd_core::skills::Project;
use atd_distance::{PrunedLandmarkLabeling, SourceScatter};
use atd_graph::NodeId;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Resolves a project to its holder lists (what the scan iterates).
fn holder_lists(p: &Project) -> Vec<Vec<NodeId>> {
    let tb = testbed();
    p.skills()
        .iter()
        .map(|&s| tb.net.skills.holders(s).to_vec())
        .collect()
}

fn bench_root_scan(c: &mut Criterion) {
    let tb = testbed();
    let g = &tb.net.graph;
    let pll = PrunedLandmarkLabeling::build(g);
    let stats = pll.stats();
    eprintln!(
        "one_to_many testbed: {} nodes, avg label {:.1}, max label {}, {} KiB CSR labels",
        stats.nodes,
        stats.avg_entries,
        stats.max_entries,
        stats.bytes / 1024
    );

    let p = project(6, 42);
    let holders = holder_lists(&p);
    let n = g.num_nodes();

    // Both mechanisms must answer bit-identically before timing means
    // anything.
    let merged = merge_join_root_scan(&pll, &holders, n);
    let scattered = scatter_root_scan(&pll, &mut pll.scatter(), &holders, n);
    assert_eq!(
        scattered.to_bits(),
        merged.to_bits(),
        "scatter root scan diverged from the merge-join scan"
    );

    let mut group = c.benchmark_group("one_to_many");
    group.sample_size(20);

    // Baseline: every DIST is an independent pairwise merge-join.
    group.bench_function("root_scan/merge_join", |b| {
        b.iter(|| black_box(merge_join_root_scan(&pll, &holders, n)))
    });

    // One-to-many: scatter the root once, scan holder labels directly.
    group.bench_function("root_scan/scatter", |b| {
        let mut scatter = pll.scatter();
        b.iter(|| black_box(scatter_root_scan(&pll, &mut scatter, &holders, n)))
    });

    group.finish();
}

/// The root scan with every `DIST(root, v)` answered by an independent
/// pairwise merge-join — the same sums, in the same order, as
/// [`scatter_root_scan`].
fn merge_join_root_scan(pll: &PrunedLandmarkLabeling, holders: &[Vec<NodeId>], n: usize) -> f64 {
    let mut acc = 0.0f64;
    for r in 0..n {
        let root = NodeId::from_index(r);
        for hs in holders {
            let mut best = f64::INFINITY;
            for &v in hs {
                let d = pll.query_raw(root, v);
                if d < best {
                    best = d;
                }
            }
            if best.is_finite() {
                acc += best;
            }
        }
    }
    acc
}

/// Runs the scatter root scan against one index — the canonical
/// one-to-many loop. The scratch is caller-owned and reused across
/// iterations, per the `SourceScatter` contract.
fn scatter_root_scan(
    pll: &PrunedLandmarkLabeling,
    scatter: &mut SourceScatter,
    holders: &[Vec<NodeId>],
    n: usize,
) -> f64 {
    let mut acc = 0.0f64;
    for r in 0..n {
        let root = NodeId::from_index(r);
        pll.load_source(scatter, root);
        for hs in holders {
            let mut best = f64::INFINITY;
            for &v in hs {
                if let Some(d) = pll.query_one_to_many(scatter, v) {
                    if d < best {
                        best = d;
                    }
                }
            }
            if best.is_finite() {
                acc += best;
            }
        }
    }
    acc
}

/// End-to-end check that the speedup survives the full engine: `top_k`
/// through `Discovery` (scan + materialization + scoring).
fn bench_engine_top_k(c: &mut Criterion) {
    let tb = testbed();
    let p = project(6, 42);

    let mut group = c.benchmark_group("one_to_many_engine");
    group.sample_size(10);
    group.bench_function("top_k_cc", |b| {
        b.iter(|| {
            black_box(
                tb.engine
                    .top_k(&p, atd_core::strategy::Strategy::Cc, 3)
                    .expect("teams"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_root_scan, bench_engine_top_k);
criterion_main!(benches);
