//! Cold-start profiler for the batch-synchronous parallel PLL builder
//! and the persistent-index load path.
//!
//! Builds the distance index for a synthetic expert network at a chosen
//! size under several `BuildConfig`s and prints the search/merge/repair
//! profile of each — the end-to-end view of what a fresh snapshot costs
//! to index — then saves and reloads the index, printing load-vs-rebuild
//! wall time (the `persist.rs` instant cold start; the load is asserted
//! bit-identical).
//!
//! Run with:
//! `cargo run --release --example pll_cold_start [num_authors] [threads...]`

use std::time::Instant;

use team_discovery::dblp::graph_build::{BuildConfig, ExpertNetwork};
use team_discovery::dblp::synth::{SynthConfig, SynthCorpus};
use team_discovery::distance::{
    BuildConfig as PllBuildConfig, PrunedLandmarkLabeling, VertexOrder,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let authors: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let threads: Vec<usize> = {
        let t: Vec<usize> = args.filter_map(|a| a.parse().ok()).collect();
        if t.is_empty() {
            vec![2, 4]
        } else {
            t
        }
    };

    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed: 3,
        ..SynthConfig::default()
    });
    let g = ExpertNetwork::build(synth.corpus, &BuildConfig::default())
        .expect("network")
        .graph;
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    let t0 = Instant::now();
    let seq = PrunedLandmarkLabeling::build_with_config(
        &g,
        VertexOrder::DegreeDescending,
        &PllBuildConfig::sequential(),
    );
    let seq_time = t0.elapsed();
    let stats = seq.stats();
    println!(
        "labels: {} entries, avg {:.1}, max {}, {} KiB ({})",
        stats.total_entries,
        stats.avg_entries,
        stats.max_entries,
        stats.bytes / 1024,
        stats.breakdown_kib()
    );
    println!("sequential build: {seq_time:.2?}");

    let mut best_rebuild = seq_time;
    for &t in &threads {
        let t1 = Instant::now();
        let par = PrunedLandmarkLabeling::build_with_config(
            &g,
            VertexOrder::DegreeDescending,
            &PllBuildConfig {
                threads: Some(t),
                batch_size: 64,
                ..PllBuildConfig::default()
            },
        );
        let wall = t1.elapsed();
        assert_eq!(par.stats(), stats, "parallel build must be bit-identical");
        let p = par.build_profile();
        println!(
            "parallel t={t}: {wall:.2?} wall (search {:.2?}, merge {:.2?}; \
             {} batches, {}/{} hubs repaired, {} journaled -> {} committed)",
            p.search_time,
            p.merge_time,
            p.batches.len(),
            p.repaired_hubs,
            g.num_nodes(),
            p.journaled_entries,
            p.committed_entries
        );
        best_rebuild = best_rebuild.min(wall);
    }

    // Persistence: save + reload the same index. The load replaces the
    // whole build on restart, so the ratio against the best rebuild above
    // is the instant-cold-start win.
    let dir = std::env::temp_dir().join(format!("atd_pll_cold_start_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("index.atdl");
    let t1 = Instant::now();
    seq.save_to(&path, &g).expect("save");
    let save = t1.elapsed();
    let file_kib = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) / 1024;
    let t1 = Instant::now();
    let loaded = PrunedLandmarkLabeling::load_from(&path, &g).expect("load");
    let load = t1.elapsed();
    for v in 0..g.num_nodes() {
        assert!(
            seq.labels().entries(v).eq(loaded.labels().entries(v)),
            "loaded labels must be bit-identical"
        );
    }
    println!(
        "persist: {file_kib} KiB file, save {save:.2?}, load {load:.2?} \
         ({:.0}x faster than the best rebuild, {best_rebuild:.2?})",
        best_rebuild.as_secs_f64() / load.as_secs_f64().max(1e-9),
    );
    std::fs::remove_dir_all(&dir).ok();
}
