//! The traced run's replays: calls the program makes internally, made
//! again stage by stage on the run's own inputs through the same public
//! functions, each inside a span.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use atd_core::{
    authority_transform, CancelToken, Discovery, Normalization, Project, QueryScratch, SkillIndex,
};
use atd_distance::{graph_fingerprint, LabelStats, PrunedLandmarkLabeling, VertexOrder};
use atd_eval::PAPER_GAMMA;
use atd_graph::{dijkstra_with_targets, DeltaClass, GraphDelta, NodeId};
use atd_serve::{JournalConfig, QueryService, Request};
use atd_store::Journal;

use crate::inputs::{DeltaKind, RequestMix, ANYTIME_DEADLINE, K, STRATEGIES};
use crate::phases::{engine_options, serve_config, Setup, CHECKPOINT_EVERY};
use crate::trace::Tracer;

/// The base (CC) and γ label statistics of an engine's graph.
pub struct IndexStats {
    pub base: LabelStats,
    pub gamma: LabelStats,
}

/// Label statistics without the rest of the query replay: the engine's
/// own base index, and a γ index built like the engine builds it.
pub fn index_stats(engine: &Discovery) -> IndexStats {
    let gamma_graph = authority_transform(engine.graph(), engine.normalization(), PAPER_GAMMA);
    let gamma = PrunedLandmarkLabeling::build_with_config(
        &gamma_graph,
        VertexOrder::default(),
        &engine_options().pll_build,
    );
    IndexStats {
        base: engine.pll_stats(),
        gamma: gamma.stats(),
    }
}

/// One root-by-root scan of Algorithm 1's lookups: `load_source` per
/// root, `query_one_to_many` per holder of every skill the root lacks.
fn scan(
    tr: &mut Tracer,
    op: u64,
    pll: &PrunedLandmarkLabeling,
    skills: &SkillIndex,
    project: &Project,
) {
    let mut scatter = pll.scatter();
    let (mut load, mut lookup) = (Duration::ZERO, Duration::ZERO);
    let (mut roots, mut lookups) = (0u64, 0u64);
    let mut sink = 0.0;
    for i in 0..pll.labels().num_nodes() {
        let root = NodeId::from_index(i);
        let t0 = Instant::now();
        pll.load_source(&mut scatter, root);
        let t1 = Instant::now();
        for &s in project.skills() {
            if skills.has_skill(root, s) {
                continue;
            }
            for &v in skills.holders(s) {
                sink += pll.query_one_to_many(&scatter, v).unwrap_or(0.0);
                lookups += 1;
            }
        }
        let t2 = Instant::now();
        load += t1 - t0;
        lookup += t2 - t1;
        roots += 1;
    }
    black_box(sink);
    tr.count("distance.roots", op, roots as f64);
    tr.count("distance.load_source_total_ns", op, load.as_nanos() as f64);
    tr.count("distance.lookups", op, lookups as f64);
    tr.count("distance.lookup_total_ns", op, lookup.as_nanos() as f64);
}

/// Replays requests `indices` of the mix on `engine`: the engine call
/// (`core.top_k`), its root scan (`distance.scan`) on base and γ indexes
/// built with the engine's settings over the same ranking graphs
/// (`distance.build`, `distance.gamma_build`), and one `graph.dijkstra`
/// per returned team.
pub fn replay_query(
    tr: &mut Tracer,
    engine: &Discovery,
    mix: &RequestMix,
    indices: &[usize],
) -> IndexStats {
    let norm = engine.normalization();
    let config = engine_options().pll_build;
    let base_graph = engine.graph().map_weights(|_, _, w| norm.w_bar(w));
    let gamma_graph = authority_transform(engine.graph(), norm, PAPER_GAMMA);
    let base = tr.span("distance.build", 0, |_| {
        PrunedLandmarkLabeling::build_with_config(&base_graph, VertexOrder::default(), &config)
    });
    let gamma = tr.span("distance.gamma_build", 0, |_| {
        PrunedLandmarkLabeling::build_with_config(&gamma_graph, VertexOrder::default(), &config)
    });
    let mut scratch = QueryScratch::new();
    for &i in indices {
        let spec = mix.spec(i);
        let project = mix.project(&spec);
        let strategy = STRATEGIES[spec.strategy];
        let op = i as u64;
        let teams = tr.span("core.top_k", op, |_| {
            if spec.anytime {
                let cancel = CancelToken::with_deadline(Instant::now() + ANYTIME_DEADLINE);
                engine
                    .top_k_anytime(project, strategy, K, Some(&mut scratch), &cancel, None)
                    .map(|partial| partial.teams)
            } else {
                engine.top_k_with(
                    project,
                    strategy,
                    K,
                    Some(&mut scratch),
                    &CancelToken::never(),
                )
            }
        });
        let (pll, ranking) = match strategy.gamma() {
            Some(_) => (&gamma, &gamma_graph),
            None => (&base, &base_graph),
        };
        tr.span("distance.scan", op, |tr| {
            scan(tr, op, pll, engine.skills(), project)
        });
        for team in teams.iter().flatten() {
            let root = team.team.tree.root;
            let holders: Vec<NodeId> = team.team.assignment.iter().map(|&(_, v)| v).collect();
            if holders.iter().any(|&h| h != root) {
                tr.span("graph.dijkstra", op, |_| {
                    black_box(dijkstra_with_targets(ranking, root, Some(&holders)))
                });
            }
        }
    }
    IndexStats {
        base: base.stats(),
        gamma: gamma.stats(),
    }
}

/// Replays the published delta stream on a fresh copy of the live store,
/// stage by stage inside one `publish` span per delta: classify →
/// `Journal::append` → `try_incremental` (relax) or `with_options`
/// (structural, or a refused patch) → `QueryService::publish`, plus the
/// checkpoint when the tail reaches [`CHECKPOINT_EVERY`]. Then the γ
/// rebuild and the read-your-write answer on the new snapshot.
pub fn replay_publish(
    tr: &mut Tracer,
    setup: &Setup,
    reference: &Discovery,
    deltas: &[(GraphDelta, DeltaKind)],
    probe: &Project,
    work: &Path,
) -> Result<(), String> {
    let dir = work.join("replay-publish");
    let (mut journal, _) = Journal::open(&dir, JournalConfig::default(), || setup.graph.clone())
        .map_err(|e| format!("replay store: {e}"))?;
    journal
        .checkpoint_with(|_, path| reference.save_pll_index(path).map_err(|e| e.to_string()))
        .map_err(|e| format!("replay checkpoint: {e}"))?;
    let mut options = engine_options();
    options.pll_index_path = Some(journal.index_path());
    options.pll_load_only = true;
    let first = Discovery::with_options(journal.graph().clone(), setup.skills.clone(), options)
        .map_err(|e| format!("replay engine: {e}"))?;
    let mut service = QueryService::start(first, serve_config());
    let _ = service
        .current_snapshot()
        .engine()
        .prepare_gamma(PAPER_GAMMA);

    for (j, (delta, _)) in deltas.iter().enumerate() {
        let op = j as u64;
        let before = journal.graph().clone();
        tr.span("graph.apply_delta", op, |_| {
            black_box(before.apply_delta(delta))
        })
        .map_err(|e| format!("replay apply {j}: {e}"))?;
        let snapshot = tr.span("publish", op, |tr| {
            let class = tr.span("graph.classify", op, |_| delta.classify(journal.graph()));
            tr.span("store.append", op, |_| journal.append(delta))
                .map_err(|e| format!("replay append {j}: {e}"))?;
            let graph = journal.graph().clone();
            let skills = setup.skills.padded_to(graph.num_nodes());
            let current = service.current_snapshot();
            let patched = if class == DeltaClass::Structural {
                None
            } else {
                tr.span("core.try_incremental", op, |_| {
                    current
                        .engine()
                        .try_incremental(graph.clone(), skills.clone())
                })
                .ok()
            };
            let engine = match patched {
                Some((engine, report)) => {
                    tr.count("core.affected_hubs", op, report.affected_hubs as f64);
                    engine
                }
                None => tr
                    .span("core.engine_build", op, |_| {
                        Discovery::with_options(graph, skills, engine_options())
                    })
                    .map_err(|e| format!("replay rebuild {j}: {e}"))?,
            };
            let snapshot = tr.span("serve.swap", op, |_| service.publish(engine));
            if journal.tail_records() >= CHECKPOINT_EVERY {
                tr.span("store.checkpoint", op, |_| {
                    journal.checkpoint_with(|_, path| {
                        snapshot
                            .engine()
                            .save_pll_index(path)
                            .map_err(|e| e.to_string())
                    })
                })
                .map_err(|e| format!("replay checkpoint {j}: {e}"))?;
            }
            Ok::<_, String>(snapshot)
        })?;
        tr.span("visible", op, |tr| {
            tr.span("core.prepare_gamma", op, |_| {
                snapshot.engine().prepare_gamma(PAPER_GAMMA)
            })
            .map_err(|e| format!("replay γ {j}: {e}"))?;
            tr.span("serve.query", op, |_| {
                service.query(Request::new(probe.clone(), STRATEGIES[2], K))
            })
            .map_err(|e| format!("replay read-your-write {j}: {e}"))
        })?;
    }
    service.shutdown();
    drop(journal);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Replays one recovery of the restart store stage by stage inside a
/// `recover` span: `Journal::open` → strict index load → per tail record
/// `apply_delta` + `try_incremental` → `QueryService::start`; then, in a
/// `first_answers` span, the γ build and one answer per strategy. The
/// strict `PrunedLandmarkLabeling::load_from` of the checkpoint index is
/// timed on its own afterwards (`distance.load`).
pub fn replay_restart(tr: &mut Tracer, setup: &Setup, probe: &Project) -> Result<(), String> {
    let op = 0;
    let (service, base_graph, index_path) = tr.span("recover", op, |tr| {
        let (mut journal, report) = tr
            .span("store.open", op, |_| {
                Journal::open(&setup.restart_dir, JournalConfig::default(), || {
                    panic!("the restart store was initialized during set-up")
                })
            })
            .map_err(|e| format!("replay open: {e}"))?;
        tr.count("store.replayed_records", op, report.replayed_records as f64);
        let tail = journal
            .take_replayed_tail()
            .ok_or("the restart store has no WAL tail")?;
        let skills = setup.skills.padded_to(tail.base_graph.num_nodes());
        let mut options = engine_options();
        options.pll_index_path = Some(journal.index_path());
        options.pll_load_only = true;
        let mut engine = tr
            .span("core.engine_load", op, |_| {
                Discovery::with_options(tail.base_graph.clone(), skills.clone(), options)
            })
            .map_err(|e| format!("replay index load: {e}"))?;
        let mut graph = tail.base_graph.clone();
        for (j, delta) in tail.deltas.iter().enumerate() {
            let op = j as u64;
            graph = tr
                .span("graph.apply_delta", op, |_| graph.apply_delta(delta))
                .map_err(|e| format!("replay tail {j}: {e}"))?;
            let (next, report) = tr
                .span("core.try_incremental", op, |_| {
                    engine.try_incremental(graph.clone(), skills.clone())
                })
                .map_err(|e| format!("replay tail {j}: incremental refused: {e}"))?;
            tr.count("core.affected_hubs", op, report.affected_hubs as f64);
            engine = next;
        }
        if graph_fingerprint(engine.graph()) != journal.graph_fingerprint() {
            return Err("replayed recovery differs from the journal".to_string());
        }
        let service = tr.span("serve.start", op, |_| {
            QueryService::start(engine, serve_config())
        });
        Ok((service, tail.base_graph, journal.index_path()))
    })?;
    let mut service = service;
    tr.span("first_answers", op, |tr| {
        tr.span("core.prepare_gamma", op, |_| {
            service
                .current_snapshot()
                .engine()
                .prepare_gamma(PAPER_GAMMA)
        })
        .map_err(|e| format!("replay γ: {e}"))?;
        for &strategy in &STRATEGIES {
            tr.span("serve.query", op, |_| {
                service.query(Request::new(probe.clone(), strategy, K))
            })
            .map_err(|e| format!("replay first answer: {e}"))?;
        }
        Ok::<_, String>(())
    })?;
    service.shutdown();

    let norm =
        Normalization::compute_with_min_authority(&base_graph, engine_options().min_authority);
    let ranking = base_graph.map_weights(|_, _, w| norm.w_bar(w));
    tr.span("distance.load", op, |_| {
        PrunedLandmarkLabeling::load_from(&index_path, &ranking)
    })
    .map_err(|e| format!("replay load: {e}"))?;
    Ok(())
}
