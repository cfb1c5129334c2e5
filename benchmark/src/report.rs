//! Metrics from a run's samples and spans, the human-readable run record,
//! and the final JSON line.

use std::fmt::Write as _;
use std::time::Duration;

use crate::inputs::DeltaKind;
use crate::stats::{median, percentile_label, Summary};
use crate::trace::Tracer;
use crate::workloads::Run;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

/// What the final JSON line reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// The read phase's latency population (ms).
pub fn read_summary(run: &Run) -> Option<Summary> {
    let lat: Vec<f64> = run.reads.samples.iter().map(|s| ms(s.latency())).collect();
    Summary::of(&lat)
}

fn publish_ms(run: &Run, kind: Option<DeltaKind>, visible: bool) -> Vec<f64> {
    run.publishes
        .samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| ms(s.elapsed(visible)))
        .collect()
}

pub fn end_to_end(run: &Run, peak_rss_mib: Option<f64>) -> Vec<Metric> {
    let reads = read_summary(run);
    let restarts = &run.restarts.samples;
    let recover: Vec<f64> = restarts.iter().map(|s| ms(s.recovered - s.start)).collect();
    let cold: Vec<f64> = restarts.iter().map(|s| ms(s.answered - s.start)).collect();
    let wall = run.reads.wall.as_secs_f64();
    vec![
        metric("setup_s", "s", median(&run.setup.seconds)),
        metric("peak_rss_mb", "MiB", peak_rss_mib),
        metric("query_p50_ms", "ms", reads.map(|s| s.p50)),
        metric(
            "query_tail_ms",
            "ms",
            reads.and_then(|s| s.tail).map(|t| t.1),
        ),
        metric(
            "query_qps",
            "1/s",
            (wall > 0.0 && !run.reads.samples.is_empty())
                .then(|| run.reads.samples.len() as f64 / wall),
        ),
        metric(
            "relax_publish_ms",
            "ms",
            median(&publish_ms(run, Some(DeltaKind::Relax), false)),
        ),
        metric(
            "structural_publish_ms",
            "ms",
            median(&publish_ms(run, Some(DeltaKind::Structural), false)),
        ),
        metric(
            "publish_visible_ms",
            "ms",
            median(&publish_ms(run, None, true)),
        ),
        metric("recover_ms", "ms", median(&recover)),
        metric("cold_start_ms", "ms", median(&cold)),
    ]
}

fn span_median(tr: &Tracer, name: &str, scale: f64) -> Option<f64> {
    median(&tr.durations_ns(name)).map(|ns| ns / scale)
}

fn ratio(tr: &Tracer, num: &str, den: &str) -> Option<f64> {
    let (n, d): (f64, f64) = (tr.counts(num).iter().sum(), tr.counts(den).iter().sum());
    (d > 0.0).then(|| n / d)
}

/// A per-layer metric and the end-to-end metric (and workload) it should
/// move.
pub struct Layer {
    pub metric: Metric,
    pub moves: &'static str,
}

pub fn per_layer(run: &Run, tr: &Tracer, index: &crate::replay::IndexStats) -> Vec<Layer> {
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let reads = &run.reads.samples;
    let submit: Vec<f64> = reads
        .iter()
        .map(|s| (s.submitted - s.sent).as_secs_f64() * 1e6)
        .collect();
    let wait: Vec<f64> = reads
        .iter()
        .map(|s| ms(s.latency().saturating_sub(s.service)))
        .collect();
    let service: Vec<f64> = reads.iter().map(|s| ms(s.service)).collect();
    let stats = run.publishes.stats;
    let patched = stats.incremental_applied as f64;
    let rebuilt = stats.full_rebuild_fallbacks as f64;
    let lookups = tr.counts("distance.lookups");
    let layer = |name, unit, moves, value| Layer {
        metric: metric(name, unit, value),
        moves,
    };
    vec![
        layer(
            "dblp.synth_ms",
            "ms",
            "setup_s (all)",
            span_median(tr, "dblp.synth", MS),
        ),
        layer(
            "dblp.network_ms",
            "ms",
            "setup_s (all)",
            span_median(tr, "dblp.network", MS),
        ),
        layer(
            "graph.classify_us",
            "us",
            "relax_publish_ms (publish)",
            span_median(tr, "graph.classify", US),
        ),
        layer(
            "graph.apply_delta_ms",
            "ms",
            "*_publish_ms (publish); recover_ms (restart)",
            span_median(tr, "graph.apply_delta", MS),
        ),
        layer(
            "graph.dijkstra_us",
            "us",
            "query_p50_ms (query)",
            span_median(tr, "graph.dijkstra", US),
        ),
        layer(
            "distance.build_ms",
            "ms",
            "setup_s (all); structural_publish_ms (publish)",
            span_median(tr, "distance.build", MS),
        ),
        layer(
            "distance.gamma_build_ms",
            "ms",
            "publish_visible_ms (publish); cold_start_ms (restart)",
            span_median(tr, "distance.gamma_build", MS),
        ),
        layer(
            "distance.load_ms",
            "ms",
            "recover_ms (restart)",
            span_median(tr, "distance.load", MS),
        ),
        layer(
            "distance.load_source_ns",
            "ns",
            "query_p50_ms, query_qps (query)",
            ratio(tr, "distance.load_source_total_ns", "distance.roots"),
        ),
        layer(
            "distance.lookup_ns",
            "ns",
            "query_p50_ms, query_qps (query)",
            ratio(tr, "distance.lookup_total_ns", "distance.lookups"),
        ),
        layer(
            "distance.lookups_per_query",
            "count",
            "none (input size)",
            (!lookups.is_empty()).then(|| lookups.iter().sum::<f64>() / lookups.len() as f64),
        ),
        layer(
            "distance.label_entries",
            "count",
            "peak_rss_mb (all)",
            Some((index.base.total_entries + index.gamma.total_entries) as f64),
        ),
        layer(
            "distance.index_kib",
            "KiB",
            "peak_rss_mb (all)",
            Some((index.base.bytes + index.gamma.bytes) as f64 / 1024.0),
        ),
        layer(
            "core.engine_build_ms",
            "ms",
            "setup_s (all); structural_publish_ms (publish)",
            span_median(tr, "core.engine_build", MS),
        ),
        layer(
            "core.prepare_gamma_ms",
            "ms",
            "publish_visible_ms, query_tail_ms (publish); cold_start_ms (restart)",
            span_median(tr, "core.prepare_gamma", MS),
        ),
        layer(
            "core.top_k_ms",
            "ms",
            "query_p50_ms, query_qps (query)",
            span_median(tr, "core.top_k", MS),
        ),
        layer(
            "core.try_incremental_ms",
            "ms",
            "relax_publish_ms (publish); recover_ms (restart)",
            span_median(tr, "core.try_incremental", MS),
        ),
        layer(
            "core.affected_hubs",
            "count",
            "relax_publish_ms (publish); recover_ms (restart)",
            median(&tr.counts("core.affected_hubs")),
        ),
        layer(
            "serve.submit_us",
            "us",
            "query_tail_ms (query)",
            median(&submit),
        ),
        layer(
            "serve.queue_wait_ms",
            "ms",
            "query_tail_ms (query); query_p50_ms (publish)",
            median(&wait),
        ),
        layer(
            "serve.service_ms",
            "ms",
            "query_p50_ms (query)",
            median(&service),
        ),
        layer(
            "serve.swap_us",
            "us",
            "relax_publish_ms (publish)",
            span_median(tr, "serve.swap", US),
        ),
        layer(
            "serve.start_ms",
            "ms",
            "recover_ms (restart)",
            span_median(tr, "serve.start", MS),
        ),
        layer(
            "serve.incremental_ratio",
            "ratio",
            "relax_publish_ms (publish)",
            (patched + rebuilt > 0.0).then(|| patched / (patched + rebuilt)),
        ),
        layer(
            "store.append_ms",
            "ms",
            "*_publish_ms (publish)",
            span_median(tr, "store.append", MS),
        ),
        layer(
            "store.checkpoint_ms",
            "ms",
            "relax_publish_ms on checkpointing publishes (publish)",
            span_median(tr, "store.checkpoint", MS),
        ),
        layer(
            "store.open_ms",
            "ms",
            "recover_ms (restart)",
            span_median(tr, "store.open", MS),
        ),
        layer(
            "store.replayed_records",
            "count",
            "recover_ms (restart)",
            median(&tr.counts("store.replayed_records")),
        ),
    ]
}

/// A traced stage sum next to the untraced total it should add up to.
pub struct StageSum {
    pub what: &'static str,
    pub stages_ms: Option<f64>,
    pub untraced: &'static str,
    pub untraced_ms: Option<f64>,
}

impl StageSum {
    pub fn overhead_ms(&self) -> Option<f64> {
        Some(self.stages_ms? - self.untraced_ms?)
    }
}

/// Each replay's stage sum next to the untraced total of the same
/// operations: per request and per delta where the replay repeats the
/// run's own operations (medians over the pairs), against the run's
/// median for the one replayed recovery.
pub fn stage_sums(run: &Run, tr: &Tracer, e2e: &[Metric]) -> Vec<StageSum> {
    let e2e_value = |name: &str| e2e.iter().find(|m| m.name == name).and_then(|m| m.value);
    let children_ms =
        |name: &str, op: u64| tr.find(name, op).map(|i| tr.children_ns(i) as f64 / 1e6);
    let (mut top_k, mut service) = (Vec::new(), Vec::new());
    for s in &run.reads.samples {
        if let Some(i) = tr.find("core.top_k", s.index as u64) {
            top_k.push(tr.duration_ns(i) as f64 / 1e6);
            service.push(ms(s.service));
        }
    }
    let publish_pairs = |kind: Option<DeltaKind>, visible: bool| -> (Option<f64>, Option<f64>) {
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        for s in &run.publishes.samples {
            if kind.is_some_and(|k| k != s.kind) {
                continue;
            }
            let op = s.op as u64;
            let stages = if visible {
                children_ms("publish", op)
                    .zip(children_ms("visible", op))
                    .map(|(a, b)| a + b)
            } else {
                children_ms("publish", op)
            };
            if let Some(stages) = stages {
                traced.push(stages);
                untraced.push(ms(s.elapsed(visible)));
            }
        }
        (median(&traced), median(&untraced))
    };
    let recover = children_ms("recover", 0);
    let first = children_ms("first_answers", 0);
    let relax = publish_pairs(Some(DeltaKind::Relax), false);
    let structural = publish_pairs(Some(DeltaKind::Structural), false);
    let visible = publish_pairs(None, true);
    vec![
        StageSum {
            what: "query (same requests): core.top_k",
            stages_ms: median(&top_k),
            untraced: "serve.service_ms",
            untraced_ms: median(&service),
        },
        StageSum {
            what: "relax publish (same deltas): classify + append + try_incremental + swap (+ checkpoint)",
            stages_ms: relax.0,
            untraced: "relax_publish_ms",
            untraced_ms: relax.1,
        },
        StageSum {
            what: "structural publish (same deltas): classify + append + engine_build + swap (+ checkpoint)",
            stages_ms: structural.0,
            untraced: "structural_publish_ms",
            untraced_ms: structural.1,
        },
        StageSum {
            what: "publish→visible (same deltas): publish stages + prepare_gamma + one answer",
            stages_ms: visible.0,
            untraced: "publish_visible_ms",
            untraced_ms: visible.1,
        },
        StageSum {
            what: "recover: store.open + engine_load + tail (apply_delta + try_incremental) + serve.start",
            stages_ms: recover,
            untraced: "recover_ms",
            untraced_ms: e2e_value("recover_ms"),
        },
        StageSum {
            what: "cold start: recover stages + prepare_gamma + three answers",
            stages_ms: recover.zip(first).map(|(a, b)| a + b),
            untraced: "cold_start_ms",
            untraced_ms: e2e_value("cold_start_ms"),
        },
    ]
}

fn fmt(v: Option<f64>) -> String {
    v.map_or("n/a".to_string(), |v| format!("{v:.3}"))
}

pub fn layer_table(layers: &[Layer], sums: &[StageSum]) -> String {
    let mut out = String::from("# per-layer metrics (traced run)\n");
    for Layer { metric: m, moves } in layers {
        let _ = writeln!(
            out,
            "#   {:<28} {:>14} {:<6} should move: {moves}",
            m.name,
            fmt(m.value),
            m.unit,
        );
    }
    out.push_str("# stage sums (traced) vs untraced totals\n");
    for s in sums {
        let pct = s
            .overhead_ms()
            .zip(s.untraced_ms)
            .filter(|&(_, u)| u > 0.0)
            .map(|(o, u)| 100.0 * o / u);
        let _ = writeln!(
            out,
            "#   {}: {} ms vs {} {} ms; tracing overhead {} ms ({}%)",
            s.what,
            fmt(s.stages_ms),
            s.untraced,
            fmt(s.untraced_ms),
            fmt(s.overhead_ms()),
            fmt(pct)
        );
    }
    out
}

/// The tail rung `query_tail_ms` used, and over how many samples.
pub fn tail_note(run: &Run) -> String {
    match read_summary(run) {
        Some(Summary {
            count,
            tail: Some((p, _)),
            ..
        }) => format!("{} of {count} samples", percentile_label(p)),
        Some(s) => format!("none ({} samples)", s.count),
        None => "none (no samples)".to_string(),
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for m in metrics {
        let Some(v) = m.value.filter(|v| v.is_finite()) else {
            continue;
        };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if first { "" } else { ", " },
            m.name,
            m.unit
        );
        first = false;
    }
    out.push_str("}}");
    out
}
