//! **§4.1 runtime claim** — "CC, CA-CC and SA-CA-CC have similar runtime
//! since they use the same fundamental algorithm and indexing methods. The
//! runtime depends on the number of required skills and is around a few
//! hundred milliseconds on average."
//!
//! This runner measures query latency per strategy per skill count with
//! indices pre-built (the paper's 2-hop cover is an offline step), so the
//! shape claims — flat across strategies, growing with skills — are
//! directly checkable. Absolute numbers depend on scale and hardware; the
//! repo benchmark's `query` workload (`benchmark/README.md`) measures
//! serving latency and QPS over repeated seeded runs.

use std::path::Path;
use std::time::Instant;

use atd_core::strategy::Strategy;

use crate::report::Table;
use crate::testbed::Testbed;
use crate::workload::{generate_projects, WorkloadConfig};
use crate::{PAPER_GAMMA, PAPER_LAMBDA};

/// Average query milliseconds per (skills, strategy).
#[derive(Clone, Debug)]
pub struct RuntimeRow {
    /// Number of required skills.
    pub skills: usize,
    /// Mean top-10 query latency in ms for CC / CA-CC / SA-CA-CC.
    pub millis: [f64; 3],
}

/// Measures the runtime grid.
pub fn compute(tb: &Testbed) -> Vec<RuntimeRow> {
    let (gamma, lambda) = (PAPER_GAMMA, PAPER_LAMBDA);
    // Pre-build the transformed index so measurements are query-only,
    // matching the paper's setup where indexing is offline.
    tb.engine.prepare_gamma(gamma).expect("valid gamma");

    let strategies = [
        Strategy::Cc,
        Strategy::CaCc { gamma },
        Strategy::SaCaCc { gamma, lambda },
    ];
    let mut rows = Vec::new();
    for &t in &[4usize, 6, 8, 10] {
        let projects = generate_projects(
            &tb.net.skills,
            &WorkloadConfig {
                num_skills: t,
                count: tb.scale.projects_per_point().min(10),
                min_holders: 2,
                max_holders: 40,
                seed: 7_000 + t as u64,
            },
        );
        let mut millis = [0.0f64; 3];
        for (si, &strategy) in strategies.iter().enumerate() {
            let start = Instant::now();
            let mut ran = 0usize;
            for p in &projects {
                if tb.engine.top_k(p, strategy, 10).is_ok() {
                    ran += 1;
                }
            }
            millis[si] = if ran == 0 {
                f64::NAN
            } else {
                start.elapsed().as_secs_f64() * 1e3 / ran as f64
            };
        }
        rows.push(RuntimeRow { skills: t, millis });
    }
    rows
}

/// Runs and renders the runtime experiment.
pub fn run(tb: &Testbed, out_dir: Option<&Path>) -> Table {
    let rows = compute(tb);
    let mut table = Table::new(&["skills", "CC_ms", "CA-CC_ms", "SA-CA-CC_ms"]);
    for r in &rows {
        table.row(vec![
            r.skills.to_string(),
            format!("{:.2}", r.millis[0]),
            format!("{:.2}", r.millis[1]),
            format!("{:.2}", r.millis[2]),
        ]);
    }
    if let Some(dir) = out_dir {
        let _ = table.write_csv(&dir.join("runtime_query_latency.csv"));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Scale;

    fn tb() -> &'static Testbed {
        // One testbed per process, shared across every figure module's
        // tests (building it is the expensive part).
        crate::testbed::shared_testbed(Scale::Tiny)
    }

    #[test]
    fn strategies_have_same_order_of_magnitude() {
        let rows = compute(tb());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            let max = r.millis.iter().cloned().fold(0.0, f64::max);
            let min = r.millis.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                max < min * 50.0 + 5.0,
                "strategies should have comparable latency: {r:?}"
            );
        }
    }

    #[test]
    fn latencies_are_positive() {
        for r in compute(tb()) {
            for m in r.millis {
                assert!(m > 0.0, "{r:?}");
            }
        }
    }
}
