//! The experiment runner: regenerates every figure/claim of the paper.
//!
//! ```text
//! experiments [fig3|fig4|fig5|fig6|runtime|venue|ablation|serve-overload|all]
//!             [--scale tiny|small|medium|paper] [--out DIR|-]
//! ```
//!
//! Default: `all --scale small --out results`. An unknown section name
//! or flag prints the usage and exits 2 before any testbed is built.
//! `serve-overload` offers a 2x overload to the query service twice,
//! failing fast and with brownout tiers, and reports both arms; the
//! serving and durability demos are `examples/query_service.rs` and
//! `examples/durable_service.rs`.

use std::path::PathBuf;
use std::time::Instant;

use atd_eval::figures::{ablation, fig3, fig4, fig5, fig6, runtime, venue_quality};
use atd_eval::testbed::{Scale, Testbed};

/// The section names `experiments` accepts; `all` runs every section.
const SECTIONS: &[&str] = &[
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "runtime",
    "venue",
    "ablation",
    "serve-overload",
    "all",
];

const USAGE: &str =
    "usage: experiments [fig3|fig4|fig5|fig6|runtime|venue|ablation|serve-overload|all] \
                     [--scale tiny|small|medium|paper] [--out DIR|-]";

struct Args {
    which: Vec<String>,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut which = Vec::new();
    let mut scale = Scale::Small;
    let mut out = Some(PathBuf::from("results"));
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale '{v}' (tiny|small|medium|paper)"))?;
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a value")?;
                out = if v == "-" {
                    None
                } else {
                    Some(PathBuf::from(v))
                };
            }
            "--help" | "-h" => return Err(USAGE.into()),
            name if SECTIONS.contains(&name) => which.push(name.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
            name => return Err(format!("unknown section '{name}'\n{USAGE}")),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    Ok(Args { which, scale, out })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let run_all = args.which.iter().any(|w| w == "all");
    let wants = |name: &str| run_all || args.which.iter().any(|w| w == name);

    println!("== Authority-Based Team Discovery — experiment harness ==");
    println!("scale: {:?}", args.scale);
    let t0 = Instant::now();
    let tb = Testbed::new(args.scale);
    println!(
        "testbed: {} experts, {} edges, {} skills, {} skill holders (built in {:.1?})",
        tb.net.graph.num_nodes(),
        tb.net.graph.num_edges(),
        tb.net.skills.num_skills(),
        tb.net.num_skill_holders(),
        t0.elapsed()
    );
    let stats = tb.engine.pll_stats();
    println!(
        "pll labels: {} entries (avg {:.1}, max {}), {} KiB ({})",
        stats.total_entries,
        stats.avg_entries,
        stats.max_entries,
        stats.bytes / 1024,
        stats.breakdown_kib()
    );
    println!();
    let out = args.out.as_deref();

    if wants("fig3") {
        banner("Figure 3 — SA-CA-CC scores vs λ (γ=0.6), methods CC/CA-CC/SA-CA-CC/Random/Exact");
        let t = Instant::now();
        println!("{}", fig3::run(&tb, out).render());
        println!("[fig3 done in {:.1?}]\n", t.elapsed());
    }
    if wants("fig4") {
        banner("Figure 4 — top-5 precision (synthetic judge panel), γ=λ=0.6");
        let t = Instant::now();
        println!("{}", fig4::run(&tb, out).render());
        println!("[fig4 done in {:.1?}]\n", t.elapsed());
    }
    if wants("fig5") {
        banner("Figure 5 — sensitivity to λ (γ=0.6): holder/connector h-index, size, pubs");
        let t = Instant::now();
        println!("{}", fig5::run(&tb, out).render());
        println!("[fig5 done in {:.1?}]\n", t.elapsed());
    }
    if wants("fig6") {
        banner(
            "Figure 6 — qualitative teams for [analytics, matrix, communities, object-oriented]",
        );
        let t = Instant::now();
        println!("{}", fig6::run(&tb, out).render());
        for (s, best) in fig6::compute(&tb) {
            if let Some(best) = best {
                println!("{s}:");
                println!("{}", fig6::describe_team(&tb, &best));
            }
        }
        println!("[fig6 done in {:.1?}]\n", t.elapsed());
    }
    if wants("runtime") {
        banner("§4.1 — query runtime per strategy (indices pre-built)");
        let t = Instant::now();
        println!("{}", runtime::run(&tb, out).render());
        println!("[runtime done in {:.1?}]\n", t.elapsed());
    }
    if wants("venue") {
        banner("§4.3 — venue quality of discovered teams (paper: 78% SA-CA-CC wins)");
        let t = Instant::now();
        println!("{}", venue_quality::run(&tb, out).render());
        println!("[venue done in {:.1?}]\n", t.elapsed());
    }
    if wants("ablation") {
        banner("Ablation — γ sweep + oracle agreement");
        let t = Instant::now();
        println!("{}", ablation::run(&tb, out).render());
        let pairs = ablation::oracle_agreement(&tb, 2_000);
        println!("oracle agreement: PLL == Dijkstra on {pairs}/{pairs} sampled pairs");
        println!("[ablation done in {:.1?}]\n", t.elapsed());
    }
    if wants("serve-overload") {
        banner("Serving layer — graceful degradation under 2x overload (atd-serve)");
        let t = Instant::now();
        println!("{}", overload_section(&tb));
        println!("[serve-overload done in {:.1?}]\n", t.elapsed());
    }

    if let Some(dir) = out {
        println!("CSV outputs written under {}/", dir.display());
    }
    println!("total: {:.1?}", t0.elapsed());
}

fn banner(title: &str) {
    println!("─── {title} ───");
}

/// The `serve-overload` section: offers the same paced 2x overload to a
/// 2-worker [`atd_serve::QueryService`] twice, once failing fast
/// (brownout off) and once with brownout tiers on, with a high-priority
/// probe stream riding alongside the low-priority flood. Each arm then
/// answers high-priority queries until its tier is back to Normal (at
/// once when brownout never entered) and renders its answered, degraded
/// and shed counts and its goodput: flood answers over the flood's wall
/// time, from the first submit to the last reply. The section reports the
/// comparison and does not judge which arm wins.
///
/// The queue is kept shallow so admitted requests stay deadline-feasible
/// and the arms differ in serving strategy (full scans vs anytime
/// partials + admission sheds), not in unbounded queue wait.
fn overload_section(tb: &Testbed) -> String {
    use atd_serve::{
        AdmissionConfig, BrownoutConfig, BrownoutTier, Priority, QueryService, Request, ServeConfig,
    };
    use std::time::Duration;

    let gamma = 0.6;
    let strategy = atd_core::Strategy::SaCaCc { gamma, lambda: 0.6 };
    let engine = || {
        atd_core::Discovery::new(tb.net.graph.clone(), tb.net.skills.clone())
            .expect("overload engine")
    };
    let projects = atd_eval::workload::generate_projects(
        &tb.net.skills,
        &atd_eval::workload::WorkloadConfig {
            count: 8,
            num_skills: 2,
            ..Default::default()
        },
    );

    // Calibrate the mean service time so the 2x overload holds by
    // construction at every --scale. The γ index is built first, so the
    // mean times queries alone.
    let fail_fast_engine = engine();
    fail_fast_engine.prepare_gamma(gamma).expect("γ index");
    let t = Instant::now();
    for p in &projects {
        fail_fast_engine
            .top_k(p, strategy, 3)
            .expect("calibration query");
    }
    let mean = t.elapsed() / projects.len() as u32;
    // The brownout arm's engine starts with its γ index built too.
    let brownout_engine = engine();
    brownout_engine.prepare_gamma(gamma).expect("γ index");

    let workers = 2usize;
    let deadline = (mean * 8).max(Duration::from_millis(2));
    let interval = (mean / (workers as u32 * 2)).max(Duration::from_micros(20));
    let p99_target = (mean * 2).max(Duration::from_micros(500));
    let flood = 200usize;
    let probes = 20usize;
    let mut report = format!(
        "offered {flood} low-priority + {probes} high-priority per arm at 2x capacity \
         (mean {mean:.1?}, deadline {deadline:.1?}, brownout p99 target {p99_target:.1?})"
    );
    let arms = [
        ("fail-fast", fail_fast_engine, None),
        ("brownout", brownout_engine, Some(p99_target)),
    ];
    for (arm, engine, p99_target) in arms {
        let service = std::sync::Arc::new(QueryService::start(
            engine,
            ServeConfig {
                workers,
                queue_capacity: 8,
                default_deadline: Some(deadline),
                admission: AdmissionConfig {
                    predictive: false,
                    low_priority_headroom: 2,
                    ..AdmissionConfig::default()
                },
                brownout: BrownoutConfig {
                    p99_target,
                    window: 16,
                    brownout_root_fraction: 0.2,
                    ..BrownoutConfig::default()
                },
            },
        ));

        let (answered, degraded, expired, shed, flood_wall, probe_ok) =
            std::thread::scope(|scope| {
                // High-priority probe stream: one request every 10 submit
                // slots, must never be shed at admission.
                let probe_service = std::sync::Arc::clone(&service);
                let probe_projects = &projects;
                let probe_handle = scope.spawn(move || {
                    let mut ok = 0usize;
                    for i in 0..probes {
                        let req = Request::new(
                            probe_projects[i % probe_projects.len()].clone(),
                            strategy,
                            3,
                        )
                        .with_priority(Priority::High);
                        match probe_service.query(req) {
                            Ok(_) => ok += 1,
                            Err(atd_serve::ServeError::DeadlineExceeded) => {}
                            Err(e) => panic!("high-priority probe shed: {e}"),
                        }
                        std::thread::sleep(interval * 10);
                    }
                    ok
                });

                let (tx, rx) = std::sync::mpsc::channel::<atd_serve::ResponseHandle>();
                let waiter = scope.spawn(move || {
                    let mut answered = 0usize;
                    let mut degraded = 0usize;
                    let mut expired = 0usize;
                    for handle in rx.iter() {
                        match handle.wait() {
                            Ok(resp) => {
                                answered += 1;
                                if resp.degraded.is_some() {
                                    degraded += 1;
                                }
                            }
                            Err(atd_serve::ServeError::DeadlineExceeded) => expired += 1,
                            Err(e) => panic!("unexpected worker error: {e}"),
                        }
                    }
                    (answered, degraded, expired)
                });

                let mut shed = 0usize;
                let t0 = Instant::now();
                for i in 0..flood {
                    while Instant::now() < t0 + interval * (i as u32 + 1) {
                        std::hint::spin_loop();
                    }
                    let req = Request::new(projects[i % projects.len()].clone(), strategy, 3);
                    match service.submit(req) {
                        Ok(handle) => tx.send(handle).expect("waiter alive"),
                        Err(
                            atd_serve::ServeError::Overloaded { .. }
                            | atd_serve::ServeError::BrownoutShed
                            | atd_serve::ServeError::DeadlineInfeasible { .. },
                        ) => shed += 1,
                        Err(e) => panic!("unexpected admission error: {e}"),
                    }
                }
                drop(tx);
                let (answered, degraded, expired) = waiter.join().expect("waiter");
                let flood_wall = t0.elapsed();
                let probe_ok = probe_handle.join().expect("probe stream");
                (answered, degraded, expired, shed, flood_wall, probe_ok)
            });

        // Recovery: high-priority traffic keeps feeding the latency window
        // (Brownout2 sheds low-priority at admission, and shed requests
        // never reach the p99 estimator), so the tier should walk back
        // down. A slow walk is reported, not treated as a failure.
        const RECOVERY_PROBES: usize = 3_000;
        let mut attempts = 0usize;
        let recovery = loop {
            let stats = service.stats();
            if stats.brownout_exits >= stats.brownout_entries
                && service.brownout_tier() == BrownoutTier::Normal
            {
                break format!("Normal after {attempts} more probe queries");
            }
            if attempts == RECOVERY_PROBES {
                break format!(
                    "still in {} after {attempts} probe queries",
                    service.brownout_tier()
                );
            }
            attempts += 1;
            let req = Request::new(projects[attempts % projects.len()].clone(), strategy, 3)
                .with_priority(Priority::High);
            let _ = service.query(req);
        };

        let stats = service.stats();
        assert!(stats.reconciles(), "{arm}: ledger out of balance: {stats}");
        assert_eq!(
            shed as u64,
            stats.shed_at_admission(),
            "{arm}: client-side shed count disagrees with service counters"
        );
        let goodput = answered as f64 / flood_wall.as_secs_f64();
        report += &format!(
            "\n{arm}: {answered} answered ({degraded} degraded partials), {shed} shed at admission, \
             {expired} expired; goodput {goodput:.1} answers/s over {flood_wall:.1?}\n\
             {arm}: probes {probe_ok}/{probes} answered, zero admission sheds; \
             brownout {} entries / {} exits, {recovery}\n\
             {arm} counters: {stats}",
            stats.brownout_entries, stats.brownout_exits,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_sections_and_flags_parse() {
        let args = parse(&["serve-overload", "fig3", "--scale", "tiny", "--out", "-"]).unwrap();
        assert_eq!(args.which, ["serve-overload", "fig3"]);
        assert_eq!(args.scale, Scale::Tiny);
        assert!(args.out.is_none());
        assert_eq!(parse(&[]).unwrap().which, ["all"]);
    }
}
