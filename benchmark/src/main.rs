//! End-to-end benchmark of the team-discovery service.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <query|publish|restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Stores and trace files go under
//! `.bench_work/` there. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `benchmark/README.md` for the workloads and what each metric times.

mod host;
mod inputs;
mod phases;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use phases::{CHECKPOINT_EVERY, SETUP_REPS, WORKERS};
use trace::Tracer;
use workloads::{Run, Workload, CLIENTS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: atd-benchmark --workload <query|publish|restart> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Header lines of the run record.
fn record(args: &Args, run: &Run, work: &Path, index: &replay::IndexStats) -> String {
    let publishes = &run.publishes.samples;
    let relax = publishes
        .iter()
        .filter(|s| s.kind == inputs::DeltaKind::Relax)
        .count();
    let checkpointed = publishes.iter().filter(|s| s.checkpointed).count();
    let setup: Vec<String> = run
        .setup
        .seconds
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    format!(
        "# workload {} seed {} seconds {} trace {}\n\
         # host: nproc {}; store filesystem {}; sync_writes on; checkpoint_every {}\n\
         # testbed: {} nodes, {} edges (corpus seed {}); label entries base {} gamma {}\n\
         # engines: DiscoveryOptions::threads Some(1), pll_build.threads Some(1); {} workers; {} closed-loop clients\n\
         # setup: {} repetitions, {} s\n\
         # reads: {} answered in {:.3} s; query_tail_ms is {}\n\
         # publishes: {} ({} relax, {} structural, {} checkpointed); restarts: {}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::filesystem_of(work).unwrap_or_else(|| "unknown".to_string()),
        CHECKPOINT_EVERY,
        run.setup.graph.num_nodes(),
        run.setup.graph.num_edges(),
        inputs::CORPUS_SEED,
        index.base.total_entries,
        index.gamma.total_entries,
        WORKERS,
        CLIENTS,
        SETUP_REPS,
        setup.join(" "),
        run.reads.samples.len(),
        run.reads.wall.as_secs_f64(),
        report::tail_note(run),
        publishes.len(),
        relax,
        publishes.len() - relax,
        checkpointed,
        run.restarts.samples.len(),
    )
}

/// Spans for the benchmark's own timed calls, from the samples the
/// untraced phases took.
fn record_phase_spans(tr: &mut Tracer, run: &Run) {
    for s in &run.reads.samples {
        tr.record("serve.submit", s.index as u64, s.sent, s.submitted);
        tr.record("serve.wait", s.index as u64, s.submitted, s.done);
    }
    for s in &run.publishes.samples {
        tr.record("serve.publish_mutation", s.op as u64, s.start, s.published);
        tr.record("serve.read_your_write", s.op as u64, s.published, s.visible);
    }
    for (i, s) in run.restarts.samples.iter().enumerate() {
        tr.record("serve.durable_open", i as u64, s.start, s.recovered);
        tr.record("serve.first_answers", i as u64, s.recovered, s.answered);
    }
}

/// Requests the query replay repeats.
const REPLAYED_READS: usize = 27;

/// Deltas the publish replay repeats: as many as a cross-section sends.
const REPLAYED_DELTAS: usize = workloads::CROSS_PUBLISHES;

fn execute(args: &Args, work: &Path) -> Result<(String, report::Outcome), String> {
    let mut tr = Tracer::new();
    let mut run = workloads::run(args.workload, args.seed, args.seconds, work, &mut tr)?;
    let peak = host::peak_rss_mib();
    let e2e = report::end_to_end(&run, peak);
    let engine = run.read_snapshot.engine();
    let (index, metrics, table) = if args.trace {
        record_phase_spans(&mut tr, &run);
        let replayed: Vec<usize> = run
            .reads
            .samples
            .iter()
            .map(|s| s.index)
            .take(REPLAYED_READS)
            .collect();
        let index = replay::replay_query(&mut tr, engine, &run.mix, &replayed);
        replay::replay_publish(
            &mut tr,
            &run.setup,
            &run.setup.spare,
            &run.publishes.deltas[..run.publishes.deltas.len().min(REPLAYED_DELTAS)],
            &run.probe,
            work,
        )?;
        replay::replay_restart(&mut tr, &run.setup, &run.probe)?;
        let layers = report::per_layer(&run, &tr, &index);
        let sums = report::stage_sums(&run, &tr, &e2e);
        let table = report::layer_table(&layers, &sums);
        let path = trace_path(args);
        tr.write_json(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let metrics = layers.into_iter().map(|l| l.metric).collect();
        (
            index,
            metrics,
            format!("{table}# spans: {}\n", path.display()),
        )
    } else {
        (replay::index_stats(engine), e2e.clone(), String::new())
    };
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|m| m.value.is_none())
        .map(|m| m.name)
        .collect();
    run.ledger.check(missing.is_empty(), || {
        format!("no samples for {}", missing.join(", "))
    });
    let mut text = record(args, &run, work, &index);
    for m in &e2e {
        text.push_str(&format!(
            "# {:<22} {:>12} {}\n",
            m.name,
            m.value.map_or("n/a".to_string(), |v| format!("{v:.3}")),
            m.unit
        ));
    }
    text.push_str(&table);
    for f in &run.ledger.failures {
        text.push_str(&format!("# FAILED: {f}\n"));
    }
    Ok((
        text,
        report::Outcome {
            attempted: run.ledger.attempted,
            failed: run.ledger.failed,
            metrics,
        },
    ))
}

fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_work").join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = execute(&args, &work);
    std::fs::remove_dir_all(&work).ok();
    match outcome {
        Ok((text, outcome)) => {
            print!("{text}");
            let correct = outcome.failed == 0;
            println!(
                "{}",
                report::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload publish --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Publish);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload query --seed 7 --seconds 10").is_err());
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload query --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload query --seed 1 --seconds 10 --trace 2").is_err());
    }
}
