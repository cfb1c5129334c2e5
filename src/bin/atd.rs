//! `atd` — the team-discovery command line.
//!
//! ```text
//! atd synth    --authors 2000 --seed 42 --out corpus.xml
//! atd build    --xml corpus.xml --out network.atd
//! atd stats    --network network.atd
//! atd discover --network network.atd --skills analytics,matrix \
//!              --strategy sa-ca-cc --gamma 0.6 --lambda 0.6 --top-k 5
//! atd pareto   --network network.atd --skills analytics,matrix --k 3
//! atd replace  --network network.atd --skills analytics,matrix --member NAME
//! ```
//!
//! `synth` writes a DBLP-format XML corpus; `build` runs the paper's §4
//! pipeline (parse → h-index → Jaccard → junior skills) and persists a
//! binary snapshot; the query commands load the snapshot and run the
//! team-formation algorithms.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use team_discovery::core::pareto::discover_pareto;
use team_discovery::core::replacement::ReplacementFinder;
use team_discovery::core::strategy::Strategy;
use team_discovery::dblp::graph_build::{BuildConfig, ExpertNetwork};
use team_discovery::dblp::parser::parse_dblp_xml;
use team_discovery::dblp::snapshot::NetworkSnapshot;
use team_discovery::dblp::synth::{SynthConfig, SynthCorpus};
use team_discovery::dblp::writer::write_xml;
use team_discovery::prelude::*;

const USAGE: &str = "usage:
  atd synth    --authors N [--seed S] --out corpus.xml
  atd build    --xml corpus.xml --out network.atd
  atd stats    --network network.atd
  atd discover --network network.atd --skills a,b,c
               [--strategy cc|ca-cc|sa-ca-cc] [--gamma G] [--lambda L] [--top-k K]
  atd pareto   --network network.atd --skills a,b,c [--k K]
  atd replace  --network network.atd --skills a,b,c --member NAME
               [--strategy ...] [--gamma G] [--lambda L]";

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Rejects any flag not in `taken`, so a misspelt option fails
    /// instead of leaving its setting at the default.
    fn take_only(&self, taken: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !taken.contains(&k.as_str())) {
            None => Ok(()),
            Some((k, _)) => Err(format!(
                "unknown flag --{k} (takes --{})",
                taken.join(", --")
            )),
        }
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match Flags::parse(rest) {
        Ok(flags) => match cmd.as_str() {
            "synth" => cmd_synth(&flags),
            "build" => cmd_build(&flags),
            "stats" => cmd_stats(&flags),
            "discover" => cmd_discover(&flags),
            "pareto" => cmd_pareto(&flags),
            "replace" => cmd_replace(&flags),
            other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
        },
        Err(e) => Err(e),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_synth(flags: &Flags) -> Result<(), String> {
    flags.take_only(&["authors", "seed", "out"])?;
    let authors: usize = flags.parse_num("authors", 2_000)?;
    let seed: u64 = flags.parse_num("seed", 42)?;
    let out = flags.require("out")?;
    let synth = SynthCorpus::generate(&SynthConfig {
        num_authors: authors,
        seed,
        ..SynthConfig::default()
    });
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_xml(&synth.corpus, BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} publications by {} authors to {out}",
        synth.corpus.len(),
        authors
    );
    Ok(())
}

fn cmd_build(flags: &Flags) -> Result<(), String> {
    flags.take_only(&["xml", "out"])?;
    let xml = flags.require("xml")?;
    let out = flags.require("out")?;
    let file = File::open(xml).map_err(|e| format!("open {xml}: {e}"))?;
    let corpus = parse_dblp_xml(BufReader::new(file)).map_err(|e| e.to_string())?;
    let net = ExpertNetwork::build(corpus, &BuildConfig::default()).map_err(|e| e.to_string())?;
    let snap = NetworkSnapshot::from_network(&net);
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    snap.save(BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!(
        "built network: {} experts, {} edges, {} skills, {} skill holders -> {out}",
        net.graph.num_nodes(),
        net.graph.num_edges(),
        net.skills.num_skills(),
        net.num_skill_holders()
    );
    Ok(())
}

fn load(flags: &Flags) -> Result<NetworkSnapshot, String> {
    let path = flags.require("network")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    NetworkSnapshot::load(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    flags.take_only(&["network"])?;
    let snap = load(flags)?;
    println!("experts:       {}", snap.graph.num_nodes());
    println!("edges:         {}", snap.graph.num_edges());
    println!("skills:        {}", snap.skills.num_skills());
    let mut popular: Vec<(usize, String)> = (0..snap.skills.num_skills() as u32)
        .map(|s| {
            let s = team_discovery::core::skills::SkillId(s);
            (
                snap.skills.holders(s).len(),
                snap.skills.name(s).to_string(),
            )
        })
        .collect();
    popular.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
    println!("top skills:");
    for (count, name) in popular.into_iter().take(10) {
        println!("  {name:<24} {count} holders");
    }
    Ok(())
}

fn parse_strategy(flags: &Flags) -> Result<Strategy, String> {
    let gamma: f64 = flags.parse_num("gamma", 0.6)?;
    let lambda: f64 = flags.parse_num("lambda", 0.6)?;
    let strategy = match flags.get("strategy").unwrap_or("sa-ca-cc") {
        "cc" => Strategy::Cc,
        "ca-cc" => Strategy::CaCc { gamma },
        "sa-ca-cc" => Strategy::SaCaCc { gamma, lambda },
        other => return Err(format!("unknown strategy '{other}' (cc|ca-cc|sa-ca-cc)")),
    };
    strategy.validate().map_err(|e| e.to_string())?;
    Ok(strategy)
}

fn parse_project(flags: &Flags, snap: &NetworkSnapshot) -> Result<Project, String> {
    let list = flags.require("skills")?;
    let mut ids = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let id = snap
            .skills
            .id_of(name)
            .ok_or_else(|| format!("unknown skill '{name}' (try `atd stats`)"))?;
        ids.push(id);
    }
    if ids.is_empty() {
        return Err("no skills given".into());
    }
    Ok(Project::new(ids))
}

fn print_team(snap: &NetworkSnapshot, st: &team_discovery::core::team::ScoredTeam) {
    for &m in st.team.members() {
        let role = if st.team.holders().contains(&m) {
            let skills: Vec<&str> = st
                .team
                .assignment
                .iter()
                .filter(|&&(_, c)| c == m)
                .map(|&(s, _)| snap.skills.name(s))
                .collect();
            format!("holder[{}]", skills.join(","))
        } else {
            "connector".to_string()
        };
        let (name, h, pubs) = match snap.authors.get(m.index()) {
            Some(a) => (a.name.as_str(), a.h_index, a.num_pubs),
            None => ("<unnamed>", snap.graph.authority(m) as u32, 0),
        };
        println!("    {name:<28} h-index {h:<3} pubs {pubs:<3} {role}");
    }
    println!(
        "    scores: CC={:.3} CA={:.3} SA={:.3} objective={:.3}",
        st.score.cc, st.score.ca, st.score.sa, st.objective
    );
}

fn cmd_discover(flags: &Flags) -> Result<(), String> {
    flags.take_only(&["network", "skills", "strategy", "gamma", "lambda", "top-k"])?;
    let snap = load(flags)?;
    let strategy = parse_strategy(flags)?;
    let project = parse_project(flags, &snap)?;
    let k: usize = flags.parse_num("top-k", 3)?;

    let engine =
        Discovery::new(snap.graph.clone(), snap.skills.clone()).map_err(|e| e.to_string())?;
    let teams = engine
        .top_k(&project, strategy, k)
        .map_err(|e| e.to_string())?;
    println!("{strategy}: top {} teams", teams.len());
    for (i, st) in teams.iter().enumerate() {
        println!("  #{}", i + 1);
        print_team(&snap, st);
    }
    Ok(())
}

fn cmd_pareto(flags: &Flags) -> Result<(), String> {
    flags.take_only(&["network", "skills", "k"])?;
    let snap = load(flags)?;
    let project = parse_project(flags, &snap)?;
    let k: usize = flags.parse_num("k", 3)?;
    let engine =
        Discovery::new(snap.graph.clone(), snap.skills.clone()).map_err(|e| e.to_string())?;
    let front =
        discover_pareto(&engine, &project, &[0.2, 0.4, 0.6, 0.8], k).map_err(|e| e.to_string())?;
    println!("Pareto front: {} non-dominated teams", front.len());
    for (i, st) in front.iter().enumerate() {
        println!("  #{}", i + 1);
        print_team(&snap, st);
    }
    Ok(())
}

fn cmd_replace(flags: &Flags) -> Result<(), String> {
    flags.take_only(&["network", "skills", "member", "strategy", "gamma", "lambda"])?;
    let snap = load(flags)?;
    let strategy = parse_strategy(flags)?;
    let project = parse_project(flags, &snap)?;
    let member_name = flags.require("member")?;

    let engine =
        Discovery::new(snap.graph.clone(), snap.skills.clone()).map_err(|e| e.to_string())?;
    let best = engine.best(&project, strategy).map_err(|e| e.to_string())?;
    println!("discovered team:");
    print_team(&snap, &best);

    let leaving = snap
        .authors
        .iter()
        .position(|a| a.name == member_name)
        .map(|i| team_discovery::graph::NodeId(i as u32))
        .ok_or_else(|| format!("unknown author '{member_name}'"))?;

    let finder = ReplacementFinder::new(&snap.graph, &snap.skills);
    let repaired = finder
        .recommend(&best.team, leaving, strategy, 3)
        .map_err(|e| e.to_string())?;
    println!(
        "\nafter {member_name} leaves — {} repair(s):",
        repaired.len()
    );
    for (i, st) in repaired.iter().enumerate() {
        println!("  repair #{}", i + 1);
        print_team(&snap, st);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_key_value_pairs() {
        let f = flags(&["--network", "x.atd", "--top-k", "5"]).unwrap();
        assert_eq!(f.get("network"), Some("x.atd"));
        assert_eq!(f.parse_num::<usize>("top-k", 3).unwrap(), 5);
        assert_eq!(f.parse_num::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(flags(&["--network"]).is_err());
        assert!(flags(&["network", "x"]).is_err(), "missing -- prefix");
    }

    #[test]
    fn require_reports_missing() {
        let f = flags(&[]).unwrap();
        assert!(f.require("skills").unwrap_err().contains("--skills"));
    }

    #[test]
    fn bad_numbers_error() {
        let f = flags(&["--gamma", "not-a-number"]).unwrap();
        assert!(f.parse_num::<f64>("gamma", 0.5).is_err());
    }

    #[test]
    fn subcommands_reject_flags_they_do_not_take() {
        type Cmd = fn(&Flags) -> Result<(), String>;
        let cases: [(Cmd, &[&str]); 6] = [
            (cmd_synth, &["--out", "c.xml", "--author", "9"]),
            (
                cmd_build,
                &["--xml", "c.xml", "--out", "n.atd", "--seed", "1"],
            ),
            (cmd_stats, &["--network", "n.atd", "--top-k", "3"]),
            (
                cmd_discover,
                &["--network", "n.atd", "--skills", "a", "--gama", "1.5"],
            ),
            (
                cmd_pareto,
                &["--network", "n.atd", "--skills", "a", "--top-k", "3"],
            ),
            (
                cmd_replace,
                &["--network", "n.atd", "--member", "X", "--k", "3"],
            ),
        ];
        for (cmd, args) in cases {
            let bad = &args[args.len() - 2];
            let err = cmd(&flags(args).unwrap()).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag {bad} ")),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn strategy_parsing() {
        let f = flags(&["--strategy", "ca-cc", "--gamma", "0.3"]).unwrap();
        assert_eq!(parse_strategy(&f).unwrap(), Strategy::CaCc { gamma: 0.3 });
        let f = flags(&["--strategy", "bogus"]).unwrap();
        assert!(parse_strategy(&f).is_err());
        let f = flags(&["--gamma", "3.0"]).unwrap();
        assert!(parse_strategy(&f).is_err(), "gamma out of range");
    }
}
