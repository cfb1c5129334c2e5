//! The shared experiment substrate: one synthetic DBLP network plus a
//! ready [`Discovery`] engine, at a configurable scale.

use std::sync::OnceLock;

use atd_core::greedy::Discovery;
use atd_dblp::graph_build::{BuildConfig, ExpertNetwork};
use atd_dblp::synth::{SynthConfig, SynthCorpus};

/// Experiment scale. `Paper` matches the paper's ~40K-expert graph; the
/// smaller scales keep CI and unit tests fast while preserving every
/// structural property (the generator is scale-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~250 authors — unit tests.
    Tiny,
    /// ~2K authors — default for `experiments` runs.
    Small,
    /// ~8K authors.
    Medium,
    /// ~40K authors — the paper's scale.
    Paper,
}

impl Scale {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The synthetic-corpus configuration for this scale.
    pub fn synth_config(self) -> SynthConfig {
        match self {
            Scale::Tiny => SynthConfig::tiny(),
            Scale::Small => SynthConfig::small(),
            Scale::Medium => SynthConfig::medium(),
            Scale::Paper => SynthConfig::paper_scale(),
        }
    }

    /// Projects per measurement point (the paper uses 50).
    pub fn projects_per_point(self) -> usize {
        match self {
            Scale::Tiny => 5,
            Scale::Small => 15,
            Scale::Medium => 25,
            Scale::Paper => 50,
        }
    }

    /// Trials for the Random baseline (the paper uses 10,000).
    pub fn random_trials(self) -> usize {
        match self {
            Scale::Tiny => 500,
            Scale::Small => 2_000,
            Scale::Medium => 5_000,
            Scale::Paper => 10_000,
        }
    }
}

/// A network + engine pair with aligned node ids.
pub struct Testbed {
    /// The expert network (graph, skills, author metadata, corpus).
    pub net: ExpertNetwork,
    /// The team-discovery engine over a clone of the same graph (node ids
    /// are identical).
    pub engine: Discovery,
    /// The scale the testbed was built at.
    pub scale: Scale,
}

impl Testbed {
    /// Builds the testbed: synthesize corpus → expert network → engine
    /// (including the CC distance index).
    pub fn new(scale: Scale) -> Testbed {
        let synth = SynthCorpus::generate(&scale.synth_config());
        let net = ExpertNetwork::build(synth.corpus, &BuildConfig::default())
            .expect("synthetic corpus builds cleanly");
        let engine =
            Discovery::new(net.graph.clone(), net.skills.clone()).expect("engine construction");
        Testbed { net, engine, scale }
    }
}

/// A process-wide shared testbed per scale, built on first use.
///
/// Figure smoke tests all exercise the same tiny network; building it
/// (synthesis + PLL indexing) is far more expensive than any single test,
/// so the whole test binary shares one instance per scale instead of one
/// per figure module.
pub fn shared_testbed(scale: Scale) -> &'static Testbed {
    static TINY: OnceLock<Testbed> = OnceLock::new();
    static SMALL: OnceLock<Testbed> = OnceLock::new();
    static MEDIUM: OnceLock<Testbed> = OnceLock::new();
    static PAPER: OnceLock<Testbed> = OnceLock::new();
    let slot = match scale {
        Scale::Tiny => &TINY,
        Scale::Small => &SMALL,
        Scale::Medium => &MEDIUM,
        Scale::Paper => &PAPER,
    };
    slot.get_or_init(|| Testbed::new(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("galactic"), None);
    }

    #[test]
    fn testbed_builds_at_tiny_scale() {
        let tb = Testbed::new(Scale::Tiny);
        assert!(tb.net.graph.num_nodes() > 100);
        assert!(tb.net.graph.num_edges() > 50);
        assert!(tb.net.num_skill_holders() > 20);
        assert_eq!(tb.engine.graph().num_nodes(), tb.net.graph.num_nodes());
    }
}
