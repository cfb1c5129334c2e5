//! Second battery of property tests: scale invariance, tradeoff
//! monotonicity, and top-k list algebra.

use atd_core::greedy::Discovery;
use atd_core::skills::{Project, SkillIndexBuilder};
use atd_core::strategy::Strategy as Rank;
use atd_core::topk::BoundedTopK;
use atd_graph::{ExpertGraph, GraphBuilder, NodeId};
use proptest::prelude::*;

type RawInstance = (usize, Vec<(u32, u32, f64)>, Vec<f64>, f64);

/// A connected weighted graph with skills, plus a positive scale factor.
fn instance() -> impl Strategy<Value = RawInstance> {
    (5usize..12).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f64..3.0), 0..10);
        let auth = proptest::collection::vec(1.0f64..40.0, n);
        (Just(n), chords, auth, 0.5f64..20.0)
    })
}

fn build(n: usize, chords: &[(u32, u32, f64)], auth: &[f64], w_scale: f64) -> ExpertGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = auth.iter().map(|&a| b.add_node(a)).collect();
    for i in 0..n {
        b.add_edge(
            ids[i],
            ids[(i + 1) % n],
            w_scale * (0.2 + (i % 4) as f64 * 0.3),
        )
        .unwrap();
    }
    for &(u, v, w) in chords {
        if u != v {
            b.add_edge(NodeId(u), NodeId(v), w_scale * w).unwrap();
        }
    }
    b.build().unwrap()
}

fn engine(g: ExpertGraph) -> (Discovery, Project) {
    let n = g.num_nodes();
    let mut sb = SkillIndexBuilder::new();
    let s0 = sb.intern("s0");
    let s1 = sb.intern("s1");
    sb.grant(NodeId(0), s0);
    sb.grant(NodeId((n / 2) as u32), s0);
    sb.grant(NodeId(1), s1);
    sb.grant(NodeId((n - 1) as u32), s1);
    let idx = sb.build(n);
    let d = Discovery::new(g, idx).unwrap();
    let p = Project::new(vec![s0, s1]);
    (d, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Uniformly scaling all edge weights does not change which teams are
    /// found (normalization divides the scale back out).
    #[test]
    fn edge_weight_scale_invariance((n, chords, auth, scale) in instance()) {
        let g1 = build(n, &chords, &auth, 1.0);
        let g2 = build(n, &chords, &auth, scale);
        let (d1, p) = engine(g1);
        let (d2, _) = engine(g2);
        for strategy in [Rank::Cc, Rank::SaCaCc { gamma: 0.6, lambda: 0.6 }] {
            let a = d1.top_k(&p, strategy, 3).unwrap();
            let b = d2.top_k(&p, strategy, 3).unwrap();
            let ka: Vec<_> = a.iter().map(|t| t.team.member_key()).collect();
            let kb: Vec<_> = b.iter().map(|t| t.team.member_key()).collect();
            prop_assert_eq!(ka, kb, "scale {} changed {} results", scale, strategy);
        }
    }

    /// Raising λ never *increases* the SA component of the best team
    /// (higher λ means holder authority matters more, so the chosen
    /// holders' ā' sum must be no larger).
    #[test]
    fn lambda_monotonicity_of_sa((n, chords, auth, _s) in instance()) {
        let g = build(n, &chords, &auth, 1.0);
        let (d, p) = engine(g);
        let lo = d.best(&p, Rank::SaCaCc { gamma: 0.6, lambda: 0.1 }).unwrap();
        let hi = d.best(&p, Rank::SaCaCc { gamma: 0.6, lambda: 0.9 }).unwrap();
        prop_assert!(
            hi.score.sa <= lo.score.sa + 1e-9,
            "λ=0.9 picked worse holders (SA {} vs {})",
            hi.score.sa,
            lo.score.sa
        );
    }

    /// Objectives of returned teams are never negative and never NaN.
    #[test]
    fn scores_are_sane((n, chords, auth, _s) in instance()) {
        let g = build(n, &chords, &auth, 1.0);
        let (d, p) = engine(g);
        for strategy in [
            Rank::Cc,
            Rank::CaCc { gamma: 0.3 },
            Rank::SaCaCc { gamma: 0.7, lambda: 0.2 },
        ] {
            for st in d.top_k(&p, strategy, 4).unwrap() {
                prop_assert!(st.score.cc >= 0.0 && st.score.cc.is_finite());
                prop_assert!(st.score.ca >= 0.0 && st.score.ca.is_finite());
                prop_assert!(st.score.sa >= 0.0 && st.score.sa.is_finite());
                prop_assert!(st.objective.is_finite());
                prop_assert!(st.objective >= -1e-12);
                // +0.0 canonicalization: no negative zeros escape.
                prop_assert!(st.score.cc.is_sign_positive());
                prop_assert!(st.score.ca.is_sign_positive());
            }
        }
    }

    /// BoundedTopK(k) over any insertion order equals sort-then-truncate.
    #[test]
    fn topk_equals_sort_truncate(
        keys in proptest::collection::vec(0.0f64..100.0, 0..60),
        k in 1usize..12,
    ) {
        let mut list = BoundedTopK::new(k);
        for (i, &key) in keys.iter().enumerate() {
            list.offer(key, i);
        }
        let got: Vec<f64> = list.into_sorted().into_iter().map(|(key, _)| key).collect();
        let mut expect = keys.clone();
        expect.sort_by(f64::total_cmp);
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }
}
