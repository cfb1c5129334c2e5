//! Project (workload) generation: "for each number of skills, we generate
//! 50 sets of skills, corresponding to 50 projects" (§4).

use atd_core::skills::{Project, SkillId, SkillIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Skills per project.
    pub num_skills: usize,
    /// Number of projects.
    pub count: usize,
    /// Only sample skills with at least this many holders (prevents
    /// degenerate single-holder projects).
    pub min_holders: usize,
    /// Only sample skills with at most this many holders (leaves out the
    /// most common skills).
    pub max_holders: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_skills: 4,
            count: 50,
            min_holders: 2,
            max_holders: 60,
            seed: 7,
        }
    }
}

/// Generates `count` projects of `num_skills` distinct skills each,
/// sampled from the pool of skills whose holder counts fall in
/// `[min_holders, max_holders]`. If the pool is too small the holder
/// bounds are progressively relaxed; panics only if the index itself has
/// fewer distinct skills than `num_skills`.
pub fn generate_projects(skills: &SkillIndex, cfg: &WorkloadConfig) -> Vec<Project> {
    assert!(cfg.num_skills > 0, "projects need at least one skill");
    assert!(
        skills.num_skills() >= cfg.num_skills,
        "index has {} skills, project wants {}",
        skills.num_skills(),
        cfg.num_skills
    );

    let mut min_h = cfg.min_holders;
    let mut max_h = cfg.max_holders;
    let mut pool: Vec<SkillId>;
    loop {
        pool = skills
            .skills_with_min_holders(min_h)
            .into_iter()
            .filter(|&s| skills.holders(s).len() <= max_h)
            .collect();
        if pool.len() >= cfg.num_skills {
            break;
        }
        // Relax: widen the band until the pool suffices.
        if min_h > 1 {
            min_h -= 1;
        } else {
            max_h = max_h.saturating_mul(2).max(max_h + 1);
        }
        if min_h == 1 && max_h > skills.num_skills().max(1 << 20) {
            pool = (0..skills.num_skills() as u32).map(SkillId).collect();
            break;
        }
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.count)
        .map(|_| {
            let chosen: Vec<SkillId> = pool
                .choose_multiple(&mut rng, cfg.num_skills)
                .copied()
                .collect();
            Project::new(chosen)
        })
        .collect()
}

/// Builds the paper's Figure 5/6 project `[analytics, matrix, communities,
/// object oriented]` by name; any term missing from the index is replaced
/// by the most-held remaining skill so the project always has exactly four
/// distinct skills.
pub fn named_project(skills: &SkillIndex, names: &[&str]) -> Project {
    let mut chosen: Vec<SkillId> = names.iter().filter_map(|n| skills.id_of(n)).collect();
    if chosen.len() < names.len() {
        // Fallback: most-held skills not already chosen.
        let mut by_popularity: Vec<SkillId> =
            (0..skills.num_skills() as u32).map(SkillId).collect();
        by_popularity.sort_by_key(|&s| std::cmp::Reverse(skills.holders(s).len()));
        for s in by_popularity {
            if chosen.len() == names.len() {
                break;
            }
            if !chosen.contains(&s) {
                chosen.push(s);
            }
        }
    }
    Project::new(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atd_core::skills::SkillIndexBuilder;
    use atd_graph::NodeId;

    fn index() -> SkillIndex {
        let mut b = SkillIndexBuilder::new();
        // Skill popularity: s0 -> 5 holders, s1 -> 3, s2 -> 2, s3 -> 1.
        let ids: Vec<SkillId> = (0..4).map(|i| b.intern(&format!("s{i}"))).collect();
        let mut node = 0u32;
        for (i, &s) in ids.iter().enumerate() {
            for _ in 0..(5 - i) {
                b.grant(NodeId(node % 8), s);
                node += 1;
            }
        }
        b.build(8)
    }

    #[test]
    fn projects_have_requested_size_and_distinct_skills() {
        let idx = index();
        let projects = generate_projects(
            &idx,
            &WorkloadConfig {
                num_skills: 2,
                count: 10,
                min_holders: 2,
                max_holders: 10,
                seed: 1,
            },
        );
        assert_eq!(projects.len(), 10);
        for p in &projects {
            assert_eq!(p.len(), 2);
        }
    }

    #[test]
    fn holder_band_filters_pool() {
        let idx = index();
        // Only s0 (5 holders) passes min_holders = 4... pool too small for
        // 2 skills, so the band relaxes and still returns projects.
        let projects = generate_projects(
            &idx,
            &WorkloadConfig {
                num_skills: 2,
                count: 3,
                min_holders: 4,
                max_holders: 10,
                seed: 1,
            },
        );
        assert_eq!(projects.len(), 3);
    }

    #[test]
    fn deterministic_by_seed() {
        let idx = index();
        let cfg = WorkloadConfig {
            num_skills: 2,
            count: 5,
            seed: 9,
            ..Default::default()
        };
        assert_eq!(generate_projects(&idx, &cfg), generate_projects(&idx, &cfg));
    }

    #[test]
    #[should_panic(expected = "skills")]
    fn too_many_skills_panics() {
        let idx = index();
        generate_projects(
            &idx,
            &WorkloadConfig {
                num_skills: 99,
                ..Default::default()
            },
        );
    }

    #[test]
    fn named_project_uses_names_when_present() {
        let idx = index();
        let p = named_project(&idx, &["s1", "s2"]);
        assert_eq!(p.len(), 2);
        assert!(p.skills().contains(&idx.id_of("s1").unwrap()));
    }

    #[test]
    fn named_project_fills_missing_with_popular() {
        let idx = index();
        let p = named_project(&idx, &["s1", "no-such-skill"]);
        assert_eq!(p.len(), 2);
        // The most popular skill (s0) fills the gap.
        assert!(p.skills().contains(&idx.id_of("s0").unwrap()));
    }
}
