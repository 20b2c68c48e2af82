#![warn(missing_docs)]

//! # custody-bench
//!
//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation section (§VI) from the simulator, plus the ablation
//! studies DESIGN.md calls out. Every simulated table is one entry of the
//! scenario table in [`custody_sim::experiment`]; this crate prints them
//! and adds the two outputs that are not simulation sweeps (the intra
//! ablation's one-shot matching line and the theory check).
//!
//! Three binaries:
//!
//! * `figures` — `cargo run --release -p custody-bench --bin figures --
//!   all` prints every figure's rows;
//! * `simulate` — one run of any configuration, for one-off checks;
//! * `sim_scale` — the performance harness: end-to-end runs at 1k–100k
//!   nodes plus the single allocation-round grid, gated in CI against
//!   `scale_baseline.json`.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! not 100 Linode VMs); the *shape* — who wins, by roughly what factor,
//! and how trends move with cluster size — is the reproduction target.
//! EXPERIMENTS.md records paper-vs-measured for every row.

pub mod scale;
pub use scale::{scale_config, synthetic_round_view};

use custody_core::theory::{exact_max_local_jobs, greedy_local_jobs, roundrobin_local_jobs};
use custody_sim::experiment::{render, run, scenarios};
use custody_simcore::SimRng;

/// Options shared by all figure generators.
#[derive(Debug, Clone)]
pub struct FigureOptions {
    /// Jobs per application (the paper uses 30).
    pub jobs_per_app: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            jobs_per_app: 30,
            seed: 42,
        }
    }
}

impl FigureOptions {
    /// A scaled-down variant for quick checks and CI.
    pub fn quick() -> Self {
        FigureOptions {
            jobs_per_app: 5,
            ..Self::default()
        }
    }
}

/// Every target `figures` accepts, sorted: the scenario table's plus
/// `theory` and `all`.
pub fn targets() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = scenarios(1, 0)
        .iter()
        .flat_map(|s| s.views.iter().flat_map(|v| v.targets.iter().copied()))
        .chain(["theory", "all"])
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// Prints every view of the scenario table whose targets `wants`
/// selects, in table order, running each scenario only when one of its
/// views is wanted; then the theory check.
pub fn print_figures(opts: &FigureOptions, wants: impl Fn(&str) -> bool) {
    for scenario in scenarios(opts.jobs_per_app, opts.seed) {
        let wanted: Vec<_> = scenario
            .views
            .iter()
            .filter(|v| v.targets.iter().any(|t| wants(t)))
            .collect();
        if wanted.is_empty() {
            continue;
        }
        let results = run(&scenario);
        for view in wanted {
            println!("{}", render(&scenario, view, &results));
            if view.targets.contains(&"ablation-intra") {
                println!("{}", one_shot_intra_line(opts.seed));
            }
        }
    }
    if wants("theory") {
        println!("{}", theory_quality_table(500, opts.seed));
    }
}

/// The intra-application ablation's one-shot allocation rounds (the
/// Fig. 4 setting proper): random instances with a tight budget,
/// priority vs round-robin fairness.
fn one_shot_intra_line(seed: u64) -> String {
    let mut rng = SimRng::seed_from_u64(seed);
    let (mut prio_jobs, mut fair_jobs) = (0usize, 0usize);
    let trials = 1000;
    for _ in 0..trials {
        let num_exec = 8;
        let jobs: Vec<Vec<Vec<usize>>> = (0..2 + rng.below(3))
            .map(|_| {
                let tasks = 1 + rng.below(4);
                (0..tasks)
                    .map(|_| {
                        let replicas = 1 + rng.below(2);
                        rng.choose_distinct(num_exec, replicas)
                    })
                    .collect()
            })
            .collect();
        let budget = 2 + rng.below(4);
        prio_jobs += greedy_local_jobs(&jobs, num_exec, budget).local_jobs;
        fair_jobs += roundrobin_local_jobs(&jobs, num_exec, budget).local_jobs;
    }
    format!(
        "One-shot allocation rounds ({trials} random instances, tight budget): \
         fully-local jobs priority {prio_jobs} vs fairness {fair_jobs} ({:+.1} %)\n",
        100.0 * (prio_jobs as f64 - fair_jobs as f64) / fair_jobs.max(1) as f64
    )
}

/// Theory check: the greedy strategy of Algorithm 2 vs the exact optima
/// on random intra-application instances.
///
/// Two guarantees are verified empirically:
/// * **task level** — the greedy matching is maximal within its budget,
///   so it matches at least half of `min(budget, Hopcroft–Karp optimum)`
///   tasks (the classic maximal-matching ½ bound, which underlies the
///   paper's 2-approximation for the weighted objective of Eq. 9);
/// * **job level** — aggregate quality vs the exhaustive optimum. No
///   per-instance factor is guaranteed for whole-job counts (a partial
///   match of a small job can block a completable big one), which the
///   report shows honestly.
pub fn theory_quality_table(trials: usize, seed: u64) -> String {
    use custody_core::theory::hopcroft_karp;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut worst_task_ratio: f64 = 1.0;
    let mut greedy_jobs_total = 0usize;
    let mut exact_jobs_total = 0usize;
    for _ in 0..trials {
        let num_exec = 8;
        let num_jobs = 2 + rng.below(4);
        let jobs: Vec<Vec<Vec<usize>>> = (0..num_jobs)
            .map(|_| {
                let tasks = 1 + rng.below(3);
                (0..tasks)
                    .map(|_| {
                        let replicas = 1 + rng.below(2);
                        rng.choose_distinct(num_exec, replicas)
                    })
                    .collect()
            })
            .collect();
        let budget = 2 + rng.below(num_exec - 1);
        let greedy = greedy_local_jobs(&jobs, num_exec, budget);
        let exact_jobs = exact_max_local_jobs(&jobs, num_exec, budget);
        greedy_jobs_total += greedy.local_jobs;
        exact_jobs_total += exact_jobs;
        let adj: Vec<Vec<usize>> = jobs.iter().flat_map(|j| j.iter().cloned()).collect();
        let (hk, _) = hopcroft_karp(&adj, num_exec);
        let task_bound = hk.min(budget);
        if task_bound > 0 {
            worst_task_ratio = worst_task_ratio.min(greedy.local_tasks as f64 / task_bound as f64);
        }
    }
    format!(
        "Theory — greedy (Algorithm 2) vs exact optima over {trials} random instances\n\
         local jobs (aggregate): greedy {greedy_jobs_total} vs exhaustive {exact_jobs_total} \
         ({:.1} % of optimum)\n\
         local tasks: worst greedy/min(budget, Hopcroft-Karp) ratio {:.2} (maximal-matching bound 0.50)\n",
        100.0 * greedy_jobs_total as f64 / exact_jobs_total.max(1) as f64,
        worst_task_ratio
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_are_every_figure_ablation_and_group() {
        let expected = "ablation-delay ablation-inter ablation-intra ablation-placement \
                        ablation-speculation ablations all chaos demotion detector durability \
                        failslow fig10 fig7 fig7-fixed fig8 fig9 partition theory";
        assert_eq!(targets(), expected.split(' ').collect::<Vec<_>>());
    }

    #[test]
    fn theory_quality_is_within_bound() {
        let t = theory_quality_table(50, 3);
        assert!(t.contains("bound 0.50"));
        // Parse the worst task-level ratio and check the maximal-matching
        // 1/2 bound.
        let ratio: f64 = t
            .split("ratio ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.trim().parse().ok())
            .expect("table contains ratio");
        assert!(ratio >= 0.5 - 1e-9, "greedy fell below 1/2: {ratio}");
    }
}
