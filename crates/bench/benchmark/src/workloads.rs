//! The benchmark's workloads: which simulations one run of each
//! executes. `BENCHMARK.json` records why each was chosen; the module
//! doc of `main.rs` and `README.md` give the layer each one stresses.

use custody_bench::scale_config;
use custody_sim::{
    AllocatorKind, ChaosConfig, ControlPlaneConfig, CorruptionConfig, FailSlowConfig,
    PartitionConfig, SimConfig, WorkloadKind,
};
use custody_workload::DatasetMode;

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Sim {
    pub cfg: SimConfig,
    /// A data-unaware baseline run beside the measured ones: timed in
    /// `run_s`, but kept out of the model metrics.
    pub baseline: bool,
}

impl Sim {
    fn measured(cfg: SimConfig) -> Self {
        Sim {
            cfg,
            baseline: false,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Set-up replays per run behind the `setup_s` median, sized so the
    /// replays of one run take about a second.
    pub setup_replays: usize,
    build: fn(u64) -> Vec<Sim>,
}

impl Workload {
    /// The simulations one run executes for `seed`, in order.
    pub fn sims(&self, seed: u64) -> Vec<Sim> {
        (self.build)(seed)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scale_20k",
        setup_replays: 5,
        build: scale_20k,
    },
    Workload {
        name: "contention_150",
        setup_replays: 15,
        build: contention_150,
    },
    Workload {
        name: "fault_storm_125",
        setup_replays: 31,
        build: fault_storm_125,
    },
    Workload {
        name: "paper_testbed",
        setup_replays: 15,
        build: paper_testbed,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the `j`-th simulation of a run with seed `seed`. Runs with
/// different seeds share no simulation, so a held-out seed stays held
/// out.
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(j)
}

/// Private WordCount datasets on a 20k-node cluster: the per-round
/// idle-executor list over 40k executors dominates.
fn scale_20k(seed: u64) -> Vec<Sim> {
    vec![Sim::measured(scale_config(20_000, 64, 2, seed))]
}

/// 16 applications whose jobs draw from small Zipf-skewed dataset pools
/// on a saturated 150-node cluster. Queueing makes one simulation's job
/// completion times swing by ~17% with its seed, so a pass pools sixteen.
fn contention_150(seed: u64) -> Vec<Sim> {
    (0..16)
        .map(|j| {
            let mut cfg = scale_config(150, 16, 12, sub_seed(seed, j));
            cfg.campaign = cfg.campaign.with_dataset_mode(DatasetMode::SharedPool {
                pool_size: 8,
                skew: 1.1,
            });
            Sim::measured(cfg)
        })
        .collect()
}

/// Every fault layer at once on 125 nodes: chaos, the modelled control
/// plane with master crashes, fail-slow nodes with transient faults,
/// partitions and silent corruption. Host cost per event swings with the
/// seed, so a pass pools eight simulations.
fn fault_storm_125(seed: u64) -> Vec<Sim> {
    (0..8)
        .map(|j| Sim::measured(fault_storm_config(sub_seed(seed, j))))
        .collect()
}

/// All five fault layers, tuned so that no job fails: injection stops at
/// 120 s of simulated time, retry budgets are 12, and three in four chaos
/// faults kill only executors (a machine loss on top of rotten replicas
/// can leave a block with no intact copy, and its jobs fail at the
/// unavailability deadline).
fn fault_storm_config(seed: u64) -> SimConfig {
    const HORIZON_SECS: f64 = 120.0;
    const RETRY_BUDGET: usize = 12;
    let mut failslow = FailSlowConfig::default()
        .with_sick_fraction(0.1)
        .with_transient_fault_prob(0.02)
        .with_retry_budget(RETRY_BUDGET);
    failslow.horizon_secs = HORIZON_SECS;
    let mut partition = PartitionConfig::default()
        .with_split_fraction(0.1)
        .with_mean_heal(8.0)
        .with_mean_time_between_partitions(30.0);
    partition.horizon_secs = HORIZON_SECS;
    let mut corruption = CorruptionConfig::default()
        .with_latent_fraction(0.005)
        .with_mean_time_between_corruptions(10.0);
    corruption.horizon_secs = HORIZON_SECS;
    corruption.retry_budget = RETRY_BUDGET;
    let mut chaos = ChaosConfig::default()
        .with_mean_time_between_faults(20.0)
        .with_horizon(HORIZON_SECS)
        .with_max_down(20);
    chaos.executor_only_fraction = 0.75;
    scale_config(125, 8, 16, seed)
        .with_chaos(chaos)
        .with_control_plane(
            ControlPlaneConfig::default()
                .with_checkpoints(30.0)
                .with_master_crash_fraction(0.1),
        )
        .with_failslow(failslow)
        .with_partition(partition)
        .with_corruption(corruption)
}

/// The paper's 100-node testbed: each paper workload under Custody and
/// under the static Spark baseline, on four seeds.
fn paper_testbed(seed: u64) -> Vec<Sim> {
    let mut sims = Vec::new();
    for j in 0..4 {
        for w in WorkloadKind::ALL {
            for allocator in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
                sims.push(Sim {
                    cfg: SimConfig::paper(w, 100, allocator, sub_seed(seed, j)),
                    baseline: allocator != AllocatorKind::Custody,
                });
            }
        }
    }
    sims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_measures_and_seeds_are_disjoint() {
        assert!(WORKLOADS
            .iter()
            .all(|w| w.sims(42).iter().any(|s| !s.baseline)));
        assert_ne!(sub_seed(7, 999), sub_seed(8, 0));
    }
}
