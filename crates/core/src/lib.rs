#![warn(missing_docs)]

//! # custody-core
//!
//! The paper's contribution: **data-aware executor allocation**.
//!
//! Existing cluster managers hand executors to applications without looking
//! at where those applications' input data lives; Custody (CLUSTER 2016)
//! postpones allocation until jobs are submitted, extracts each job's block
//! locations from the NameNode, and then solves a two-level allocation
//! problem:
//!
//! * **Inter-application** ([`custody::inter`], Algorithm 1 in the paper):
//!   data-aware max-min fairness — always let the application with the
//!   lowest percentage of *local jobs* pick next (ties broken by the
//!   percentage of local tasks).
//! * **Intra-application** ([`custody::intra`], Algorithm 2): among the
//!   chosen application's jobs, satisfy the job with the fewest unsatisfied
//!   input tasks first — a greedy 2-approximation to the underlying
//!   constrained bipartite matching — then fill the remaining quota with
//!   arbitrary idle executors so non-local tasks still get to run.
//!
//! The exact problem is NP-hard: §III reduces it to integral maximum
//! concurrent flow. The [`theory`] module implements that reduction
//! (Fig. 2), a max-flow solver, the fractional concurrent-flow upper bound,
//! and exact matching algorithms, so the greedy strategies can be
//! benchmarked against the theoretical optimum.
//!
//! Baseline cluster managers from §II/§VII live in [`baselines`]:
//! Spark-standalone-style static allocation and a Mesos-style data-unaware
//! dynamic offer loop.

pub mod allocator;
pub mod baselines;
pub mod cost;
pub mod custody;
pub mod fairness;
pub mod theory;

pub use allocator::{
    AllocationView, AppState, Assignment, ExecutorAllocator, ExecutorInfo, JobDemand, TaskDemand,
};
pub use baselines::{DynamicOfferAllocator, StaticPartitionAllocator};
pub use cost::HealthCost;
pub use custody::{CustodyAllocator, InterPolicy, IntraPolicy};

use custody_simcore::SimRng;

/// Which cluster manager to run; the axis every experiment compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// The paper's contribution: two-level data-aware allocation.
    Custody,
    /// Spark standalone with `spreadOut` (the paper's baseline): static
    /// round-robin spread across nodes at registration time.
    StaticSpread,
    /// Spark standalone without spreading: static uniform-random executor
    /// selection at registration time.
    StaticRandom,
    /// Mesos-style data-unaware dynamic offers.
    DynamicOffer,
    /// Ablation: Custody with the fairness-based intra-application
    /// strategy of Fig. 4 instead of fewest-tasks-first priority.
    CustodyFairIntra,
    /// Ablation: Custody with naive executor-count fairness between
    /// applications (Fig. 3) instead of minimum-locality selection.
    CustodyNaiveInter,
}

impl AllocatorKind {
    /// The four primary managers, for sweeps (ablation variants excluded).
    pub const ALL: [AllocatorKind; 4] = [
        AllocatorKind::Custody,
        AllocatorKind::StaticSpread,
        AllocatorKind::StaticRandom,
        AllocatorKind::DynamicOffer,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Custody => "custody",
            AllocatorKind::StaticSpread => "spark-static",
            AllocatorKind::StaticRandom => "static-random",
            AllocatorKind::DynamicOffer => "dynamic-offer",
            AllocatorKind::CustodyFairIntra => "custody-fair-intra",
            AllocatorKind::CustodyNaiveInter => "custody-naive-inter",
        }
    }

    /// True for Custody and its ablation variants — the allocators that
    /// keep their round across calls.
    pub fn is_custody(self) -> bool {
        matches!(
            self,
            AllocatorKind::Custody
                | AllocatorKind::CustodyFairIntra
                | AllocatorKind::CustodyNaiveInter
        )
    }

    /// Instantiates the allocator for a cluster whose whole executor
    /// inventory (in executor-id order) is `executors`, shared by
    /// `num_apps` applications. The static baselines fix their partitions
    /// here; `StaticRandom` draws its shuffle from `rng`, and nothing else
    /// ever draws from it.
    pub fn build(
        self,
        executors: &[ExecutorInfo],
        num_apps: usize,
        rng: &mut SimRng,
    ) -> Box<dyn ExecutorAllocator> {
        match self {
            AllocatorKind::Custody => Box::new(CustodyAllocator::new()),
            AllocatorKind::StaticSpread => {
                Box::new(StaticPartitionAllocator::spread(executors, num_apps))
            }
            AllocatorKind::StaticRandom => {
                Box::new(StaticPartitionAllocator::random(executors, num_apps, rng))
            }
            AllocatorKind::DynamicOffer => Box::new(DynamicOfferAllocator::new()),
            AllocatorKind::CustodyFairIntra => {
                Box::new(CustodyAllocator::new().with_intra(IntraPolicy::RoundRobinFair))
            }
            AllocatorKind::CustodyNaiveInter => {
                Box::new(CustodyAllocator::new().with_inter(InterPolicy::NaiveCountFair))
            }
        }
    }
}

impl std::fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
