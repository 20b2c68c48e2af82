//! The fractional maximum-concurrent-flow rate λ*.
//!
//! The task-level objective (Eq. 1) — maximize the minimum fraction of
//! local tasks across applications — equals the maximum λ at which every
//! application can simultaneously route `λ·τ_i` units to the sink. With a
//! *common* sink the commodities are interchangeable, so feasibility at a
//! given λ is one max-flow query and λ* falls to a binary search. The
//! integral problem is NP-hard (the paper cites Shahrokhi & Matula); the
//! fractional λ* computed here is an **upper bound** on what any integral
//! allocation (Custody included) can achieve, which is exactly how the
//! benchmarks use it.

use crate::allocator::AllocationView;
use crate::theory::flow::FlowNetwork;

/// Dyadic search resolution: λ* is resolved to a multiple of
/// `2^-RATE_DENOM_BITS` (≈ 1e-6, matching the historical float-search
/// tolerance) — but every feasibility probe along the way is **exact**.
const RATE_DENOM_BITS: u32 = 20;

/// Computes λ* as an exact dyadic rational `(num, den)` with
/// `den = 2^20`: the largest `num/den` at which every application can
/// simultaneously route `num/den · τ_i` units. Each probe scales the
/// network integrally ([`FlowNetwork::feasible_at_rational_rate`]), so
/// the search involves no float comparison anywhere and is bit-stable
/// across platforms. Returns `(den, den)` (rate 1) when there is no
/// demand.
pub fn max_concurrent_rate_exact(view: &AllocationView) -> (u64, u64) {
    let den = 1u64 << RATE_DENOM_BITS;
    let mut net = FlowNetwork::from_view(view);
    if net.total_demand() == 0 || net.feasible_at_rational_rate(den, den) {
        return (den, den);
    }
    // Invariant: feasible at lo/den, infeasible at hi/den.
    let (mut lo, mut hi) = (0u64, den);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if net.feasible_at_rational_rate(mid, den) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, den)
}

/// Computes the fractional maximum concurrent-flow rate λ* ∈ [0, 1] for
/// the allocatable instance in `view`. Returns `1.0` when there is no
/// demand.
///
/// A float *view* of [`max_concurrent_rate_exact`]: the decision work is
/// exact; only this reported value is a double (dyadic rationals at
/// `2^-20` granularity convert exactly, so no rounding occurs here
/// either).
pub fn max_concurrent_rate(view: &AllocationView) -> f64 {
    let (num, den) = max_concurrent_rate_exact(view);
    num as f64 / den as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{AppState, ExecutorInfo, JobDemand, TaskDemand};
    use custody_cluster::ExecutorId;
    use custody_dfs::NodeId;
    use custody_workload::{AppId, JobId};

    fn exec(i: usize, node: usize) -> ExecutorInfo {
        ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(node),
        }
    }

    fn one_task_app(id: usize, nodes: &[usize]) -> AppState {
        AppState {
            app: AppId::new(id),
            quota: 1,
            held: 0,
            local_jobs: 0,
            total_jobs: 1,
            local_tasks: 0,
            total_tasks: 1,
            pending_jobs: vec![JobDemand {
                job: JobId::new(id),
                unsatisfied_inputs: vec![TaskDemand {
                    task_index: 0,
                    preferred_nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
                }],
                pending_tasks: 1,
                total_inputs: 1,
                satisfied_inputs: 0,
            }],
        }
    }

    #[test]
    fn disjoint_demands_reach_rate_one() {
        let execs = vec![exec(0, 0), exec(1, 1)];
        let view = AllocationView {
            idle: execs,
            apps: vec![one_task_app(0, &[0]), one_task_app(1, &[1])],
        };
        assert!((max_concurrent_rate(&view) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_apps_one_executor_is_half() {
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![one_task_app(0, &[0]), one_task_app(1, &[0])],
        };
        let rate = max_concurrent_rate(&view);
        assert!((rate - 0.5).abs() < 1e-4, "rate {rate}");
    }

    #[test]
    fn three_way_contention_is_a_third() {
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![
                one_task_app(0, &[0]),
                one_task_app(1, &[0]),
                one_task_app(2, &[0]),
            ],
        };
        let rate = max_concurrent_rate(&view);
        assert!((rate - 1.0 / 3.0).abs() < 1e-4, "rate {rate}");
    }

    #[test]
    fn unroutable_demand_gives_zero() {
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![one_task_app(0, &[9])],
        };
        assert!(max_concurrent_rate(&view) < 1e-4);
    }

    #[test]
    fn no_demand_is_one() {
        let execs = vec![exec(0, 0)];
        let mut a = one_task_app(0, &[0]);
        a.pending_jobs.clear();
        let view = AllocationView {
            idle: execs,
            apps: vec![a],
        };
        assert_eq!(max_concurrent_rate(&view), 1.0);
    }

    /// The historical float binary search (epsilon-guarded
    /// `feasible_at_rate`, tolerance 1e-6), kept verbatim as the
    /// regression reference for the exact dyadic search that replaced it.
    fn float_search_reference(view: &AllocationView) -> f64 {
        let mut net = FlowNetwork::from_view(view);
        if net.total_demand() == 0 {
            return 1.0;
        }
        if net.feasible_at_rate(1.0) {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while hi - lo > 1e-6 {
            let mid = (lo + hi) / 2.0;
            if net.feasible_at_rate(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[test]
    fn exact_search_matches_float_reference() {
        // Instances spanning: no demand handled above, full feasibility,
        // 2-way and 3-way contention, partial routability.
        let contended = |napps: usize| {
            let execs = vec![exec(0, 0)];
            AllocationView {
                idle: execs,
                apps: (0..napps).map(|i| one_task_app(i, &[0])).collect(),
            }
        };
        let mixed = {
            let execs = vec![exec(0, 0), exec(1, 1)];
            AllocationView {
                idle: execs,
                apps: vec![
                    one_task_app(0, &[0]),
                    one_task_app(1, &[0, 1]),
                    one_task_app(2, &[9]),
                ],
            }
        };
        for view in [
            contended(1),
            contended(2),
            contended(3),
            contended(5),
            mixed,
        ] {
            let float = float_search_reference(&view);
            let (num, den) = max_concurrent_rate_exact(&view);
            let exact = num as f64 / den as f64;
            // The float path's epsilon slack admits rates up to 1e-6
            // beyond the true λ*; the dyadic grid adds 2^-20 ≈ 9.5e-7.
            assert!(
                (float - exact).abs() <= 2e-6,
                "float {float} vs exact {num}/{den} = {exact}"
            );
        }
    }

    #[test]
    fn exact_rate_is_a_clean_dyadic_for_simple_contention() {
        // Two apps on one executor: λ* = 1/2 exactly, and 1/2 is on the
        // 2^-20 grid, so the exact search must land on it precisely.
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![one_task_app(0, &[0]), one_task_app(1, &[0])],
        };
        let (num, den) = max_concurrent_rate_exact(&view);
        assert_eq!((num * 2, den), (den, 1 << 20), "λ* must be exactly 1/2");
    }

    #[test]
    fn rate_upper_bounds_custody_outcome() {
        // Fig. 1 instance: Custody achieves 100% locality, so λ* must be 1.
        let execs: Vec<ExecutorInfo> = (0..4).map(|i| exec(i, i)).collect();
        let mk_app = |id: usize, a: usize, b: usize| AppState {
            app: AppId::new(id),
            quota: 2,
            held: 0,
            local_jobs: 0,
            total_jobs: 1,
            local_tasks: 0,
            total_tasks: 2,
            pending_jobs: vec![JobDemand {
                job: JobId::new(id),
                unsatisfied_inputs: vec![
                    TaskDemand {
                        task_index: 0,
                        preferred_nodes: vec![NodeId::new(a)].into(),
                    },
                    TaskDemand {
                        task_index: 1,
                        preferred_nodes: vec![NodeId::new(b)].into(),
                    },
                ],
                pending_tasks: 2,
                total_inputs: 2,
                satisfied_inputs: 0,
            }],
        };
        let view = AllocationView {
            idle: execs,
            apps: vec![mk_app(0, 0, 1), mk_app(1, 2, 3)],
        };
        assert!((max_concurrent_rate(&view) - 1.0).abs() < 1e-9);
    }
}
