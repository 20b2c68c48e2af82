//! Progressive filling: the full max-min fair locality *vector*.
//!
//! [`max_concurrent_rate`](crate::theory::max_concurrent_rate) gives only
//! the bottleneck rate λ* — the objective value of Eq. 1. Max-min
//! fairness says more: once the worst-off applications are saturated at
//! λ*, the remaining applications should keep growing until they hit
//! their own bottlenecks. The classic progressive-filling algorithm
//! computes that lexicographically-optimal vector; with a common sink
//! each feasibility test is one max-flow query, so the whole vector is
//! polynomial (fractionally — the integral problem stays NP-hard).
//!
//! Used to grade Custody's outcomes: the achieved per-app locality vector
//! is component-wise upper-bounded by this fractional ideal.

use crate::allocator::AllocationView;
use crate::theory::flow::FlowNetwork;

/// Binary-search precision on rates.
const TOLERANCE: f64 = 1e-6;

/// State for progressive filling over one network.
struct Filler {
    net: FlowNetwork,
    /// Frozen rate per app (`None` while still growing).
    frozen: Vec<Option<f64>>,
}

impl Filler {
    /// Whether all *active* apps can reach `rate` while frozen apps keep
    /// their frozen rates.
    fn feasible(&mut self, rate: f64) -> bool {
        let rates: Vec<f64> = self.frozen.iter().map(|f| f.unwrap_or(rate)).collect();
        self.net.feasible_at_rates(&rates)
    }

    /// Largest common rate achievable by the active apps.
    fn max_common_rate(&mut self) -> f64 {
        if self.feasible(1.0) {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while hi - lo > TOLERANCE {
            let mid = (lo + hi) / 2.0;
            if self.feasible(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether active app `i` alone can exceed `rate` (by a tolerance)
    /// while every other active app holds `rate` and frozen apps hold
    /// their frozen rates. If not, `i` is a bottleneck at `rate`.
    fn can_exceed(&mut self, i: usize, rate: f64) -> bool {
        let probe = (rate + 16.0 * TOLERANCE).min(1.0);
        if probe <= rate {
            return false; // already at 1.0
        }
        let rates: Vec<f64> = self
            .frozen
            .iter()
            .enumerate()
            .map(|(j, f)| f.unwrap_or(if j == i { probe } else { rate }))
            .collect();
        self.net.feasible_at_rates(&rates)
    }
}

/// Computes the fractional max-min fair locality-rate vector, one entry
/// per application (fraction of its demanded input tasks that can be
/// simultaneously local). Apps with zero demand report 1.0.
pub fn max_min_locality_vector(view: &AllocationView) -> Vec<f64> {
    let net = FlowNetwork::from_view(view);
    let demands = net.demands().to_vec();
    let mut filler = Filler {
        net,
        frozen: demands
            .iter()
            .map(|&d| if d == 0 { Some(1.0) } else { None })
            .collect(),
    };
    // Progressive filling: raise all active apps together, freeze the
    // bottlenecks, repeat.
    while filler.frozen.iter().any(Option::is_none) {
        let rate = filler.max_common_rate();
        if rate >= 1.0 - TOLERANCE {
            for f in filler.frozen.iter_mut().filter(|f| f.is_none()) {
                *f = Some(1.0);
            }
            break;
        }
        let mut froze_any = false;
        let active: Vec<usize> = (0..filler.frozen.len())
            .filter(|&i| filler.frozen[i].is_none())
            .collect();
        for i in active {
            if !filler.can_exceed(i, rate) {
                filler.frozen[i] = Some(rate);
                froze_any = true;
            }
        }
        // Degenerate ties (shared bottleneck where each app *could*
        // individually exceed): freeze everyone at the common rate.
        if !froze_any {
            for f in filler.frozen.iter_mut().filter(|f| f.is_none()) {
                *f = Some(rate);
            }
        }
    }
    filler
        .frozen
        .into_iter()
        .map(|f| f.expect("all frozen")) // lint: allow(panic) — the filling loop ends only once every rate is frozen
        .collect()
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

    fn app(id: usize, task_nodes: &[&[usize]]) -> AppState {
        let tasks: Vec<TaskDemand> = task_nodes
            .iter()
            .enumerate()
            .map(|(t, nodes)| TaskDemand {
                task_index: t,
                preferred_nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            })
            .collect();
        let n = tasks.len();
        AppState {
            app: AppId::new(id),
            quota: n.max(1),
            held: 0,
            local_jobs: 0,
            total_jobs: 1,
            local_tasks: 0,
            total_tasks: n,
            pending_jobs: vec![JobDemand {
                job: JobId::new(id),
                unsatisfied_inputs: tasks,
                pending_tasks: n,
                total_inputs: n,
                satisfied_inputs: 0,
            }],
        }
    }

    fn view(execs: Vec<ExecutorInfo>, apps: Vec<AppState>) -> AllocationView {
        AllocationView { idle: execs, apps }
    }

    #[test]
    fn disjoint_demands_all_reach_one() {
        let v = view(
            vec![exec(0, 0), exec(1, 1)],
            vec![app(0, &[&[0]]), app(1, &[&[1]])],
        );
        let rates = max_min_locality_vector(&v);
        assert!((rates[0] - 1.0).abs() < 1e-4);
        assert!((rates[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn shared_executor_splits_evenly() {
        let v = view(vec![exec(0, 0)], vec![app(0, &[&[0]]), app(1, &[&[0]])]);
        let rates = max_min_locality_vector(&v);
        assert!((rates[0] - 0.5).abs() < 1e-3, "{rates:?}");
        assert!((rates[1] - 0.5).abs() < 1e-3, "{rates:?}");
    }

    #[test]
    fn shared_plus_private_balances_fractionally() {
        // App 0: one task on node 0. App 1: one task on node 0, one on
        // node 1. Fractional max-min: both apps reach rate 2/3 — app 0
        // takes 2/3 of node 0's executor; app 1 serves its node-1 task
        // fully (1) plus 1/3 of node 0, i.e. 4/3 flow = 2/3 of demand 2.
        let v = view(
            vec![exec(0, 0), exec(1, 1)],
            vec![app(0, &[&[0]]), app(1, &[&[0], &[1]])],
        );
        let rates = max_min_locality_vector(&v);
        assert!((rates[0] - 2.0 / 3.0).abs() < 1e-3, "{rates:?}");
        assert!((rates[1] - 2.0 / 3.0).abs() < 1e-3, "{rates:?}");
    }

    #[test]
    fn unconstrained_app_rises_above_bottleneck() {
        // App 0's two tasks both need node 0's single executor (self-
        // contention: rate caps at 0.5); app 1's task has node 1 to
        // itself. Progressive filling freezes app 0 at 0.5 and lets app 1
        // continue to 1.0.
        let v = view(
            vec![exec(0, 0), exec(1, 1)],
            vec![app(0, &[&[0], &[0]]), app(1, &[&[1]])],
        );
        let rates = max_min_locality_vector(&v);
        assert!((rates[0] - 0.5).abs() < 1e-3, "{rates:?}");
        assert!((rates[1] - 1.0).abs() < 1e-3, "{rates:?}");
    }

    #[test]
    fn zero_demand_app_reports_one() {
        let mut empty = app(1, &[]);
        empty.pending_jobs.clear();
        let v = view(vec![exec(0, 0)], vec![app(0, &[&[0]]), empty]);
        let rates = max_min_locality_vector(&v);
        assert!((rates[0] - 1.0).abs() < 1e-4);
        assert_eq!(rates[1], 1.0);
    }

    #[test]
    fn vector_min_matches_concurrent_rate() {
        use crate::theory::max_concurrent_rate;
        use custody_simcore::SimRng;
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..30 {
            let nodes = 2 + rng.below(5);
            let execs: Vec<ExecutorInfo> = (0..nodes).map(|i| exec(i, i)).collect();
            let apps: Vec<AppState> = (0..1 + rng.below(3))
                .map(|a| {
                    let t = 1 + rng.below(3);
                    let specs: Vec<Vec<usize>> = (0..t)
                        .map(|_| {
                            let k = 1 + rng.below(2.min(nodes));
                            rng.choose_distinct(nodes, k)
                        })
                        .collect();
                    let refs: Vec<&[usize]> = specs.iter().map(Vec::as_slice).collect();
                    app(a, &refs)
                })
                .collect();
            let v = view(execs, apps);
            let rates = max_min_locality_vector(&v);
            let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
            let lambda = max_concurrent_rate(&v);
            assert!(
                (min - lambda).abs() < 1e-3,
                "min(vector)={min} vs λ*={lambda} for {rates:?}"
            );
        }
    }
}
