//! The Fig. 2 flow-network construction.
//!
//! "1) add a source node for each application; 2) add a common virtual
//! sink; 3) add an intermediate node for each input task and each
//! executor; 4) construct an edge with capacity 1 between an application
//! and each of its input tasks; 5) construct an edge with capacity 1
//! between each executor and the sink; 6) add an edge between a task and
//! each of the executors storing its input. The demand for each
//! application equals its total number of input tasks."
//!
//! A super-source feeding each application's source with capacity `λ·τ_i`
//! turns concurrent-flow feasibility at rate λ into a single max-flow
//! query (all commodities share the one sink, so they are interchangeable).

use std::collections::BTreeMap;

use custody_cluster::ExecutorId;

use crate::allocator::AllocationView;
use crate::theory::maxflow::Dinic;

/// The constructed network plus the handles needed to re-solve it at
/// different concurrent-flow rates.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    net: Dinic,
    source: usize,
    sink: usize,
    /// Edge ids of super-source → app-source edges, per app.
    app_edges: Vec<usize>,
    /// Edge ids of every unit-capacity edge (task and executor edges),
    /// so the exact rational path can scale the whole network integrally.
    unit_edges: Vec<usize>,
    /// τ_i: each app's demand (its number of pending input tasks).
    demands: Vec<usize>,
    /// task-node count (diagnostics).
    num_task_nodes: usize,
    /// executor-node count (diagnostics).
    num_executor_nodes: usize,
}

impl FlowNetwork {
    /// Builds the network from an allocation view. Only idle executors and
    /// unsatisfied input tasks participate (the allocatable instance).
    pub fn from_view(view: &AllocationView) -> Self {
        let mut net = Dinic::new();
        let source = net.add_node();
        let sink = net.add_node();

        // Executor nodes + executor→sink edges.
        let mut unit_edges = Vec::new();
        let mut exec_node: BTreeMap<ExecutorId, usize> = BTreeMap::new();
        for e in &view.idle {
            let n = net.add_node();
            exec_node.insert(e.id, n);
            unit_edges.push(net.add_edge(n, sink, 1.0));
        }
        // Executors grouped by host node for task-edge construction.
        let mut execs_on_node: BTreeMap<custody_dfs::NodeId, Vec<ExecutorId>> = BTreeMap::new();
        for e in &view.idle {
            execs_on_node.entry(e.node).or_default().push(e.id);
        }

        let mut app_edges = Vec::with_capacity(view.apps.len());
        let mut demands = Vec::with_capacity(view.apps.len());
        let mut num_task_nodes = 0;
        for app in &view.apps {
            let app_source = net.add_node();
            let tau: usize = app
                .pending_jobs
                .iter()
                .map(|j| j.unsatisfied_inputs.len())
                .sum();
            // Super-source edge carries the whole demand at rate 1.
            let edge = net.add_edge(source, app_source, tau as f64);
            app_edges.push(edge);
            demands.push(tau);
            for job in &app.pending_jobs {
                for task in &job.unsatisfied_inputs {
                    let t_node = net.add_node();
                    num_task_nodes += 1;
                    unit_edges.push(net.add_edge(app_source, t_node, 1.0));
                    for node in task.preferred_nodes.iter() {
                        for exec in execs_on_node.get(node).into_iter().flatten() {
                            unit_edges.push(net.add_edge(t_node, exec_node[exec], 1.0));
                        }
                    }
                }
            }
        }

        FlowNetwork {
            net,
            source,
            sink,
            app_edges,
            unit_edges,
            demands,
            num_task_nodes,
            num_executor_nodes: exec_node.len(),
        }
    }

    /// Per-app demands τ_i.
    pub fn demands(&self) -> &[usize] {
        &self.demands
    }

    /// Total demand Σ τ_i.
    pub fn total_demand(&self) -> usize {
        self.demands.iter().sum()
    }

    /// Number of task nodes in the network.
    pub fn num_task_nodes(&self) -> usize {
        self.num_task_nodes
    }

    /// Number of executor nodes in the network.
    pub fn num_executor_nodes(&self) -> usize {
        self.num_executor_nodes
    }

    /// Re-caps each app's source edge at `λ·τ_i` and solves. Returns the
    /// achieved max flow.
    pub fn solve_at_rate(&mut self, lambda: f64) -> f64 {
        assert!((0.0..=1.0).contains(&lambda), "rate out of range");
        for (i, &edge) in self.app_edges.iter().enumerate() {
            self.net.set_capacity(edge, lambda * self.demands[i] as f64);
        }
        self.net.reset_flows();
        self.net.max_flow(self.source, self.sink)
    }

    /// Whether every application can route `λ·τ_i` flow simultaneously.
    /// Float path with an epsilon guard; the exact path is
    /// [`feasible_at_rational_rate`](Self::feasible_at_rational_rate).
    pub fn feasible_at_rate(&mut self, lambda: f64) -> bool {
        let want: f64 = lambda * self.total_demand() as f64;
        let got = self.solve_at_rate(lambda);
        got >= want - 1e-6
    }

    /// Exact feasibility at the rational rate `num/den ≤ 1`: every
    /// capacity is scaled by `den`, making the network integral — the
    /// app edge carries `num·τ_i`, every unit edge carries `den` — so
    /// Dinic's augmenting paths only ever move integer amounts and the
    /// resulting flow value is an integer represented exactly in `f64`
    /// (all quantities stay far below `2^53`). Feasibility is then the
    /// exact rational comparison `got/den ≥ (num·Στ_i)/den` with **no
    /// epsilon**, via [`cost::ratio_ge`](crate::cost::ratio_ge).
    pub fn feasible_at_rational_rate(&mut self, num: u64, den: u64) -> bool {
        assert!(den > 0 && num <= den, "rate out of range");
        let total = self.total_demand() as u64;
        assert!(
            u128::from(num) * u128::from(total) < (1u128 << 53)
                && u128::from(den) * u128::from(self.unit_edges.len().max(1) as u64)
                    < (1u128 << 53),
            "scaled network too large for exact f64 integers"
        );
        for &e in &self.unit_edges {
            self.net.set_capacity(e, den as f64);
        }
        for (i, &edge) in self.app_edges.iter().enumerate() {
            self.net
                .set_capacity(edge, (num * self.demands[i] as u64) as f64);
        }
        self.net.reset_flows();
        let got = self.net.max_flow(self.source, self.sink);
        // Restore unit capacities so the float-path solvers see the
        // unscaled network afterwards.
        for &e in &self.unit_edges {
            self.net.set_capacity(e, 1.0);
        }
        let got = got as u64; // exactly integral by construction
        crate::cost::ratio_ge(got, den, num * total, den)
    }

    /// Re-caps app `i`'s source edge at `rates[i]·τ_i` and solves.
    pub fn solve_at_rates(&mut self, rates: &[f64]) -> f64 {
        assert_eq!(rates.len(), self.app_edges.len(), "one rate per app");
        for (i, &edge) in self.app_edges.iter().enumerate() {
            assert!((0.0..=1.0).contains(&rates[i]), "rate out of range");
            self.net
                .set_capacity(edge, rates[i] * self.demands[i] as f64);
        }
        self.net.reset_flows();
        self.net.max_flow(self.source, self.sink)
    }

    /// Whether every application `i` can route `rates[i]·τ_i`
    /// simultaneously (the progressive-filling feasibility test).
    pub fn feasible_at_rates(&mut self, rates: &[f64]) -> bool {
        let want: f64 = rates
            .iter()
            .zip(&self.demands)
            .map(|(r, &d)| r * d as f64)
            .sum();
        self.solve_at_rates(rates) >= want - 1e-6
    }

    /// Flow routed for each app in the last solve.
    pub fn per_app_flow(&self) -> Vec<f64> {
        self.app_edges
            .iter()
            .map(|&e| self.net.flow_on(e))
            .collect()
    }

    /// The maximum number of tasks (across all apps) that can be local
    /// simultaneously — the plain max-flow at rate 1. With unit integral
    /// capacities Dinic returns an integral optimum, so this equals the
    /// maximum task-level locality any allocation could reach *ignoring*
    /// fairness.
    pub fn max_total_local_tasks(&mut self) -> usize {
        self.solve_at_rate(1.0).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{AppState, ExecutorInfo, JobDemand, TaskDemand};
    use custody_dfs::NodeId;
    use custody_workload::{AppId, JobId};

    fn exec(i: usize, node: usize) -> ExecutorInfo {
        ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(node),
        }
    }

    fn task(idx: usize, nodes: &[usize]) -> TaskDemand {
        TaskDemand {
            task_index: idx,
            preferred_nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
        }
    }

    fn app(id: usize, quota: usize, tasks_per_job: Vec<Vec<TaskDemand>>) -> AppState {
        let pending_jobs: Vec<JobDemand> = tasks_per_job
            .into_iter()
            .enumerate()
            .map(|(j, tasks)| {
                let n = tasks.len();
                JobDemand {
                    job: JobId::new(id * 100 + j),
                    unsatisfied_inputs: tasks,
                    pending_tasks: n,
                    total_inputs: n,
                    satisfied_inputs: 0,
                }
            })
            .collect();
        let total_tasks = pending_jobs.iter().map(|j| j.total_inputs).sum();
        AppState {
            app: AppId::new(id),
            quota,
            held: 0,
            local_jobs: 0,
            total_jobs: pending_jobs.len(),
            local_tasks: 0,
            total_tasks,
            pending_jobs,
        }
    }

    /// The paper's Fig. 2 instance: app 1 has tasks T1, T2; app 2 has T21.
    /// Executors E1, E2, E3. Demand 2 and 1.
    fn fig2_view() -> AllocationView {
        // T1 → E1; T2 → E1, E2; T21 → E2, E3.
        let execs = vec![exec(0, 0), exec(1, 1), exec(2, 2)];
        AllocationView {
            idle: execs,
            apps: vec![
                app(0, 2, vec![vec![task(0, &[0]), task(1, &[0, 1])]]),
                app(1, 1, vec![vec![task(0, &[1, 2])]]),
            ],
        }
    }

    #[test]
    fn fig2_structure() {
        let net = FlowNetwork::from_view(&fig2_view());
        assert_eq!(net.demands(), &[2, 1]);
        assert_eq!(net.total_demand(), 3);
        assert_eq!(net.num_task_nodes(), 3);
        assert_eq!(net.num_executor_nodes(), 3);
    }

    #[test]
    fn fig2_everything_routable_at_rate_one() {
        let mut net = FlowNetwork::from_view(&fig2_view());
        assert!(net.feasible_at_rate(1.0));
        assert_eq!(net.max_total_local_tasks(), 3);
        let flows = net.per_app_flow();
        assert!((flows[0] - 2.0).abs() < 1e-6);
        assert!((flows[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn contention_caps_the_rate() {
        // Two apps, one task each, both only runnable on node 0's sole
        // executor: at most one can be local, so rate 1 is infeasible but
        // rate 0.5 is fine (fractionally).
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![
                app(0, 1, vec![vec![task(0, &[0])]]),
                app(1, 1, vec![vec![task(0, &[0])]]),
            ],
        };
        let mut net = FlowNetwork::from_view(&view);
        assert!(!net.feasible_at_rate(1.0));
        assert!(net.feasible_at_rate(0.5));
    }

    #[test]
    fn empty_demand_is_trivially_feasible() {
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![app(0, 1, vec![])],
        };
        let mut net = FlowNetwork::from_view(&view);
        assert_eq!(net.total_demand(), 0);
        assert!(net.feasible_at_rate(1.0));
        assert_eq!(net.max_total_local_tasks(), 0);
    }

    #[test]
    fn task_with_no_replica_nodes_cannot_route() {
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![app(0, 1, vec![vec![task(0, &[7])]])],
        };
        let mut net = FlowNetwork::from_view(&view);
        assert!(!net.feasible_at_rate(1.0));
        assert_eq!(net.max_total_local_tasks(), 0);
    }

    #[test]
    fn per_app_rates_feasibility() {
        // Two apps, one shared executor: (1, 0) and (0.5, 0.5) feasible,
        // (1, 0.5) not.
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![
                app(0, 1, vec![vec![task(0, &[0])]]),
                app(1, 1, vec![vec![task(0, &[0])]]),
            ],
        };
        let mut net = FlowNetwork::from_view(&view);
        assert!(net.feasible_at_rates(&[1.0, 0.0]));
        assert!(net.feasible_at_rates(&[0.5, 0.5]));
        assert!(!net.feasible_at_rates(&[1.0, 0.5]));
    }

    #[test]
    fn executor_capacity_is_one() {
        // One executor, one app with two tasks on the same node: only one
        // routes.
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![app(0, 2, vec![vec![task(0, &[0]), task(1, &[0])]])],
        };
        let mut net = FlowNetwork::from_view(&view);
        assert_eq!(net.max_total_local_tasks(), 1);
    }
}
