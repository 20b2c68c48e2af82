//! The scan-everything reference allocator: an executable specification
//! of the Custody round with the paper's default policies.
//!
//! [`reference_allocate`] re-derives every decision from first principles
//! on each grant — `MINLOCALITY` rescans all applications, replica choice
//! rescans every other application's unsatisfied tasks to measure
//! contention, and the idle pool is a flat list searched linearly. That
//! makes a grant O(apps · tasks · replicas) instead of the hot path's
//! O(log apps), which is exactly the point:
//!
//! 1. **Specification** — the code reads like Algorithms 1 and 2; there is
//!    no incremental state that could hide a bookkeeping bug.
//! 2. **Oracle** — `tests/reference_equivalence.rs` property-tests the
//!    production [`CustodyAllocator`](crate::CustodyAllocator) (lazy
//!    heap, cached node-demand, recycled scratch) against this function on
//!    randomized views: the two must agree grant-for-grant.
//! 3. **Baseline** — `sim_scale`'s allocator-round grid measures the
//!    production path's speedup against this as the "before".
//!
//! Both implementations compare locality through the exact rational
//! [`LocalityKey`], so agreement is bit-for-bit, not approximate.

use std::sync::Arc;

use custody_cluster::ExecutorId;
use custody_dfs::NodeId;
use custody_workload::{AppId, JobId};

use crate::allocator::{AllocationView, Assignment, ExecutorInfo};
use crate::cost::HealthCost;
use crate::custody::inter::LocalityKey;

/// One job's remaining demand (mirror of the round state, kept naive).
struct RefJob {
    job: JobId,
    /// Unsatisfied input tasks: `(task index, preferred nodes)`.
    tasks: Vec<(usize, Arc<[NodeId]>)>,
    satisfied: usize,
    total_inputs: usize,
    /// Bottleneck health credit of this round's satisfactions
    /// (`u32::MAX` until one happens).
    min_credit: u32,
}

/// One application's state, updated by plain field writes.
struct RefApp {
    app: AppId,
    quota: usize,
    held: usize,
    hist_local_jobs: usize,
    total_jobs: usize,
    hist_local_tasks: usize,
    total_tasks: usize,
    new_local_jobs: usize,
    new_local_tasks: usize,
    demand_remaining: usize,
    jobs: Vec<RefJob>,
    /// `Σ credit(node)` over this round's satisfied tasks.
    new_task_credit: u64,
    /// Bottleneck credit of each job made fully local this round.
    new_job_credit: u64,
}

impl RefApp {
    /// The MINLOCALITY key: count-based when `scale == 0`, credit-weighted
    /// otherwise — the same two branches as the production round.
    fn key(&self, index: usize, scale: u32) -> LocalityKey {
        if scale == 0 {
            return LocalityKey::from_fractions(
                self.hist_local_jobs + self.new_local_jobs,
                self.total_jobs,
                self.hist_local_tasks + self.new_local_tasks,
                self.total_tasks,
                index,
            );
        }
        let s = u64::from(scale);
        LocalityKey::from_weighted(
            (self.hist_local_jobs as u64)
                .saturating_mul(s)
                .saturating_add(self.new_job_credit),
            (self.total_jobs as u64).saturating_mul(s),
            (self.hist_local_tasks as u64)
                .saturating_mul(s)
                .saturating_add(self.new_task_credit),
            (self.total_tasks as u64).saturating_mul(s),
            index,
        )
    }

    fn wants(&self) -> bool {
        self.quota.saturating_sub(self.held) > 0 && self.demand_remaining > 0
    }
}

/// The whole round state: a flat idle list and the app mirrors.
struct RefRound {
    idle: Vec<ExecutorInfo>,
    apps: Vec<RefApp>,
    assignments: Vec<Assignment>,
    /// Per-node health credit, dense by raw node id (unlisted → `scale`).
    credit: Vec<u32>,
    /// Health-cost bucket scale; `0` means no cost table is installed.
    scale: u32,
}

impl RefRound {
    fn new(view: &AllocationView, costs: &[(NodeId, HealthCost)]) -> Self {
        let scale = costs.first().map(|(_, c)| c.scale.max(1)).unwrap_or(0);
        let mut credit = Vec::new();
        for &(n, c) in costs {
            debug_assert_eq!(c.scale.max(1), scale, "one cost table, one bucket scale");
            let i = n.index();
            if i >= credit.len() {
                credit.resize(i + 1, scale);
            }
            credit[i] = c.credit.clamp(1, scale);
        }
        RefRound {
            credit,
            scale,
            idle: view.idle.clone(),
            apps: view
                .apps
                .iter()
                .map(|a| RefApp {
                    app: a.app,
                    quota: a.quota,
                    held: a.held,
                    hist_local_jobs: a.local_jobs,
                    total_jobs: a.total_jobs,
                    hist_local_tasks: a.local_tasks,
                    total_tasks: a.total_tasks,
                    new_local_jobs: 0,
                    new_local_tasks: 0,
                    demand_remaining: a.pending_jobs.iter().map(|j| j.pending_tasks).sum(),
                    jobs: a
                        .pending_jobs
                        .iter()
                        .map(|j| RefJob {
                            job: j.job,
                            tasks: j
                                .unsatisfied_inputs
                                .iter()
                                .map(|t| (t.task_index, Arc::clone(&t.preferred_nodes)))
                                .collect(),
                            satisfied: j.satisfied_inputs,
                            total_inputs: j.total_inputs,
                            min_credit: u32::MAX,
                        })
                        .collect(),
                    new_task_credit: 0,
                    new_job_credit: 0,
                })
                .collect(),
            assignments: Vec::new(),
        }
    }

    /// The node's health credit (full credit for unlisted nodes or when
    /// no table is installed).
    fn credit_of(&self, node: NodeId) -> u32 {
        if self.scale == 0 {
            return 1;
        }
        self.credit.get(node.index()).copied().unwrap_or(self.scale)
    }

    /// The node's placement penalty (`scale - credit`, zero without a
    /// cost table).
    fn penalty(&self, node: NodeId) -> u32 {
        if self.scale == 0 {
            0
        } else {
            self.scale - self.credit_of(node)
        }
    }

    fn node_has_idle(&self, node: NodeId) -> bool {
        self.idle.iter().any(|e| e.node == node)
    }

    /// Removes and returns the lowest-id idle executor on `node`.
    fn take_executor_on(&mut self, node: NodeId) -> Option<ExecutorId> {
        let pos = self
            .idle
            .iter()
            .enumerate()
            .filter(|(_, e)| e.node == node)
            .min_by_key(|(_, e)| e.id)
            .map(|(p, _)| p)?;
        Some(self.idle.swap_remove(pos).id)
    }

    /// Removes and returns the idle executor on the healthiest (lowest
    /// placement penalty) node, lowest id first. Without a cost table
    /// every penalty is zero: plain lowest-id.
    fn take_any_executor(&mut self) -> Option<ExecutorId> {
        let pos = self
            .idle
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (self.penalty(e.node), e.id))
            .map(|(p, _)| p)?;
        Some(self.idle.swap_remove(pos).id)
    }

    /// Unsatisfied-task pressure on `node` from every app except `except`,
    /// recounted from scratch (the O(apps · tasks · replicas) scan the
    /// production round replaces with cached per-node counters).
    fn contention_excluding(&self, node: NodeId, except: usize) -> u32 {
        self.apps
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != except)
            .flat_map(|(_, a)| &a.jobs)
            .flat_map(|j| &j.tasks)
            .flat_map(|(_, nodes)| nodes.iter())
            .filter(|&&n| n == node)
            .count() as u32
    }

    /// True if the app has an unsatisfied task whose block sits on a node
    /// with an idle executor.
    fn has_local_opportunity(&self, i: usize) -> bool {
        self.apps[i]
            .jobs
            .iter()
            .flat_map(|j| &j.tasks)
            .any(|(_, nodes)| nodes.iter().any(|&n| self.node_has_idle(n)))
    }

    /// `MINLOCALITY` as written: rescan every application, keep the one
    /// with the smallest exact locality key among those passing `eligible`.
    fn min_locality<F>(&self, mut eligible: F) -> Option<usize>
    where
        F: FnMut(usize) -> bool,
    {
        self.apps
            .iter()
            .enumerate()
            .filter(|&(i, _)| eligible(i))
            .min_by_key(|(i, a)| a.key(*i, self.scale))
            .map(|(i, _)| i)
    }

    /// Algorithm 2's flag: is app `i` still the least-localized app among
    /// those that still want an executor?
    fn is_min_locality(&self, i: usize) -> bool {
        self.min_locality(|j| self.apps[j].wants()) == Some(i)
    }

    /// Best node for a task: among preferred nodes with an idle executor,
    /// the healthiest (lowest placement penalty) first, then the least
    /// contested one, tie-broken by node id.
    fn pick_node(&self, i: usize, preferred: &[NodeId]) -> Option<NodeId> {
        preferred
            .iter()
            .copied()
            .filter(|&n| self.node_has_idle(n))
            .min_by_key(|&n| (self.penalty(n), self.contention_excluding(n, i), n))
    }

    fn record_grant(&mut self, i: usize, executor: ExecutorId, for_task: Option<(JobId, usize)>) {
        let app = &mut self.apps[i];
        app.held += 1;
        app.demand_remaining -= 1;
        self.assignments.push(Assignment {
            executor,
            app: app.app,
            for_task,
        });
    }

    /// Algorithm 2 for app `i`: jobs in increasing unsatisfied-task order
    /// (ties: total inputs, then job id), each job satisfied completely
    /// before the next, yielding to the inter-app loop whenever the grant
    /// lifts this app above another.
    fn priority_allocate(&mut self, i: usize) {
        let mut order: Vec<usize> = (0..self.apps[i].jobs.len()).collect();
        order.sort_by_key(|&j| {
            let job = &self.apps[i].jobs[j];
            (job.tasks.len(), job.total_inputs, job.job)
        });
        for j in order {
            // Task indexes shift as tasks are removed: on a grant the slot
            // holds the next task, on a skip advance past it.
            let mut t = 0;
            while t < self.apps[i].jobs[j].tasks.len() {
                if self.apps[i].quota.saturating_sub(self.apps[i].held) == 0 {
                    return;
                }
                let preferred = Arc::clone(&self.apps[i].jobs[j].tasks[t].1);
                let Some(node) = self.pick_node(i, &preferred) else {
                    t += 1; // cannot be made local now; the filler handles it
                    continue;
                };
                let executor = self
                    .take_executor_on(node)
                    // lint: allow(panic) — the node index only lists nodes with an idle executor
                    .expect("picked node has an idle executor");
                // Satisfy the task and refresh the projected locality.
                let scale = self.scale;
                let credit = if scale > 0 { self.credit_of(node) } else { 0 };
                let app = &mut self.apps[i];
                let (task_index, _) = app.jobs[j].tasks.remove(t);
                app.jobs[j].satisfied += 1;
                app.new_local_tasks += 1;
                if scale > 0 {
                    app.new_task_credit += u64::from(credit);
                    app.jobs[j].min_credit = app.jobs[j].min_credit.min(credit);
                }
                if app.jobs[j].satisfied == app.jobs[j].total_inputs {
                    app.new_local_jobs += 1;
                    if scale > 0 {
                        app.new_job_credit += u64::from(app.jobs[j].min_credit.min(scale));
                    }
                }
                let job_id = app.jobs[j].job;
                self.record_grant(i, executor, Some((job_id, task_index)));
                if !self.is_min_locality(i) {
                    return; // yield to the inter-application loop
                }
            }
        }
    }
}

/// Allocates one round with the paper's default policies (`MinLocality` +
/// `PriorityFewestFirst`) by literal rescans — see the module docs. Agrees
/// bit-for-bit with [`CustodyAllocator`](crate::CustodyAllocator) under
/// the same policies.
pub fn reference_allocate(view: &AllocationView) -> Vec<Assignment> {
    reference_allocate_with_costs(view, &[])
}

/// [`reference_allocate`] with a per-node health-cost table (soft
/// demotion): locality bought on a node with credit `w` counts `w/scale`
/// of a healthy local task in the MINLOCALITY key, replica choice and the
/// filler both prefer lower-penalty hosts. An empty table is exactly
/// [`reference_allocate`]; an all-neutral table orders identically
/// (neutral weights scale both sides of every exact-rational comparison
/// by the same factor). Mirrors
/// [`CustodyAllocator::set_node_health_costs`](crate::ExecutorAllocator::set_node_health_costs)
/// bit-for-bit.
pub fn reference_allocate_with_costs(
    view: &AllocationView,
    costs: &[(NodeId, HealthCost)],
) -> Vec<Assignment> {
    let mut round = RefRound::new(view, costs);

    // Phase 1 — locality: the least-localized app with quota headroom and
    // a local opportunity claims executors through Algorithm 2.
    while !round.idle.is_empty() {
        let candidate =
            round.min_locality(|i| round.apps[i].wants() && round.has_local_opportunity(i));
        let Some(i) = candidate else { break };
        round.priority_allocate(i);
    }

    // Phase 2 — filler: remaining idle executors go to apps that still
    // have runnable tasks, least-localized first, bounded by demand.
    while !round.idle.is_empty() {
        let candidate = round.min_locality(|i| round.apps[i].wants());
        let Some(i) = candidate else { break };
        let executor = round.take_any_executor().expect("idle executor exists"); // lint: allow(panic) — caller loops while idle executors remain
        round.record_grant(i, executor, None);
    }

    round.assignments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{validate_assignments, AppState, JobDemand, TaskDemand};
    use crate::custody::CustodyAllocator;
    use crate::ExecutorAllocator;
    use custody_simcore::SimRng;

    fn toy_view() -> AllocationView {
        let execs: Vec<ExecutorInfo> = (0..4)
            .map(|i| ExecutorInfo {
                id: ExecutorId::new(i),
                node: NodeId::new(i),
            })
            .collect();
        let app = |id: usize, nodes: [usize; 2]| AppState {
            app: AppId::new(id),
            quota: 2,
            held: 0,
            local_jobs: 0,
            total_jobs: 1,
            local_tasks: 0,
            total_tasks: 2,
            pending_jobs: vec![JobDemand {
                job: JobId::new(id),
                unsatisfied_inputs: nodes
                    .iter()
                    .enumerate()
                    .map(|(t, &n)| TaskDemand {
                        task_index: t,
                        preferred_nodes: [NodeId::new(n)].into(),
                    })
                    .collect(),
                pending_tasks: 2,
                total_inputs: 2,
                satisfied_inputs: 0,
            }],
        };
        AllocationView {
            idle: execs.clone(),
            all_executors: execs,
            apps: vec![app(0, [0, 1]), app(1, [2, 3])],
        }
    }

    /// The reference passes the allocator contract and reproduces Fig. 1.
    #[test]
    fn reference_solves_fig1() {
        let view = toy_view();
        let out = reference_allocate(&view);
        validate_assignments(&view, &out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|a| a.for_task.is_some()));
    }

    /// Sanity anchor for the property suite: the two implementations agree
    /// on the motivating example.
    #[test]
    fn reference_matches_production_on_fig1() {
        let view = toy_view();
        let mut rng = SimRng::seed_from_u64(0);
        let fast = CustodyAllocator::new().allocate(&view, &mut rng);
        assert_eq!(reference_allocate(&view), fast);
    }
}
