//! Sequence property test: a `CustodyAllocator` keeps its round across
//! calls and reconciles the kept jobs with each new view, so after any
//! history of view changes its grants must equal those of a freshly
//! built allocator on the same view — and, under the paper's policies,
//! those of the scan-everything reference specification.
//!
//! One view evolves through random steps shaped like the simulator's
//! events: job submission, job finish, applying the last round's grants
//! (each suggested task launched locally, launched remotely or left
//! pending), executor release, executor death (re-queueing a task that
//! had been local) and re-replication (a task's preferred-node list
//! replaced by a new handle). Each step is followed by one round of
//! every kept allocator: all four inter/intra policy pairs, each with no
//! cost table and with a sick one.

use std::sync::Arc;

use custody_cluster::ExecutorId;
use custody_core::allocator::validate_assignments;
use custody_core::custody::reference_allocate_with_costs;
use custody_core::{
    AllocationView, AppState, Assignment, CustodyAllocator, ExecutorAllocator, ExecutorInfo,
    HealthCost, InterPolicy, IntraPolicy, JobDemand, TaskDemand,
};
use custody_dfs::NodeId;
use custody_simcore::SimRng;
use custody_workload::{AppId, JobId};

const POLICIES: [(InterPolicy, IntraPolicy); 4] = [
    (InterPolicy::MinLocality, IntraPolicy::PriorityFewestFirst),
    (InterPolicy::MinLocality, IntraPolicy::RoundRobinFair),
    (
        InterPolicy::NaiveCountFair,
        IntraPolicy::PriorityFewestFirst,
    ),
    (InterPolicy::NaiveCountFair, IntraPolicy::RoundRobinFair),
];

/// The evolving cluster: every executor's node, owner and liveness, and
/// the apps half of the view. The idle half is derived per round.
struct World {
    nodes: usize,
    executors: Vec<ExecutorInfo>,
    owner: Vec<Option<usize>>,
    dead: Vec<bool>,
    apps: Vec<AppState>,
    next_job: usize,
}

impl World {
    fn new(rng: &mut SimRng, nodes: usize, apps: usize) -> Self {
        let mut executors = Vec::new();
        for n in 0..nodes {
            for _ in 0..1 + rng.below(2) {
                executors.push(ExecutorInfo {
                    id: ExecutorId::new(executors.len()),
                    node: NodeId::new(n),
                });
            }
        }
        let count = executors.len();
        let quota = count.div_ceil(apps) + rng.below(3);
        let mut world = World {
            nodes,
            executors,
            owner: vec![None; count],
            dead: vec![false; count],
            apps: (0..apps)
                .map(|a| AppState {
                    app: AppId::new(a),
                    quota,
                    held: 0,
                    local_jobs: 0,
                    total_jobs: 0,
                    local_tasks: 0,
                    total_tasks: 0,
                    pending_jobs: Vec::new(),
                })
                .collect(),
            next_job: 0,
        };
        for _ in 0..2 * apps {
            world.submit(rng);
        }
        world
    }

    /// A preferred-node list: 1–3 sorted, distinct nodes, sometimes one
    /// with no executor at all (a dangling replica).
    fn replicas(&self, rng: &mut SimRng) -> Arc<[NodeId]> {
        let mut nodes: Vec<NodeId> = (0..1 + rng.below(3))
            .map(|_| NodeId::new(rng.below(self.nodes + 2)))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.into()
    }

    fn view(&self) -> AllocationView {
        let idle = self
            .executors
            .iter()
            .filter(|e| !self.dead[e.id.index()] && self.owner[e.id.index()].is_none())
            .copied()
            .collect();
        AllocationView {
            idle,
            apps: self.apps.clone(),
        }
    }

    fn random_job(&mut self, rng: &mut SimRng) -> Option<(usize, usize)> {
        let a = rng.below(self.apps.len());
        let jobs = self.apps[a].pending_jobs.len();
        (jobs > 0).then(|| (a, rng.below(jobs)))
    }

    /// Submission: a new job, appended in submission order.
    fn submit(&mut self, rng: &mut SimRng) {
        let a = rng.below(self.apps.len());
        let total_inputs = 1 + rng.below(5);
        let unsatisfied_inputs = (0..total_inputs)
            .map(|t| TaskDemand {
                task_index: t,
                preferred_nodes: self.replicas(rng),
            })
            .collect();
        self.apps[a].pending_jobs.push(JobDemand {
            job: JobId::new(self.next_job),
            unsatisfied_inputs,
            pending_tasks: total_inputs + rng.below(3),
            total_inputs,
            satisfied_inputs: 0,
        });
        self.next_job += 1;
    }

    /// A job leaves, banking its locality into the app's history.
    fn finish(&mut self, rng: &mut SimRng) {
        let Some((a, j)) = self.random_job(rng) else {
            return;
        };
        let app = &mut self.apps[a];
        let job = app.pending_jobs.remove(j);
        app.total_jobs += 1;
        app.total_tasks += job.total_inputs;
        app.local_tasks += job.satisfied_inputs;
        if job.satisfied_inputs == job.total_inputs {
            app.local_jobs += 1;
        }
    }

    /// The last round's grants take effect. A suggested task launches
    /// locally (satisfied), launches remotely (leaves the unsatisfied list
    /// without counting as local) or stays pending.
    fn grant(&mut self, rng: &mut SimRng, grants: &[Assignment]) {
        for g in grants {
            let a = g.app.index();
            self.owner[g.executor.index()] = Some(a);
            self.apps[a].held += 1;
            let Some((job, task)) = g.for_task else {
                continue;
            };
            let roll = rng.below(10);
            if roll >= 8 {
                continue;
            }
            let app = &mut self.apps[a];
            let Some(jd) = app.pending_jobs.iter_mut().find(|j| j.job == job) else {
                continue;
            };
            jd.unsatisfied_inputs.retain(|t| t.task_index != task);
            jd.pending_tasks = jd.pending_tasks.saturating_sub(1).max(1);
            if roll < 5 {
                jd.satisfied_inputs += 1;
            }
        }
    }

    /// Apps hand executors back to the pool, each with probability 0.4.
    fn release(&mut self, rng: &mut SimRng) {
        for e in 0..self.owner.len() {
            if self.owner[e].is_some() && rng.chance(0.4) {
                let a = self.owner[e].take().expect("checked held just above");
                self.apps[a].held -= 1;
            }
        }
    }

    /// An executor dies (and sometimes an earlier one comes back). A held
    /// executor's app loses it, and half the time a task that had been
    /// local is re-queued with a fresh replica list.
    fn kill(&mut self, rng: &mut SimRng) {
        let e = rng.below(self.executors.len());
        if self.dead[e] {
            self.dead[e] = false;
            return;
        }
        self.dead[e] = true;
        if let Some(a) = self.owner[e].take() {
            self.apps[a].held -= 1;
        }
        if rng.chance(0.5) {
            let Some((a, j)) = self.random_job(rng) else {
                return;
            };
            let preferred_nodes = self.replicas(rng);
            let jd = &mut self.apps[a].pending_jobs[j];
            let Some(task) = (0..jd.total_inputs)
                .find(|t| jd.unsatisfied_inputs.iter().all(|u| u.task_index != *t))
            else {
                return;
            };
            jd.satisfied_inputs = jd.satisfied_inputs.saturating_sub(1);
            let at = jd
                .unsatisfied_inputs
                .partition_point(|u| u.task_index < task);
            jd.unsatisfied_inputs.insert(
                at,
                TaskDemand {
                    task_index: task,
                    preferred_nodes,
                },
            );
            jd.pending_tasks += 1;
        }
    }

    /// Re-replication: a task's preferred-node list is replaced by a new
    /// handle — half the time with identical contents.
    fn re_replicate(&mut self, rng: &mut SimRng) {
        let Some((a, j)) = self.random_job(rng) else {
            return;
        };
        let tasks = self.apps[a].pending_jobs[j].unsatisfied_inputs.len();
        if tasks == 0 {
            return;
        }
        let t = rng.below(tasks);
        let fresh = if rng.chance(0.5) {
            let same: Vec<NodeId> = self.apps[a].pending_jobs[j].unsatisfied_inputs[t]
                .preferred_nodes
                .to_vec();
            same.into()
        } else {
            self.replicas(rng)
        };
        self.apps[a].pending_jobs[j].unsatisfied_inputs[t].preferred_nodes = fresh;
    }
}

/// A sick table: a third of the nodes (dangling ones included) below full
/// credit, across the bucket range.
fn sick_costs(rng: &mut SimRng, nodes: usize) -> Vec<(NodeId, HealthCost)> {
    let mut costs = Vec::new();
    for n in 0..nodes + 2 {
        if rng.chance(0.33) {
            let credit = 1 + rng.below(8) as u32;
            costs.push((NodeId::new(n), HealthCost { credit, scale: 8 }));
        }
    }
    costs
}

#[test]
fn kept_allocator_matches_fresh_and_reference_across_steps() {
    for seed in 0..6u64 {
        let mut rng = SimRng::seed_from_u64(0x5E0_0000 + seed);
        let nodes = *rng.pick(&[4, 8, 16]);
        let apps = 2 + rng.below(4);
        let mut world = World::new(&mut rng, nodes, apps);
        let sick = sick_costs(&mut rng, nodes);
        let tables: [&[(NodeId, HealthCost)]; 2] = [&[], &sick];
        let allocator = |(inter, intra): (InterPolicy, IntraPolicy), costs| {
            let mut a = CustodyAllocator::new().with_inter(inter).with_intra(intra);
            a.set_node_health_costs(costs);
            a
        };
        // One kept allocator per (cost table, policy pair); the first is
        // the paper's policies without costs, whose grants the next
        // "grant" step applies.
        let mut kept: Vec<(&[(NodeId, HealthCost)], _, CustodyAllocator)> = tables
            .iter()
            .flat_map(|&costs| POLICIES.iter().map(move |&p| (costs, p)))
            .map(|(costs, p)| (costs, p, allocator(p, costs)))
            .collect();
        let mut last_grants = Vec::new();
        for step in 0..300 {
            let kind = match rng.below(12) {
                0..=2 => "submit",
                3..=4 => "finish",
                5..=7 => "grant",
                8 => "release",
                9..=10 => "kill",
                _ => "re-replicate",
            };
            match kind {
                "submit" => world.submit(&mut rng),
                "finish" => world.finish(&mut rng),
                "grant" => world.grant(&mut rng, &last_grants),
                "release" => world.release(&mut rng),
                "kill" => world.kill(&mut rng),
                _ => world.re_replicate(&mut rng),
            }
            let view = world.view();
            for (k, (costs, policies, kept)) in kept.iter_mut().enumerate() {
                let (costs, (inter, intra)) = (*costs, *policies);
                // Re-priced every round, as the driver does.
                kept.set_node_health_costs(costs);
                let out = kept.allocate(&view, &mut SimRng::seed_from_u64(0));
                validate_assignments(&view, &out);
                assert_eq!(
                    out,
                    allocator((inter, intra), costs).allocate(&view, &mut SimRng::seed_from_u64(0)),
                    "seed {seed} step {step} ({kind}): kept {inter:?}/{intra:?} with \
                     {} cost entries diverged from a fresh allocator on {view:?}",
                    costs.len()
                );
                if (inter, intra) == POLICIES[0] {
                    assert_eq!(
                        out,
                        reference_allocate_with_costs(&view, costs),
                        "seed {seed} step {step} ({kind}): kept allocator diverged from \
                         the reference with {} cost entries",
                        costs.len()
                    );
                }
                if k == 0 {
                    last_grants = out;
                }
            }
        }
    }
}
