//! Data-unaware baseline cluster managers (§II, §VII).
//!
//! * [`StaticPartitionAllocator::spread`] — Spark standalone with
//!   `spreadOut = true`, the paper's comparison baseline: at registration
//!   each application is given a fixed set of executors chosen
//!   round-robin across worker nodes ("existing cluster managers usually
//!   allocate executors in a round-robin fashion", Fig. 1), and keeps
//!   that set for its lifetime.
//! * [`StaticPartitionAllocator::random`] — static partition drawn
//!   uniformly at random ("the standalone manager randomly selects among
//!   all the available resources", §VI-C).
//! * [`DynamicOfferAllocator`] — a Mesos-style offer loop: idle executors
//!   are offered to applications in rotation and accepted whenever the
//!   application has runnable tasks, with no view of data locations.
//!
//! Static allocators compute their ownership partition once, at
//! construction, from the cluster's executor inventory; thereafter every
//! released executor simply returns to its owner. That reproduces "an
//! application only has access to a subset of executors throughout its
//! lifetime" without special-casing the simulation driver, and keeps the
//! inventory out of the per-round [`AllocationView`].

use std::collections::BTreeMap;

use custody_cluster::ExecutorId;
use custody_simcore::SimRng;
use custody_workload::AppId;

use crate::allocator::{AllocationView, Assignment, ExecutorAllocator, ExecutorInfo};

/// Tracks per-app grant budgets within one allocation round.
struct Budget {
    headroom: Vec<usize>,
    demand: Vec<usize>,
}

impl Budget {
    fn new(view: &AllocationView) -> Self {
        Budget {
            headroom: view
                .apps
                .iter()
                .map(|a| a.quota.saturating_sub(a.held))
                .collect(),
            demand: view.apps.iter().map(|a| a.outstanding_demand()).collect(),
        }
    }

    fn wants(&self, app: usize) -> bool {
        self.headroom[app] > 0 && self.demand[app] > 0
    }

    fn grant(&mut self, app: usize) {
        self.headroom[app] -= 1;
        self.demand[app] -= 1;
    }
}

/// Builds the spread partition of [`StaticPartitionAllocator::spread`]: walk the
/// executor list one *slot layer* at a time — first executor of every
/// node, then the second of every node — and deal each executor to the
/// application with (a) the fewest executors so far and (b) among ties,
/// the fewest executors already on that node. Shares stay balanced to
/// within one executor while each application's set spreads over as many
/// distinct nodes as possible, which is what Spark standalone's
/// `spreadOut` achieves by registering applications one at a time. With
/// no applications the partition is empty.
fn spread_partition(executors: &[ExecutorInfo], num_apps: usize) -> BTreeMap<ExecutorId, AppId> {
    let mut owner = BTreeMap::new();
    // Group executors by node, preserving order.
    let mut by_node: Vec<Vec<ExecutorId>> = Vec::new();
    let mut node_index: BTreeMap<custody_dfs::NodeId, usize> = BTreeMap::new();
    for e in executors {
        let idx = *node_index.entry(e.node).or_insert_with(|| {
            by_node.push(Vec::new());
            by_node.len() - 1
        });
        by_node[idx].push(e.id);
    }
    let max_layer = by_node.iter().map(Vec::len).max().unwrap_or(0);
    let mut total = vec![0usize; num_apps];
    let mut on_node = vec![vec![0u32; num_apps]; by_node.len()];
    for layer in 0..max_layer {
        for (n, node) in by_node.iter().enumerate() {
            if let Some(&exec) = node.get(layer) {
                let Some(app) = (0..num_apps).min_by_key(|&a| (total[a], on_node[n][a], a)) else {
                    return owner; // no applications to deal to
                };
                total[app] += 1;
                on_node[n][app] += 1;
                owner.insert(exec, AppId::new(app));
            }
        }
    }
    owner
}

/// Uniform-random static partition of [`StaticPartitionAllocator::random`]: one
/// shuffle of the inventory, dealt round-robin. With no applications the
/// partition is empty and nothing is drawn.
fn random_partition(
    executors: &[ExecutorInfo],
    num_apps: usize,
    rng: &mut SimRng,
) -> BTreeMap<ExecutorId, AppId> {
    if num_apps == 0 {
        return BTreeMap::new();
    }
    let mut ids: Vec<ExecutorId> = executors.iter().map(|e| e.id).collect();
    rng.shuffle(&mut ids);
    ids.into_iter()
        .enumerate()
        .map(|(i, id)| (id, AppId::new(i % num_apps)))
        .collect()
}

/// Spark standalone's static sharing: every executor has a fixed owner,
/// chosen once at construction, and every idle executor is granted to its
/// owner, bounded only by the owner's quota headroom. "An application
/// only has access to a \[fixed\] subset of executors throughout its
/// lifetime" (§II) — it parks on its whole partition whether or not it has
/// runnable work. The two constructors differ only in how the partition
/// is dealt.
#[derive(Debug, Clone)]
pub struct StaticPartitionAllocator {
    owner: BTreeMap<ExecutorId, AppId>,
    name: &'static str,
}

impl StaticPartitionAllocator {
    /// `spark-static` (`spreadOut = true`): spreads `executors` (the
    /// cluster's whole inventory, in executor-id order) node-round-robin
    /// over `num_apps` applications.
    pub fn spread(executors: &[ExecutorInfo], num_apps: usize) -> Self {
        StaticPartitionAllocator {
            owner: spread_partition(executors, num_apps),
            name: "spark-static",
        }
    }

    /// `static-random`: deals `executors` (the cluster's whole inventory,
    /// in executor-id order) at random over `num_apps` applications. The
    /// partition is the only draw from `rng`.
    pub fn random(executors: &[ExecutorInfo], num_apps: usize, rng: &mut SimRng) -> Self {
        StaticPartitionAllocator {
            owner: random_partition(executors, num_apps, rng),
            name: "static-random",
        }
    }
}

impl ExecutorAllocator for StaticPartitionAllocator {
    fn name(&self) -> &'static str {
        self.name
    }

    fn allocate(&mut self, view: &AllocationView, _rng: &mut SimRng) -> Vec<Assignment> {
        let mut headroom: Vec<usize> = view
            .apps
            .iter()
            .map(|a| a.quota.saturating_sub(a.held))
            .collect();
        let mut out = Vec::new();
        for e in &view.idle {
            let Some(&app) = self.owner.get(&e.id) else {
                continue;
            };
            if headroom[app.index()] > 0 {
                headroom[app.index()] -= 1;
                out.push(Assignment {
                    executor: e.id,
                    app,
                    for_task: None,
                });
            }
        }
        out
    }

    fn clone_box(&self) -> Box<dyn ExecutorAllocator> {
        Box::new(self.clone())
    }
}

/// Mesos-style data-unaware dynamic offers: each idle executor is offered
/// to applications in rotation; the first application with runnable tasks
/// and quota headroom accepts. The rotation cursor persists across rounds
/// so offers stay fair over time.
#[derive(Debug, Default, Clone)]
pub struct DynamicOfferAllocator {
    cursor: usize,
}

impl DynamicOfferAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ExecutorAllocator for DynamicOfferAllocator {
    fn name(&self) -> &'static str {
        "dynamic-offer"
    }

    fn allocate(&mut self, view: &AllocationView, _rng: &mut SimRng) -> Vec<Assignment> {
        let num_apps = view.apps.len();
        if num_apps == 0 {
            return Vec::new();
        }
        let mut budget = Budget::new(view);
        let mut out = Vec::new();
        for e in &view.idle {
            // Offer to apps starting at the cursor.
            for probe in 0..num_apps {
                let app = (self.cursor + probe) % num_apps;
                if budget.wants(app) {
                    budget.grant(app);
                    out.push(Assignment {
                        executor: e.id,
                        app: AppId::new(app),
                        for_task: None,
                    });
                    self.cursor = (app + 1) % num_apps;
                    break;
                }
            }
        }
        out
    }

    /// The rotation cursor moves on every grant, so the same view can
    /// grant differently on the next call.
    fn replayable(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn ExecutorAllocator> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{validate_assignments, AppState, JobDemand, TaskDemand};
    use custody_dfs::NodeId;
    use custody_workload::JobId;

    /// `nodes` nodes × `per_node` executors, node-major ids.
    fn executors(nodes: usize, per_node: usize) -> Vec<ExecutorInfo> {
        let mut out = Vec::new();
        for n in 0..nodes {
            for _ in 0..per_node {
                out.push(ExecutorInfo {
                    id: ExecutorId::new(out.len()),
                    node: NodeId::new(n),
                });
            }
        }
        out
    }

    fn app_with_demand(id: usize, quota: usize, tasks: usize) -> AppState {
        AppState {
            app: AppId::new(id),
            quota,
            held: 0,
            local_jobs: 0,
            total_jobs: 1,
            local_tasks: 0,
            total_tasks: tasks,
            pending_jobs: vec![JobDemand {
                job: JobId::new(id),
                unsatisfied_inputs: (0..tasks)
                    .map(|t| TaskDemand {
                        task_index: t,
                        preferred_nodes: vec![NodeId::new(t)].into(),
                    })
                    .collect(),
                pending_tasks: tasks,
                total_inputs: tasks,
                satisfied_inputs: 0,
            }],
        }
    }

    fn view(nodes: usize, per_node: usize, apps: Vec<AppState>) -> AllocationView {
        AllocationView {
            idle: executors(nodes, per_node),
            apps,
        }
    }

    #[test]
    fn spread_partition_interleaves_nodes() {
        let v = view(
            4,
            2,
            vec![app_with_demand(0, 4, 4), app_with_demand(1, 4, 4)],
        );
        let owner = spread_partition(&v.idle, v.apps.len());
        // Layer 0: executors 0,2,4,6 (first on each node) dealt A,B,A,B.
        assert_eq!(owner[&ExecutorId::new(0)], AppId::new(0));
        assert_eq!(owner[&ExecutorId::new(2)], AppId::new(1));
        assert_eq!(owner[&ExecutorId::new(4)], AppId::new(0));
        assert_eq!(owner[&ExecutorId::new(6)], AppId::new(1));
        // Layer 1 alternates the other way, so each app touches every node.
        assert_eq!(owner[&ExecutorId::new(1)], AppId::new(1));
        assert_eq!(owner[&ExecutorId::new(3)], AppId::new(0));
        // Coverage check: both apps own an executor on all four nodes.
        for app in 0..2 {
            let nodes: std::collections::BTreeSet<usize> = owner
                .iter()
                .filter(|(_, &a)| a == AppId::new(app))
                .map(|(e, _)| e.index() / 2)
                .collect();
            assert_eq!(nodes.len(), 4, "app {app} must cover all nodes");
        }
    }

    #[test]
    fn spread_gives_each_app_equal_share() {
        let v = view(10, 2, (0..4).map(|i| app_with_demand(i, 5, 5)).collect());
        let owner = spread_partition(&v.idle, v.apps.len());
        let mut counts = [0usize; 4];
        for app in owner.values() {
            counts[app.index()] += 1;
        }
        assert_eq!(counts, [5, 5, 5, 5]);
    }

    #[test]
    fn static_spread_allocates_only_owned_executors() {
        let mut rng = SimRng::seed_from_u64(0);
        let v = view(
            4,
            1,
            vec![app_with_demand(0, 2, 2), app_with_demand(1, 2, 2)],
        );
        let mut alloc = StaticPartitionAllocator::spread(&v.idle, v.apps.len());
        let out = alloc.allocate(&v, &mut rng);
        validate_assignments(&v, &out);
        assert_eq!(out.len(), 4);
        // Alternating ownership across nodes.
        assert_eq!(out[0].app, AppId::new(0));
        assert_eq!(out[1].app, AppId::new(1));
        assert_eq!(out[2].app, AppId::new(0));
        assert_eq!(out[3].app, AppId::new(1));
        assert!(out.iter().all(|a| a.for_task.is_none()));
    }

    #[test]
    fn static_partition_is_stable_across_rounds() {
        let mut rng = SimRng::seed_from_u64(1);
        let v = view(
            6,
            1,
            vec![app_with_demand(0, 3, 3), app_with_demand(1, 3, 3)],
        );
        let mut alloc = StaticPartitionAllocator::random(&v.idle, v.apps.len(), &mut rng);
        let first = alloc.allocate(&v, &mut rng);
        validate_assignments(&v, &first);
        let second = alloc.allocate(&v, &mut rng);
        assert_eq!(first, second, "ownership must not drift between rounds");
    }

    #[test]
    fn static_parks_full_partition_regardless_of_demand() {
        let mut rng = SimRng::seed_from_u64(0);
        // App 0 wants only 1 task but owns 2 executors — static sharing
        // still parks both with it (§II: fixed subset for its lifetime).
        let v = view(
            4,
            1,
            vec![app_with_demand(0, 2, 1), app_with_demand(1, 2, 2)],
        );
        let mut alloc = StaticPartitionAllocator::spread(&v.idle, v.apps.len());
        let out = alloc.allocate(&v, &mut rng);
        validate_assignments(&v, &out);
        let to_app0 = out.iter().filter(|a| a.app == AppId::new(0)).count();
        assert_eq!(to_app0, 2);
    }

    #[test]
    fn dynamic_offer_rotates_apps() {
        let mut alloc = DynamicOfferAllocator::new();
        let mut rng = SimRng::seed_from_u64(0);
        let v = view(
            4,
            1,
            vec![app_with_demand(0, 4, 4), app_with_demand(1, 4, 4)],
        );
        let out = alloc.allocate(&v, &mut rng);
        validate_assignments(&v, &out);
        assert_eq!(out.len(), 4);
        let apps: Vec<usize> = out.iter().map(|a| a.app.index()).collect();
        assert_eq!(apps, vec![0, 1, 0, 1]);
    }

    #[test]
    fn dynamic_offer_skips_saturated_apps() {
        let mut alloc = DynamicOfferAllocator::new();
        let mut rng = SimRng::seed_from_u64(0);
        let v = view(
            4,
            1,
            vec![app_with_demand(0, 1, 4), app_with_demand(1, 4, 4)],
        );
        let out = alloc.allocate(&v, &mut rng);
        validate_assignments(&v, &out);
        let to_app0 = out.iter().filter(|a| a.app == AppId::new(0)).count();
        assert_eq!(to_app0, 1, "app 0 quota is 1");
        let to_app1 = out.iter().filter(|a| a.app == AppId::new(1)).count();
        assert_eq!(to_app1, 3);
    }

    #[test]
    fn dynamic_offer_cursor_persists() {
        let mut alloc = DynamicOfferAllocator::new();
        let mut rng = SimRng::seed_from_u64(0);
        let execs = executors(2, 1);
        let mk_view = |apps: Vec<AppState>| AllocationView {
            idle: vec![execs[0]],
            apps,
        };
        let v1 = mk_view(vec![app_with_demand(0, 4, 4), app_with_demand(1, 4, 4)]);
        let out1 = alloc.allocate(&v1, &mut rng);
        assert_eq!(out1[0].app, AppId::new(0));
        let out2 = alloc.allocate(&v1, &mut rng);
        assert_eq!(out2[0].app, AppId::new(1), "cursor advanced");
    }

    /// A cluster with no applications: every baseline builds an empty
    /// partition (or none) and grants nothing.
    #[test]
    fn no_apps_no_grants() {
        let mut rng = SimRng::seed_from_u64(0);
        let v = view(2, 1, vec![]);
        let allocators: [Box<dyn ExecutorAllocator>; 3] = [
            Box::new(StaticPartitionAllocator::spread(&v.idle, 0)),
            Box::new(StaticPartitionAllocator::random(&v.idle, 0, &mut rng)),
            Box::new(DynamicOfferAllocator::new()),
        ];
        for mut alloc in allocators {
            assert!(alloc.allocate(&v, &mut rng).is_empty(), "{}", alloc.name());
        }
    }
}
