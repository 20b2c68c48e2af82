//! Randomized invariants across the workspace.
//!
//! These were originally proptest properties; the offline build carries no
//! external dependencies, so they now run as hand-rolled randomized loops
//! driven by the workspace's own deterministic [`SimRng`]. Each property
//! draws a few hundred random cases from a fixed seed, so failures are
//! exactly reproducible.
//!
//! * Every allocator obeys the allocation contract on arbitrary views.
//! * The NameNode's replica metadata stays consistent under arbitrary
//!   add/remove/re-replicate sequences.
//! * Statistics estimators match naive reference computations.
//! * The event queue is a stable priority queue.

use custody::cluster::ExecutorId;
use custody::core::{
    allocator::validate_assignments, AllocationView, AllocatorKind, AppState, ExecutorInfo,
    JobDemand, TaskDemand,
};
use custody::dfs::{NameNode, NodeId, RandomPlacement};
use custody::simcore::stats::{Summary, Welford};
use custody::simcore::{EventQueue, SimRng, SimTime};
use custody::workload::{AppId, JobId};

// ---------------------------------------------------------------------
// Allocator contract
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ViewSpec {
    nodes: usize,
    executors_per_node: usize,
    idle_mask: Vec<bool>,
    apps: Vec<AppSpec>,
}

#[derive(Debug, Clone)]
struct AppSpec {
    quota: usize,
    held: usize,
    jobs: Vec<Vec<Vec<usize>>>, // job -> task -> preferred node indices
}

fn random_view_spec(rng: &mut SimRng) -> ViewSpec {
    let nodes = 1 + rng.below(7);
    let executors_per_node = 1 + rng.below(2);
    let total = nodes * executors_per_node;
    let idle_mask: Vec<bool> = (0..total).map(|_| rng.chance(0.5)).collect();
    let num_apps = 1 + rng.below(3);
    let apps = (0..num_apps)
        .map(|_| {
            let quota = 1 + rng.below(5);
            let held = rng.below(3);
            let num_jobs = rng.below(3);
            let jobs = (0..num_jobs)
                .map(|_| {
                    let num_tasks = 1 + rng.below(3);
                    (0..num_tasks)
                        .map(|_| {
                            let prefs = 1 + rng.below(3.min(nodes));
                            (0..prefs).map(|_| rng.below(nodes)).collect()
                        })
                        .collect()
                })
                .collect();
            AppSpec { quota, held, jobs }
        })
        .collect();
    ViewSpec {
        nodes,
        executors_per_node,
        idle_mask,
        apps,
    }
}

/// The cluster's executor inventory and the view of its idle subset.
fn build_view(spec: &ViewSpec) -> (Vec<ExecutorInfo>, AllocationView) {
    let executors: Vec<ExecutorInfo> = (0..spec.nodes * spec.executors_per_node)
        .map(|i| ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(i / spec.executors_per_node),
        })
        .collect();
    let idle: Vec<ExecutorInfo> = executors
        .iter()
        .zip(&spec.idle_mask)
        .filter(|(_, &is_idle)| is_idle)
        .map(|(e, _)| *e)
        .collect();
    let apps: Vec<AppState> = spec
        .apps
        .iter()
        .enumerate()
        .map(|(a, s)| {
            let pending_jobs: Vec<JobDemand> = s
                .jobs
                .iter()
                .enumerate()
                .map(|(j, tasks)| JobDemand {
                    job: JobId::new(a * 100 + j),
                    unsatisfied_inputs: tasks
                        .iter()
                        .enumerate()
                        .map(|(t, nodes)| {
                            let mut preferred: Vec<NodeId> =
                                nodes.iter().map(|&n| NodeId::new(n)).collect();
                            preferred.sort_unstable();
                            preferred.dedup();
                            TaskDemand {
                                task_index: t,
                                preferred_nodes: preferred.into(),
                            }
                        })
                        .collect(),
                    pending_tasks: tasks.len(),
                    total_inputs: tasks.len(),
                    satisfied_inputs: 0,
                })
                .collect();
            let total_tasks = pending_jobs.iter().map(|j| j.total_inputs).sum();
            AppState {
                app: AppId::new(a),
                quota: s.quota,
                held: s.held.min(s.quota),
                local_jobs: 0,
                total_jobs: pending_jobs.len(),
                local_tasks: 0,
                total_tasks,
                pending_jobs,
            }
        })
        .collect();
    (executors, AllocationView { idle, apps })
}

/// All six allocators obey the contract on arbitrary views, and
/// Custody's for-task grants are genuinely local.
#[test]
fn allocators_respect_contract() {
    let mut rng = SimRng::for_stream(2024, "contract");
    for case in 0..200 {
        let spec = random_view_spec(&mut rng);
        let (executors, view) = build_view(&spec);
        let seed = rng.draw_u64();
        for kind in [
            AllocatorKind::Custody,
            AllocatorKind::StaticSpread,
            AllocatorKind::StaticRandom,
            AllocatorKind::DynamicOffer,
            AllocatorKind::CustodyFairIntra,
            AllocatorKind::CustodyNaiveInter,
        ] {
            let mut alloc_rng = SimRng::seed_from_u64(seed);
            let mut alloc = kind.build(&executors, view.apps.len(), &mut alloc_rng);
            let out = alloc.allocate(&view, &mut alloc_rng);
            validate_assignments(&view, &out);
            // for_task grants must point at a pending task of the app and
            // sit on one of its preferred nodes.
            for a in &out {
                if let Some((job, task_index)) = a.for_task {
                    let node = executors[a.executor.index()].node;
                    let app = &view.apps[a.app.index()];
                    let demand = app
                        .pending_jobs
                        .iter()
                        .find(|j| j.job == job)
                        .expect("for_task references a pending job");
                    let task = demand
                        .unsatisfied_inputs
                        .iter()
                        .find(|t| t.task_index == task_index)
                        .expect("for_task references a pending task");
                    assert!(
                        task.preferred_nodes.contains(&node),
                        "case {case}, {kind}: non-local for_task grant"
                    );
                }
            }
        }
    }
}

/// Custody grants every local opportunity it can afford: if after the
/// round some app still has quota headroom and an unsatisfied task
/// whose preferred node hosts an un-granted idle executor, something
/// was left on the table. (Checked for the single-app case, where no
/// inter-app trade-offs can excuse it.)
#[test]
fn custody_leaves_no_local_grant_behind_single_app() {
    let mut rng = SimRng::for_stream(2024, "no-local-left");
    let mut checked = 0;
    while checked < 150 {
        let mut spec = random_view_spec(&mut rng);
        spec.apps.truncate(1);
        checked += 1;
        let (executors, view) = build_view(&spec);
        let mut alloc_rng = SimRng::seed_from_u64(rng.draw_u64());
        let mut alloc = AllocatorKind::Custody.build(&executors, view.apps.len(), &mut alloc_rng);
        let out = alloc.allocate(&view, &mut alloc_rng);
        let granted: std::collections::HashSet<ExecutorId> =
            out.iter().map(|a| a.executor).collect();
        let app = &view.apps[0];
        let grants_to_app = out.len();
        if app.quota.saturating_sub(app.held) > grants_to_app {
            // Tasks satisfied this round (by index pairs).
            let satisfied: std::collections::HashSet<(JobId, usize)> =
                out.iter().filter_map(|a| a.for_task).collect();
            for job in &app.pending_jobs {
                for task in &job.unsatisfied_inputs {
                    if satisfied.contains(&(job.job, task.task_index)) {
                        continue;
                    }
                    for &node in task.preferred_nodes.iter() {
                        let missed = view
                            .idle
                            .iter()
                            .any(|e| e.node == node && !granted.contains(&e.id));
                        assert!(
                            !missed,
                            "headroom left but task ({}, {}) could be local on {node}",
                            job.job, task.task_index
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// NameNode consistency
// ---------------------------------------------------------------------

#[test]
fn namenode_invariants_hold_under_mutation() {
    let mut rng = SimRng::for_stream(2024, "namenode-ops");
    for _ in 0..100 {
        let mut case_rng = SimRng::seed_from_u64(rng.draw_u64());
        let mut nn = NameNode::new(10, 1 << 33, 3);
        let ds = nn.create_dataset(
            "d",
            8 * custody::dfs::DEFAULT_BLOCK_SIZE,
            custody::dfs::DEFAULT_BLOCK_SIZE,
            &mut RandomPlacement,
            &mut case_rng,
        );
        let blocks = nn.dataset(ds).blocks.clone();
        let mut tracker = custody::dfs::AccessTracker::new();
        let num_ops = rng.below(40);
        for _ in 0..num_ops {
            match rng.below(4) {
                0 => {
                    let block = blocks[rng.below(blocks.len())];
                    let _ = nn.add_replica(block, NodeId::new(rng.below(10)));
                }
                1 => {
                    let block = blocks[rng.below(blocks.len())];
                    let _ = nn.remove_replica(block, NodeId::new(rng.below(10)));
                }
                2 => {
                    let top_k = 1 + rng.below(3);
                    let extra = 1 + rng.below(2);
                    let _ = nn.replicate_hot_blocks(&tracker, top_k, extra, &mut case_rng);
                }
                _ => {
                    let block = blocks[rng.below(blocks.len())];
                    tracker.record_many(block, rng.range_inclusive(1, 49));
                }
            }
            nn.check_invariants();
        }
        // Every block still has at least one replica.
        for &b in &blocks {
            assert!(!nn.locations(b).is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Placement policies
// ---------------------------------------------------------------------

/// Every placement policy returns distinct, capacity-respecting nodes
/// and never exceeds the requested replication.
#[test]
fn placement_policies_return_valid_sets() {
    use custody::dfs::{DataNode, DataNodes};
    use custody::dfs::{
        PlacementPolicy, PopularityPlacement, RackAwarePlacement, RandomPlacement,
        RoundRobinPlacement,
    };
    let mut rng = SimRng::for_stream(2024, "placement");
    for _ in 0..120 {
        let nodes = 1 + rng.below(19);
        let racks = 1 + rng.below(4);
        let replication = 1 + rng.below(4);
        let blocks = 1 + rng.below(14);
        let mut case_rng = SimRng::seed_from_u64(rng.draw_u64());
        let rack_of: Vec<usize> = (0..nodes).map(|n| n * racks / nodes).collect();
        let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(RandomPlacement),
            Box::<RoundRobinPlacement>::default(),
            Box::new(PopularityPlacement),
            Box::new(RackAwarePlacement::new(rack_of)),
        ];
        for policy in &mut policies {
            let datanodes = DataNodes::from(
                (0..nodes)
                    .map(|i| DataNode::new(NodeId::new(i), 1000))
                    .collect::<Vec<_>>(),
            );
            for _ in 0..blocks {
                let picks = policy.place(&datanodes, replication, 100, &mut case_rng);
                assert!(picks.len() <= replication, "{}", policy.name());
                let mut uniq = picks.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), picks.len(), "duplicates from {}", policy.name());
                assert!(picks.iter().all(|n| n.index() < nodes));
                // All nodes fit, so replication is met up to cluster size.
                assert_eq!(picks.len(), replication.min(nodes), "{}", policy.name());
            }
        }
    }
}

/// The NameNode + any placement policy yields consistent metadata for
/// arbitrary dataset sizes.
#[test]
fn namenode_create_dataset_consistent() {
    let mut rng = SimRng::for_stream(2024, "namenode-create");
    for _ in 0..80 {
        let total_mb = rng.range_inclusive(1, 1999);
        let nodes = 1 + rng.below(11);
        let replication = 1 + rng.below(3);
        let mut case_rng = SimRng::seed_from_u64(rng.draw_u64());
        let mut nn = NameNode::new(nodes, 1 << 40, replication);
        let ds = nn.create_dataset(
            "d",
            total_mb * 1_000_000,
            custody::dfs::DEFAULT_BLOCK_SIZE,
            &mut RandomPlacement,
            &mut case_rng,
        );
        nn.check_invariants();
        let dataset = nn.dataset(ds);
        let expected_blocks = (total_mb * 1_000_000).div_ceil(custody::dfs::DEFAULT_BLOCK_SIZE);
        assert_eq!(dataset.num_blocks() as u64, expected_blocks);
        for &b in &dataset.blocks {
            assert_eq!(nn.locations(b).len(), replication.min(nodes));
        }
        let stored: u64 = (0..nodes)
            .map(|n| nn.datanode(NodeId::new(n)).used_bytes())
            .sum();
        assert_eq!(stored, total_mb * 1_000_000 * replication.min(nodes) as u64);
    }
}

// ---------------------------------------------------------------------
// Statistics estimators
// ---------------------------------------------------------------------

#[test]
fn welford_matches_naive() {
    let mut rng = SimRng::for_stream(2024, "welford");
    for _ in 0..100 {
        let len = 1 + rng.below(199);
        let xs: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((w.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        assert!((w.variance() - var).abs() < 1e-5 * var.abs().max(1.0));
    }
}

#[test]
fn summary_percentiles_are_order_statistics() {
    let mut rng = SimRng::for_stream(2024, "summary");
    for _ in 0..100 {
        let len = 1 + rng.below(99);
        let mut xs: Vec<f64> = (0..len).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let q = rng.unit();
        let mut s = Summary::new();
        s.extend(xs.iter().copied());
        let p = s.percentile(q).unwrap();
        xs.sort_by(f64::total_cmp);
        // Nearest-rank percentile must be an element of the sample.
        assert!(xs.contains(&p));
        assert!(p >= xs[0] && p <= xs[xs.len() - 1]);
        assert_eq!(s.min().unwrap(), xs[0]);
        assert_eq!(s.max().unwrap(), xs[xs.len() - 1]);
    }
}

// ---------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------

#[test]
fn event_queue_is_stable_priority_queue() {
    let mut rng = SimRng::for_stream(2024, "event-queue");
    for _ in 0..100 {
        let len = rng.below(200);
        let times: Vec<u64> = (0..len).map(|_| rng.range_inclusive(0, 999)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.time, e.event));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated among equal times");
            }
        }
    }
}
