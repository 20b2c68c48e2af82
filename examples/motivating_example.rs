//! The paper's Fig. 1 motivating example, reproduced exactly.
//!
//! Four worker nodes, each storing one data block and hosting one
//! single-slot executor. Two applications each submit one job of two
//! input tasks: application A wants blocks D1 and D2 (nodes 0, 1),
//! application A2 wants D3 and D4 (nodes 2, 3).
//!
//! A data-unaware manager dealing executors round-robin gives each
//! application one useful executor — 50 % locality. Custody reads the
//! demands and achieves 100 % for both.
//!
//! ```text
//! cargo run --example motivating_example
//! ```

use custody::cluster::ExecutorId;
use custody::core::{AllocationView, AllocatorKind, AppState, ExecutorInfo, JobDemand, TaskDemand};
use custody::dfs::NodeId;
use custody::simcore::SimRng;
use custody::workload::{AppId, JobId};

/// Builds the Fig. 1 allocation view: executor i on node i; app 0's tasks
/// want nodes {0, 1}; app 1's want nodes {2, 3}.
fn fig1_view() -> AllocationView {
    let executors: Vec<ExecutorInfo> = (0..4)
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
                    preferred_nodes: vec![NodeId::new(n)].into(),
                })
                .collect(),
            pending_tasks: 2,
            total_inputs: 2,
            satisfied_inputs: 0,
        }],
    };
    AllocationView {
        idle: executors,
        apps: vec![app(0, [0, 1]), app(1, [2, 3])],
    }
}

fn show(kind: AllocatorKind, view: &AllocationView) {
    // Every executor starts idle, so the idle list is the inventory.
    let mut rng = SimRng::seed_from_u64(0);
    let mut allocator = kind.build(&view.idle, view.apps.len(), &mut rng);
    let assignments = allocator.allocate(view, &mut rng);
    println!("{}:", kind.name());
    for a in &assignments {
        let node = view
            .idle
            .iter()
            .find(|e| e.id == a.executor)
            .map(|e| e.node)
            .expect("executor exists");
        // An assignment is useful if the receiving app has a task wanting
        // this node.
        let useful = view.apps[a.app.index()]
            .pending_jobs
            .iter()
            .flat_map(|j| &j.unsatisfied_inputs)
            .any(|t| t.preferred_nodes.contains(&node));
        println!(
            "  E{} (on {node}) -> {}   {}",
            a.executor.index() + 1,
            a.app,
            if useful { "local ✓" } else { "no data ✗" }
        );
    }
    let local = assignments
        .iter()
        .filter(|a| {
            let node = view.idle[a.executor.index()].node;
            view.apps[a.app.index()]
                .pending_jobs
                .iter()
                .flat_map(|j| &j.unsatisfied_inputs)
                .any(|t| t.preferred_nodes.contains(&node))
        })
        .count();
    println!("  => {local}/4 tasks can be data-local\n");
}

fn main() {
    println!("Fig. 1 — four nodes, one block + one executor each;");
    println!("app-0 reads blocks on nodes 0,1; app-1 reads blocks on nodes 2,3\n");
    let view = fig1_view();
    // Data-unaware: Spark-standalone-style spread (deals executors across
    // nodes without looking at data).
    show(AllocatorKind::StaticSpread, &view);
    // Data-aware: Custody.
    show(AllocatorKind::Custody, &view);
}
