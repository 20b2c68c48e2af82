//! Cluster construction: declarative specs and the instantiated inventory.

use custody_dfs::{NameNode, NodeId};
use custody_simcore::define_id;

use crate::executor::{Executor, ExecutorId};
use crate::network::NetworkModel;
use crate::node::WorkerNode;

define_id!(
    /// A rack of worker nodes. Nodes are assigned to racks in contiguous
    /// blocks; with one rack (the default) the cluster is flat, matching
    /// the paper's evaluation.
    pub struct RackId, "rack"
);

const GB: u64 = 1_000_000_000;

/// Declarative description of a cluster, mirroring §VI-A1 of the paper:
/// "a 100-node cluster with each node having 8 cores, 16 GB of memory and
/// 384 GB SSD storage. ... Two executors are launched on each node to run
/// tasks. ... the block size is set to 128 MB and the replication level is
/// set to three."
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub num_nodes: usize,
    /// Executors launched per node (paper: 2).
    pub executors_per_node: usize,
    /// Cores per node (paper: 8).
    pub cores_per_node: u32,
    /// Memory per node in bytes (paper: 16 GB).
    pub memory_per_node: u64,
    /// Storage per node in bytes (paper: 384 GB SSD).
    pub storage_per_node: u64,
    /// Block replication factor (paper: 3).
    pub replication: usize,
    /// Number of racks; nodes are split into contiguous, near-equal rack
    /// blocks. `1` = flat cluster (the paper's setting).
    pub racks: usize,
    /// I/O model.
    pub network: NetworkModel,
}

impl ClusterSpec {
    /// A cluster of `num_nodes` with the paper's per-node configuration.
    pub fn paper(num_nodes: usize) -> Self {
        ClusterSpec {
            num_nodes,
            executors_per_node: 2,
            cores_per_node: 8,
            memory_per_node: 16 * GB,
            storage_per_node: 384 * GB,
            replication: 3,
            racks: 1,
            network: NetworkModel::linode(),
        }
    }

    /// A tiny cluster for worked examples (Figs. 1, 3, 4): `n` nodes,
    /// one single-slot executor each, replication 1 so each block lives on
    /// exactly one node.
    pub fn toy(num_nodes: usize) -> Self {
        ClusterSpec {
            num_nodes,
            executors_per_node: 1,
            cores_per_node: 1,
            memory_per_node: GB,
            storage_per_node: 384 * GB,
            replication: 1,
            racks: 1,
            network: NetworkModel::linode(),
        }
    }

    /// Overrides the replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Overrides the network model.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Overrides the executors-per-node count.
    pub fn with_executors_per_node(mut self, k: usize) -> Self {
        self.executors_per_node = k;
        self
    }

    /// Splits the cluster into `racks` racks.
    pub fn with_racks(mut self, racks: usize) -> Self {
        assert!(racks > 0, "need at least one rack");
        self.racks = racks;
        self
    }

    /// The rack hosting `node` under this spec: contiguous blocks of
    /// `ceil(nodes/racks)` nodes.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        let per_rack = self.num_nodes.div_ceil(self.racks);
        RackId::new(node.index() / per_rack)
    }

    /// Rack assignment for every node, indexed by node id.
    pub fn rack_assignment(&self) -> Vec<RackId> {
        (0..self.num_nodes)
            .map(|n| self.rack_of(NodeId::new(n)))
            .collect()
    }

    /// Total executors this spec will instantiate.
    pub fn total_executors(&self) -> usize {
        self.num_nodes * self.executors_per_node
    }

    /// Builds the matching NameNode (one DataNode per worker).
    pub fn build_namenode(&self) -> NameNode {
        NameNode::new(self.num_nodes, self.storage_per_node, self.replication)
    }

    /// Instantiates the node/executor inventory.
    pub fn build_cluster(&self) -> ClusterState {
        ClusterState::new(self)
    }
}

/// The instantiated cluster: nodes and the executors on them.
///
/// Executor ids are dense and ordered node-major: node 0 hosts executors
/// `0..k`, node 1 hosts `k..2k`, and so on — making allocations in worked
/// examples easy to read.
#[derive(Debug, Clone)]
pub struct ClusterState {
    nodes: Vec<WorkerNode>,
    executors: Vec<Executor>,
    network: NetworkModel,
    racks: Vec<RackId>,
}

impl ClusterState {
    /// Instantiates `spec`.
    pub fn new(spec: &ClusterSpec) -> Self {
        assert!(spec.num_nodes > 0, "cluster must have nodes");
        assert!(spec.executors_per_node > 0, "nodes must host executors");
        let mut nodes = Vec::with_capacity(spec.num_nodes);
        let mut executors = Vec::with_capacity(spec.total_executors());
        for n in 0..spec.num_nodes {
            let node_id = NodeId::new(n);
            let mut node = WorkerNode::new(node_id, spec.cores_per_node, spec.memory_per_node);
            for _ in 0..spec.executors_per_node {
                let exec_id = ExecutorId::new(executors.len());
                executors.push(Executor::new(exec_id, node_id));
                node.executors.push(exec_id);
            }
            nodes.push(node);
        }
        ClusterState {
            nodes,
            executors,
            network: spec.network.clone(),
            racks: spec.rack_assignment(),
        }
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of executors.
    pub fn num_executors(&self) -> usize {
        self.executors.len()
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &WorkerNode {
        &self.nodes[id.index()]
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[WorkerNode] {
        &self.nodes
    }

    /// Executor metadata.
    pub fn executor(&self, id: ExecutorId) -> &Executor {
        &self.executors[id.index()]
    }

    /// All executors in id order.
    pub fn executors(&self) -> &[Executor] {
        &self.executors
    }

    /// The node hosting `executor`.
    pub fn node_of(&self, executor: ExecutorId) -> NodeId {
        self.executors[executor.index()].node
    }

    /// The executors hosted on `node`, in id order.
    pub fn executors_on(&self, node: NodeId) -> &[ExecutorId] {
        &self.nodes[node.index()].executors
    }

    /// The I/O model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The rack hosting `node`.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.racks[node.index()]
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.racks[a.index()] == self.racks[b.index()]
    }

    /// Number of racks.
    pub fn num_racks(&self) -> usize {
        self.racks
            .iter()
            .map(|r| r.index())
            .max()
            .map_or(1, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_matches_evaluation_setup() {
        let s = ClusterSpec::paper(100);
        assert_eq!(s.num_nodes, 100);
        assert_eq!(s.executors_per_node, 2);
        assert_eq!(s.cores_per_node, 8);
        assert_eq!(s.replication, 3);
        assert_eq!(s.total_executors(), 200);
        assert_eq!(ClusterSpec::paper(25).num_nodes, 25);
    }

    #[test]
    fn build_cluster_node_major_ids() {
        let c = ClusterSpec::paper(3).build_cluster();
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.num_executors(), 6);
        assert_eq!(c.node_of(ExecutorId::new(0)), NodeId::new(0));
        assert_eq!(c.node_of(ExecutorId::new(1)), NodeId::new(0));
        assert_eq!(c.node_of(ExecutorId::new(2)), NodeId::new(1));
        assert_eq!(c.node_of(ExecutorId::new(5)), NodeId::new(2));
        assert_eq!(
            c.executors_on(NodeId::new(1)),
            &[ExecutorId::new(2), ExecutorId::new(3)]
        );
    }

    #[test]
    fn toy_cluster_one_executor_per_node() {
        let c = ClusterSpec::toy(4).build_cluster();
        assert_eq!(c.num_executors(), 4);
        for n in 0..4 {
            assert_eq!(c.executors_on(NodeId::new(n)).len(), 1);
        }
    }

    #[test]
    fn namenode_matches_spec() {
        let s = ClusterSpec::paper(10);
        let nn = s.build_namenode();
        assert_eq!(nn.num_nodes(), 10);
        assert_eq!(nn.replication(), 3);
        assert_eq!(nn.datanode(NodeId::new(0)).capacity_bytes(), 384 * GB);
    }

    #[test]
    fn builders_override() {
        let s = ClusterSpec::paper(5)
            .with_replication(2)
            .with_executors_per_node(3)
            .with_network(NetworkModel::production());
        assert_eq!(s.replication, 2);
        assert_eq!(s.total_executors(), 15);
        assert!((s.network.remote_penalty() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cluster must have nodes")]
    fn empty_cluster_rejected() {
        let _ = ClusterSpec::toy(0).build_cluster();
    }

    #[test]
    fn rack_assignment_contiguous_blocks() {
        let s = ClusterSpec::paper(10).with_racks(3); // ceil(10/3) = 4
        assert_eq!(s.rack_of(NodeId::new(0)), RackId::new(0));
        assert_eq!(s.rack_of(NodeId::new(3)), RackId::new(0));
        assert_eq!(s.rack_of(NodeId::new(4)), RackId::new(1));
        assert_eq!(s.rack_of(NodeId::new(9)), RackId::new(2));
        let c = s.build_cluster();
        assert_eq!(c.num_racks(), 3);
        assert!(c.same_rack(NodeId::new(0), NodeId::new(3)));
        assert!(!c.same_rack(NodeId::new(3), NodeId::new(4)));
    }

    #[test]
    fn default_is_one_flat_rack() {
        let c = ClusterSpec::paper(5).build_cluster();
        assert_eq!(c.num_racks(), 1);
        assert!(c.same_rack(NodeId::new(0), NodeId::new(4)));
    }
}
