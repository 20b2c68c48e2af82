//! Per-machine storage state.
//!
//! A DataNode in HDFS stores block replicas and reports them to the
//! NameNode. In the simulation the NameNode's view is authoritative, so
//! `DataNode` is the NameNode's per-machine bookkeeping: which blocks a
//! machine stores and how much of its capacity is used. Capacity matters to
//! the popularity-based placement extension (extra replicas of hot blocks
//! must fit somewhere) and mirrors the 384 GB SSDs of the paper's testbed.

use std::collections::BTreeSet;

use crate::block::{BlockId, NodeId};

/// Storage state of a single machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataNode {
    /// The machine this state belongs to.
    pub node: NodeId,
    /// Storage capacity in bytes.
    capacity_bytes: u64,
    /// Bytes currently used by stored replicas.
    used_bytes: u64,
    /// The replicas stored here. A `BTreeSet` keeps iteration order
    /// deterministic.
    blocks: BTreeSet<BlockId>,
    /// A decommissioned (failed) machine accepts no new replicas.
    decommissioned: bool,
}

impl DataNode {
    /// Creates an empty DataNode with the given capacity.
    pub fn new(node: NodeId, capacity_bytes: u64) -> Self {
        DataNode {
            node,
            capacity_bytes,
            used_bytes: 0,
            blocks: BTreeSet::new(),
            decommissioned: false,
        }
    }

    /// Marks the machine failed: it accepts no further replicas. The
    /// NameNode drops its replica entries separately
    /// ([`NameNode::fail_node`](crate::NameNode::fail_node)).
    pub(crate) fn decommission(&mut self) {
        self.decommissioned = true;
    }

    /// Brings a decommissioned machine back into service: it may store
    /// new replicas again. Any blocks it still holds (sole copies the
    /// NameNode refused to drop at failure time) remain valid.
    pub(crate) fn recommission(&mut self) {
        self.decommissioned = false;
    }

    /// Whether the machine has been decommissioned.
    pub fn is_decommissioned(&self) -> bool {
        self.decommissioned
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes consumed by stored replicas.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes still available.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes - self.used_bytes
    }

    /// Whether a replica of `block` is stored here.
    pub fn stores(&self, block: BlockId) -> bool {
        self.blocks.contains(&block)
    }

    /// Whether a block of `size_bytes` fits in the remaining capacity.
    /// Decommissioned machines never fit anything.
    pub fn fits(&self, size_bytes: u64) -> bool {
        !self.decommissioned && self.free_bytes() >= size_bytes
    }

    /// Number of replicas stored.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates stored blocks in id order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.iter().copied()
    }

    /// Adds a replica. Returns `false` (and changes nothing) if the replica
    /// is already present or does not fit.
    pub(crate) fn add(&mut self, block: BlockId, size_bytes: u64) -> bool {
        if self.blocks.contains(&block) || !self.fits(size_bytes) {
            return false;
        }
        self.blocks.insert(block);
        self.used_bytes += size_bytes;
        true
    }

    /// Removes a replica. Returns `false` if it was not present.
    pub(crate) fn remove(&mut self, block: BlockId, size_bytes: u64) -> bool {
        if self.blocks.remove(&block) {
            self.used_bytes -= size_bytes;
            true
        } else {
            false
        }
    }
}

/// Every machine's storage state, indexed by node id, with an O(1)
/// conservative answer to "does every machine have room for this block?".
///
/// Reads go through the slice ([`Deref`](std::ops::Deref)); every change
/// goes through this type, so the bound behind [`all_fit`](Self::all_fit)
/// can never overstate the free space.
#[derive(Debug, Clone)]
pub struct DataNodes {
    nodes: Vec<DataNode>,
    /// A lower bound on every machine's free bytes: lowered to the
    /// machine's free space by each add, left as is by a remove.
    free_floor: u64,
    /// Machines currently decommissioned.
    decommissioned: usize,
}

impl DataNodes {
    /// Whether every machine certainly fits a block of `size_bytes`.
    /// `false` means only that some machine may not: the caller then
    /// checks machine by machine.
    pub fn all_fit(&self, size_bytes: u64) -> bool {
        self.decommissioned == 0 && self.free_floor >= size_bytes
    }

    /// Adds a replica to `node` ([`DataNode::add`]).
    pub(crate) fn add(&mut self, node: NodeId, block: BlockId, size_bytes: u64) -> bool {
        let dn = &mut self.nodes[node.index()];
        let added = dn.add(block, size_bytes);
        self.free_floor = self.free_floor.min(dn.free_bytes());
        added
    }

    /// Removes a replica from `node` ([`DataNode::remove`]).
    pub(crate) fn remove(&mut self, node: NodeId, block: BlockId, size_bytes: u64) -> bool {
        self.nodes[node.index()].remove(block, size_bytes)
    }

    /// Decommissions `node` ([`DataNode::decommission`]).
    pub(crate) fn decommission(&mut self, node: NodeId) {
        let dn = &mut self.nodes[node.index()];
        self.decommissioned += usize::from(!dn.is_decommissioned());
        dn.decommission();
    }

    /// Recommissions `node` ([`DataNode::recommission`]).
    pub(crate) fn recommission(&mut self, node: NodeId) {
        let dn = &mut self.nodes[node.index()];
        self.decommissioned -= usize::from(dn.is_decommissioned());
        dn.recommission();
    }
}

impl From<Vec<DataNode>> for DataNodes {
    /// Takes machines indexed by node id (`nodes[i].node` is node `i`).
    fn from(nodes: Vec<DataNode>) -> Self {
        DataNodes {
            free_floor: nodes
                .iter()
                .map(DataNode::free_bytes)
                .min()
                .unwrap_or(u64::MAX),
            decommissioned: nodes.iter().filter(|dn| dn.is_decommissioned()).count(),
            nodes,
        }
    }
}

impl std::ops::Deref for DataNodes {
    type Target = [DataNode];

    fn deref(&self) -> &[DataNode] {
        &self.nodes
    }
}

/// Equality is the machines' equality: the free-space bound depends on
/// the order of past adds and removes, not on the state they left.
impl PartialEq for DataNodes {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fit_is_a_conservative_bound() {
        let mut dns = DataNodes::from(
            (0..3)
                .map(|i| DataNode::new(NodeId::new(i), 1000))
                .collect::<Vec<_>>(),
        );
        assert!(dns.all_fit(1000));
        assert!(dns.add(NodeId::new(1), BlockId::new(0), 600));
        assert!(dns.all_fit(400) && !dns.all_fit(401));
        assert!(dns.remove(NodeId::new(1), BlockId::new(0), 600));
        assert!(!dns.all_fit(401), "a remove leaves the bound low");
        assert!(dns.iter().all(|dn| dn.fits(1000)));
        dns.decommission(NodeId::new(2));
        dns.decommission(NodeId::new(2));
        assert!(!dns.all_fit(1));
        dns.recommission(NodeId::new(2));
        assert!(dns.all_fit(400));
        assert_eq!(DataNodes::from(dns.to_vec()), dns);
    }

    fn node() -> DataNode {
        DataNode::new(NodeId::new(0), 1000)
    }

    #[test]
    fn add_and_remove_tracks_usage() {
        let mut dn = node();
        assert!(dn.add(BlockId::new(1), 300));
        assert_eq!(dn.used_bytes(), 300);
        assert_eq!(dn.free_bytes(), 700);
        assert!(dn.stores(BlockId::new(1)));
        assert!(dn.remove(BlockId::new(1), 300));
        assert_eq!(dn.used_bytes(), 0);
        assert!(!dn.stores(BlockId::new(1)));
    }

    #[test]
    fn duplicate_add_rejected() {
        let mut dn = node();
        assert!(dn.add(BlockId::new(1), 100));
        assert!(!dn.add(BlockId::new(1), 100));
        assert_eq!(dn.used_bytes(), 100);
        assert_eq!(dn.block_count(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut dn = node();
        assert!(dn.add(BlockId::new(1), 900));
        assert!(!dn.add(BlockId::new(2), 200));
        assert!(dn.add(BlockId::new(3), 100));
        assert_eq!(dn.free_bytes(), 0);
        assert!(!dn.fits(1));
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut dn = node();
        assert!(!dn.remove(BlockId::new(9), 10));
        assert_eq!(dn.used_bytes(), 0);
    }

    #[test]
    fn blocks_iterates_in_order() {
        let mut dn = node();
        dn.add(BlockId::new(5), 1);
        dn.add(BlockId::new(2), 1);
        dn.add(BlockId::new(9), 1);
        let ids: Vec<BlockId> = dn.blocks().collect();
        assert_eq!(ids, vec![BlockId::new(2), BlockId::new(5), BlockId::new(9)]);
    }
}
