//! The NameNode: authoritative metadata for the whole file system.
//!
//! "In the underlying distributed file system (i.e., HDFS), the unique
//! NameNode manages the directory tree of all files in the system, and
//! tracks where the data is stored across the whole cluster. ... By
//! inquiring the NameNode, Custody acquires the list of relevant DataNodes
//! that store the input data blocks of jobs in an application" (§IV-C).
//!
//! [`NameNode`] owns the dataset/block registry, the per-block replica
//! location lists, and the per-machine [`DataNode`] storage states.

use custody_simcore::SimRng;

use crate::block::{split_into_blocks, Block, BlockId, Dataset, DatasetId, NodeId};
use crate::datanode::{DataNode, DataNodes};
use crate::placement::PlacementPolicy;
use crate::popularity::AccessTracker;

/// Central file-system metadata service.
///
/// ```
/// use custody_dfs::{NameNode, RandomPlacement, DEFAULT_BLOCK_SIZE};
/// use custody_simcore::SimRng;
///
/// let mut nn = NameNode::new(10, 384_000_000_000, 3);
/// let mut rng = SimRng::seed_from_u64(7);
/// let ds = nn.create_dataset("wiki", 1_000_000_000, DEFAULT_BLOCK_SIZE,
///                            &mut RandomPlacement, &mut rng);
/// // 1 GB at 128 MB blocks = 8 blocks, 3 replicas each.
/// assert_eq!(nn.dataset(ds).num_blocks(), 8);
/// let block = nn.dataset(ds).blocks[0];
/// assert_eq!(nn.locations(block).len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NameNode {
    datanodes: DataNodes,
    blocks: Vec<Block>,
    datasets: Vec<Dataset>,
    /// Per-block replica locations, kept sorted by node id.
    replicas: Vec<Vec<NodeId>>,
    /// Per-block *silently corrupted* replicas, sorted by node id and
    /// always a subset of `replicas`. This is ground truth, not
    /// knowledge: the NameNode keeps routing reads at a marked replica
    /// until a verified read or a scrub discovers the damage and calls
    /// [`drop_corrupt_replica`](Self::drop_corrupt_replica). A replica
    /// removed for any reason loses its mark with it.
    corrupt: Vec<Vec<NodeId>>,
    replication: usize,
    /// Per-node shadow replica sets recorded by
    /// [`suspect_node`](Self::suspect_node): the blocks whose replica was
    /// dropped from that node on suspicion. If the node turns out alive
    /// with its disk intact, [`reinstate_node`](Self::reinstate_node)
    /// re-registers the still-needed ones. Empty for unsuspected nodes.
    shadow: Vec<Vec<BlockId>>,
    /// Blocks whose replica list changed since the journal was last
    /// drained. Every replica-map mutation funnels through
    /// [`add_replica`](Self::add_replica) /
    /// [`remove_replica`](Self::remove_replica), so this is a complete
    /// record — schedulers use it to re-resolve preferred locations for
    /// exactly the affected blocks instead of rescanning every job.
    changed: Vec<BlockId>,
}

impl NameNode {
    /// Creates a NameNode managing `num_nodes` machines of
    /// `capacity_bytes` each, targeting `replication` replicas per block.
    pub fn new(num_nodes: usize, capacity_bytes: u64, replication: usize) -> Self {
        assert!(num_nodes > 0, "cluster must have nodes");
        assert!(replication > 0, "replication must be positive");
        NameNode {
            datanodes: DataNodes::from(
                (0..num_nodes)
                    .map(|i| DataNode::new(NodeId::new(i), capacity_bytes))
                    .collect::<Vec<_>>(),
            ),
            blocks: Vec::new(),
            datasets: Vec::new(),
            replicas: Vec::new(),
            corrupt: Vec::new(),
            replication,
            shadow: vec![Vec::new(); num_nodes],
            changed: Vec::new(),
        }
    }

    /// Number of machines.
    pub fn num_nodes(&self) -> usize {
        self.datanodes.len()
    }

    /// Target replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Total number of registered blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Registers a dataset of `total_bytes`, splitting it into blocks of
    /// `block_size` and placing each block's replicas via `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no space for even one replica of some
    /// block — the experiments size storage so this cannot happen, and
    /// silently under-replicating would corrupt locality measurements.
    pub fn create_dataset(
        &mut self,
        name: impl Into<String>,
        total_bytes: u64,
        block_size: u64,
        policy: &mut dyn PlacementPolicy,
        rng: &mut SimRng,
    ) -> DatasetId {
        let dataset_id = DatasetId::new(self.datasets.len());
        let sizes = split_into_blocks(total_bytes, block_size);
        let mut block_ids = Vec::with_capacity(sizes.len());
        for (index, &size_bytes) in sizes.iter().enumerate() {
            let block_id = BlockId::new(self.blocks.len());
            let targets = policy.place(&self.datanodes, self.replication, size_bytes, rng);
            assert!(
                !targets.is_empty(),
                "no node can store block {index} of dataset {name:?}",
                name = dataset_id
            );
            self.blocks.push(Block {
                id: block_id,
                dataset: dataset_id,
                index: index as u32,
                size_bytes,
            });
            let mut locs = Vec::with_capacity(targets.len());
            for node in targets {
                let added = self.datanodes.add(node, block_id, size_bytes);
                assert!(added, "placement returned unusable node {node}");
                locs.push(node);
            }
            locs.sort_unstable();
            self.replicas.push(locs);
            self.corrupt.push(Vec::new());
            block_ids.push(block_id);
        }
        self.datasets.push(Dataset {
            id: dataset_id,
            name: name.into(),
            total_bytes,
            block_size,
            blocks: block_ids,
        });
        dataset_id
    }

    /// Looks up a dataset.
    pub fn dataset(&self, id: DatasetId) -> &Dataset {
        &self.datasets[id.index()]
    }

    /// Looks up a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// The machines storing replicas of `block`, sorted by node id.
    ///
    /// This is *the* query Custody issues when a job is submitted: the
    /// "desired locations" of each input task.
    pub fn locations(&self, block: BlockId) -> &[NodeId] {
        &self.replicas[block.index()]
    }

    /// Whether `node` stores a replica of `block` (i.e. a task reading
    /// `block` would be data-local on `node`).
    pub fn is_local(&self, node: NodeId, block: BlockId) -> bool {
        self.replicas[block.index()].binary_search(&node).is_ok()
    }

    /// Per-machine storage state.
    pub fn datanode(&self, node: NodeId) -> &DataNode {
        &self.datanodes[node.index()]
    }

    /// All datanodes, indexed by node id.
    pub fn datanodes(&self) -> &[DataNode] {
        &self.datanodes
    }

    /// Adds a replica of `block` on `node`. Returns `false` if the replica
    /// already exists or the node lacks space.
    pub fn add_replica(&mut self, block: BlockId, node: NodeId) -> bool {
        let size = self.blocks[block.index()].size_bytes;
        if !self.datanodes.add(node, block, size) {
            return false;
        }
        let locs = &mut self.replicas[block.index()];
        match locs.binary_search(&node) {
            Ok(_) => unreachable!("datanode accepted a duplicate replica"), // lint: allow(panic) — replica-set membership was checked just above
            Err(pos) => locs.insert(pos, node),
        }
        self.changed.push(block);
        true
    }

    /// Removes the replica of `block` on `node`. Returns `false` if absent.
    /// Refuses (returns `false`) to remove the last replica — the file
    /// system never destroys data.
    pub fn remove_replica(&mut self, block: BlockId, node: NodeId) -> bool {
        let locs = &mut self.replicas[block.index()];
        if locs.len() <= 1 {
            return false;
        }
        let Ok(pos) = locs.binary_search(&node) else {
            return false;
        };
        locs.remove(pos);
        // A replica takes its corruption mark with it: whatever bytes
        // rotted are gone along with the copy.
        let marks = &mut self.corrupt[block.index()];
        if let Ok(mpos) = marks.binary_search(&node) {
            marks.remove(mpos);
        }
        let size = self.blocks[block.index()].size_bytes;
        let removed = self.datanodes.remove(node, block, size);
        debug_assert!(removed);
        self.changed.push(block);
        true
    }

    /// Marks the replica of `block` on `node` as silently corrupted
    /// (latent bit-rot). The mark is *ground truth*, invisible to
    /// placement and repair until a verified read or a scrub detects it.
    /// No journal entry is written — silent damage changes nothing the
    /// scheduler can observe. Returns `false` if no such replica is
    /// registered or it is already marked.
    pub fn mark_corrupt(&mut self, block: BlockId, node: NodeId) -> bool {
        if self.replicas[block.index()].binary_search(&node).is_err() {
            return false;
        }
        let marks = &mut self.corrupt[block.index()];
        match marks.binary_search(&node) {
            Ok(_) => false,
            Err(pos) => {
                marks.insert(pos, node);
                true
            }
        }
    }

    /// Whether the replica of `block` on `node` is silently corrupted.
    pub fn is_replica_corrupt(&self, block: BlockId, node: NodeId) -> bool {
        self.corrupt[block.index()].binary_search(&node).is_ok()
    }

    /// The corrupted replicas of `block`, sorted by node id.
    pub fn corrupt_replicas(&self, block: BlockId) -> &[NodeId] {
        &self.corrupt[block.index()]
    }

    /// Number of intact (registered, unmarked) replicas of `block`.
    pub fn clean_replica_count(&self, block: BlockId) -> usize {
        self.replicas[block.index()].len() - self.corrupt[block.index()].len()
    }

    /// Drops a replica a verified read or scrub discovered to be
    /// corrupt. Returns `true` if the replica was dropped (journaled
    /// like any other removal, so demand caches re-resolve). Returns
    /// `false` if it was the block's *last* replica — the file system
    /// never unregisters the final copy, even a rotten one; the caller
    /// is expected to declare the block unavailable instead.
    pub fn drop_corrupt_replica(&mut self, block: BlockId, node: NodeId) -> bool {
        debug_assert!(
            self.is_replica_corrupt(block, node),
            "dropping {block} on {node}, which is not marked corrupt"
        );
        self.remove_replica(block, node)
    }

    /// Drains the changed-blocks journal: the blocks whose replica lists
    /// mutated since the last drain, sorted and deduplicated. Initial
    /// dataset placement is not journaled (nothing can have resolved those
    /// locations yet).
    pub fn take_changed_blocks(&mut self) -> Vec<BlockId> {
        self.changed.sort_unstable();
        self.changed.dedup();
        std::mem::take(&mut self.changed)
    }

    /// Discards pending journal entries (e.g. setup-time replication that
    /// predates any location query).
    pub fn clear_changed_blocks(&mut self) {
        self.changed.clear();
    }

    /// Scarlett-style re-replication: adds up to `extra_per_block` replicas
    /// to each of the `top_k` most-accessed blocks, preferring the machines
    /// with the most free space. Returns the number of replicas created.
    pub fn replicate_hot_blocks(
        &mut self,
        tracker: &AccessTracker,
        top_k: usize,
        extra_per_block: usize,
        rng: &mut SimRng,
    ) -> usize {
        let mut created = 0;
        for (block, _) in tracker.top_k(top_k) {
            for _ in 0..extra_per_block {
                let Some(node) = self.replica_target(block, rng) else {
                    break;
                };
                let added = self.add_replica(block, node);
                debug_assert!(added);
                created += 1;
            }
        }
        created
    }

    /// Fails a machine: decommissions its DataNode and drops every replica
    /// it held. Returns the blocks whose replica there could **not** be
    /// dropped because it was the last copy — the file system keeps serving
    /// them (reads from a failed machine's surviving disk are a modelling
    /// concession; with 3-way replication a single-node failure leaves
    /// sole copies only in pathological layouts). Call
    /// [`restore_replication`](Self::restore_replication) afterwards to
    /// model HDFS's automatic re-replication of under-replicated blocks.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<BlockId> {
        let held: Vec<BlockId> = self.datanodes[node.index()].blocks().collect();
        let mut pinned = Vec::new();
        for block in held {
            if !self.remove_replica(block, node) {
                pinned.push(block);
            }
        }
        self.datanodes.decommission(node);
        pinned
    }

    /// Recovers a previously failed machine: its DataNode is
    /// recommissioned, so it may store new replicas again. The machine
    /// rejoins *empty* — its pre-failure replicas were dropped by
    /// [`fail_node`](Self::fail_node) and re-created elsewhere — except
    /// for pinned sole copies, which it kept serving all along and still
    /// holds. Replica locations therefore do not change at recovery time;
    /// only future placements can target the machine again.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not currently failed.
    pub fn recover_node(&mut self, node: NodeId) {
        assert!(
            self.datanodes[node.index()].is_decommissioned(),
            "recovering {node}, which is not failed"
        );
        self.datanodes.recommission(node);
    }

    /// Whether `node` is currently failed (decommissioned).
    pub fn is_node_failed(&self, node: NodeId) -> bool {
        self.datanodes[node.index()].is_decommissioned()
    }

    /// *Suspects* a machine based on missed DataNode heartbeats: same
    /// metadata effect as [`fail_node`](Self::fail_node) — the master
    /// stops routing reads there and re-replicates — but the dropped
    /// replica set is remembered in a shadow list so a false suspicion can
    /// be undone by [`reinstate_node`](Self::reinstate_node). Returns the
    /// pinned sole-copy blocks exactly as `fail_node` does.
    pub fn suspect_node(&mut self, node: NodeId) -> Vec<BlockId> {
        let held: Vec<BlockId> = self.datanodes[node.index()].blocks().collect();
        let pinned = self.fail_node(node);
        // Everything dropped (held minus pinned, which stayed registered).
        self.shadow[node.index()] = held.into_iter().filter(|b| !pinned.contains(b)).collect();
        pinned
    }

    /// Clears a suspicion: the machine is recommissioned, and — when
    /// `data_survived` (the outage never actually destroyed the disk) —
    /// its shadow replicas are re-registered for every block still below
    /// the replication target (excess copies created by healing in the
    /// meantime are discarded, as HDFS does). Returns the number of
    /// replicas re-registered.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not currently failed/suspected.
    pub fn reinstate_node(&mut self, node: NodeId, data_survived: bool) -> usize {
        self.recover_node(node);
        let shadow = std::mem::take(&mut self.shadow[node.index()]);
        if !data_survived {
            return 0;
        }
        let mut readded = 0;
        for block in shadow {
            if self.replicas[block.index()].len() < self.replication
                && self.add_replica(block, node)
            {
                readded += 1;
            }
        }
        readded
    }

    /// Number of blocks whose *only* replica sits on a failed
    /// (decommissioned) machine — data currently served on borrowed time.
    pub fn sole_replica_on_failed(&self) -> usize {
        self.replicas
            .iter()
            .filter(|locs| locs.len() == 1 && self.datanodes[locs[0].index()].is_decommissioned())
            .count()
    }

    /// Number of replicas of block index `b` on live (non-decommissioned)
    /// machines — the copies the cluster can actually lose nothing by
    /// losing a machine of. Pinned sole copies on failed machines are
    /// excluded: they are served on borrowed time and count as debt.
    fn live_replica_count(&self, b: usize) -> usize {
        self.replicas[b]
            .iter()
            .filter(|n| !self.datanodes[n.index()].is_decommissioned())
            .count()
    }

    /// Drops the pinned copies `block` kept on decommissioned machines.
    /// Only called once the block is fully replicated on live machines,
    /// so the last-replica guard in
    /// [`remove_replica`](Self::remove_replica) never triggers.
    fn depin_block(&mut self, block: BlockId) {
        let pinned: Vec<NodeId> = self.replicas[block.index()]
            .iter()
            .copied()
            .filter(|n| self.datanodes[n.index()].is_decommissioned())
            .collect();
        for node in pinned {
            let removed = self.remove_replica(block, node);
            debug_assert!(removed);
        }
    }

    /// The single budgeted re-replication core: walks `order`, creating
    /// replicas on the machines with the most free space until each block
    /// has `replication` copies on live machines or the `max_new` budget
    /// runs out. A block healed back to target is *de-pinned* — any copy
    /// it kept on a decommissioned machine is dropped, exactly as HDFS
    /// discards a dead node's replicas once replacements exist. New
    /// replicas are always intact: repair reads are checksum-verified, so
    /// a copy is only ever taken from a clean source. Returns the number
    /// of replicas created; a return smaller than `max_new` means every
    /// block in `order` is as healed as the cluster allows.
    pub fn restore_blocks(&mut self, rng: &mut SimRng, order: &[BlockId], max_new: usize) -> usize {
        let mut created = 0;
        for &block in order {
            let b = block.index();
            while created < max_new && self.live_replica_count(b) < self.replication {
                let Some(node) = self.replica_target(block, rng) else {
                    break; // no machine can take another replica
                };
                let added = self.add_replica(block, node);
                debug_assert!(added);
                created += 1;
            }
            if self.live_replica_count(b) >= self.replication {
                self.depin_block(block);
            }
            if created >= max_new {
                break;
            }
        }
        created
    }

    /// The machine a new replica of `block` goes to: among those with
    /// room that do not already store it, the least used, ties broken by
    /// one `rng` draw per candidate in DataNode order. `None` if no
    /// machine can take it.
    fn replica_target(&self, block: BlockId, rng: &mut SimRng) -> Option<NodeId> {
        let size = self.blocks[block.index()].size_bytes;
        let mut candidates: Vec<(u64, u64, NodeId)> = self
            .datanodes
            .iter()
            .filter(|dn| dn.fits(size) && !dn.stores(block))
            .map(|dn| (dn.used_bytes(), rng.draw_u64(), dn.node))
            .collect();
        candidates.sort_unstable();
        candidates.first().map(|&(_, _, node)| node)
    }

    /// Brings blocks back up to the target replication factor in block
    /// order, creating at most `max_new` replicas on the machines with the
    /// most free space (HDFS's under-replicated-block queue). `usize::MAX`
    /// collapses the queue to one instant storm; a smaller budget lets a
    /// caller drain it in batches. Returns the number created; a return
    /// smaller than `max_new` means the queue is (currently) dry. Because
    /// the healing draws a block consumes depend only on that block's own
    /// debt, looping a batch to saturation converges to the same replica
    /// map as one unbounded call on the same stream.
    pub fn restore_replication(&mut self, rng: &mut SimRng, max_new: usize) -> usize {
        let order: Vec<BlockId> = (0..self.blocks.len()).map(BlockId::new).collect();
        self.restore_blocks(rng, &order, max_new)
    }

    /// The under-replicated blocks worth repairing, most endangered
    /// first: ascending count of live replicas (sole-copy and pinned
    /// blocks at the front), ties broken by block id. Blocks with zero
    /// intact replicas are excluded — there is no clean source to copy
    /// from; the driver tracks those as unavailable instead of burning
    /// repair bandwidth on them.
    pub fn repair_order(&self) -> Vec<BlockId> {
        let mut needy: Vec<(usize, usize)> = (0..self.blocks.len())
            .filter(|&b| {
                self.live_replica_count(b) < self.replication
                    && self.clean_replica_count(BlockId::new(b)) > 0
            })
            .map(|b| (self.live_replica_count(b), b))
            .collect();
        needy.sort_unstable();
        needy.into_iter().map(|(_, b)| BlockId::new(b)).collect()
    }

    /// Sanity check used by tests and property tests: every replica list is
    /// sorted, within bounds, duplicate-free and consistent with the
    /// DataNode states.
    pub fn check_invariants(&self) {
        for (i, locs) in self.replicas.iter().enumerate() {
            let block = BlockId::new(i);
            assert!(!locs.is_empty(), "{block} has no replicas");
            assert!(
                locs.windows(2).all(|w| w[0] < w[1]),
                "{block} locations not strictly sorted: {locs:?}"
            );
            for &node in locs {
                assert!(node.index() < self.datanodes.len());
                assert!(
                    self.datanodes[node.index()].stores(block),
                    "{block} listed on {node} but datanode disagrees"
                );
            }
        }
        for dn in self.datanodes.iter() {
            for block in dn.blocks() {
                assert!(
                    self.replicas[block.index()].binary_search(&dn.node).is_ok(),
                    "{} stores {block} but NameNode disagrees",
                    dn.node
                );
            }
            let used: u64 = dn.blocks().map(|b| self.blocks[b.index()].size_bytes).sum();
            assert_eq!(used, dn.used_bytes(), "{} usage drift", dn.node);
        }
        for (n, shadow) in self.shadow.iter().enumerate() {
            assert!(
                shadow.is_empty() || self.datanodes[n].is_decommissioned(),
                "node {n} has shadow replicas but is not suspected"
            );
        }
        assert_eq!(self.corrupt.len(), self.replicas.len());
        for (i, marks) in self.corrupt.iter().enumerate() {
            let block = BlockId::new(i);
            assert!(
                marks.windows(2).all(|w| w[0] < w[1]),
                "{block} corrupt marks not strictly sorted: {marks:?}"
            );
            for &node in marks {
                assert!(
                    self.replicas[i].binary_search(&node).is_ok(),
                    "{block} marked corrupt on {node}, which holds no replica"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::DEFAULT_BLOCK_SIZE;
    use crate::placement::{RandomPlacement, RoundRobinPlacement};

    const GB: u64 = 1_000_000_000;

    fn namenode() -> NameNode {
        NameNode::new(10, 400 * GB, 3)
    }

    #[test]
    fn create_dataset_splits_and_places() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(1);
        let ds = nn.create_dataset(
            "wiki",
            GB,
            DEFAULT_BLOCK_SIZE,
            &mut RandomPlacement,
            &mut rng,
        );
        let dataset = nn.dataset(ds);
        assert_eq!(dataset.num_blocks(), 8); // ceil(1e9 / 128e6)
        for &b in &dataset.blocks {
            assert_eq!(nn.locations(b).len(), 3);
            assert_eq!(nn.block(b).dataset, ds);
        }
        nn.check_invariants();
    }

    #[test]
    fn locations_sorted_and_local_check() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(2);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        for &b in &nn.dataset(ds).blocks.clone() {
            let locs = nn.locations(b);
            assert!(locs.windows(2).all(|w| w[0] < w[1]));
            for &n in locs {
                assert!(nn.is_local(n, b));
            }
            // Some node must be non-local in a 10-node cluster with 3 replicas.
            let nonlocal = (0..10).map(NodeId::new).find(|&n| !nn.is_local(n, b));
            assert!(nonlocal.is_some());
        }
    }

    #[test]
    fn round_robin_dataset_is_predictable() {
        let mut nn = NameNode::new(4, 400 * GB, 1);
        let mut rng = SimRng::seed_from_u64(0);
        let ds = nn.create_dataset(
            "fig1",
            4 * DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RoundRobinPlacement::default(),
            &mut rng,
        );
        let blocks = nn.dataset(ds).blocks.clone();
        for (i, &b) in blocks.iter().enumerate() {
            assert_eq!(nn.locations(b), &[NodeId::new(i)]);
        }
    }

    #[test]
    fn add_and_remove_replica() {
        let mut nn = NameNode::new(3, 400 * GB, 1);
        let mut rng = SimRng::seed_from_u64(3);
        let ds = nn.create_dataset(
            "d",
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RoundRobinPlacement::default(),
            &mut rng,
        );
        let b = nn.dataset(ds).blocks[0];
        assert_eq!(nn.locations(b), &[NodeId::new(0)]);
        assert!(nn.add_replica(b, NodeId::new(2)));
        assert_eq!(nn.locations(b), &[NodeId::new(0), NodeId::new(2)]);
        assert!(!nn.add_replica(b, NodeId::new(2)), "duplicate rejected");
        assert!(nn.remove_replica(b, NodeId::new(0)));
        assert_eq!(nn.locations(b), &[NodeId::new(2)]);
        assert!(!nn.remove_replica(b, NodeId::new(2)), "last replica kept");
        nn.check_invariants();
    }

    #[test]
    fn remove_absent_replica_is_noop() {
        let mut nn = NameNode::new(3, 400 * GB, 2);
        let mut rng = SimRng::seed_from_u64(4);
        let ds = nn.create_dataset(
            "d",
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RoundRobinPlacement::default(),
            &mut rng,
        );
        let b = nn.dataset(ds).blocks[0];
        assert!(!nn.remove_replica(b, NodeId::new(2)));
        nn.check_invariants();
    }

    #[test]
    fn replication_clamped_by_cluster_size() {
        let mut nn = NameNode::new(2, 400 * GB, 3);
        let mut rng = SimRng::seed_from_u64(5);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        for &b in &nn.dataset(ds).blocks.clone() {
            assert_eq!(nn.locations(b).len(), 2);
        }
    }

    #[test]
    fn batched_restore_drains_the_same_debt_as_instant() {
        let mut a = namenode();
        let mut b = namenode();
        let mut rng_a = SimRng::seed_from_u64(7);
        let mut rng_b = SimRng::seed_from_u64(7);
        a.create_dataset(
            "d",
            GB,
            DEFAULT_BLOCK_SIZE,
            &mut RandomPlacement,
            &mut rng_a,
        );
        b.create_dataset(
            "d",
            GB,
            DEFAULT_BLOCK_SIZE,
            &mut RandomPlacement,
            &mut rng_b,
        );
        a.fail_node(NodeId::new(3));
        b.fail_node(NodeId::new(3));
        let instant = a.restore_replication(&mut rng_a, usize::MAX);
        assert!(instant > 0, "failing a node must leave debt");
        let mut paced = 0;
        loop {
            let created = b.restore_replication(&mut rng_b, 2);
            assert!(created <= 2, "batch cap exceeded");
            paced += created;
            b.check_invariants();
            if created < 2 {
                break; // queue dry
            }
        }
        assert_eq!(paced, instant, "pacing must drain the exact same debt");
        assert_eq!(b.restore_replication(&mut rng_b, 2), 0);
        for i in 0..b.replicas.len() {
            assert_eq!(b.replicas[i].len(), b.replication);
        }
    }

    #[test]
    fn batched_restore_converges_to_the_instant_replica_map() {
        // Property: looping the paced batch to saturation is not merely
        // the same *amount* of healing — on the same RNG stream it lands
        // every replica on the same machine as the one-shot call, so the
        // entire NameNode state converges bit-identically.
        for seed in [7u64, 19, 23] {
            for batch in [1usize, 2, 3, 5] {
                let mut a = namenode();
                let mut b = namenode();
                let mut rng_a = SimRng::seed_from_u64(seed);
                let mut rng_b = SimRng::seed_from_u64(seed);
                a.create_dataset(
                    "d",
                    2 * GB,
                    DEFAULT_BLOCK_SIZE,
                    &mut RandomPlacement,
                    &mut rng_a,
                );
                b.create_dataset(
                    "d",
                    2 * GB,
                    DEFAULT_BLOCK_SIZE,
                    &mut RandomPlacement,
                    &mut rng_b,
                );
                for node in [NodeId::new(3), NodeId::new(6)] {
                    a.fail_node(node);
                    b.fail_node(node);
                }
                let instant = a.restore_replication(&mut rng_a, usize::MAX);
                assert!(instant > 0);
                while b.restore_replication(&mut rng_b, batch) == batch {}
                assert_eq!(a, b, "seed {seed} batch {batch}: maps diverged");
                assert_eq!(
                    rng_a.draw_u64(),
                    rng_b.draw_u64(),
                    "seed {seed} batch {batch}: streams diverged"
                );
            }
        }
    }

    #[test]
    fn corruption_marks_are_silent_until_dropped() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(50);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let b = nn.dataset(ds).blocks[0];
        let victim = nn.locations(b)[0];
        let before = nn.locations(b).to_vec();
        assert!(nn.mark_corrupt(b, victim));
        assert!(!nn.mark_corrupt(b, victim), "double mark rejected");
        assert!(nn.is_replica_corrupt(b, victim));
        assert_eq!(nn.corrupt_replicas(b), &[victim]);
        assert_eq!(nn.clean_replica_count(b), before.len() - 1);
        // Silent: locations unchanged, nothing journaled, no repair debt.
        assert_eq!(nn.locations(b), &before[..]);
        assert!(nn.take_changed_blocks().is_empty());
        assert!(nn.repair_order().is_empty());
        nn.check_invariants();
        // Detection drops the replica and journals the change.
        assert!(nn.drop_corrupt_replica(b, victim));
        assert!(!nn.is_local(victim, b));
        assert!(!nn.is_replica_corrupt(b, victim));
        assert_eq!(nn.take_changed_blocks(), vec![b]);
        assert_eq!(nn.repair_order(), vec![b], "the drop created repair debt");
        nn.check_invariants();
    }

    #[test]
    fn last_corrupt_replica_is_never_unregistered() {
        let mut nn = NameNode::new(2, 400 * GB, 1);
        let mut rng = SimRng::seed_from_u64(51);
        let ds = nn.create_dataset(
            "d",
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RoundRobinPlacement::default(),
            &mut rng,
        );
        let b = nn.dataset(ds).blocks[0];
        let home = nn.locations(b)[0];
        assert!(nn.mark_corrupt(b, home));
        assert!(!nn.drop_corrupt_replica(b, home), "sole copy stays put");
        assert_eq!(nn.locations(b), &[home]);
        assert!(nn.is_replica_corrupt(b, home), "mark survives the refusal");
        assert_eq!(nn.clean_replica_count(b), 0);
        assert!(
            nn.repair_order().is_empty(),
            "no clean source means no repair debt"
        );
        nn.check_invariants();
    }

    #[test]
    fn mark_corrupt_requires_a_registered_replica() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(52);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let b = nn.dataset(ds).blocks[0];
        let absent = (0..10)
            .map(NodeId::new)
            .find(|&n| !nn.is_local(n, b))
            .unwrap();
        assert!(!nn.mark_corrupt(b, absent));
        nn.check_invariants();
    }

    #[test]
    fn removal_clears_the_corruption_mark() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(53);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let b = nn.dataset(ds).blocks[0];
        let victim = nn.locations(b)[0];
        assert!(nn.mark_corrupt(b, victim));
        // A whole-node failure removes the replica through the ordinary
        // path; the rotten copy's mark must not outlive it.
        nn.fail_node(victim);
        assert!(!nn.is_replica_corrupt(b, victim));
        assert!(nn.corrupt_replicas(b).is_empty());
        nn.check_invariants();
    }

    #[test]
    fn repair_order_puts_soles_first() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(54);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let blocks = nn.dataset(ds).blocks.clone();
        // Strip block 1 down to a sole copy, block 0 down to two.
        let (b0, b1) = (blocks[0], blocks[1]);
        let drop0 = nn.locations(b0)[0];
        assert!(nn.remove_replica(b0, drop0));
        for node in nn.locations(b1).to_vec().into_iter().skip(1) {
            assert!(nn.remove_replica(b1, node));
        }
        assert_eq!(nn.locations(b1).len(), 1);
        let order = nn.repair_order();
        assert_eq!(order[0], b1, "the sole-copy block repairs first");
        assert!(order.contains(&b0));
        nn.check_invariants();
    }

    #[test]
    fn replicate_hot_blocks_adds_replicas() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(6);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let hot = nn.dataset(ds).blocks[0];
        let mut tracker = AccessTracker::new();
        tracker.record_many(hot, 100);
        let before = nn.locations(hot).len();
        let created = nn.replicate_hot_blocks(&tracker, 1, 2, &mut rng);
        assert_eq!(created, 2);
        assert_eq!(nn.locations(hot).len(), before + 2);
        nn.check_invariants();
    }

    #[test]
    fn replicate_hot_blocks_saturates_at_cluster_size() {
        let mut nn = NameNode::new(4, 400 * GB, 3);
        let mut rng = SimRng::seed_from_u64(7);
        let ds = nn.create_dataset(
            "d",
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RandomPlacement,
            &mut rng,
        );
        let b = nn.dataset(ds).blocks[0];
        let mut tracker = AccessTracker::new();
        tracker.record(b);
        let created = nn.replicate_hot_blocks(&tracker, 1, 10, &mut rng);
        assert_eq!(created, 1, "only one machine lacked a replica");
        assert_eq!(nn.locations(b).len(), 4);
    }

    #[test]
    fn multiple_datasets_get_distinct_blocks() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(8);
        let a = nn.create_dataset("a", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let b = nn.create_dataset(
            "b",
            2 * GB,
            DEFAULT_BLOCK_SIZE,
            &mut RandomPlacement,
            &mut rng,
        );
        let blocks_a = &nn.dataset(a).blocks;
        let blocks_b = &nn.dataset(b).blocks;
        assert!(blocks_a.iter().all(|x| !blocks_b.contains(x)));
        assert_eq!(nn.num_blocks(), blocks_a.len() + blocks_b.len());
    }

    #[test]
    #[should_panic(expected = "cluster must have nodes")]
    fn zero_nodes_rejected() {
        let _ = NameNode::new(0, GB, 3);
    }

    #[test]
    fn fail_node_drops_replicas_and_decommissions() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(9);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let victim = NodeId::new(0);
        let before: Vec<BlockId> = nn.datanode(victim).blocks().collect();
        let pinned = nn.fail_node(victim);
        assert!(pinned.is_empty(), "3-way replication survives one failure");
        assert!(nn.datanode(victim).is_decommissioned());
        assert_eq!(nn.datanode(victim).block_count(), 0);
        for b in before {
            assert!(!nn.is_local(victim, b));
            assert!(nn.locations(b).len() >= 2);
        }
        nn.check_invariants();
        let _ = ds;
    }

    #[test]
    fn restore_replication_heals_after_failure() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(10);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let lost = nn.datanode(NodeId::new(3)).block_count();
        nn.fail_node(NodeId::new(3));
        let created = nn.restore_replication(&mut rng, usize::MAX);
        assert_eq!(created, lost, "one new replica per lost replica");
        for &b in &nn.dataset(ds).blocks.clone() {
            assert_eq!(nn.locations(b).len(), 3, "replication restored");
            assert!(!nn.is_local(NodeId::new(3), b), "not on the dead node");
        }
        nn.check_invariants();
    }

    #[test]
    fn failed_node_excluded_from_placement() {
        let mut nn = NameNode::new(3, 400 * GB, 2);
        let mut rng = SimRng::seed_from_u64(11);
        nn.fail_node(NodeId::new(1));
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        for &b in &nn.dataset(ds).blocks.clone() {
            assert!(!nn.is_local(NodeId::new(1), b));
        }
    }

    #[test]
    fn restore_replication_never_targets_failed_nodes() {
        // Fail several machines at once; every replacement replica must
        // land on one of the survivors.
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(21);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let down = [NodeId::new(1), NodeId::new(4), NodeId::new(8)];
        for &n in &down {
            nn.fail_node(n);
        }
        nn.restore_replication(&mut rng, usize::MAX);
        for &b in &nn.dataset(ds).blocks.clone() {
            assert_eq!(nn.locations(b).len(), 3, "replication restored");
            for &n in &down {
                assert!(
                    !nn.is_local(n, b),
                    "replacement replica of {b} placed on failed {n}"
                );
            }
        }
        nn.check_invariants();
    }

    #[test]
    fn recovered_node_is_placeable_again() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(22);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let victim = NodeId::new(2);
        nn.fail_node(victim);
        nn.restore_replication(&mut rng, usize::MAX);
        assert!(nn.is_node_failed(victim));
        nn.recover_node(victim);
        assert!(!nn.is_node_failed(victim));
        assert_eq!(nn.datanode(victim).block_count(), 0, "rejoins empty");
        // Existing locations are untouched by recovery...
        for &b in &nn.dataset(ds).blocks.clone() {
            assert!(!nn.is_local(victim, b));
        }
        // ...but the machine takes new replicas again: fail another node
        // and the recovered one is a healing candidate (it is empty, so
        // the most-free-space rule picks it first).
        nn.fail_node(NodeId::new(5));
        let created = nn.restore_replication(&mut rng, usize::MAX);
        assert!(created > 0);
        assert!(
            nn.datanode(victim).block_count() > 0,
            "recovered machine should host replacement replicas"
        );
        nn.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not failed")]
    fn recovering_a_healthy_node_panics() {
        let mut nn = namenode();
        nn.recover_node(NodeId::new(0));
    }

    #[test]
    fn pinned_sole_copy_served_until_repair_depins() {
        let mut nn = NameNode::new(2, 400 * GB, 1);
        let mut rng = SimRng::seed_from_u64(12);
        let ds = nn.create_dataset(
            "d",
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RoundRobinPlacement::default(),
            &mut rng,
        );
        let b = nn.dataset(ds).blocks[0];
        let home = nn.locations(b)[0];
        let pinned = nn.fail_node(home);
        assert_eq!(pinned, vec![b], "sole copy must be reported as pinned");
        // The decommissioned machine keeps serving its pinned block for
        // as long as repair has not replaced it.
        assert_eq!(nn.locations(b), &[home], "block still readable");
        assert!(nn.is_local(home, b));
        assert_eq!(nn.sole_replica_on_failed(), 1);
        assert_eq!(nn.repair_order(), vec![b], "pinned block is repair debt");
        nn.check_invariants();
        // Repair lands a fresh replica on the surviving machine and
        // de-pins the borrowed-time copy in the same stroke.
        assert_eq!(nn.restore_replication(&mut rng, usize::MAX), 1);
        let other = NodeId::new(1 - home.index());
        assert_eq!(nn.locations(b), &[other], "fresh replica took over");
        assert_eq!(nn.datanode(home).block_count(), 0, "pinned copy dropped");
        assert_eq!(nn.sole_replica_on_failed(), 0);
        assert!(nn.repair_order().is_empty(), "debt fully drained");
        nn.check_invariants();
    }

    #[test]
    fn pinned_copy_survives_an_underfunded_repair_batch() {
        // With a zero budget the batch call must leave the pinned copy
        // alone: de-pinning before a replacement lands would destroy the
        // last readable bytes.
        let mut nn = NameNode::new(2, 400 * GB, 1);
        let mut rng = SimRng::seed_from_u64(13);
        let ds = nn.create_dataset(
            "d",
            DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RoundRobinPlacement::default(),
            &mut rng,
        );
        let b = nn.dataset(ds).blocks[0];
        let home = nn.locations(b)[0];
        nn.fail_node(home);
        assert_eq!(nn.restore_replication(&mut rng, 0), 0);
        assert_eq!(nn.locations(b), &[home], "still served from the pin");
        assert_eq!(nn.restore_replication(&mut rng, 1), 1);
        assert_ne!(nn.locations(b), &[home], "budgeted repair de-pinned");
        nn.check_invariants();
    }

    #[test]
    fn changed_blocks_journal_tracks_replica_mutations() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(40);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        assert!(
            nn.take_changed_blocks().is_empty(),
            "initial placement is not journaled"
        );
        let b = nn.dataset(ds).blocks[0];
        let free = (0..10)
            .map(NodeId::new)
            .find(|&n| !nn.is_local(n, b))
            .unwrap();
        assert!(nn.add_replica(b, free));
        assert!(nn.remove_replica(b, free));
        assert_eq!(nn.take_changed_blocks(), vec![b], "sorted and deduped");
        assert!(nn.take_changed_blocks().is_empty(), "drain empties");

        // A node failure journals every replica it dropped.
        let victim = NodeId::new(0);
        let held: Vec<BlockId> = nn.datanode(victim).blocks().collect();
        nn.fail_node(victim);
        let changed = nn.take_changed_blocks();
        for blk in held {
            assert!(changed.contains(&blk), "{blk} dropped but not journaled");
        }

        nn.restore_replication(&mut rng, usize::MAX);
        assert!(!nn.take_changed_blocks().is_empty(), "healing journals");
        nn.clear_changed_blocks();
        assert!(nn.take_changed_blocks().is_empty());
    }

    #[test]
    fn suspect_then_reinstate_with_surviving_disk() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(30);
        let ds = nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let victim = NodeId::new(1);
        let held: Vec<BlockId> = nn.datanode(victim).blocks().collect();
        assert!(!held.is_empty());
        let pinned = nn.suspect_node(victim);
        assert!(pinned.is_empty());
        assert!(nn.is_node_failed(victim));
        // No healing happened, so every shadow replica is still needed and
        // comes back on reinstatement.
        let readded = nn.reinstate_node(victim, true);
        assert_eq!(readded, held.len());
        assert!(!nn.is_node_failed(victim));
        for b in held {
            assert!(nn.is_local(victim, b));
        }
        nn.check_invariants();
        let _ = ds;
    }

    #[test]
    fn reinstate_after_healing_discards_excess() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(31);
        nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let victim = NodeId::new(2);
        nn.suspect_node(victim);
        // The master healed every under-replicated block in the meantime...
        nn.restore_replication(&mut rng, usize::MAX);
        // ...so the reinstated disk's copies are all excess.
        assert_eq!(nn.reinstate_node(victim, true), 0);
        assert_eq!(nn.datanode(victim).block_count(), 0);
        nn.check_invariants();
    }

    #[test]
    fn reinstate_without_data_rejoins_empty() {
        let mut nn = namenode();
        let mut rng = SimRng::seed_from_u64(32);
        nn.create_dataset("d", GB, DEFAULT_BLOCK_SIZE, &mut RandomPlacement, &mut rng);
        let victim = NodeId::new(4);
        nn.suspect_node(victim);
        assert_eq!(nn.reinstate_node(victim, false), 0);
        assert_eq!(nn.datanode(victim).block_count(), 0);
        assert!(!nn.is_node_failed(victim));
        nn.check_invariants();
    }
}
