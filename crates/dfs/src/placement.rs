//! Replica-placement policies.
//!
//! A placement policy answers *where* the replicas of a new block go. The
//! paper's evaluation uses the HDFS default — "each data block typically
//! has three replicas randomly distributed in the cluster" (§II) — which is
//! [`RandomPlacement`]. [`RoundRobinPlacement`] gives perfectly even spread
//! (useful in tests and worked examples where block positions must be
//! predictable), and [`PopularityPlacement`] spreads load by preferring the
//! least-full machines, the placement half of the Scarlett-style extension
//! (the "how many replicas" half lives in
//! [`NameNode::replicate_hot_blocks`](crate::NameNode::replicate_hot_blocks)).

use custody_simcore::SimRng;

use crate::block::NodeId;
use crate::datanode::{DataNode, DataNodes};

/// Strategy choosing which machines store a new block's replicas.
pub trait PlacementPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses up to `replication` **distinct** nodes, each with at least
    /// `size_bytes` free, to store a new block. Returns fewer than
    /// `replication` nodes only when not enough machines have space.
    fn place(
        &mut self,
        datanodes: &DataNodes,
        replication: usize,
        size_bytes: u64,
        rng: &mut SimRng,
    ) -> Vec<NodeId>;
}

/// Indices of the datanodes that can hold a block of `size_bytes`.
fn eligible(datanodes: &[DataNode], size_bytes: u64) -> Vec<usize> {
    (0..datanodes.len())
        .filter(|&i| datanodes[i].fits(size_bytes))
        .collect()
}

/// HDFS-default uniform-random placement.
#[derive(Debug, Default, Clone)]
pub struct RandomPlacement;

impl PlacementPolicy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(
        &mut self,
        datanodes: &DataNodes,
        replication: usize,
        size_bytes: u64,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        // When every machine has room (the common case: set-up places
        // datasets on an empty cluster) the eligible pool is the identity,
        // so the draw indexes the datanodes directly — the same nodes from
        // the same draws, in O(replication) rather than O(nodes).
        if datanodes.all_fit(size_bytes) {
            let k = replication.min(datanodes.len());
            return rng
                .choose_distinct(datanodes.len(), k)
                .into_iter()
                .map(|i| datanodes[i].node)
                .collect();
        }
        place_among_eligible(datanodes, replication, size_bytes, rng)
    }
}

/// [`RandomPlacement`] over a cluster where some machine is full or
/// decommissioned: a uniform draw from the machines with room.
fn place_among_eligible(
    datanodes: &DataNodes,
    replication: usize,
    size_bytes: u64,
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let pool = eligible(datanodes, size_bytes);
    let k = replication.min(pool.len());
    rng.choose_distinct(pool.len(), k)
        .into_iter()
        .map(|i| datanodes[pool[i]].node)
        .collect()
}

/// Deterministic round-robin placement: replicas of consecutive blocks
/// march across the cluster. Used by the paper's worked examples (Figs. 1,
/// 3, 4), where block *i* sits on node *i*.
#[derive(Debug, Default, Clone)]
pub struct RoundRobinPlacement {
    cursor: usize,
}

impl PlacementPolicy for RoundRobinPlacement {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(
        &mut self,
        datanodes: &DataNodes,
        replication: usize,
        size_bytes: u64,
        _rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let n = datanodes.len();
        let mut out = Vec::with_capacity(replication);
        let mut inspected = 0;
        while out.len() < replication && inspected < n {
            let i = self.cursor % n;
            self.cursor += 1;
            inspected += 1;
            let dn = &datanodes[i];
            if dn.fits(size_bytes) && !out.contains(&dn.node) {
                out.push(dn.node);
            }
        }
        out
    }
}

/// Load-balancing placement: always picks the machines with the most free
/// space, breaking ties uniformly at random. Spreading replicas of popular
/// datasets away from already-full machines is the placement component of
/// popularity-based replication (Scarlett \[9\]).
#[derive(Debug, Default, Clone)]
pub struct PopularityPlacement;

impl PlacementPolicy for PopularityPlacement {
    fn name(&self) -> &'static str {
        "popularity"
    }

    fn place(
        &mut self,
        datanodes: &DataNodes,
        replication: usize,
        size_bytes: u64,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        let mut pool = eligible(datanodes, size_bytes);
        // Sort by (used bytes asc, random tie-break) for an even spread.
        let mut keyed: Vec<(u64, u64, usize)> = pool
            .drain(..)
            .map(|i| (datanodes[i].used_bytes(), rng.draw_u64(), i))
            .collect();
        keyed.sort_unstable();
        keyed
            .into_iter()
            .take(replication)
            .map(|(_, _, i)| datanodes[i].node)
            .collect()
    }
}

/// HDFS's default rack-aware policy: first replica on a random node,
/// second on a *different* rack, third on the same rack as the second —
/// one rack failure never loses a block, while two of three replicas stay
/// rack-adjacent. Extra replicas (replication > 3) go to random nodes.
/// Rack ids are supplied per node at construction (the cluster topology
/// lives a layer above this crate).
#[derive(Debug, Clone)]
pub struct RackAwarePlacement {
    rack_of: Vec<usize>,
}

impl RackAwarePlacement {
    /// Creates the policy from a per-node rack assignment (indexed by
    /// node id).
    pub fn new(rack_of: Vec<usize>) -> Self {
        assert!(!rack_of.is_empty(), "rack assignment must cover the nodes");
        RackAwarePlacement { rack_of }
    }

    fn rack(&self, node: NodeId) -> usize {
        self.rack_of[node.index()]
    }
}

impl PlacementPolicy for RackAwarePlacement {
    fn name(&self) -> &'static str {
        "rack-aware"
    }

    fn place(
        &mut self,
        datanodes: &DataNodes,
        replication: usize,
        size_bytes: u64,
        rng: &mut SimRng,
    ) -> Vec<NodeId> {
        assert_eq!(
            self.rack_of.len(),
            datanodes.len(),
            "rack assignment must cover the nodes"
        );
        let pool = eligible(datanodes, size_bytes);
        if pool.is_empty() {
            return Vec::new();
        }
        let mut chosen: Vec<NodeId> = Vec::with_capacity(replication);
        let pick = |rng: &mut SimRng, candidates: &[usize]| -> Option<usize> {
            (!candidates.is_empty()).then(|| candidates[rng.below(candidates.len())])
        };
        // Replica 1: uniform random.
        let first = pool[rng.below(pool.len())];
        chosen.push(datanodes[first].node);
        // Replica 2: a different rack if one exists.
        if replication >= 2 {
            let first_rack = self.rack(datanodes[first].node);
            let off_rack: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&i| self.rack(datanodes[i].node) != first_rack)
                .collect();
            let fallback: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&i| !chosen.contains(&datanodes[i].node))
                .collect();
            if let Some(i) = pick(rng, &off_rack).or_else(|| pick(rng, &fallback)) {
                chosen.push(datanodes[i].node);
            }
        }
        // Replica 3: same rack as replica 2, different node.
        if replication >= 3 && chosen.len() >= 2 {
            let second_rack = self.rack(chosen[1]);
            let near_second: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&i| {
                    let n = datanodes[i].node;
                    self.rack(n) == second_rack && !chosen.contains(&n)
                })
                .collect();
            let fallback: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&i| !chosen.contains(&datanodes[i].node))
                .collect();
            if let Some(i) = pick(rng, &near_second).or_else(|| pick(rng, &fallback)) {
                chosen.push(datanodes[i].node);
            }
        }
        // Extras: uniform random over the remainder.
        while chosen.len() < replication {
            let rest: Vec<usize> = pool
                .iter()
                .copied()
                .filter(|&i| !chosen.contains(&datanodes[i].node))
                .collect();
            let Some(i) = pick(rng, &rest) else { break };
            chosen.push(datanodes[i].node);
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use custody_simcore::rng::SimRng;

    fn nodes(n: usize, cap: u64) -> DataNodes {
        DataNodes::from(
            (0..n)
                .map(|i| DataNode::new(NodeId::new(i), cap))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn random_places_distinct_nodes() {
        let dns = nodes(10, 1000);
        let mut p = RandomPlacement;
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..50 {
            let picks = p.place(&dns, 3, 100, &mut rng);
            assert_eq!(picks.len(), 3);
            let mut s = picks.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3);
        }
    }

    #[test]
    fn random_respects_capacity() {
        let mut dns = nodes(5, 1000);
        // Fill three nodes completely.
        for i in 0..3 {
            assert!(dns.add(NodeId::new(i), BlockId::new(99), 1000));
        }
        let mut p = RandomPlacement;
        let mut rng = SimRng::seed_from_u64(2);
        let picks = p.place(&dns, 3, 100, &mut rng);
        assert_eq!(picks.len(), 2, "only two nodes have space");
        assert!(picks.iter().all(|n| n.index() >= 3));
    }

    #[test]
    fn random_all_fit_path_matches_eligible_list_path() {
        let all_fit = nodes(40, 1000);
        let mut decommissioned = nodes(40, 1000);
        decommissioned.decommission(NodeId::new(17));
        let mut full = nodes(40, 1000);
        assert!(full.add(NodeId::new(0), BlockId::new(99), 1000));
        for (case, dns) in [
            ("all fit", &all_fit),
            ("one decommissioned", &decommissioned),
            ("one full", &full),
        ] {
            assert_eq!(dns.all_fit(100), case == "all fit", "{case}");
            for seed in 0..30 {
                for replication in [1, 3, 5, 40, 60] {
                    let mut fast = SimRng::seed_from_u64(seed);
                    let mut listed = fast.clone();
                    let picks = RandomPlacement.place(dns, replication, 100, &mut fast);
                    assert_eq!(
                        picks,
                        place_among_eligible(dns, replication, 100, &mut listed),
                        "{case}, seed {seed}, replication {replication}"
                    );
                    assert_eq!(fast, listed, "{case}: RNG streams diverged");
                    assert!(picks.iter().all(|n| dns[n.index()].fits(100)), "{case}");
                }
            }
        }
    }

    #[test]
    fn random_covers_all_nodes_eventually() {
        let dns = nodes(4, 1000);
        let mut p = RandomPlacement;
        let mut rng = SimRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..100 {
            for n in p.place(&dns, 1, 1, &mut rng) {
                seen[n.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_robin_marches() {
        let dns = nodes(4, 1000);
        let mut p = RoundRobinPlacement::default();
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(p.place(&dns, 1, 1, &mut rng), vec![NodeId::new(0)]);
        assert_eq!(p.place(&dns, 1, 1, &mut rng), vec![NodeId::new(1)]);
        assert_eq!(
            p.place(&dns, 2, 1, &mut rng),
            vec![NodeId::new(2), NodeId::new(3)]
        );
        assert_eq!(p.place(&dns, 1, 1, &mut rng), vec![NodeId::new(0)]);
    }

    #[test]
    fn round_robin_skips_full_nodes() {
        let mut dns = nodes(3, 100);
        assert!(dns.add(NodeId::new(0), BlockId::new(0), 100));
        let mut p = RoundRobinPlacement::default();
        let mut rng = SimRng::seed_from_u64(0);
        let picks = p.place(&dns, 2, 50, &mut rng);
        assert_eq!(picks, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn popularity_prefers_emptier_nodes() {
        let mut dns = nodes(3, 1000);
        assert!(dns.add(NodeId::new(0), BlockId::new(0), 800));
        assert!(dns.add(NodeId::new(1), BlockId::new(1), 400));
        let mut p = PopularityPlacement;
        let mut rng = SimRng::seed_from_u64(5);
        let picks = p.place(&dns, 2, 100, &mut rng);
        assert_eq!(picks, vec![NodeId::new(2), NodeId::new(1)]);
    }

    #[test]
    fn policies_handle_impossible_requests() {
        let dns = nodes(2, 10);
        let mut rng = SimRng::seed_from_u64(0);
        let mut rand = RandomPlacement;
        let mut rr = RoundRobinPlacement::default();
        let mut pop = PopularityPlacement;
        assert!(rand.place(&dns, 3, 100, &mut rng).len() <= 2);
        assert!(rand.place(&dns, 3, 10, &mut rng).len() == 2);
        assert!(rr.place(&dns, 1, 100, &mut rng).is_empty());
        assert!(pop.place(&dns, 1, 100, &mut rng).is_empty());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RandomPlacement.name(), "random");
        assert_eq!(RoundRobinPlacement::default().name(), "round-robin");
        assert_eq!(PopularityPlacement.name(), "popularity");
        assert_eq!(RackAwarePlacement::new(vec![0]).name(), "rack-aware");
    }

    /// 6 nodes in 2 racks of 3.
    fn two_racks() -> Vec<usize> {
        vec![0, 0, 0, 1, 1, 1]
    }

    #[test]
    fn rack_aware_spans_two_racks() {
        let dns = nodes(6, 1000);
        let mut p = RackAwarePlacement::new(two_racks());
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..50 {
            let picks = p.place(&dns, 3, 10, &mut rng);
            assert_eq!(picks.len(), 3);
            let racks: Vec<usize> = picks.iter().map(|n| n.index() / 3).collect();
            // Replica 2 is off replica 1's rack; replica 3 shares rack 2.
            assert_ne!(racks[0], racks[1], "{picks:?}");
            assert_eq!(racks[1], racks[2], "{picks:?}");
            let mut uniq = picks.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "distinct nodes: {picks:?}");
        }
    }

    #[test]
    fn rack_aware_single_rack_degrades_gracefully() {
        let dns = nodes(4, 1000);
        let mut p = RackAwarePlacement::new(vec![0, 0, 0, 0]);
        let mut rng = SimRng::seed_from_u64(8);
        let picks = p.place(&dns, 3, 10, &mut rng);
        assert_eq!(picks.len(), 3);
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn rack_aware_respects_capacity() {
        let mut dns = nodes(6, 100);
        // Fill all of rack 0.
        for i in 0..3 {
            assert!(dns.add(NodeId::new(i), BlockId::new(50), 100));
        }
        let mut p = RackAwarePlacement::new(two_racks());
        let mut rng = SimRng::seed_from_u64(9);
        let picks = p.place(&dns, 3, 50, &mut rng);
        assert_eq!(picks.len(), 3);
        assert!(picks.iter().all(|n| n.index() >= 3), "{picks:?}");
    }
}
