//! Silent replica corruption, verified reads, background scrubbing, and
//! the unified prioritized repair pipeline.
//!
//! The layer exists only when a [`CorruptionConfig`] is present and
//! non-inert, so inert runs degenerate to the oracle bit-for-bit. When
//! live, corruption is drawn from the dedicated `"corruption"` stream and
//! threaded through three events:
//!
//! * `CorruptionArrive` — one more replica silently rots (optionally
//!   biased toward replicas on disk-sick nodes while the gray-failure
//!   layer reports one); the next arrival is drawn immediately.
//! * `ScrubTick` — the background scrubber examines the next window of
//!   blocks and surfaces every latent mark it finds.
//! * `UnavailabilityDeadline` — a block has been unavailable for the
//!   configured grace period: every job still waiting on it fails
//!   cleanly (parked tasks never deadlock the run).
//!
//! Corruption is *ground truth, not knowledge*: a mark on a replica
//! changes nothing observable until a verified read fails or a scrub
//! examines the block. Detection drops the bad replica through the
//! NameNode's change journal (so the sharded demand cache re-resolves
//! preferred nodes) and hands the block to the unified repair queue —
//! the single paced scheduler that also absorbs chaos-crash and
//! partition-heal re-replication debt, serving sole-copy blocks first.

use std::collections::{BTreeMap, BTreeSet};

use custody_dfs::{BlockId, NameNode, NodeId};
use custody_scheduler::RetryPolicy;
use custody_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::config::CorruptionConfig;
use crate::job::{RuntimeJob, TaskState};
use crate::metrics::RunMetrics;

use super::{schedule_arrival, unrouted, Driver, Event};

/// The durability layer's events (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DurabilityEvent {
    CorruptionArrive,
    ScrubTick,
    UnavailabilityDeadline { block: BlockId },
}

/// Live data-durability state (absent for inert configs).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct DurabilityLayer {
    /// The validated, non-inert configuration.
    pub(super) cfg: CorruptionConfig,
    /// Retry policy charged when a verified read fails.
    pub(super) retry: RetryPolicy,
    /// When each still-undetected corrupt replica rotted — drained at
    /// detection to score detection latency exactly once per mark.
    pub(super) onset: BTreeMap<(BlockId, NodeId), SimTime>,
    /// Blocks with no intact replica left: their waiting tasks park
    /// until the unavailability deadline fails their jobs cleanly (or a
    /// falsely-suspected holder rejoins with the data).
    pub(super) unavailable: BTreeSet<BlockId>,
    /// Bumped by every insert into or removal from `unavailable`. Parking
    /// hides tasks from every application's runnable list without marking
    /// their jobs, so the offer pass's decline memo is keyed on this too.
    pub(super) parked_generation: u64,
    /// Next block index the scrubber examines (wraps around).
    pub(super) scrub_cursor: usize,
    /// Corruption draws: latent seeding, arrivals, victim picks, read
    /// retry jitter (the `"corruption"` stream).
    pub(super) rng: SimRng,
}

impl DurabilityLayer {
    /// Seeds the `"corruption"` stream, rots the latent replicas present
    /// from t=0 — one coin per initial replica, in (block, holder) order
    /// — and schedules the first corruption arrival and scrub tick.
    /// `None` for an inert config: no events, no draws, so the run is
    /// event-for-event the oracle.
    pub(super) fn new(
        cfg: CorruptionConfig,
        seed: u64,
        namenode: &mut NameNode,
        queue: &mut EventQueue<Event>,
    ) -> Option<Self> {
        if cfg.is_inert() {
            return None;
        }
        let mut rng = SimRng::for_stream(seed, "corruption");
        let mut onset = BTreeMap::new();
        for b in 0..namenode.num_blocks() {
            let block = BlockId::new(b);
            let holders: Vec<NodeId> = namenode.locations(block).to_vec();
            for node in holders {
                if rng.chance(cfg.latent_fraction) && namenode.mark_corrupt(block, node) {
                    onset.insert((block, node), SimTime::ZERO);
                }
            }
        }
        if cfg.mean_time_between_corruptions_secs > 0.0 {
            schedule_arrival(
                queue,
                &mut rng,
                cfg.mean_time_between_corruptions_secs,
                cfg.horizon_secs,
                None,
                Event::Durability(DurabilityEvent::CorruptionArrive),
            );
        }
        if cfg.scrub_enabled() {
            queue.schedule(
                SimTime::ZERO + SimDuration::from_secs_f64(cfg.scrub_interval_secs),
                Event::Durability(DurabilityEvent::ScrubTick),
            );
        }
        Some(DurabilityLayer {
            retry: RetryPolicy::new(
                cfg.retry_budget,
                SimDuration::from_secs_f64(cfg.retry_backoff_secs),
                cfg.retry_jitter,
            ),
            cfg,
            onset,
            unavailable: BTreeSet::new(),
            parked_generation: 0,
            scrub_cursor: 0,
            rng,
        })
    }
}

impl DurabilityLayer {
    /// A corrupt replica was discovered — by a failed verified read or
    /// by the scrubber. Scores detection latency (once per mark) and
    /// drops the replica through the change journal, returning `true`:
    /// the caller re-resolves preferred nodes and hands the block to the
    /// unified repair queue. If the rotten copy was the block's *last*
    /// replica the block becomes unavailable instead (`false`): waiting
    /// tasks park, and the unavailability deadline is armed so their jobs
    /// eventually fail cleanly.
    pub(super) fn detect(
        &mut self,
        block: BlockId,
        node: NodeId,
        now: SimTime,
        namenode: &mut NameNode,
        metrics: &mut RunMetrics,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        if let Some(onset) = self.onset.remove(&(block, node)) {
            metrics
                .corruption_detection_secs
                .push(now.saturating_since(onset).as_secs_f64());
        }
        if namenode.drop_corrupt_replica(block, node) {
            return true;
        }
        if self.unavailable.insert(block) {
            self.parked_generation += 1;
            let deadline = SimDuration::from_secs_f64(self.cfg.unavailability_deadline_secs);
            metrics.blocks_unavailable += 1;
            queue.schedule(
                now + deadline,
                Event::Durability(DurabilityEvent::UnavailabilityDeadline { block }),
            );
        }
        false
    }
}

impl Driver {
    /// Routes one durability event.
    pub(super) fn on_durability_event(&mut self, ev: DurabilityEvent, now: SimTime) {
        // Arrivals and scrub ticks stop re-arming once the run drains.
        let drained =
            !matches!(ev, DurabilityEvent::UnavailabilityDeadline { .. }) && self.drained();
        let Some(d) = &mut self.durability else {
            unrouted(Event::Durability(ev))
        };
        match ev {
            // One more replica silently rots. The victim is drawn
            // uniformly from the intact registered replicas — or, on a
            // `disk_bias` coin, from the subset living on nodes with an
            // active fail-slow *disk* condition (the canonical
            // gray-failure corruption vector), falling back to the full
            // set when no such replica exists.
            DurabilityEvent::CorruptionArrive => {
                let cfg = d.cfg;
                if !drained {
                    schedule_arrival(
                        &mut self.queue,
                        &mut d.rng,
                        cfg.mean_time_between_corruptions_secs,
                        cfg.horizon_secs,
                        Some(now),
                        Event::Durability(DurabilityEvent::CorruptionArrive),
                    );
                }
                // The bias coin is drawn before looking at the candidates
                // so the stream advances identically whether or not a
                // sick disk exists.
                let biased = d.rng.chance(cfg.disk_bias);
                let mut candidates: Vec<(BlockId, NodeId)> = Vec::new();
                for b in 0..self.namenode.num_blocks() {
                    let block = BlockId::new(b);
                    for &node in self.namenode.locations(block) {
                        if !self.namenode.is_replica_corrupt(block, node) {
                            candidates.push((block, node));
                        }
                    }
                }
                if biased {
                    let health = &self.health;
                    let sick: Vec<(BlockId, NodeId)> = candidates
                        .iter()
                        .copied()
                        .filter(|&(_, n)| health.as_ref().is_some_and(|h| h.disk_slow_active(n)))
                        .collect();
                    if !sick.is_empty() {
                        candidates = sick;
                    }
                }
                if candidates.is_empty() {
                    return; // everything already rotten: nothing left to corrupt
                }
                let (block, node) = candidates[d.rng.below(candidates.len())];
                let marked = self.namenode.mark_corrupt(block, node);
                debug_assert!(marked, "candidate replica was intact and registered");
                d.onset.insert((block, node), now);
                self.metrics.replicas_corrupted += 1;
            }
            // The background scrubber examines the next window of blocks
            // and surfaces every latent mark it finds. The tick re-arms
            // until the run drains; detection latency is scored per mark
            // from its onset.
            DurabilityEvent::ScrubTick => {
                if drained {
                    return; // the run has drained; stop the tick chain
                }
                let cfg = d.cfg;
                let start = d.scrub_cursor;
                let total = self.namenode.num_blocks();
                let width = cfg.scrub_blocks_per_tick.min(total);
                let mut found: Vec<(BlockId, NodeId)> = Vec::new();
                for i in 0..width {
                    let block = BlockId::new((start + i) % total);
                    for &node in self.namenode.corrupt_replicas(block) {
                        // Marks whose onset has already drained were
                        // detected earlier (e.g. a tombstoned sole copy):
                        // not re-scored.
                        if d.onset.contains_key(&(block, node)) {
                            found.push((block, node));
                        }
                    }
                }
                d.scrub_cursor = if total == 0 {
                    0
                } else {
                    (start + width) % total
                };
                let mut dropped = false;
                for (block, node) in found {
                    self.metrics.scrub_detections += 1;
                    if d.detect(
                        block,
                        node,
                        now,
                        &mut self.namenode,
                        &mut self.metrics,
                        &mut self.queue,
                    ) {
                        // Repair is paced by this layer whenever it is
                        // configured (see `repair_pacing`).
                        arm_repair(
                            &mut self.repair_armed,
                            &mut self.queue,
                            now,
                            cfg.repair_interval_secs,
                        );
                        dropped = true;
                    }
                }
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(cfg.scrub_interval_secs),
                    Event::Durability(DurabilityEvent::ScrubTick),
                );
                if dropped {
                    self.refresh_all_preferred();
                }
            }
            // A block's unavailability grace period ran out. If the block
            // is still unavailable, every unfinished job with an
            // uncompleted input task on it fails cleanly — parked tasks
            // never deadlock the run.
            DurabilityEvent::UnavailabilityDeadline { block } => {
                if !d.unavailable.contains(&block) {
                    return; // recovered before the deadline
                }
                let victims: Vec<usize> = self
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, job)| {
                        let mut inputs = job.input_blocks.iter().zip(&job.input_stage().tasks);
                        !job.is_finished()
                            && inputs.any(|(&b, t)| {
                                b == block && !matches!(t.state, TaskState::Done { .. })
                            })
                    })
                    .map(|(j, _)| j)
                    .collect();
                for j in victims {
                    self.fail_job(j, now);
                    self.metrics.jobs_failed_unavailable += 1;
                }
            }
        }
    }

    /// `job` was just submitted. If any of its input blocks is already
    /// tombstoned, a fresh deadline is armed per such block: the new
    /// job's parked tasks get the same bounded wait as everyone else's
    /// (an earlier deadline may have fired before this job existed).
    pub(super) fn durability_note_submit(&mut self, job: &RuntimeJob, now: SimTime) {
        let Some(d) = &self.durability else { return };
        if d.unavailable.is_empty() {
            return;
        }
        let mut blocks: Vec<BlockId> = job
            .input_blocks
            .iter()
            .copied()
            .filter(|b| d.unavailable.contains(b))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let deadline = SimDuration::from_secs_f64(d.cfg.unavailability_deadline_secs);
        for block in blocks {
            self.queue.schedule(
                now + deadline,
                Event::Durability(DurabilityEvent::UnavailabilityDeadline { block }),
            );
        }
    }

    /// An unavailable block regained an intact replica (a falsely
    /// suspected holder rejoined with its data): lift the tombstone so
    /// parked tasks run again. Called after node reinstatement.
    pub(super) fn durability_recheck_unavailable(&mut self) {
        let Some(d) = &mut self.durability else {
            return;
        };
        if d.unavailable.is_empty() {
            return;
        }
        let nn = &self.namenode;
        let recovered: Vec<BlockId> = d
            .unavailable
            .iter()
            .copied()
            .filter(|&b| nn.clean_replica_count(b) > 0)
            .collect();
        for block in recovered {
            d.unavailable.remove(&block);
            d.parked_generation += 1;
            self.metrics.blocks_recovered += 1;
        }
    }

    /// The single entry point for re-replication demand — chaos crashes,
    /// scripted-failure escalations, DataNode suspicions, and corruption
    /// drops all land here. With a durability or partition layer active
    /// the debt is paid in paced `RestoreTick` batches (priority-ordered
    /// when durability is on); the bare oracle keeps its historical
    /// instant restore.
    pub(super) fn schedule_repair(&mut self, now: SimTime) {
        if self.repair_pacing().is_some() {
            self.arm_repair_tick(now);
        } else {
            self.metrics.replicas_repaired += self
                .namenode
                .restore_replication(&mut self.fail_rng, usize::MAX);
        }
    }

    /// The paced repair budget `(batch, interval secs)`, `None` without
    /// a pacing layer. The durability layer's pacing wins when both
    /// layers are configured.
    fn repair_pacing(&self) -> Option<(usize, f64)> {
        match (&self.durability, &self.partition) {
            (Some(d), _) => Some((d.cfg.repair_batch, d.cfg.repair_interval_secs)),
            (None, Some(p)) => Some((p.cfg.restore_batch, p.cfg.restore_interval_secs)),
            (None, None) => None,
        }
    }

    /// Arms the paced repair tick if it is not already pending (at most
    /// one `RestoreTick` in flight).
    pub(super) fn arm_repair_tick(&mut self, now: SimTime) {
        if let Some((_, interval_secs)) = self.repair_pacing() {
            arm_repair(&mut self.repair_armed, &mut self.queue, now, interval_secs);
        }
    }

    /// One paced batch of re-replication debt is paid. With durability
    /// on, blocks are served in priority order — fewest live replicas
    /// first, so sole-copy blocks always win the bandwidth budget; the
    /// partition-only path keeps its historical block-id order
    /// bit-for-bit. While the batch fills the tick re-arms.
    pub(super) fn on_restore_tick(&mut self, now: SimTime) {
        self.repair_armed = false;
        let Some((batch, _)) = self.repair_pacing() else {
            return; // stale tick from a layer that no longer exists
        };
        let created = if self.durability.is_some() {
            let order = self.namenode.repair_order();
            self.namenode
                .restore_blocks(&mut self.fail_rng, &order, batch)
        } else {
            self.namenode.restore_replication(&mut self.fail_rng, batch)
        };
        self.metrics.replicas_repaired += created;
        if created > 0 {
            self.refresh_all_preferred();
        }
        if created == batch {
            // The batch filled: assume more debt and keep pacing.
            self.arm_repair_tick(now);
        }
    }
}

/// Schedules the paced repair tick `interval_secs` from `now` unless one
/// is already pending (`armed`).
fn arm_repair(armed: &mut bool, queue: &mut EventQueue<Event>, now: SimTime, interval_secs: f64) {
    if !*armed {
        *armed = true;
        queue.schedule(
            now + SimDuration::from_secs_f64(interval_secs),
            Event::RestoreTick,
        );
    }
}
