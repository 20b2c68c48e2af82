//! Silent replica corruption, verified reads, background scrubbing, and
//! the unified prioritized repair pipeline.
//!
//! The layer exists only when a [`CorruptionConfig`] is present and
//! non-inert, so inert runs degenerate to the oracle bit-for-bit (the
//! data-durability analogue of the gray-failure and partition layers'
//! `is_inert` discipline). When live, corruption is drawn from the
//! dedicated `"corruption"` stream and threaded through three events:
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

use custody_dfs::{BlockId, NodeId};
use custody_scheduler::RetryPolicy;
use custody_simcore::dist::{Distribution, Exponential};
use custody_simcore::{SimDuration, SimTime};

use crate::config::CorruptionConfig;
use crate::job::TaskState;

use super::{Driver, Event, RunningTask};

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
    /// Next block index the scrubber examines (wraps around).
    pub(super) scrub_cursor: usize,
}

impl DurabilityLayer {
    pub(super) fn new(cfg: CorruptionConfig) -> Self {
        DurabilityLayer {
            retry: RetryPolicy::new(
                cfg.retry_budget,
                SimDuration::from_secs_f64(cfg.retry_backoff_secs),
                cfg.retry_jitter,
            ),
            cfg,
            onset: BTreeMap::new(),
            unavailable: BTreeSet::new(),
            scrub_cursor: 0,
        }
    }
}

impl Driver {
    /// Same drained-run test as the partition and control-plane layers:
    /// once every job has been submitted and finished, corruption
    /// arrivals and scrub ticks stop rescheduling themselves so the
    /// queue drains.
    fn durability_idle(&self) -> bool {
        self.jobs.len() == self.apps.iter().map(|a| a.specs.len()).sum::<usize>()
            && self.jobs.iter().all(|j| j.is_finished())
    }

    /// One more replica silently rots. The victim is drawn uniformly
    /// from the intact registered replicas — or, on a `disk_bias` coin,
    /// from the subset living on nodes with an active fail-slow *disk*
    /// condition (the canonical gray-failure corruption vector), falling
    /// back to the full set when no such replica exists.
    pub(super) fn on_corruption_arrive(&mut self, now: SimTime) {
        let Some(d) = &self.durability else { return };
        let cfg = d.cfg;
        if !self.durability_idle() {
            let gap = Exponential::with_mean(cfg.mean_time_between_corruptions_secs)
                .sample(&mut self.corruption_rng);
            let next = now + SimDuration::from_secs_f64(gap);
            if next.as_secs_f64() <= cfg.horizon_secs {
                self.queue.schedule(next, Event::CorruptionArrive);
            }
        }
        // The bias coin is drawn before looking at the candidates so the
        // stream advances identically whether or not a sick disk exists.
        let biased = self.corruption_rng.chance(cfg.disk_bias);
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
            let sick: Vec<(BlockId, NodeId)> = candidates
                .iter()
                .copied()
                .filter(|&(_, n)| self.disk_slow_active(n))
                .collect();
            if !sick.is_empty() {
                candidates = sick;
            }
        }
        if candidates.is_empty() {
            return; // everything already rotten: nothing left to corrupt
        }
        let (block, node) = candidates[self.corruption_rng.below(candidates.len())];
        let marked = self.namenode.mark_corrupt(block, node);
        debug_assert!(marked, "candidate replica was intact and registered");
        let d = self.durability.as_mut().expect("layer checked above"); // lint: allow(panic) — guarded by the let-else at the top
        d.onset.insert((block, node), now);
        self.metrics.replicas_corrupted += 1;
    }

    /// Whether `node` currently has an active fail-slow condition whose
    /// cause is the disk — the replicas corruption arrivals bias toward.
    fn disk_slow_active(&self, node: NodeId) -> bool {
        self.health.as_ref().is_some_and(|h| {
            h.sickness[node.index()]
                .is_some_and(|s| s.active && s.cause == super::health::SlowCause::Disk)
        })
    }

    /// The background scrubber examines the next window of blocks and
    /// surfaces every latent mark it finds. The tick re-arms until the
    /// run drains; detection latency is scored per mark from its onset.
    pub(super) fn on_scrub_tick(&mut self, now: SimTime) {
        let Some(d) = &self.durability else { return };
        if self.durability_idle() {
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
                // Marks whose onset has already drained were detected
                // earlier (e.g. a tombstoned sole copy): not re-scored.
                if d.onset.contains_key(&(block, node)) {
                    found.push((block, node));
                }
            }
        }
        let d = self.durability.as_mut().expect("layer checked above"); // lint: allow(panic) — guarded by the let-else at the top
        d.scrub_cursor = if total == 0 {
            0
        } else {
            (start + width) % total
        };
        for (block, node) in found {
            self.metrics.scrub_detections += 1;
            self.detect_corrupt(block, node, now);
        }
        self.queue.schedule(
            now + SimDuration::from_secs_f64(cfg.scrub_interval_secs),
            Event::ScrubTick,
        );
    }

    /// A corrupt replica was discovered — by a failed verified read or
    /// by the scrubber. Scores detection latency (once per mark), drops
    /// the replica through the change journal so demand caches
    /// re-resolve, and hands the block to the unified repair queue. If
    /// the rotten copy was the block's *last* replica the block becomes
    /// unavailable instead: waiting tasks park, and the unavailability
    /// deadline is armed so their jobs eventually fail cleanly.
    pub(super) fn detect_corrupt(&mut self, block: BlockId, node: NodeId, now: SimTime) {
        let d = self.durability.as_mut().expect("detection without layer"); // lint: allow(panic) — detection paths only run when the layer is configured
        if let Some(onset) = d.onset.remove(&(block, node)) {
            self.metrics
                .corruption_detection_secs
                .push(now.saturating_since(onset).as_secs_f64());
        }
        if self.namenode.drop_corrupt_replica(block, node) {
            self.refresh_all_preferred();
            self.schedule_repair(now);
        } else {
            let d = self.durability.as_mut().expect("checked above"); // lint: allow(panic) — guarded at the top of the function
            if d.unavailable.insert(block) {
                let deadline = SimDuration::from_secs_f64(d.cfg.unavailability_deadline_secs);
                self.metrics.blocks_unavailable += 1;
                self.queue
                    .schedule(now + deadline, Event::UnavailabilityDeadline { block });
            }
        }
    }

    /// A verified read failed: the attempt dies exactly like a transient
    /// task fault (clone losers drain, twins take over, last attempts
    /// re-queue), charged against the durability retry policy. Backoff
    /// jitter comes from the `"corruption"` stream so the gray-failure
    /// layer's fault coins are undisturbed.
    pub(super) fn on_corrupt_read_fault(&mut self, running: RunningTask, now: SimTime) {
        if !self.on_attempt_killed(&running, now) {
            return; // a twin survives (or the race was already lost)
        }
        let j = running.job_idx;
        let policy = self
            .durability
            .as_ref()
            .expect("corrupt read without layer") // lint: allow(panic) — verified reads only fail when the layer is configured
            .retry;
        if policy.exhausted(self.jobs[j].retries) {
            self.fail_job(j, now);
            return;
        }
        self.jobs[j].retries += 1;
        self.metrics.task_retries += 1;
        let attempt = self.jobs[j].retries;
        let backoff = policy.backoff(attempt, &mut self.corruption_rng);
        self.retry_gates
            .insert((j, running.stage, running.task), now + backoff);
    }

    /// A block's unavailability grace period ran out. If the block is
    /// still unavailable, every unfinished job with an uncompleted input
    /// task on it fails cleanly — parked tasks never deadlock the run.
    pub(super) fn on_unavailability_deadline(&mut self, block: BlockId, now: SimTime) {
        let Some(d) = &self.durability else { return };
        if !d.unavailable.contains(&block) {
            return; // recovered before the deadline
        }
        let victims: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| {
                !job.is_finished()
                    && job.stages[0]
                        .tasks
                        .iter()
                        .any(|t| t.block == Some(block) && t.state != TaskState::Done)
            })
            .map(|(j, _)| j)
            .collect();
        for j in victims {
            self.fail_job(j, now);
            self.metrics.jobs_failed_unavailable += 1;
        }
    }

    /// A job was just submitted. If any of its input blocks is already
    /// tombstoned, a fresh deadline is armed per such block: the new
    /// job's parked tasks get the same bounded wait as everyone else's
    /// (an earlier deadline may have fired before this job existed).
    pub(super) fn durability_note_submit(&mut self, now: SimTime) {
        let Some(d) = &self.durability else { return };
        if d.unavailable.is_empty() {
            return;
        }
        let job = self.jobs.last().expect("called right after a submit"); // lint: allow(panic) — on_submit pushes the job before calling this
        let mut blocks: Vec<BlockId> = job.stages[0]
            .tasks
            .iter()
            .filter_map(|t| t.block)
            .filter(|b| d.unavailable.contains(b))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        let deadline = SimDuration::from_secs_f64(d.cfg.unavailability_deadline_secs);
        for block in blocks {
            self.queue
                .schedule(now + deadline, Event::UnavailabilityDeadline { block });
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
        if self.durability.is_some() || self.partition.is_some() {
            self.arm_repair_tick(now);
        } else {
            self.metrics.replicas_repaired += self.namenode.restore_replication(&mut self.fail_rng);
        }
    }

    /// Arms the paced repair tick if it is not already pending (at most
    /// one `RestoreTick` in flight). The durability layer's pacing wins
    /// when both layers are configured.
    pub(super) fn arm_repair_tick(&mut self, now: SimTime) {
        if self.repair_armed {
            return;
        }
        let interval_secs = if let Some(d) = &self.durability {
            d.cfg.repair_interval_secs
        } else if let Some(p) = &self.partition {
            p.cfg.restore_interval_secs
        } else {
            return; // no pacing layer: schedule_repair restored instantly
        };
        self.repair_armed = true;
        self.queue.schedule(
            now + SimDuration::from_secs_f64(interval_secs),
            Event::RestoreTick,
        );
    }

    /// One paced batch of re-replication debt is paid. With durability
    /// on, blocks are served in priority order — fewest live replicas
    /// first, so sole-copy blocks always win the bandwidth budget; the
    /// partition-only path keeps its historical block-id order
    /// bit-for-bit. While the batch fills the tick re-arms.
    pub(super) fn on_restore_tick(&mut self, now: SimTime) {
        self.repair_armed = false;
        let batch = if let Some(d) = &self.durability {
            d.cfg.repair_batch
        } else if let Some(p) = &self.partition {
            p.cfg.restore_batch
        } else {
            return; // stale tick from a layer that no longer exists
        };
        let created = if self.durability.is_some() {
            let order = self.namenode.repair_order();
            self.namenode
                .restore_blocks(&mut self.fail_rng, &order, batch)
        } else {
            self.namenode
                .restore_replication_batch(&mut self.fail_rng, batch)
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
