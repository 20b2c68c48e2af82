//! Always-on invariant auditor for the simulation driver.
//!
//! After every handled event (in debug builds and in release builds that
//! opt in via [`SimConfig::with_audit`](crate::SimConfig::with_audit)),
//! the driver re-derives its redundant state from first principles and
//! panics on the first disagreement. The point is to catch accounting
//! bugs — a failure path that forgets to roll back a counter, a
//! speculation race that double-credits locality, a demand-cache entry
//! that went stale without being dirtied — at the event that introduced
//! them rather than thousands of events later when a job mysteriously
//! never finishes.
//!
//! The audited invariants:
//!
//! 1. **Executor conservation** — in the executor ledger, every executor
//!    is held by at most one application, each app's held set is exactly
//!    the inverse of the owners, and pool members are alive and unowned
//!    (the ledger's own self-check, `ExecutorLedger::audit`). An attempt
//!    runs only on an executor its job's application holds, so an app's
//!    held set finds all its attempts, and a pooled executor runs nothing.
//! 2. **Death discipline** — a dead executor runs nothing, is owned by
//!    nobody, sits in no pool (the ledger's half), and its host node is
//!    recorded as down (and vice versa: every down node's executors are
//!    dead).
//! 3. **Remote-read conservation** — `remote_reads_in_flight` equals
//!    the number of live attempts reading remote input.
//! 4. **Attempt discipline** — a `Running` task has one or two live
//!    attempts (the record-bound one among them), a `Runnable`/`Blocked`
//!    task has none, and a `Done` task has at most one (a speculation
//!    loser still draining).
//! 5. **Locality accounting** — each application's `total_jobs`,
//!    `total_tasks`, `local_tasks`, and `local_jobs` in the kept
//!    allocation view equal the sum of the credits the demand cache
//!    recorded for its jobs (whose freshness against the task records is
//!    invariant 9's).
//! 6. **Stage counters** — every stage's `launched`/`completed` counts
//!    match its tasks' states.
//! 7. **Wake conservation** — the times of the `Wake` events actually
//!    queued are exactly the dedup set, so a decline burst can never
//!    flood the event queue.
//! 8. **NameNode invariants** — replica maps and usage accounting (see
//!    [`NameNode::check_invariants`](custody_dfs::NameNode)), plus, in
//!    oracle mode, agreement with the driver's fault records: an
//!    executor is dead exactly when its node's fault silences the
//!    executor channel, and a DataNode is decommissioned exactly when it
//!    silences the DataNode channel (`FaultKind::silences`).
//! 9. **Demand-cache freshness** — every clean job's entry in the kept
//!    view and its recorded locality credit match a from-scratch
//!    recomputation from its task records, the view's idle half is
//!    empty between rounds, and every round that reuses the kept
//!    decision is one the allocator would really have decided the same
//!    way, re-derived on the spot without touching driver state: a round
//!    reused after a demand-free round sees no demand; any other sees the
//!    kept round's idle list and held counts again, and its grants (none
//!    for a skip) are what a copy of the live allocator, priced with the
//!    current health costs, and for Custody a fresh one, grant on them; a
//!    replay with grants also finds the installed cost table current. A
//!    Custody allocator keeps its round across calls, so every round it
//!    plays must grant exactly what a freshly built one grants. An offer
//!    answered by a decline memo is re-made on a copy of the app's
//!    scheduler, which must decline with the same deadline and stay
//!    equal to the original.
//! 10. **Belief coherence** (detector mode) — executor death tracks
//!     executor-channel suspicion and lease revocation exactly, DFS
//!     decommissions track DataNode-channel suspicion, ownership and
//!     leases form a bijection, no channel record is suspected with its
//!     suspicion timer armed, and no stale completion ever slipped past
//!     epoch fencing.
//! 11. **Gray-failure discipline** (fail-slow layer) — no job's retry
//!     count exceeds the budget, a failed job holds no live attempts and
//!     no backoff gates, backoff gates cover only re-queued (runnable)
//!     tasks of live jobs, and with detection on no idle executor on a
//!     quarantined node is held by any application (launches there are
//!     additionally asserted at launch time).
//! 12. **Preferred-node freshness** — every unlaunched input task of an
//!     unfinished job agrees with the NameNode's current replica map, so
//!     the journal-driven sharded invalidation misses nothing.
//! 13. **Partition discipline** (connectivity layer) — without the layer
//!     every partition counter is zero; with it, ghost dispatches exist
//!     only under an active cut and only on busy minority executors the
//!     master cannot reach, fenced + still-bouncing deferred reports
//!     never exceed total deferrals, every partition-fenced Finish also
//!     hit the epoch fence, the episode budget is respected, and
//!     reconvergence is only ever awaited after a heal.
//! 14. **Durability discipline** (corruption layer) — without the layer
//!     every corruption counter is zero; with it, the unavailability
//!     ledger balances (`blocks_unavailable` = recovered + standing
//!     tombstones), every standing tombstone has zero intact replicas,
//!     onset entries never outnumber injected marks, detection-latency
//!     samples never exceed detections, and *no completed task ever
//!     read a corrupted replica* (enforced at completion by the
//!     verified-read gate and re-asserted before `mark_done`).

use custody_cluster::{ExecutorId, HealthState};
use custody_core::{AllocationView, Assignment, HealthCost};
use custody_dfs::NodeId;
use custody_scheduler::Placement;
use custody_simcore::SimTime;

use crate::job::TaskState;

use super::{no_demand, DetectorState, Driver, Event, FaultKind, HbChannel, HealthLayer};

impl Driver {
    /// Checks every driver invariant, panicking with a description of
    /// the first violation. Cost is O(executors + tasks) per call, so
    /// release-mode experiment sweeps leave it off unless asked.
    pub(crate) fn audit(&self) {
        self.audit_executors();
        self.audit_attempts();
        self.audit_accounting();
        self.audit_wakes();
        self.audit_topology();
        self.audit_preferred();
        self.cache.audit(&self.jobs, &self.view.apps);
        assert!(
            self.view.idle.is_empty(),
            "the kept view holds an idle list between rounds"
        );
        if let Some(h) = &self.health {
            self.audit_health(h);
        }
        self.audit_partition();
        self.audit_durability();
        // Backoff-gate hygiene, for transient faults and failed verified
        // reads alike.
        for &(j, s, t) in self.retry_gates.keys() {
            assert!(
                !self.jobs[j].is_finished(),
                "retry gate outlives finished job {j}"
            );
            assert!(
                matches!(
                    self.jobs[j].stages[s].tasks[t].state,
                    TaskState::Runnable { .. }
                ),
                "job {j} stage {s} task {t} gated while not runnable"
            );
        }
    }

    /// Invariant 9, reuse half: called in place of a round that reuses
    /// the kept decision, before it is applied. After a demand-free round
    /// (`grants` is `None`) no application may want anything. Otherwise it
    /// rebuilds the round's view — the unchanged cache has nothing to
    /// refresh, and a clone of the kept view gets the idle half — and
    /// checks it is the kept round's (idle list and held counts), that the
    /// reused `grants` are what a copy of the live allocator priced with
    /// the current health costs grants on it (a zero-grant skip does not
    /// read the health generation, so the installed table may predate
    /// it), for a replay with grants that the installed cost table is
    /// current, and for a Custody allocator that a fresh one
    /// grants the same ([`audit_kept_round`](Self::audit_kept_round)).
    /// Driver state is left untouched, so an audited run stays
    /// bit-identical to an unaudited one.
    pub(super) fn audit_reused_round(&self, grants: Option<&[Assignment]>) {
        assert!(
            self.cache.is_fresh(),
            "round reused with stale demand in the cache"
        );
        let Some(grants) = grants else {
            return assert!(
                no_demand(&self.view.apps),
                "round skipped as demand-free while an application wants executors"
            );
        };
        let kept = &self.kept_round;
        let mut view = self.view.clone();
        view.idle = self.idle_executors();
        assert_eq!(
            view.idle, kept.idle,
            "reused round sees another idle list than the kept round"
        );
        let held: Vec<usize> = view.apps.iter().map(|a| a.held).collect();
        assert_eq!(
            held, kept.held,
            "reused round sees other held counts than the kept round"
        );
        let costs = self.demotion_costs();
        if !grants.is_empty() {
            assert_eq!(
                self.health_costs.as_ref().map(|(_, c)| &c[..]),
                costs.as_deref(),
                "replayed round with a stale health-cost table installed"
            );
        }
        let mut live = self.allocator.clone_box();
        if let Some(costs) = &costs {
            live.set_node_health_costs(costs);
        }
        assert_eq!(
            live.allocate(&view, &mut self.alloc_rng.clone()),
            grants,
            "reused round's grants differ from what the allocator grants"
        );
        self.audit_kept_round(&view, grants, costs.as_deref());
    }

    /// Invariant 9, memo half: an offer of `node` to app `i` that its
    /// decline memo answered with `deadline` is re-made on a copy of the
    /// app's scheduler, which must decline with the same deadline and be
    /// left equal to the original (the `on_offer` decline contract).
    pub(super) fn audit_memo_hit(&self, i: usize, node: NodeId, deadline: SimTime, now: SimTime) {
        let mut runnable = Vec::new();
        self.runnable_tasks(i, now, &mut runnable);
        let scheduler = &self.apps[i].scheduler;
        let mut copy = scheduler.clone_box();
        assert_eq!(
            copy.on_offer(node, &runnable, now),
            Placement::Decline {
                retry_after: deadline.saturating_since(now)
            },
            "memoized decline of {node} for app {i} no longer holds"
        );
        assert_eq!(
            format!("{copy:?}"),
            format!("{scheduler:?}"),
            "the offer of {node} a memo answered would have changed app {i}'s scheduler"
        );
    }

    /// Invariant 9, kept-round half: a Custody allocator reconciles the
    /// round it kept from its previous call with the new view, so its
    /// `granted` must equal the grants of a freshly built allocator of the
    /// same kind, priced with the same health `costs`, on the same `view`.
    /// Other allocators are left alone: the dynamic-offer cursor is state
    /// by design.
    pub(super) fn audit_kept_round(
        &self,
        view: &AllocationView,
        granted: &[Assignment],
        costs: Option<&[(NodeId, HealthCost)]>,
    ) {
        if !self.allocator_kind.is_custody() {
            return;
        }
        let mut rng = self.alloc_rng.clone();
        let mut fresh = self.allocator_kind.build(&[], self.apps.len(), &mut rng);
        if let Some(costs) = costs {
            fresh.set_node_health_costs(costs);
        }
        assert_eq!(
            granted,
            fresh.allocate(view, &mut rng),
            "kept allocator round diverged from a freshly built one"
        );
    }

    /// Invariant 14: durability discipline — counter hygiene without the
    /// layer; ledger self-consistency, tombstone justification, and
    /// detection accounting with it. The invariant's completion half —
    /// *no completed task ever read a corrupted replica* — is enforced
    /// structurally at completion time: the verified-read gate diverts
    /// every corrupt-source attempt before `mark_done`, and a
    /// debug assertion re-checks the winner's source there.
    pub(super) fn audit_durability(&self) {
        let m = &self.metrics;
        let Some(d) = &self.durability else {
            return assert_untouched(&[
                ("corrupted replicas", m.replicas_corrupted),
                ("corrupt reads", m.corrupt_reads_detected),
                ("scrub detections", m.scrub_detections),
                ("detection latencies", m.corruption_detection_secs.count()),
                ("tombstoned blocks", m.blocks_unavailable),
                ("lifted tombstones", m.blocks_recovered),
                ("unavailability job failures", m.jobs_failed_unavailable),
            ]);
        };
        // Ledger self-consistency: every tombstone ever raised is either
        // still standing or was lifted by a recovery.
        assert_eq!(
            self.metrics.blocks_unavailable,
            self.metrics.blocks_recovered + d.unavailable.len(),
            "unavailability ledger out of balance"
        );
        // Every standing tombstone is justified: no intact copy exists.
        for &block in &d.unavailable {
            assert_eq!(
                self.namenode.clean_replica_count(block),
                0,
                "{block} is tombstoned but has an intact replica"
            );
        }
        // Every undetected-onset entry points at a live mark, and no
        // block holds more marks than were ever injected.
        let mut marks_total = 0;
        for b in 0..self.namenode.num_blocks() {
            marks_total += self
                .namenode
                .corrupt_replicas(custody_dfs::BlockId::new(b))
                .len();
        }
        assert!(
            marks_total <= self.metrics.replicas_corrupted,
            "{marks_total} live corruption marks exceed {} ever injected",
            self.metrics.replicas_corrupted
        );
        // Onset entries are inserted once per successful mark; stale
        // entries (the replica crashed away before detection) are legal,
        // so only the insertion bound holds.
        assert!(
            d.onset.len() <= self.metrics.replicas_corrupted,
            "{} onset entries exceed {} marks ever injected",
            d.onset.len(),
            self.metrics.replicas_corrupted
        );
        // Detection accounting: every latency sample came from a read or
        // scrub detection (a detection whose onset already drained — a
        // re-read of a tombstoned sole copy — counts no second sample).
        assert!(
            self.metrics.corruption_detection_secs.count()
                <= self.metrics.corrupt_reads_detected + self.metrics.scrub_detections,
            "more detection-latency samples than detections"
        );
        assert!(
            self.metrics.jobs_failed_unavailable <= self.metrics.jobs_failed,
            "unavailability job failures exceed total job failures"
        );
    }

    /// Invariant 13: partition discipline — counter hygiene without the
    /// layer; ghost-dispatch, deferral and episode bookkeeping with it.
    pub(super) fn audit_partition(&self) {
        let m = &self.metrics;
        let Some(p) = &self.partition else {
            return assert_untouched(&[
                ("partition episodes", m.partition_episodes),
                ("deferred finishes", m.partition_finishes_deferred),
                ("partition-fenced finishes", m.partition_finishes_fenced),
                ("partition-discarded attempts", m.partition_work_discarded),
                ("reconvergence samples", m.partition_reconverge_secs.count()),
            ]);
        };
        let c = &p.connectivity;
        assert!(
            p.lost_dispatches.is_empty() || c.cutting(),
            "ghost dispatches survived a reconnect unreconciled"
        );
        for &e in &p.lost_dispatches {
            let node = self.cluster.node_of(e);
            assert!(
                c.in_minority(node),
                "ghost dispatch on majority-side executor {e}"
            );
            assert!(
                !c.master_reaches_node(node),
                "ghost dispatch on a reachable node ({e})"
            );
            assert!(
                !self.ledger.is_dead(e) && self.exec_state[e.index()].running.is_some(),
                "ghost dispatch on an executor ({e}) the master does not believe busy"
            );
        }
        assert!(
            self.metrics.partition_finishes_fenced + p.deferred.len()
                <= self.metrics.partition_finishes_deferred,
            "fenced ({}) + bouncing ({}) deferred reports exceed deferrals ({})",
            self.metrics.partition_finishes_fenced,
            p.deferred.len(),
            self.metrics.partition_finishes_deferred,
        );
        assert!(
            self.metrics.partition_finishes_fenced <= self.metrics.stale_finishes_fenced,
            "a partition-fenced Finish bypassed the epoch fence"
        );
        assert!(
            self.metrics.partition_episodes <= p.cfg.max_episodes,
            "episode budget exceeded"
        );
        assert!(
            !c.split_active() || self.metrics.partition_episodes >= 1,
            "active split without an episode on record"
        );
        assert!(
            p.awaiting_reconverge.is_none() || !c.split_active(),
            "reconvergence awaited while a split is still open"
        );
    }

    /// Invariant 11: gray-failure discipline — retry budgets, failed-job
    /// hygiene, backoff gates, and quarantine exclusion.
    fn audit_health(&self, h: &HealthLayer) {
        // Transient faults and failed verified reads draw on the same
        // per-job retry counter, so the bound is the larger of the two
        // budgets when the durability layer is also active.
        let budget = self
            .durability
            .as_ref()
            .map_or(h.retry.budget, |d| h.retry.budget.max(d.retry.budget));
        for (j, job) in self.jobs.iter().enumerate() {
            assert!(
                job.retries <= budget,
                "job {j} consumed {} retries against a budget of {budget}",
                job.retries,
            );
            if job.failed {
                let running = job
                    .stages
                    .iter()
                    .flat_map(|s| &s.tasks)
                    .filter(|t| matches!(t.state, TaskState::Running { .. }))
                    .count();
                assert_eq!(running, 0, "failed job {j} still has running tasks");
            }
        }
        if !h.cfg.detection {
            return;
        }
        for (e, st) in self.exec_state.iter().enumerate() {
            let id = ExecutorId::new(e);
            let node = self.cluster.node_of(id);
            assert!(
                h.belief[node.index()].state != HealthState::Quarantined
                    || self.ledger.owner(id).is_none()
                    || st.running.is_some(),
                "idle executor {e} on quarantined node {node} is still held"
            );
        }
        for (n, b) in h.belief.iter().enumerate() {
            assert!(
                b.samples.len() <= h.cfg.window,
                "node {n} sample window overflowed"
            );
        }
    }

    /// Invariant 12: preferred-node freshness — every unlaunched input
    /// task of an unfinished job points at exactly its block's current
    /// replica set. Replica churn is propagated through the NameNode's
    /// change journal and the demand cache's block → watching-jobs index;
    /// this catches a journal entry that was never drained, or a drain
    /// that missed a watching job.
    fn audit_preferred(&self) {
        for (j, job) in self.jobs.iter().enumerate() {
            if job.is_finished() {
                continue;
            }
            for (t, task) in job.stages[0].tasks.iter().enumerate() {
                if !matches!(task.state, TaskState::Blocked | TaskState::Runnable { .. }) {
                    continue;
                }
                assert_eq!(
                    &task.preferred[..],
                    self.namenode.locations(job.input_blocks[t]),
                    "job {j} input task {t}: preferred nodes out of date with the replica map"
                );
            }
        }
    }

    /// Invariants 1–3: the ledger's self-check (ownership bijection, pool
    /// hygiene, the dead unowned and unpooled), then what needs the
    /// running attempts: an attempt runs on an executor its app holds (so
    /// the dead run nothing), the pooled run nothing, and remote reads
    /// are conserved.
    fn audit_executors(&self) {
        self.ledger.audit();
        let mut remote = 0usize;
        for (e, st) in self.exec_state.iter().enumerate() {
            if let Some(r) = st.running {
                let app = self.jobs[r.job_idx].app;
                assert_eq!(
                    self.ledger.owner(ExecutorId::new(e)),
                    Some(app),
                    "executor {e} runs a task of {app} without being held by it"
                );
                remote += usize::from(r.remote_input);
            }
        }
        for e in self.ledger.pool().iter() {
            assert!(
                self.exec_state[e].running.is_none(),
                "pooled executor {e} is running a task"
            );
        }
        assert_eq!(
            self.remote_reads_in_flight, remote,
            "remote-read counter out of sync with live attempts"
        );
    }

    /// Invariant 4: per-task attempt counts and the record-bound attempt.
    fn audit_attempts(&self) {
        use std::collections::BTreeMap;
        let mut attempts: BTreeMap<(usize, usize, usize), Vec<&super::RunningTask>> =
            BTreeMap::new();
        // Invariant 2 already found the dead running nothing.
        for st in &self.exec_state {
            if let Some(r) = &st.running {
                attempts
                    .entry((r.job_idx, r.stage, r.task))
                    .or_default()
                    .push(r);
            }
        }
        for (j, job) in self.jobs.iter().enumerate() {
            for (s, stage) in job.stages.iter().enumerate() {
                for (t, task) in stage.tasks.iter().enumerate() {
                    let live = attempts.get(&(j, s, t)).map_or(&[][..], |v| &v[..]);
                    match task.state {
                        TaskState::Blocked | TaskState::Runnable { .. } => assert!(
                            live.is_empty(),
                            "job {j} stage {s} task {t} is {:?} with a live attempt",
                            task.state
                        ),
                        TaskState::Running {
                            launched_at, local, ..
                        } => {
                            assert!(
                                (1..=2).contains(&live.len()),
                                "job {j} stage {s} task {t} runs {} attempts",
                                live.len()
                            );
                            assert!(
                                live.iter()
                                    .any(|r| r.launched_at == launched_at && r.local == local),
                                "job {j} stage {s} task {t}: record-bound attempt is not live"
                            );
                        }
                        TaskState::Done { .. } => assert!(
                            live.len() <= 1,
                            "job {j} stage {s} task {t} finished with {} live attempts",
                            live.len()
                        ),
                    }
                }
            }
        }
    }

    /// Invariants 5–6: the view's per-app counters sum the cache's
    /// recorded credits, and the stage counters re-derive from the task
    /// records.
    fn audit_accounting(&self) {
        for (i, (a, v)) in self.apps.iter().zip(&self.view.apps).enumerate() {
            let c = self.cache.credited(&a.jobs);
            assert_eq!(v.total_jobs, c.total_jobs, "app {i} job count drifted");
            assert_eq!(v.total_tasks, c.total_tasks, "app {i} total_tasks drifted");
            assert_eq!(v.local_tasks, c.local_tasks, "app {i} local_tasks drifted");
            assert_eq!(v.local_jobs, c.local_jobs, "app {i} local_jobs drifted");
        }
        for (j, job) in self.jobs.iter().enumerate() {
            for (s, stage) in job.stages.iter().enumerate() {
                let running_or_done = stage
                    .tasks
                    .iter()
                    .filter(|t| !matches!(t.state, TaskState::Blocked | TaskState::Runnable { .. }))
                    .count();
                let done = stage
                    .tasks
                    .iter()
                    .filter(|t| matches!(t.state, TaskState::Done { .. }))
                    .count();
                assert_eq!(
                    stage.launched, running_or_done,
                    "job {j} stage {s} launched counter drifted"
                );
                assert_eq!(
                    stage.completed, done,
                    "job {j} stage {s} completed counter drifted"
                );
            }
        }
    }

    /// Invariant 7: the dedup set holds exactly the times of the queued
    /// `Wake` events (the set has no duplicates, so neither may the
    /// queue).
    fn audit_wakes(&self) {
        let mut queued: Vec<SimTime> = self
            .queue
            .iter()
            .filter(|(_, event)| matches!(event, Event::Wake))
            .map(|(at, _)| at)
            .collect();
        queued.sort_unstable();
        assert!(
            queued.iter().eq(&self.wakes),
            "queued Wake events out of sync with the dedup set: {queued:?} queued, {:?} recorded",
            self.wakes
        );
    }

    /// Invariant 8: driver fault records, executor liveness, and DFS
    /// decommission state all agree; then the NameNode's own deep check.
    ///
    /// In oracle mode liveness is coupled to *physical* truth
    /// (`node_down`); in detector mode it is coupled to the master's
    /// *belief* (suspicions and lease revocations), which is checked by
    /// [`audit_detector`](Self::audit_detector) instead.
    fn audit_topology(&self) {
        assert!(
            self.metrics.blocks_lost == 0 || self.metrics.nodes_failed > 0,
            "blocks recorded lost without any machine loss"
        );
        self.namenode.check_invariants();
        if let Some(d) = &self.detector {
            return self.audit_detector(d);
        }
        let silenced = |node: NodeId, channel| {
            self.node_down[node.index()].is_some_and(|k: FaultKind| k.silences(channel))
        };
        for e in 0..self.exec_state.len() {
            let id = ExecutorId::new(e);
            assert_eq!(
                self.ledger.is_dead(id),
                silenced(self.cluster.node_of(id), HbChannel::Executor),
                "executor {e} liveness disagrees with its node's fault record"
            );
        }
        for n in (0..self.node_down.len()).map(NodeId::new) {
            assert_eq!(
                self.namenode.is_node_failed(n),
                silenced(n, HbChannel::DataNode),
                "node {n} DataNode decommission state disagrees with its fault record"
            );
        }
    }

    /// Invariant 10 (detector mode): the master's belief state is
    /// internally coherent — executor death tracks suspicion/revocation
    /// exactly, DFS decommissions track DataNode suspicion exactly,
    /// ownership and leases are a bijection, suspicion timers are
    /// disarmed exactly while their suspicion stands, the single lease
    /// timer covers the earliest expiry, and no stale completion ever
    /// slipped past epoch fencing.
    fn audit_detector(&self, d: &DetectorState) {
        for e in 0..self.exec_state.len() {
            let id = ExecutorId::new(e);
            let believed_dead = d
                .channel(self.cluster.node_of(id), HbChannel::Executor)
                .suspected
                || d.revoked[e];
            assert_eq!(
                self.ledger.is_dead(id),
                believed_dead,
                "executor {e} deadness disagrees with suspicion/revocation belief"
            );
            assert_eq!(
                self.ledger.owner(id).is_some(),
                d.leases.holds(id),
                "executor {e} ownership and lease disagree"
            );
        }
        for n in (0..self.node_down.len()).map(NodeId::new) {
            assert_eq!(
                self.namenode.is_node_failed(n),
                d.channel(n, HbChannel::DataNode).suspected,
                "node {n} DFS decommission state disagrees with suspicion belief"
            );
            for channel in HbChannel::ALL {
                let c = d.channel(n, channel);
                assert!(
                    !(c.suspected && c.deadline_armed),
                    "node {n} {channel:?} channel suspected with its suspicion timer still armed"
                );
            }
        }
        if let Some(next) = d.leases.next_expiry() {
            assert!(
                d.lease_deadline_at.is_some_and(|armed_at| armed_at <= next),
                "live leases without a pending expiry timer armed by the earliest expiry"
            );
        }
        assert_eq!(
            self.metrics.unfenced_stale_finishes, 0,
            "a stale completion slipped past epoch fencing"
        );
    }
}

/// Counter hygiene for an absent fault layer: every counter only that
/// layer moves is still zero.
fn assert_untouched(counters: &[(&str, usize)]) {
    for &(what, count) in counters {
        assert_eq!(count, 0, "{what} counted without the layer");
    }
}
