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
//! 1. **Executor conservation** — every executor is held by at most one
//!    application, and `AppRuntime::held` is exactly the inverse of
//!    `ExecState::owner`. Pool members are idle, alive, and unowned.
//! 2. **Death discipline** — a dead executor runs nothing, is owned by
//!    nobody, sits in no pool, and its host node is recorded as down
//!    (and vice versa: every down node's executors are dead).
//! 3. **Remote-read conservation** — `remote_reads_in_flight` equals
//!    the number of live attempts reading remote input.
//! 4. **Attempt discipline** — a `Running` task has one or two live
//!    attempts (the record-bound one among them), a `Runnable`/`Blocked`
//!    task has none, and a `Done` task has at most one (a speculation
//!    loser still draining).
//! 5. **Locality accounting** — each application's `total_jobs`,
//!    `total_tasks`, `local_tasks`, and `local_jobs` re-derive exactly
//!    from its jobs' task records.
//! 6. **Stage counters** — every stage's `launched`/`completed` counts
//!    match its tasks' states.
//! 7. **Wake conservation** — queued `Wake` events equal the dedup set,
//!    so a decline burst can never flood the event queue.
//! 8. **NameNode invariants** — replica maps and usage accounting (see
//!    [`NameNode::check_invariants`](custody_dfs::NameNode)), plus
//!    agreement between the driver's fault records and DataNode
//!    decommission state.
//! 9. **Demand-cache freshness** — every clean cache slot matches a
//!    from-scratch recomputation, and every skipped allocation round is
//!    one the allocator would really have wasted: re-derived on the spot
//!    (without touching driver state), a round skipped after a
//!    demand-free round sees no demand, and one skipped after a
//!    zero-grant round gets no grant from a copy of the allocator.
//! 10. **Belief coherence** (detector mode) — executor death tracks
//!     suspicion/lease-revocation belief exactly, DFS decommissions
//!     track DataNode suspicion, ownership and leases form a bijection,
//!     suspicion timers are disarmed exactly while their suspicion
//!     stands, and no stale completion ever slipped past epoch fencing.
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

use custody_cluster::HealthState;

use crate::job::TaskState;

use super::{DetectorState, Driver, FaultKind, HealthLayer, LastRound};

impl Driver {
    /// Checks every driver invariant, panicking with a description of
    /// the first violation. Cost is O(executors + tasks) per call, so
    /// release-mode experiment sweeps leave it off unless asked.
    pub(crate) fn audit(&self) {
        self.audit_executors();
        self.audit_attempts();
        self.audit_accounting();
        assert_eq!(
            self.pending_wakes,
            self.wakes.len(),
            "queued Wake events out of sync with the dedup set"
        );
        self.audit_topology();
        self.audit_preferred();
        self.cache.audit(&self.jobs);
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

    /// Invariant 9, skip half: called in place of a skipped allocation
    /// round, it rebuilds that round's view — the quiescent cache has
    /// nothing to refresh — and checks the replayed outcome is the one
    /// running the round would produce: no demand after a demand-free
    /// round, and no grant after a zero-grant round from a copy of the
    /// allocator drawing on a copy of its RNG stream. Driver state is left
    /// untouched, so an audited run stays bit-identical to an unaudited
    /// one.
    pub(super) fn audit_skipped_round(&self) {
        assert!(
            self.cache.is_fresh(),
            "round skipped with stale demand in the cache"
        );
        let view = self.view();
        if self.last_round == LastRound::NoDemand {
            assert_eq!(
                view.total_demand(),
                0,
                "round skipped as demand-free while an application wants executors"
            );
            return;
        }
        let mut allocator = self.allocator.clone_box();
        if let Some(costs) = self.demotion_costs() {
            allocator.set_node_health_costs(&costs);
        }
        let grants = allocator.allocate(&view, &mut self.alloc_rng.clone());
        assert!(
            grants.is_empty(),
            "skipped round would have granted {} executors",
            grants.len()
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
            let st = &self.exec_state[e.index()];
            assert!(
                !st.dead && st.running.is_some(),
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
            let node = self.cluster.node_of(custody_cluster::ExecutorId::new(e));
            assert!(
                h.belief[node.index()].state != HealthState::Quarantined
                    || st.owner.is_none()
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

    /// Invariants 1–3: ownership bijection, pool hygiene, death
    /// discipline, remote-read conservation.
    fn audit_executors(&self) {
        let mut remote = 0usize;
        for (e, st) in self.exec_state.iter().enumerate() {
            if st.dead {
                assert!(st.running.is_none(), "dead executor {e} is running a task");
                assert!(st.owner.is_none(), "dead executor {e} has an owner");
                assert!(
                    !self.pool.contains(e),
                    "dead executor {e} sits in the idle pool"
                );
            }
            if let Some(owner) = st.owner {
                assert!(
                    self.apps[owner.index()].held.contains(e),
                    "executor {e} owned by {owner} but missing from its held set"
                );
            }
            if let Some(r) = st.running {
                assert!(
                    st.owner.is_some(),
                    "executor {e} runs a task without an owner"
                );
                if r.remote_input {
                    remote += 1;
                }
            }
        }
        let held_total: usize = self.apps.iter().map(|a| a.held.len()).sum();
        let owned_total = self
            .exec_state
            .iter()
            .filter(|st| st.owner.is_some())
            .count();
        assert_eq!(
            held_total, owned_total,
            "an executor is held by more than one application"
        );
        for (i, a) in self.apps.iter().enumerate() {
            for e in a.held.iter() {
                let st = &self.exec_state[e];
                assert_eq!(
                    st.owner.map(custody_workload::AppId::index),
                    Some(i),
                    "app {i} holds executor {e} but the executor disagrees"
                );
            }
        }
        for e in self.pool.iter() {
            let st = &self.exec_state[e];
            assert!(st.owner.is_none(), "pooled executor {e} still has an owner");
            assert!(
                st.running.is_none(),
                "pooled executor {e} is running a task"
            );
            assert!(!st.dead, "pooled executor {e} is dead");
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
        for st in &self.exec_state {
            if st.dead {
                continue;
            }
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

    /// Invariants 5–6: per-app locality accounting and stage counters
    /// re-derive from the task records.
    fn audit_accounting(&self) {
        for (i, a) in self.apps.iter().enumerate() {
            assert_eq!(a.total_jobs, a.jobs.len(), "app {i} job count drifted");
            let mut total_tasks = 0;
            let mut local_tasks = 0;
            let mut local_jobs = 0;
            for &j in &a.jobs {
                let job = &self.jobs[j];
                let local = job.local_input_tasks();
                total_tasks += job.num_input_tasks();
                local_tasks += local;
                if job.settled_local {
                    local_jobs += 1;
                    assert!(
                        local == job.num_input_tasks(),
                        "app {i} job {j} settled local with a non-local input"
                    );
                }
            }
            assert_eq!(a.total_tasks, total_tasks, "app {i} total_tasks drifted");
            assert_eq!(a.local_tasks, local_tasks, "app {i} local_tasks drifted");
            assert_eq!(a.local_jobs, local_jobs, "app {i} local_jobs drifted");
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
        for (e, st) in self.exec_state.iter().enumerate() {
            let node = self.cluster.node_of(custody_cluster::ExecutorId::new(e));
            assert_eq!(
                st.dead,
                self.node_down[node.index()].is_some(),
                "executor {e} liveness disagrees with its node's fault record"
            );
        }
        for (n, down) in self.node_down.iter().enumerate() {
            let failed = self.namenode.is_node_failed(custody_dfs::NodeId::new(n));
            match down {
                Some(FaultKind::Machine) => assert!(
                    failed,
                    "node {n} lost its machine but the NameNode still places there"
                ),
                Some(FaultKind::ExecutorsOnly) => assert!(
                    !failed,
                    "node {n} lost only executors but its DataNode is decommissioned"
                ),
                None => assert!(!failed, "node {n} is up but decommissioned"),
            }
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
        for (e, st) in self.exec_state.iter().enumerate() {
            let node = self.cluster.node_of(custody_cluster::ExecutorId::new(e));
            let believed_dead = d.exec_suspected[node.index()] || d.revoked[e];
            assert_eq!(
                st.dead, believed_dead,
                "executor {e} deadness disagrees with suspicion/revocation belief"
            );
            assert_eq!(
                st.owner.is_some(),
                d.leases.holds(custody_cluster::ExecutorId::new(e)),
                "executor {e} ownership and lease disagree"
            );
        }
        for n in 0..self.node_down.len() {
            assert_eq!(
                self.namenode.is_node_failed(custody_dfs::NodeId::new(n)),
                d.dfs_suspected[n],
                "node {n} DFS decommission state disagrees with suspicion belief"
            );
            if d.exec_suspected[n] {
                assert!(
                    !d.exec_deadline_armed[n],
                    "node {n} exec-suspected with its suspicion timer still armed"
                );
            }
            if d.dfs_suspected[n] {
                assert!(
                    !d.dfs_deadline_armed[n],
                    "node {n} dfs-suspected with its suspicion timer still armed"
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
