//! Mutable state of one allocation round, shared by both phases.
//!
//! Selection is incremental: instead of rescanning every application per
//! grant (Algorithm 1's literal "re-sort"), the round keeps a lazy-deletion
//! binary heap of [`LocalityKey`]s. Only the app whose projected locality
//! changed is re-inserted (O(log A) per grant); stale entries are discarded
//! on pop by comparing a per-app version counter. This is safe because
//! within a round an app's eligibility is monotone non-increasing — `held`
//! only grows, `demand_remaining` and per-node demand only shrink, and idle
//! executors are only consumed — so an entry that fails an eligibility
//! check can never become eligible again and may be dropped for good.
//!
//! The demand half is **kept across rounds**. The allocator runs whenever
//! a job arrives or finishes (§V), so consecutive views differ by a few
//! jobs. [`Round::reset`] walks each app's pending jobs next to the kept
//! [`RoundJob`]s and rebuilds a job only when its id, its satisfied or
//! total input count, or one of its unsatisfied tasks (index, or
//! preferred-node handle by [`Arc::ptr_eq`]) differs. The test is exact:
//! the kept job holds a clone of every handle, so a compared allocation
//! is alive and immutable, and a kept job that passes it is exactly the
//! job a fresh build would make. A rebuild moves the job's per-node
//! counts with it, so the demand maps always equal a fresh build's.
//!
//! Node-keyed state is **interned** into dense slots, so a round's memory
//! and cost follow the nodes that appear in the view, never the cluster
//! size. Demanded nodes are keyed by a [`DemandIndex`] that persists with
//! the jobs and releases a slot when no kept task prefers its node any
//! more. Idle nodes are interned per round ([`Interner`]), and one pass
//! over the id-ordered idle list chains each slot's executors in id order,
//! consumed front-to-back — within a round executors are only ever taken,
//! so a head per slot replaces the old
//! `BTreeMap<NodeId, BTreeSet<ExecutorId>>` while preserving its
//! lowest-id-first order bit for bit.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use custody_cluster::ExecutorId;
use custody_dfs::NodeId;
use custody_simcore::Interner;
use custody_workload::{AppId, JobId};

use crate::allocator::{AllocationView, Assignment, ExecutorInfo, JobDemand};
use crate::cost::HealthCost;
use crate::custody::inter::{min_locality, LocalityKey};
use crate::custody::intra;
use crate::custody::{InterPolicy, IntraPolicy};

/// One job's remaining demand inside a round.
#[derive(Debug, Clone)]
pub struct RoundJob {
    /// The job.
    pub job: JobId,
    /// Unsatisfied input tasks: `(task index, preferred nodes)`. The node
    /// lists are shared handles into the runtime's task state, not copies.
    pub tasks: Vec<(usize, Arc<[NodeId]>)>,
    /// Input tasks with assured locality (historical + this round).
    pub satisfied: usize,
    /// µ_ij.
    pub total_inputs: usize,
    /// Smallest health credit among this round's satisfactions
    /// (`u32::MAX` until one happens): a job is only as local as its
    /// slowest newly-local task, so the job-level credit is the
    /// bottleneck credit.
    min_credit: u32,
}

impl RoundJob {
    /// True once every input task of the job is local.
    pub fn fully_local(&self) -> bool {
        self.satisfied == self.total_inputs
    }

    /// A fresh build of `job`'s demand.
    fn build(job: &JobDemand) -> Self {
        RoundJob {
            job: job.job,
            tasks: job
                .unsatisfied_inputs
                .iter()
                .map(|t| (t.task_index, Arc::clone(&t.preferred_nodes)))
                .collect(),
            satisfied: job.satisfied_inputs,
            total_inputs: job.total_inputs,
            min_credit: u32::MAX,
        }
    }

    /// True when this kept job is exactly what [`RoundJob::build`] would
    /// make of `job` (up to the per-round `min_credit`). Comparing handles
    /// by pointer is exact: this job holds a clone of each, so the
    /// allocation is alive, immutable and cannot have been reused.
    fn matches(&self, job: &JobDemand) -> bool {
        self.job == job.job
            && self.satisfied == job.satisfied_inputs
            && self.total_inputs == job.total_inputs
            && self.tasks.len() == job.unsatisfied_inputs.len()
            && self
                .tasks
                .iter()
                .zip(&job.unsatisfied_inputs)
                .all(|((index, nodes), t)| {
                    *index == t.task_index && Arc::ptr_eq(nodes, &t.preferred_nodes)
                })
    }
}

/// One application's state inside a round.
#[derive(Debug, Clone)]
pub struct RoundApp {
    /// The application.
    pub app: AppId,
    /// σ_i.
    pub quota: usize,
    /// ζ_i, including grants made this round.
    pub held: usize,
    hist_local_jobs: usize,
    total_jobs: usize,
    hist_local_tasks: usize,
    total_tasks: usize,
    /// Jobs made fully local this round.
    pub new_local_jobs: usize,
    /// Tasks made local this round.
    pub new_local_tasks: usize,
    /// Pending tasks not yet covered by a grant.
    pub demand_remaining: usize,
    /// Pending jobs, kept across rounds.
    pub jobs: Vec<RoundJob>,
    /// Count of this app's unsatisfied tasks preferring each node,
    /// indexed by the node's [`DemandIndex`] slot; kept with `jobs`.
    node_demand: Vec<u32>,
    /// Health credit (in `1/cost_scale` units) earned by tasks satisfied
    /// this round — `Σ credit(node)` over satisfactions. Equals
    /// `new_local_tasks · cost_scale` when every node is healthy.
    new_task_credit: u64,
    /// Health credit earned by jobs made fully local this round — the
    /// bottleneck (minimum) credit of each such job's satisfactions.
    new_job_credit: u64,
    /// The round's health-cost bucket scale (1 without a cost table).
    cost_scale: u32,
}

impl RoundApp {
    /// Health-weighted projected fractions in credit units
    /// (`job_num, job_den, task_num, task_den`). With bucket scale `S`,
    /// history counts at full credit (`·S` — it is already banked) and
    /// this round's gains at the granting node's credit, so
    /// `task = (hist·S + Σ credit) / (total·S)`. Without a cost table
    /// `S = 1` and every credit is 1, so these are the plain counts.
    /// Saturating arithmetic guards pathological `usize::MAX` histories;
    /// real views are bounded by memory long before `u64 / S`.
    pub fn health_weighted_fractions(&self) -> (u64, u64, u64, u64) {
        let s = u64::from(self.cost_scale);
        (
            (self.hist_local_jobs as u64)
                .saturating_mul(s)
                .saturating_add(self.new_job_credit),
            (self.total_jobs as u64).saturating_mul(s),
            (self.hist_local_tasks as u64)
                .saturating_mul(s)
                .saturating_add(self.new_task_credit),
            (self.total_tasks as u64).saturating_mul(s),
        )
    }

    /// This app's unsatisfied-task pressure on the demand slot `slot`.
    #[inline]
    fn node_demand_at(&self, slot: usize) -> u32 {
        self.node_demand.get(slot).copied().unwrap_or(0)
    }

    /// Executors the app may still take.
    pub fn headroom(&self) -> usize {
        self.quota.saturating_sub(self.held)
    }

    /// True if the app may and wants to take another executor.
    pub fn wants(&self) -> bool {
        self.headroom() > 0 && self.demand_remaining > 0
    }

    /// Bare-bones constructor for unit tests of the selection logic.
    #[doc(hidden)]
    pub fn for_test(
        app: AppId,
        quota: usize,
        hist_local_jobs: usize,
        total_jobs: usize,
        hist_local_tasks: usize,
        total_tasks: usize,
    ) -> Self {
        RoundApp {
            hist_local_jobs,
            total_jobs,
            hist_local_tasks,
            total_tasks,
            demand_remaining: quota,
            ..RoundApp::empty(app, quota)
        }
    }

    /// An app slot with no history, no demand and no kept jobs.
    fn empty(app: AppId, quota: usize) -> Self {
        RoundApp {
            app,
            quota,
            held: 0,
            hist_local_jobs: 0,
            total_jobs: 0,
            hist_local_tasks: 0,
            total_tasks: 0,
            new_local_jobs: 0,
            new_local_tasks: 0,
            demand_remaining: 0,
            jobs: Vec::new(),
            node_demand: Vec::new(),
            new_task_credit: 0,
            new_job_credit: 0,
            cost_scale: 1,
        }
    }
}

/// A heap entry: the key at push time plus the app's version at push time.
/// Entries whose version lags the app's current version are stale and are
/// discarded on pop.
type HeapEntry = Reverse<(LocalityKey, u32)>;

/// One idle executor in the round-global list: its id, its node's interned
/// slot, and the list index of the slot's next executor ([`NO_ENTRY`] for
/// the last).
#[derive(Debug, Clone, Copy)]
struct IdleEntry {
    id: ExecutorId,
    slot: u32,
    next: u32,
}

/// The end of a slot's chain of idle executors.
const NO_ENTRY: u32 = u32::MAX;

/// The installed per-node health-cost table (soft demotion). The default
/// is the neutral table at scale 1 — every credit 1, every penalty 0, no
/// filler tiers — under which every cost-aware path reduces exactly to
/// the count-based round, so a round without a table needs no separate
/// code path.
#[derive(Debug, Clone)]
struct CostTable {
    /// Per-node credit, dense by raw node id, in `1/scale` units; nodes
    /// beyond the table carry full credit.
    credit: Vec<u32>,
    /// The bucket scale `S`.
    scale: u32,
    /// Graded filler passes: the distinct placement penalties present in
    /// the table (plus the implicit zero), ascending, with the largest
    /// dropped — the unconditional fallback scan covers it.
    tiers: Vec<u32>,
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable {
            credit: Vec::new(),
            scale: 1,
            tiers: Vec::new(),
        }
    }
}

impl CostTable {
    /// Replaces the table; an empty slice restores the neutral one.
    fn set(&mut self, costs: &[(NodeId, HealthCost)]) {
        self.credit.clear();
        self.tiers.clear();
        let Some(&(_, first)) = costs.first() else {
            self.scale = 1;
            return;
        };
        let scale = first.scale.max(1);
        self.scale = scale;
        for &(n, c) in costs {
            debug_assert_eq!(c.scale, scale, "one cost table, one bucket scale");
            let i = n.index();
            if i >= self.credit.len() {
                self.credit.resize(i + 1, scale);
            }
            self.credit[i] = c.credit.clamp(1, scale);
        }
        // Every distinct penalty plus the implicit zero of unlisted
        // nodes, ascending, minus the largest. All-neutral tables
        // collapse to no tiers — the plain scan.
        self.tiers.push(0);
        for &(_, c) in costs {
            let p = scale - c.credit.clamp(1, scale);
            if !self.tiers.contains(&p) {
                self.tiers.push(p);
            }
        }
        self.tiers.sort_unstable();
        self.tiers.pop();
    }

    /// The node's credit in `1/scale` units (full credit when unlisted).
    #[inline]
    fn credit(&self, node: NodeId) -> u32 {
        self.credit.get(node.index()).copied().unwrap_or(self.scale)
    }
}

/// Demanded nodes, kept across rounds with the jobs that demand them: a
/// dense slot for every node some kept task prefers, and the per-slot
/// total over apps. A slot whose total falls to zero is released and
/// reused, so the slot count follows the nodes demanded at one time, not
/// every node ever demanded — per-app counts never grow as apps × cluster.
#[derive(Debug, Clone, Default)]
struct DemandIndex {
    /// Raw node id → slot + 1; 0 marks a node no kept task prefers.
    slot_of: Vec<u32>,
    /// Slot → raw node id, meaningful while the slot's total is positive.
    keys: Vec<u32>,
    /// Σ over apps of their per-slot counts — makes
    /// [`Round::contention_excluding`] O(1) instead of O(apps).
    total: Vec<u32>,
    /// Released slots, reused before a new one is minted.
    free: Vec<u32>,
}

impl DemandIndex {
    /// The node's slot while some kept task prefers it.
    #[inline]
    fn slot(&self, node: NodeId) -> Option<usize> {
        match self.slot_of.get(node.index()) {
            Some(&s) if s > 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// The raw node a live slot stands for.
    #[inline]
    fn node(&self, slot: usize) -> NodeId {
        NodeId::new(self.keys[slot] as usize)
    }

    /// Counts one more preference for each of `nodes` in an app's
    /// `counts` and in the totals.
    fn add(&mut self, counts: &mut Vec<u32>, nodes: &[NodeId]) {
        for &n in nodes {
            let slot = match self.slot(n) {
                Some(slot) => slot,
                None => self.mint(n),
            };
            if slot >= counts.len() {
                counts.resize(slot + 1, 0);
            }
            counts[slot] += 1;
            self.total[slot] += 1;
        }
    }

    /// Removes one preference for each of `nodes` from an app's `counts`
    /// and the totals, releasing slots no kept task prefers any more.
    fn sub(&mut self, counts: &mut [u32], nodes: &[NodeId]) {
        for &n in nodes {
            let slot = self.slot(n).expect("a counted preference holds its slot"); // lint: allow(panic) — every preference removed here was counted by `add`, which keeps the slot live
            counts[slot] -= 1;
            self.total[slot] -= 1;
            if self.total[slot] == 0 {
                self.slot_of[n.index()] = 0;
                self.free.push(slot as u32);
            }
        }
    }

    /// Counts every unsatisfied task of `job`.
    fn add_job(&mut self, counts: &mut Vec<u32>, job: &RoundJob) {
        for (_, nodes) in &job.tasks {
            self.add(counts, nodes);
        }
    }

    /// Gives back the counts of every unsatisfied task of `job`.
    fn sub_job(&mut self, counts: &mut [u32], job: &RoundJob) {
        for (_, nodes) in &job.tasks {
            self.sub(counts, nodes);
        }
    }

    fn mint(&mut self, node: NodeId) -> usize {
        let raw = node.index();
        if raw >= self.slot_of.len() {
            self.slot_of.resize(raw + 1, 0);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.keys[slot as usize] = raw as u32;
                slot as usize
            }
            None => {
                self.keys.push(raw as u32);
                self.total.push(0);
                self.keys.len() - 1
            }
        };
        self.slot_of[raw] = slot as u32 + 1;
        slot
    }
}

/// The state machine of an allocation round. One value serves every
/// round: [`Round::reset`] rebuilds the idle half and the per-round
/// scalars in place and reconciles the kept demand half with the view, so
/// buffers are allocated once and unchanged jobs are not copied again.
/// The health-cost table persists until the next
/// [`Round::set_health_costs`].
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Raw node id → dense per-round slot for every node that hosts an
    /// idle executor, in order of first appearance in the view.
    idle_nodes: Interner,
    /// Per slot, the `global_idle` index of its lowest-id untaken
    /// executor ([`NO_ENTRY`] once all are taken); the slot's executors
    /// chain through [`IdleEntry::next`] in ascending id order. Executors
    /// are only ever taken within a round, so the taken ones are exactly
    /// the chain's entries before the head.
    slot_head: Vec<u32>,
    /// Per slot, its last executor so far (used while building).
    slot_tail: Vec<u32>,
    /// Every idle executor, ascending by id (the order `BTreeSet` gave).
    global_idle: Vec<IdleEntry>,
    /// Skip-ahead cursor over `global_idle`: entries before it are
    /// known-taken.
    global_cursor: usize,
    idle_count: usize,
    apps: Vec<RoundApp>,
    /// Per app, where [`Round::has_local_opportunity`]'s scan resumes:
    /// every earlier position is known to hold no local opportunity.
    /// Within a round executors are only taken and demand only shrinks,
    /// so a position found empty stays empty.
    opportunity_cursor: Vec<Cell<usize>>,
    /// The demanded nodes of every kept job, with their total pressure.
    demand: DemandIndex,
    /// An empty job list with capacity, swapped in while an app's kept
    /// jobs are reconciled.
    spare_jobs: Vec<RoundJob>,
    assignments: Vec<Assignment>,
    inter: InterPolicy,
    intra: IntraPolicy,
    costs: CostTable,
    /// One forward-only cursor over `global_idle` per filler tier.
    tier_cursor: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
    versions: Vec<u32>,
    stash: Vec<HeapEntry>,
    order: Vec<usize>,
}

impl Round {
    /// Builds round state from the view with the paper's policies and no
    /// health-cost table.
    pub fn new(view: &AllocationView) -> Self {
        let mut round = Round::default();
        round.reset(view, InterPolicy::default(), IntraPolicy::default());
        round
    }

    /// Readies the round for `view` in place, reusing every buffer: the
    /// idle half and the per-round scalars are rebuilt, and each app's
    /// kept jobs are reconciled with its pending jobs. The result equals
    /// a fresh round's on the same view. The installed health-cost table
    /// is kept.
    pub fn reset(&mut self, view: &AllocationView, inter: InterPolicy, intra: IntraPolicy) {
        self.inter = inter;
        self.intra = intra;
        self.reset_idle(view);
        self.reconcile_apps(view);
        self.opportunity_cursor.clear();
        self.opportunity_cursor
            .resize(view.apps.len(), Cell::new(0));
        self.assignments.clear();
        self.versions.clear();
        self.versions.resize(view.apps.len(), 0);
        self.heap.clear();
        if self.inter == InterPolicy::MinLocality {
            for i in 0..self.apps.len() {
                self.heap
                    .push(Reverse((LocalityKey::of(&self.apps[i], i), 0)));
            }
        }
    }

    /// Rebuilds the idle half from `view.idle` in one pass.
    fn reset_idle(&mut self, view: &AllocationView) {
        // Views built from the driver's pool arrive in id order; any
        // other view is sorted first, so executors are always handed out
        // lowest id first.
        let sorted: Vec<ExecutorInfo>;
        let idle = if view.idle.is_sorted_by_key(|e| e.id) {
            &view.idle
        } else {
            sorted = {
                let mut v = view.idle.clone();
                v.sort_unstable_by_key(|e| e.id);
                v
            };
            &sorted
        };
        self.idle_nodes.clear();
        self.slot_head.clear();
        self.slot_tail.clear();
        self.global_idle.clear();
        for (index, e) in idle.iter().enumerate() {
            let index = index as u32;
            // Slots are minted in order of appearance, so a new slot is
            // always the next one.
            let slot = self.idle_nodes.intern(e.node.index());
            if slot == self.slot_head.len() {
                self.slot_head.push(index);
                self.slot_tail.push(index);
            } else {
                self.global_idle[self.slot_tail[slot] as usize].next = index;
                self.slot_tail[slot] = index;
            }
            self.global_idle.push(IdleEntry {
                id: e.id,
                slot: slot as u32,
                next: NO_ENTRY,
            });
        }
        self.global_cursor = 0;
        self.idle_count = view.idle.len();
        self.tier_cursor.fill(0);
    }

    /// Brings the kept demand half in line with `view.apps`. Each app's
    /// kept jobs are walked next to its pending jobs in submission order:
    /// a kept job that [`RoundJob::matches`] stays, any other kept job
    /// gives its per-node counts back, and a pending job without a match
    /// is built fresh and adds its counts. The cost follows the jobs that
    /// changed, plus one pointer comparison per unsatisfied task.
    fn reconcile_apps(&mut self, view: &AllocationView) {
        for mut gone in self.apps.drain(view.apps.len().min(self.apps.len())..) {
            for job in &gone.jobs {
                self.demand.sub_job(&mut gone.node_demand, job);
            }
        }
        for (i, a) in view.apps.iter().enumerate() {
            if i == self.apps.len() {
                self.apps.push(RoundApp::empty(a.app, a.quota));
            }
            let app = &mut self.apps[i];
            let mut kept = std::mem::replace(&mut app.jobs, std::mem::take(&mut self.spare_jobs));
            let mut old = kept.drain(..).peekable();
            let mut demand_remaining = 0;
            for pending in &a.pending_jobs {
                demand_remaining += pending.pending_tasks;
                // Kept jobs ahead of this one have left the view.
                while let Some(gone) = old.next_if(|k| k.job < pending.job) {
                    self.demand.sub_job(&mut app.node_demand, &gone);
                }
                let job = match old.next_if(|k| k.job == pending.job) {
                    Some(mut same) if same.matches(pending) => {
                        same.min_credit = u32::MAX;
                        same
                    }
                    stale => {
                        if let Some(stale) = stale {
                            self.demand.sub_job(&mut app.node_demand, &stale);
                        }
                        let fresh = RoundJob::build(pending);
                        self.demand.add_job(&mut app.node_demand, &fresh);
                        fresh
                    }
                };
                app.jobs.push(job);
            }
            for gone in old {
                self.demand.sub_job(&mut app.node_demand, &gone);
            }
            self.spare_jobs = kept;

            app.app = a.app;
            app.quota = a.quota;
            app.held = a.held;
            app.hist_local_jobs = a.local_jobs;
            app.total_jobs = a.total_jobs;
            app.hist_local_tasks = a.local_tasks;
            app.total_tasks = a.total_tasks;
            app.new_local_jobs = 0;
            app.new_local_tasks = 0;
            app.demand_remaining = demand_remaining;
            app.new_task_credit = 0;
            app.new_job_credit = 0;
            app.cost_scale = self.costs.scale;
        }
    }

    /// Installs the per-node health-cost table (soft demotion) for this
    /// and every later round, until the next call. Suspect nodes *cost
    /// more* instead of vanishing: locality bought on a node with credit
    /// `w` counts `w/scale` of a healthy local task in the MINLOCALITY
    /// key, replica choice prefers lower-penalty hosts, and the filler
    /// hands out executors lowest-penalty tier first. An empty table
    /// restores the neutral one at scale 1; a table where every entry is
    /// neutral gives the same picks (neutral weights scale both sides of
    /// every exact-rational comparison by the same factor).
    ///
    /// Call it between rounds or before the phases start: an app's key
    /// before its first grant is `hist·S / total·S`, the same rational at
    /// every scale, so the heap built by [`Round::reset`] stays valid.
    pub fn set_health_costs(&mut self, costs: &[(NodeId, HealthCost)]) {
        debug_assert!(self.assignments.is_empty(), "cost table changed mid-round");
        self.costs.set(costs);
        self.tier_cursor.clear();
        self.tier_cursor.resize(self.costs.tiers.len(), 0);
        for app in &mut self.apps {
            app.cost_scale = self.costs.scale;
        }
    }

    /// The node's placement penalty (`scale - credit`; zero when healthy
    /// or when no cost table is installed). Replica choice minimizes this
    /// before contention, so a task with a healthy replica never lands on
    /// a suspect one just because the suspect is less contested.
    #[inline]
    pub fn placement_penalty(&self, node: NodeId) -> u32 {
        self.costs.scale - self.costs.credit(node)
    }

    /// Marks app `i`'s key dirty after a state change: bumps its version
    /// (invalidating heap entries) and pushes a fresh one.
    fn touch(&mut self, i: usize) {
        self.versions[i] = self.versions[i].wrapping_add(1);
        if self.inter == InterPolicy::MinLocality {
            self.heap.push(Reverse((
                LocalityKey::of(&self.apps[i], i),
                self.versions[i],
            )));
        }
    }

    /// Cleans the heap top and returns the least-localized app that still
    /// wants an executor. Discarded entries are stale or permanently
    /// ineligible (`wants` is monotone non-increasing within a round).
    fn min_wanting(&mut self) -> Option<usize> {
        while let Some(&Reverse((key, ver))) = self.heap.peek() {
            let i = key.index;
            if ver != self.versions[i] || !self.apps[i].wants() {
                self.heap.pop();
                continue;
            }
            return Some(i);
        }
        None
    }

    /// The least-localized app with quota headroom and a local opportunity
    /// (an unsatisfied task whose preferred node hosts an idle executor).
    /// Apps that still want executors but have no local opportunity are
    /// kept aside and re-pushed — they remain candidates for the filler.
    fn min_local_candidate(&mut self) -> Option<usize> {
        debug_assert!(self.stash.is_empty());
        let mut found = None;
        while let Some(&Reverse((key, ver))) = self.heap.peek() {
            let i = key.index;
            if ver != self.versions[i] || !self.apps[i].wants() {
                self.heap.pop();
                continue;
            }
            if !self.has_local_opportunity(i) {
                let entry = self.heap.pop().expect("peeked entry exists"); // lint: allow(panic) — pop follows the successful peek just above
                self.stash.push(entry);
                continue;
            }
            found = Some(i);
            break;
        }
        let mut stash = std::mem::take(&mut self.stash);
        for e in stash.drain(..) {
            self.heap.push(e);
        }
        self.stash = stash;
        found
    }

    /// Selects the next application per the inter-application policy
    /// (linear reference path — the heap serves `MinLocality`).
    fn select_app<F>(&self, mut eligible: F) -> Option<usize>
    where
        F: FnMut(usize, &RoundApp) -> bool,
    {
        match self.inter {
            InterPolicy::MinLocality => min_locality(&self.apps, eligible),
            InterPolicy::NaiveCountFair => self
                .apps
                .iter()
                .enumerate()
                .filter(|(i, a)| eligible(*i, a))
                .min_by_key(|(i, a)| (a.held, *i))
                .map(|(i, _)| i),
        }
    }

    /// The `global_idle` entry at `index` has been taken: exactly the
    /// entries before their slot's head are.
    #[inline]
    fn taken(&self, index: usize) -> bool {
        (index as u32) < self.slot_head[self.global_idle[index].slot as usize]
    }

    /// An untaken idle executor exists on the idle slot `slot`.
    #[inline]
    fn slot_has_idle(&self, slot: usize) -> bool {
        self.slot_head[slot] != NO_ENTRY
    }

    /// An idle executor exists on `node`.
    pub fn node_has_idle(&self, node: NodeId) -> bool {
        self.idle_nodes
            .get(node.index())
            .is_some_and(|slot| self.slot_has_idle(slot))
    }

    /// True if app `i` has an unsatisfied task whose block sits on a
    /// node with an idle executor.
    fn has_local_opportunity(&self, i: usize) -> bool {
        let app = &self.apps[i];
        let cursor = &self.opportunity_cursor[i];
        // Walk the shorter side: a round that grants a freed executor or
        // two has a handful of idle nodes, a grant-heavy one may have
        // more idle nodes than the app demands. Neither length changes
        // within a round, so every call walks the same side and resumes
        // where the last one stopped.
        let idle_slots = self.slot_head.len();
        let found = if idle_slots <= app.node_demand.len() {
            (cursor.get()..idle_slots).find(|&slot| {
                self.slot_has_idle(slot)
                    && self
                        .demand
                        .slot(NodeId::new(self.idle_nodes.keys()[slot] as usize))
                        .is_some_and(|d| app.node_demand_at(d) > 0)
            })
        } else {
            (cursor.get()..app.node_demand.len()).find(|&slot| {
                app.node_demand[slot] > 0 && self.node_has_idle(self.demand.node(slot))
            })
        };
        cursor.set(found.unwrap_or(usize::MAX));
        found.is_some()
    }

    /// Unsatisfied-task pressure on `node` from apps other than `except` —
    /// total pressure minus the app's own, O(1).
    pub fn contention_excluding(&self, node: NodeId, except: usize) -> u32 {
        let Some(slot) = self.demand.slot(node) else {
            return 0;
        };
        self.demand.total[slot] - self.apps[except].node_demand_at(slot)
    }

    /// Consumes the next (lowest-id) idle executor on `slot`.
    fn take_on_slot(&mut self, slot: usize) -> Option<ExecutorId> {
        let e = *self.global_idle.get(self.slot_head[slot] as usize)?;
        self.slot_head[slot] = e.next;
        self.idle_count -= 1;
        Some(e.id)
    }

    /// Takes the lowest-id idle executor on `node`.
    pub fn take_executor_on(&mut self, node: NodeId) -> Option<ExecutorId> {
        let slot = self.idle_nodes.get(node.index())?;
        self.take_on_slot(slot)
    }

    /// Takes the lowest-id idle executor anywhere (filler phase),
    /// lowest health-cost tier first. The cursors only move forward: an
    /// entry skipped as taken stays taken, so the scans are amortized
    /// O(idle) per round.
    fn take_any_executor(&mut self) -> Option<ExecutorId> {
        // Graded passes: consume the lowest-penalty tier completely
        // before touching the next (lowest executor id within a tier,
        // matching the reference's min-by (penalty, id)). Each tier's
        // cursor only moves forward: a skipped entry is either taken
        // (stays taken) or above the tier's penalty (penalties are fixed
        // for the round), so the scans stay amortized O(tiers · idle)
        // per round. The neutral table has no tiers.
        for ti in 0..self.costs.tiers.len() {
            let pen = self.costs.tiers[ti];
            while let Some(&e) = self.global_idle.get(self.tier_cursor[ti]) {
                if self.taken(self.tier_cursor[ti]) {
                    self.tier_cursor[ti] += 1;
                    continue;
                }
                let raw = self.idle_nodes.keys()[e.slot as usize] as usize;
                if self.placement_penalty(NodeId::new(raw)) > pen {
                    self.tier_cursor[ti] += 1;
                    continue;
                }
                debug_assert_eq!(
                    self.slot_head[e.slot as usize] as usize,
                    self.tier_cursor[ti]
                );
                return self.take_on_slot(e.slot as usize);
            }
        }
        while let Some(&e) = self.global_idle.get(self.global_cursor) {
            if self.taken(self.global_cursor) {
                self.global_cursor += 1;
                continue;
            }
            // The first untaken entry of a slot is its head: the slot's
            // earlier entries have lower ids, appear earlier here, and
            // were skipped only because they were taken.
            debug_assert_eq!(self.slot_head[e.slot as usize] as usize, self.global_cursor);
            return self.take_on_slot(e.slot as usize);
        }
        None
    }

    /// Records a grant of `executor` to app `i` and refreshes the app's
    /// position in the selection heap.
    pub fn record_grant(
        &mut self,
        i: usize,
        executor: ExecutorId,
        for_task: Option<(JobId, usize)>,
    ) {
        let app = &mut self.apps[i];
        app.held += 1;
        app.demand_remaining -= 1;
        self.assignments.push(Assignment {
            executor,
            app: app.app,
            for_task,
        });
        self.touch(i);
    }

    /// Marks task `t` of job `j` of app `i` satisfied on `node`: removes
    /// it from the unsatisfied list and releases its pressure on the
    /// demand maps. The satisfaction earns the node's health credit toward
    /// the app's projected locality, and a job made fully local banks its
    /// bottleneck credit (both a flat unit without a cost table). Returns
    /// `(job id, original task index)`. The caller must follow up with
    /// [`Round::record_grant`] for the same app, which refreshes the heap
    /// key.
    pub fn satisfy_task(&mut self, i: usize, j: usize, t: usize, node: NodeId) -> (JobId, usize) {
        let credit = self.costs.credit(node);
        let scale = self.costs.scale;
        let app = &mut self.apps[i];
        let (task_index, nodes_list) = app.jobs[j].tasks.remove(t);
        self.demand.sub(&mut app.node_demand, &nodes_list);
        let job = &mut app.jobs[j];
        job.satisfied += 1;
        job.min_credit = job.min_credit.min(credit);
        app.new_local_tasks += 1;
        app.new_task_credit += u64::from(credit);
        if job.fully_local() {
            app.new_local_jobs += 1;
            app.new_job_credit += u64::from(job.min_credit.min(scale));
        }
        (job.job, task_index)
    }

    /// Access to round-app state.
    pub fn app(&self, i: usize) -> &RoundApp {
        &self.apps[i]
    }

    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// True while idle executors remain.
    pub fn has_idle(&self) -> bool {
        self.idle_count > 0
    }

    /// Whether app `i` is (still) the preferred app among those with any
    /// remaining want — Algorithm 2's `flag` check, O(log A) amortized via
    /// the heap.
    pub fn is_min_locality(&mut self, i: usize) -> bool {
        match self.inter {
            InterPolicy::MinLocality => self.min_wanting() == Some(i),
            InterPolicy::NaiveCountFair => self.select_app(|_, a| a.wants()) == Some(i),
        }
    }

    /// Job-ordering scratch for the intra module (cleared by the taker).
    pub(crate) fn take_order_scratch(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.order)
    }

    /// Returns the job-ordering scratch after use.
    pub(crate) fn put_order_scratch(&mut self, order: Vec<usize>) {
        self.order = order;
    }

    /// Phase 1: the inter-application loop of Algorithm 1 driving the
    /// intra-application matching of Algorithm 2.
    pub fn locality_phase(&mut self) {
        while self.has_idle() {
            let candidate = match self.inter {
                InterPolicy::MinLocality => self.min_local_candidate(),
                InterPolicy::NaiveCountFair => {
                    self.select_app(|i, a| a.headroom() > 0 && self.has_local_opportunity(i))
                }
            };
            let Some(i) = candidate else { break };
            let intra_policy = self.intra;
            let granted = intra::allocate_for_app(self, i, intra_policy);
            debug_assert!(granted > 0, "selected app must receive an executor");
        }
    }

    /// Phase 2: Algorithm 2's trailing filler — grant remaining idle
    /// executors to apps that still have runnable tasks, least-localized
    /// first, one at a time, bounded by demand.
    pub fn filler_phase(&mut self) {
        while self.has_idle() {
            let candidate = match self.inter {
                InterPolicy::MinLocality => self.min_wanting(),
                InterPolicy::NaiveCountFair => self.select_app(|_, a| a.wants()),
            };
            let Some(i) = candidate else {
                break;
            };
            let executor = self.take_any_executor().expect("idle executor exists"); // lint: allow(panic) — caller loops while idle executors remain
            self.record_grant(i, executor, None);
        }
    }

    /// Finishes the round, handing out its grants. The buffers and the
    /// kept jobs stay for the next [`Round::reset`].
    pub fn finish(&mut self) -> Vec<Assignment> {
        std::mem::take(&mut self.assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{AppState, ExecutorInfo, JobDemand, TaskDemand};

    fn view_one_app() -> AllocationView {
        let execs: Vec<ExecutorInfo> = (0..3)
            .map(|i| ExecutorInfo {
                id: ExecutorId::new(i),
                node: NodeId::new(i % 2), // nodes 0,1,0
            })
            .collect();
        AllocationView {
            idle: execs,
            apps: vec![AppState {
                app: AppId::new(0),
                quota: 3,
                held: 0,
                local_jobs: 0,
                total_jobs: 1,
                local_tasks: 0,
                total_tasks: 2,
                pending_jobs: vec![JobDemand {
                    job: JobId::new(0),
                    unsatisfied_inputs: vec![
                        TaskDemand {
                            task_index: 0,
                            preferred_nodes: [NodeId::new(0)].into(),
                        },
                        TaskDemand {
                            task_index: 1,
                            preferred_nodes: [NodeId::new(5)].into(),
                        },
                    ],
                    pending_tasks: 2,
                    total_inputs: 2,
                    satisfied_inputs: 0,
                }],
            }],
        }
    }

    #[test]
    fn round_indexes_idle_by_node() {
        let round = Round::new(&view_one_app());
        assert!(round.node_has_idle(NodeId::new(0)));
        assert!(round.node_has_idle(NodeId::new(1)));
        assert!(!round.node_has_idle(NodeId::new(5)));
        assert!(round.has_idle());
    }

    #[test]
    fn take_executor_prefers_lowest_id() {
        let mut round = Round::new(&view_one_app());
        // Node 0 hosts executors 0 and 2.
        assert_eq!(
            round.take_executor_on(NodeId::new(0)),
            Some(ExecutorId::new(0))
        );
        assert_eq!(
            round.take_executor_on(NodeId::new(0)),
            Some(ExecutorId::new(2))
        );
        assert_eq!(round.take_executor_on(NodeId::new(0)), None);
        assert!(!round.node_has_idle(NodeId::new(0)));
    }

    #[test]
    fn take_executor_sorts_unordered_views() {
        // A view whose idle list is not in executor-id order must still
        // hand out the lowest id first (the old BTreeSet sorted
        // implicitly; the dense lists sort explicitly).
        let mut view = view_one_app();
        view.idle.reverse();
        let mut round = Round::new(&view);
        assert_eq!(
            round.take_executor_on(NodeId::new(0)),
            Some(ExecutorId::new(0))
        );
        assert_eq!(
            round.take_executor_on(NodeId::new(0)),
            Some(ExecutorId::new(2))
        );
    }

    #[test]
    fn node_demand_counts_preferences() {
        // A second app with no demand: contention excluding it is app 0's
        // own pressure.
        let mut view = view_one_app();
        view.apps.push(AppState {
            app: AppId::new(1),
            quota: 1,
            held: 0,
            local_jobs: 0,
            total_jobs: 0,
            local_tasks: 0,
            total_tasks: 0,
            pending_jobs: Vec::new(),
        });
        let round = Round::new(&view);
        assert_eq!(round.contention_excluding(NodeId::new(0), 1), 1);
        assert_eq!(round.contention_excluding(NodeId::new(5), 1), 1);
        assert_eq!(round.contention_excluding(NodeId::new(7), 1), 0);
        assert_eq!(round.contention_excluding(NodeId::new(0), 0), 0);
        assert_eq!(round.app(0).demand_remaining, 2);
    }

    #[test]
    fn phases_grant_local_then_filler() {
        let mut round = Round::new(&view_one_app());
        round.locality_phase();
        assert_eq!(round.assignments.len(), 1);
        assert_eq!(round.assignments[0].executor, ExecutorId::new(0));
        assert_eq!(round.assignments[0].for_task, Some((JobId::new(0), 0)));
        round.filler_phase();
        let out = round.finish();
        assert_eq!(out.len(), 2, "one local grant + one filler");
        assert_eq!(out[1].for_task, None);
    }

    #[test]
    fn contention_excluding_sums_other_apps() {
        let mut view = view_one_app();
        view.apps.push(AppState {
            app: AppId::new(1),
            quota: 1,
            held: 0,
            local_jobs: 0,
            total_jobs: 1,
            local_tasks: 0,
            total_tasks: 1,
            pending_jobs: vec![JobDemand {
                job: JobId::new(1),
                unsatisfied_inputs: vec![TaskDemand {
                    task_index: 0,
                    preferred_nodes: [NodeId::new(0)].into(),
                }],
                pending_tasks: 1,
                total_inputs: 1,
                satisfied_inputs: 0,
            }],
        });
        let round = Round::new(&view);
        assert_eq!(round.contention_excluding(NodeId::new(0), 0), 1);
        assert_eq!(round.contention_excluding(NodeId::new(0), 1), 1);
        assert_eq!(round.contention_excluding(NodeId::new(5), 1), 1);
        assert_eq!(round.contention_excluding(NodeId::new(9), 0), 0);
    }

    /// Filler-only demand across three nodes with distinct health costs:
    /// executors must be handed out lowest placement penalty first, by id
    /// within a tier — matching the reference's min-by `(penalty, id)`.
    #[test]
    fn filler_visits_costed_nodes_lowest_penalty_first() {
        let execs: Vec<ExecutorInfo> = (0..3)
            .map(|i| ExecutorInfo {
                id: ExecutorId::new(i),
                node: NodeId::new(i),
            })
            .collect();
        let view = AllocationView {
            idle: execs,
            apps: vec![AppState {
                app: AppId::new(0),
                quota: 3,
                held: 0,
                local_jobs: 0,
                total_jobs: 1,
                local_tasks: 0,
                total_tasks: 3,
                pending_jobs: vec![JobDemand {
                    job: JobId::new(0),
                    unsatisfied_inputs: (0..3)
                        .map(|t| TaskDemand {
                            task_index: t,
                            preferred_nodes: [NodeId::new(9)].into(), // no executor there
                        })
                        .collect(),
                    pending_tasks: 3,
                    total_inputs: 3,
                    satisfied_inputs: 0,
                }],
            }],
        };
        let costs = [
            (
                NodeId::new(0),
                HealthCost {
                    credit: 2,
                    scale: 8,
                },
            ), // penalty 6
            (NodeId::new(1), HealthCost::neutral(8)), // penalty 0
            (
                NodeId::new(2),
                HealthCost {
                    credit: 5,
                    scale: 8,
                },
            ), // penalty 3
        ];
        let mut round = Round::new(&view);
        round.set_health_costs(&costs);
        round.locality_phase();
        round.filler_phase();
        let out = round.finish();
        let order: Vec<ExecutorId> = out.iter().map(|a| a.executor).collect();
        assert_eq!(
            order,
            vec![ExecutorId::new(1), ExecutorId::new(2), ExecutorId::new(0)],
            "healthy first, sickest last: {out:?}"
        );
    }

    /// Replica choice: with a free pick between two equally contested
    /// nodes, the health penalty overrides the node-id tie-break.
    #[test]
    fn pick_prefers_healthy_replica_over_lower_id() {
        let execs: Vec<ExecutorInfo> = (0..2)
            .map(|i| ExecutorInfo {
                id: ExecutorId::new(i),
                node: NodeId::new(i),
            })
            .collect();
        let view = AllocationView {
            idle: execs,
            apps: vec![AppState {
                app: AppId::new(0),
                quota: 1,
                held: 0,
                local_jobs: 0,
                total_jobs: 1,
                local_tasks: 0,
                total_tasks: 1,
                pending_jobs: vec![JobDemand {
                    job: JobId::new(0),
                    unsatisfied_inputs: vec![TaskDemand {
                        task_index: 0,
                        preferred_nodes: [NodeId::new(0), NodeId::new(1)].into(),
                    }],
                    pending_tasks: 1,
                    total_inputs: 1,
                    satisfied_inputs: 0,
                }],
            }],
        };
        let run = |costs: &[(NodeId, HealthCost)]| {
            let mut round = Round::new(&view);
            round.set_health_costs(costs);
            round.locality_phase();
            round.filler_phase();
            round.finish()
        };
        assert_eq!(run(&[])[0].executor, ExecutorId::new(0), "id tie-break");
        let sick0 = [
            (
                NodeId::new(0),
                HealthCost {
                    credit: 4,
                    scale: 8,
                },
            ),
            (NodeId::new(1), HealthCost::neutral(8)),
        ];
        let out = run(&sick0);
        assert_eq!(
            out[0].executor,
            ExecutorId::new(1),
            "healthy replica beats lower id: {out:?}"
        );
        assert!(out[0].for_task.is_some(), "still a locality grant");
    }

    /// An all-neutral cost table keeps the cost-aware paths active yet
    /// must reproduce the costless round's assignments exactly.
    #[test]
    fn neutral_cost_table_is_bit_identical() {
        let mut view = view_one_app();
        view.apps.push(AppState {
            app: AppId::new(1),
            quota: 2,
            held: 0,
            local_jobs: 1,
            total_jobs: 3,
            local_tasks: 2,
            total_tasks: 6,
            pending_jobs: vec![JobDemand {
                job: JobId::new(1),
                unsatisfied_inputs: vec![
                    TaskDemand {
                        task_index: 0,
                        preferred_nodes: [NodeId::new(0)].into(),
                    },
                    TaskDemand {
                        task_index: 1,
                        preferred_nodes: [NodeId::new(1)].into(),
                    },
                ],
                pending_tasks: 2,
                total_inputs: 2,
                satisfied_inputs: 0,
            }],
        });
        let run = |costs: &[(NodeId, HealthCost)]| {
            let mut round = Round::new(&view);
            round.set_health_costs(costs);
            round.locality_phase();
            round.filler_phase();
            round.finish()
        };
        let neutral: Vec<(NodeId, HealthCost)> = (0..2)
            .map(|n| (NodeId::new(n), HealthCost::neutral(8)))
            .collect();
        assert_eq!(run(&[]), run(&neutral));
    }

    /// `apps` applications over six nodes with two executors each; app
    /// `a`'s jobs prefer overlapping node pairs, so apps contend and the
    /// filler runs.
    fn view_with_apps(apps: usize) -> AllocationView {
        let idle = (0..12)
            .map(|i| ExecutorInfo {
                id: ExecutorId::new(i),
                node: NodeId::new(i / 2),
            })
            .collect();
        let apps = (0..apps)
            .map(|a| AppState {
                app: AppId::new(a),
                quota: 4,
                held: a % 2,
                local_jobs: a,
                total_jobs: 4,
                local_tasks: 2 * a,
                total_tasks: 10,
                pending_jobs: (0..2)
                    .map(|j| JobDemand {
                        job: JobId::new(2 * a + j),
                        unsatisfied_inputs: (0..2 + j)
                            .map(|t| TaskDemand {
                                task_index: t,
                                preferred_nodes: {
                                    let mut nodes =
                                        [NodeId::new((a + t) % 6), NodeId::new((a + t + 3) % 7)];
                                    nodes.sort_unstable();
                                    nodes.into()
                                },
                            })
                            .collect(),
                        pending_tasks: 3 + j,
                        total_inputs: 2 + j,
                        satisfied_inputs: 0,
                    })
                    .collect(),
            })
            .collect();
        AllocationView { idle, apps }
    }

    /// One allocator whose round is reset in place gives every round the
    /// output a fresh allocator gives on the same view — across shrinking
    /// and growing app counts and a cost table set, cleared and set again.
    #[test]
    fn scratch_recycles_buffers_without_changing_results() {
        use crate::allocator::ExecutorAllocator;
        use crate::custody::{reference_allocate_with_costs, CustodyAllocator};
        use custody_simcore::SimRng;

        let sick: Vec<(NodeId, HealthCost)> = (0..6)
            .map(|n| {
                let credit = if n % 3 == 0 { 3 } else { 8 };
                (NodeId::new(n), HealthCost { credit, scale: 8 })
            })
            .collect();
        let mut rng = SimRng::seed_from_u64(0);
        let mut reused = CustodyAllocator::new();
        for (apps, costs) in [(4, &sick[..]), (1, &[][..]), (3, &sick[..])] {
            let view = view_with_apps(apps);
            reused.set_node_health_costs(costs);
            let out = reused.allocate(&view, &mut rng);
            let mut fresh = CustodyAllocator::new();
            fresh.set_node_health_costs(costs);
            assert_eq!(out, fresh.allocate(&view, &mut rng), "{apps} apps");
            assert_eq!(out, reference_allocate_with_costs(&view, costs));
            assert!(!out.is_empty());
        }
    }
}
