//! The executor ledger: the driver's one record of the idle pool, of
//! which application holds each executor and of which executors are dead
//! (§V: the driver "can keep track of all the idle executors"). Its
//! methods are the only writers. Its generation moves on every pool
//! change that neither the release step nor the grant loop makes — a kill
//! of a live executor, a revival, a [`touch`](ExecutorLedger::touch) — so
//! a round can tell whether its idle view could have moved.

use custody_cluster::ExecutorId;
use custody_core::Assignment;
use custody_simcore::DenseSet;
use custody_workload::AppId;

#[derive(Debug, Clone, PartialEq)]
pub(super) struct ExecutorLedger {
    /// Idle, unowned, live executors by `ExecutorId::index()`, iterated
    /// in id order (the order allocator views list them in).
    pool: DenseSet,
    owner: Vec<Option<AppId>>,
    /// Lost executors: physically in oracle mode, in the master's belief
    /// in detector mode.
    dead: DenseSet,
    /// Each application's executors, busy or idle: the inverse of `owner`.
    held: Vec<DenseSet>,
    generation: u64,
    /// The generation at the last round's grants, and the executors
    /// released since.
    round_generation: u64,
    released: usize,
}

impl ExecutorLedger {
    /// Every executor idle in the pool.
    pub(super) fn new(executors: usize, apps: usize) -> Self {
        ExecutorLedger {
            pool: (0..executors).collect(),
            owner: vec![None; executors],
            dead: DenseSet::new(),
            held: vec![DenseSet::new(); apps],
            generation: 0,
            round_generation: 0,
            released: 0,
        }
    }

    pub(super) fn pool(&self) -> &DenseSet {
        &self.pool
    }

    pub(super) fn owner(&self, e: ExecutorId) -> Option<AppId> {
        self.owner[e.index()]
    }

    pub(super) fn is_dead(&self, e: ExecutorId) -> bool {
        self.dead.contains(e.index())
    }

    pub(super) fn held(&self, app: usize) -> &DenseSet {
        &self.held[app]
    }

    /// Whether the pool is what the last round saw before it granted
    /// `grants`: the generation did not move since, and the executors
    /// released since are exactly those grants, all back in the pool.
    pub(super) fn unchanged_since_round(&self, grants: &[Assignment]) -> bool {
        self.round_generation == self.generation
            && self.released == grants.len()
            && grants
                .iter()
                .all(|a| self.pool.contains(a.executor.index()))
    }

    /// Hands each granted executor from the pool to its app, ending the
    /// round: what is released from here on counts toward the next one.
    pub(super) fn grant(&mut self, grants: &[Assignment]) {
        for a in grants {
            let e = a.executor.index();
            assert!(self.pool.remove(e), "allocator granted non-pooled executor");
            self.owner[e] = Some(a.app);
            self.held[a.app.index()].insert(e);
        }
        self.round_generation = self.generation;
        self.released = 0;
    }

    /// Returns `idle`, executors `app` holds that run nothing, to the pool.
    pub(super) fn release_idle(&mut self, app: usize, idle: &[ExecutorId]) {
        for &e in idle {
            self.held[app].remove(e.index());
            self.owner[e.index()] = None;
            self.pool.insert(e.index());
        }
        self.released += idle.len();
    }

    /// Marks `e` dead, out of its owner's hands and out of the pool.
    /// Returns whether it was alive: killing the dead changes nothing.
    pub(super) fn kill(&mut self, e: ExecutorId) -> bool {
        if !self.dead.insert(e.index()) {
            return false;
        }
        if let Some(owner) = self.owner[e.index()].take() {
            self.held[owner.index()].remove(e.index());
        }
        self.pool.remove(e.index());
        self.touch();
        true
    }

    /// Brings dead executor `e` back, idle in the pool.
    pub(super) fn revive(&mut self, e: ExecutorId) {
        assert!(self.dead.remove(e.index()), "revived live executor {e}");
        self.pool.insert(e.index());
        self.touch();
    }

    /// Moves the generation: the allocator's view of the pool moved
    /// without the pool itself changing.
    pub(super) fn touch(&mut self) {
        self.generation += 1;
    }

    /// The ledger's half of auditor invariants 1–2: the held sets are
    /// exactly the inverse of the owners, so no executor has two, and the
    /// pooled and the dead are unowned and never both.
    pub(super) fn audit(&self) {
        for (i, held) in self.held.iter().enumerate() {
            for e in held.iter() {
                let owner = self.owner[e].map(AppId::index);
                assert_eq!(
                    owner,
                    Some(i),
                    "app {i} holds executor {e} but the executor disagrees"
                );
            }
        }
        for (e, owner) in self.owner.iter().enumerate() {
            let (dead, pooled) = (self.dead.contains(e), self.pool.contains(e));
            assert!(!(dead && pooled), "dead executor {e} sits in the idle pool");
            let Some(owner) = owner else { continue };
            assert!(!dead, "dead executor {e} has an owner");
            assert!(!pooled, "pooled executor {e} still has an owner");
            let held = self.held[owner.index()].contains(e);
            assert!(
                held,
                "executor {e} owned by {owner} but missing from its held set"
            );
        }
    }
}

/// Test-only corruption, for the auditor's own tests.
#[cfg(test)]
impl ExecutorLedger {
    /// Rewrites `e`'s owner without touching any held set.
    pub(super) fn corrupt_owner(&mut self, e: ExecutorId, owner: Option<AppId>) {
        self.owner[e.index()] = owner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(e: usize, app: usize) -> Assignment {
        Assignment {
            executor: ExecutorId::new(e),
            app: AppId::new(app),
            for_task: None,
        }
    }

    /// The generation moves on a kill of a live executor, a revival and
    /// a touch, never on a grant or a release; the self-check holds
    /// after every step.
    #[test]
    fn generation_moves_only_on_kill_revive_and_touch() {
        let mut ledger = ExecutorLedger::new(4, 2);
        let e = ExecutorId::new;
        let step = |ledger: &mut ExecutorLedger, op: &dyn Fn(&mut ExecutorLedger), moves| {
            let before = ledger.generation;
            op(ledger);
            ledger.audit();
            assert_eq!(ledger.generation != before, moves);
        };
        let granted = [grant(0, 0), grant(1, 1)];
        step(&mut ledger, &|l| l.grant(&granted), false);
        assert_eq!(ledger.owner(e(1)), Some(AppId::new(1)));
        assert_eq!(ledger.pool().iter().collect::<Vec<_>>(), [2, 3]);
        step(&mut ledger, &|l| l.release_idle(0, &[e(0)]), false);
        assert!(ledger.held(0).is_empty() && ledger.owner(e(0)).is_none());
        assert!(ledger.unchanged_since_round(&[grant(0, 0)]));
        assert!(!ledger.unchanged_since_round(&granted));
        step(&mut ledger, &|l| assert!(l.kill(e(1))), true);
        assert!(ledger.is_dead(e(1)) && ledger.held(1).is_empty());
        assert!(!ledger.unchanged_since_round(&[grant(0, 0)]));
        step(&mut ledger, &|l| assert!(l.kill(e(2))), true);
        assert!(!ledger.pool().contains(2));
        step(&mut ledger, &|l| l.revive(e(1)), true);
        assert!(ledger.pool().contains(1) && !ledger.is_dead(e(1)));
        step(&mut ledger, &|l| l.grant(&[]), false);
        assert!(ledger.unchanged_since_round(&[]));
        step(&mut ledger, &|l| l.touch(), true);
        assert!(!ledger.unchanged_since_round(&[]));
    }

    /// A second kill of a dead executor is a no-op: no generation move,
    /// no change to the pool or the held sets.
    #[test]
    fn killing_a_dead_executor_changes_nothing() {
        let mut ledger = ExecutorLedger::new(3, 1);
        ledger.grant(&[grant(0, 0)]);
        assert!(ledger.kill(ExecutorId::new(0)));
        let before = ledger.clone();
        assert!(!ledger.kill(ExecutorId::new(0)));
        assert_eq!(ledger, before);
        ledger.audit();
    }
}
