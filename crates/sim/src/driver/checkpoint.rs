//! Master checkpoint + write-ahead log: crash the master, replay, verify.
//!
//! When [`ControlPlaneConfig::with_checkpoints`](crate::ControlPlaneConfig)
//! enables a checkpoint interval, the driver keeps two durable artifacts:
//!
//! * a **checkpoint** — a full snapshot of itself, taken when the
//!   driver is built (genesis) and after every `Checkpoint` event;
//! * a **WAL** — every event popped since that snapshot, in pop order.
//!
//! A master crash (drawn per chaos `Fault` pop with
//! `master_crash_fraction`) is modeled as losing the live state entirely
//! and rebuilding it: a *ghost* driver starts from the checkpoint, pops
//! its own copy of each WAL entry, and handles it exactly as the live
//! loop would — same event, same time, same sequence number, same RNG
//! draws. Because the whole simulation is deterministic, the ghost must
//! arrive at a state identical to the one that crashed;
//! [`assert_converged`] proves it field by field before the ghost takes
//! over as the live driver. Recovery is thus not merely survived but
//! *verified* on every single crash.
//!
//! Excluded from convergence (and carried over from the crashed state):
//! the trace (already holds pre-crash records the ghost must not
//! duplicate), the host wall-clock timers (real time, not simulated),
//! the [`MasterLog`] itself — checkpoint, WAL and the `"master-crash"`
//! stream (replay must not re-draw crash coins) — and the recovery
//! counter.

use custody_simcore::{EventQueue, ScheduledEvent, SimDuration, SimRng, SimTime};

use crate::config::ControlPlaneConfig;

use super::{unrouted, ChaosEvent, Driver, Event};

/// Master recovery state, present only when checkpointing is on: the
/// last checkpoint, the write-ahead log since, and the crash draws.
#[derive(Clone)]
pub(super) struct MasterLog {
    /// Snapshot period.
    interval: SimDuration,
    /// Probability a chaos `Fault` pop also crashes the master.
    crash_fraction: f64,
    /// Master-crash coins (the `"master-crash"` stream), dedicated so a
    /// crash-fraction sweep shares every other schedule with the
    /// crash-free run.
    rng: SimRng,
    /// The last checkpoint: a driver snapshot (without trace or log)
    /// that recovery replays the WAL on top of.
    checkpoint: Box<Driver>,
    /// Events handled since the last checkpoint, in pop order.
    pub(super) wal: Vec<(SimTime, u64, Event)>,
}

impl MasterLog {
    /// Schedules the first periodic checkpoint. The log itself starts
    /// from the genesis snapshot of the built driver ([`Self::genesis`]).
    pub(super) fn schedule_first(cp: ControlPlaneConfig, queue: &mut EventQueue<Event>) {
        queue.schedule(SimTime::ZERO + interval(cp), Event::Checkpoint);
    }

    /// The log at run start: seeds the `"master-crash"` stream and takes
    /// the genesis snapshot of `driver` (built without a log or trace),
    /// so recovery is possible from the first event.
    pub(super) fn genesis(cp: ControlPlaneConfig, seed: u64, driver: &Driver) -> Self {
        MasterLog {
            interval: interval(cp),
            crash_fraction: cp.master_crash_fraction,
            rng: SimRng::for_stream(seed, "master-crash"),
            checkpoint: Box::new(driver.clone()),
            wal: Vec::new(),
        }
    }
}

/// The snapshot period.
fn interval(cp: ControlPlaneConfig) -> SimDuration {
    SimDuration::from_secs_f64(cp.checkpoint_interval_secs)
}

impl Driver {
    /// Replaces the checkpoint with a snapshot of the current state and
    /// restarts the WAL empty; a no-op without checkpointing.
    pub(super) fn take_checkpoint(&mut self) {
        let Some(mut log) = self.master.take() else {
            return;
        };
        let trace = self.trace.take();
        log.checkpoint = Box::new(self.clone());
        log.wal.clear();
        self.trace = trace;
        self.master = Some(log);
    }

    /// Re-arms the periodic checkpoint while the run still has events —
    /// the tick must not keep an otherwise-finished simulation alive.
    pub(super) fn on_checkpoint_tick(&mut self, now: SimTime) {
        let Some(log) = &self.master else {
            unrouted(Event::Checkpoint)
        };
        if !self.queue.is_empty() {
            self.queue.schedule(now + log.interval, Event::Checkpoint);
        }
    }

    /// Draws the master-crash coin for the popped `ev` (not yet handled,
    /// not yet logged); only chaos `Fault` pops can crash the master, and
    /// only when checkpointing is on. On a crash the driver is rebuilt
    /// from checkpoint + WAL, the rebuilt state is verified to have
    /// converged to the crashed one, and it is swapped in; the caller
    /// then handles `ev` on the recovered master.
    pub(super) fn maybe_crash_master(&mut self, ev: &ScheduledEvent<Event>) {
        let Some(log) = &mut self.master else {
            return; // without checkpointing the master never crashes
        };
        if !(log.crash_fraction > 0.0
            && ev.event == Event::Chaos(ChaosEvent::Fault)
            && log.rng.chance(log.crash_fraction))
        {
            return;
        }
        let key = |e: ScheduledEvent<Event>| (e.time, e.seq, e.event);
        let mut ghost = log.checkpoint.clone();
        for &(time, seq, event) in &log.wal {
            assert_eq!(
                ghost.queue.pop().map(key),
                Some((time, seq, event)),
                "WAL replay diverged from the ghost's event schedule"
            );
            ghost.handle_event(event, time);
        }
        // The ghost's next event must be exactly the interrupted one.
        assert_eq!(
            ghost.queue.pop().map(key),
            Some((ev.time, ev.seq, ev.event)),
            "recovered master is not at the interrupted event"
        );
        ghost.metrics.master_recoveries = self.metrics.master_recoveries;
        assert_converged(self, &ghost);
        ghost.trace = self.trace.take();
        ghost.alloc_wall = self.alloc_wall;
        ghost.event_wall = self.event_wall;
        ghost.demand_wall = self.demand_wall;
        // The log survives recovery whole: a second crash before the
        // next checkpoint replays this same WAL prefix again.
        ghost.master = self.master.take();
        ghost.metrics.master_recoveries += 1;
        *self = *ghost;
    }
}

/// Panics unless `ghost` (checkpoint + WAL replay) reconstructed exactly
/// the state of `live` (the driver that crashed). Every field that
/// affects future behavior is compared.
fn assert_converged(live: &Driver, ghost: &Driver) {
    macro_rules! check {
        ($($f:ident).+) => {
            assert_eq!(
                live.$($f).+,
                ghost.$($f).+,
                concat!(
                    "master recovery diverged on `",
                    stringify!($($f).+),
                    "`"
                )
            );
        };
    }
    let key = |e: &ScheduledEvent<Event>| (e.time, e.seq, e.event);
    assert_eq!(
        live.queue.snapshot().iter().map(key).collect::<Vec<_>>(),
        ghost.queue.snapshot().iter().map(key).collect::<Vec<_>>(),
        "master recovery diverged on the pending event schedule"
    );
    assert_eq!(
        live.queue.now(),
        ghost.queue.now(),
        "master recovery diverged on the simulation clock"
    );
    assert_eq!(
        live.queue.next_seq(),
        ghost.queue.next_seq(),
        "master recovery diverged on the event sequence counter"
    );
    check!(namenode);
    check!(jobs);
    check!(exec_state);
    check!(pool);
    check!(alloc_rng);
    check!(fail_rng);
    check!(noise_rng);
    check!(wakes);
    check!(pending_wakes);
    check!(speculation);
    check!(chaos);
    check!(detector);
    check!(node_down);
    check!(perma_down);
    check!(remote_reads_in_flight);
    check!(metrics);
    check!(last_round);
    check!(health);
    check!(retry_gates);
    check!(partition);
    check!(durability);
    check!(repair_armed);
    check!(open_disruptions);
    check!(cache);
    assert_eq!(
        live.apps.len(),
        ghost.apps.len(),
        "master recovery diverged on application count"
    );
    for (a, b) in live.apps.iter().zip(&ghost.apps) {
        macro_rules! check_app {
            ($($f:ident),+) => {
                $(assert_eq!(
                    a.$f,
                    b.$f,
                    concat!("recovery diverged on an app's `", stringify!($f), "`")
                );)+
            };
        }
        check_app!(jobs, quota, held, metrics);
        check_app!(total_jobs, local_jobs, total_tasks, local_tasks);
    }
}
