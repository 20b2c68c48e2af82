//! Master checkpoint + write-ahead log: crash the master, replay, verify.
//!
//! When [`ControlPlaneConfig::with_checkpoints`](crate::ControlPlaneConfig)
//! enables a checkpoint interval, the driver keeps two durable artifacts:
//!
//! * a **checkpoint** — a full snapshot of itself, taken at run start
//!   (genesis) and after every `Checkpoint` event;
//! * a **WAL** — every event popped since that snapshot, in pop order.
//!
//! A master crash (drawn per `ChaosFault` pop with
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
//! duplicate), allocator wall-clock (real time, not simulated), the
//! checkpoint/WAL themselves, the crash RNG (replay must not re-draw
//! crash coins), and the recovery counter.

use custody_simcore::ScheduledEvent;

use super::{Driver, Event};

impl Driver {
    /// A self-snapshot suitable for recovery: everything but the
    /// recovery machinery itself and the trace.
    pub(super) fn clone_for_checkpoint(&self) -> Driver {
        let mut snap = self.clone();
        snap.trace = None;
        snap.checkpoint = None;
        snap.wal = Vec::new();
        snap
    }

    /// The master crashed at the pop of `ev` (not yet handled, not yet
    /// logged). Rebuild the driver from checkpoint + WAL, verify the
    /// rebuilt state converged to the crashed one, and swap it in; the
    /// caller then handles `ev` on the recovered master.
    pub(super) fn master_crash_recover(&mut self, ev: &ScheduledEvent<Event>) {
        let mut ghost: Box<Driver> = Box::new(
            self.checkpoint
                .as_ref()
                .expect("master crash without a checkpoint") // lint: allow(panic) — master-crash events are only scheduled with checkpointing on
                .as_ref()
                .clone(),
        );
        // The WAL survives recovery: a second crash before the next
        // checkpoint replays this same prefix again.
        let wal = std::mem::take(&mut self.wal);
        for &(time, seq, event) in &wal {
            let popped = ghost.queue.pop().expect("WAL longer than ghost schedule"); // lint: allow(panic) — ghost replay length was validated against the WAL
            assert_eq!(
                (popped.time, popped.seq, popped.event),
                (time, seq, event),
                "WAL replay diverged from the ghost's event schedule"
            );
            ghost.handle_event(event, time);
        }
        // The ghost's next event must be exactly the interrupted one.
        let popped = ghost.queue.pop().expect("ghost queue drained early"); // lint: allow(panic) — ghost replay length was validated against the WAL
        assert_eq!(
            (popped.time, popped.seq, popped.event),
            (ev.time, ev.seq, ev.event),
            "recovered master is not at the interrupted event"
        );
        ghost.metrics.master_recoveries = self.metrics.master_recoveries;
        assert_converged(self, &ghost);
        ghost.trace = self.trace.take();
        ghost.alloc_wall = self.alloc_wall;
        ghost.event_wall = self.event_wall;
        ghost.demand_wall = self.demand_wall;
        ghost.checkpoint = self.checkpoint.take();
        ghost.wal = wal;
        ghost.crash_rng = self.crash_rng.clone();
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
    check!(chaos_rng);
    check!(control_rng);
    check!(wakes);
    check!(pending_wakes);
    check!(speculation);
    check!(detector);
    check!(node_down);
    check!(perma_down);
    check!(degraded_until);
    check!(remote_reads_in_flight);
    check!(metrics);
    check!(last_round);
    check!(health);
    check!(failslow_rng);
    check!(taskfault_rng);
    check!(retry_gates);
    check!(partition);
    check!(partition_rng);
    check!(durability);
    check!(corruption_rng);
    check!(repair_armed);
    check!(open_disruptions);
    check!(cache);
    assert_eq!(
        live.apps.len(),
        ghost.apps.len(),
        "master recovery diverged on application count"
    );
    for (a, b) in live.apps.iter().zip(&ghost.apps) {
        assert_eq!(a.jobs, b.jobs, "recovery diverged on an app's job list");
        assert_eq!(a.quota, b.quota, "recovery diverged on an app's quota");
        assert_eq!(a.held, b.held, "recovery diverged on an app's held set");
        assert_eq!(
            a.total_jobs, b.total_jobs,
            "recovery diverged on total_jobs"
        );
        assert_eq!(
            a.local_jobs, b.local_jobs,
            "recovery diverged on local_jobs"
        );
        assert_eq!(
            a.total_tasks, b.total_tasks,
            "recovery diverged on total_tasks"
        );
        assert_eq!(
            a.local_tasks, b.local_tasks,
            "recovery diverged on local_tasks"
        );
        assert_eq!(a.metrics, b.metrics, "recovery diverged on app metrics");
    }
}
