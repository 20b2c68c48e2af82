//! Inert identity: each optional fault layer in its inert form — a
//! perfect control plane, a fail-slow config that injects nothing, a
//! zero split fraction, no corruption — must leave a run bit-identical to
//! the same run without it: no events, no draws from its streams, no
//! perturbation of any other layer's schedule. Equality with the
//! layer-free run also pins the layer's own counters at zero.

use custody_sim::{
    ChaosConfig, ControlPlaneConfig, CorruptionConfig, FailSlowConfig, PartitionConfig, SimConfig,
    Simulation,
};

fn perfect_control_plane() -> ControlPlaneConfig {
    ControlPlaneConfig {
        drop_probability: 0.0,
        suspicion_timeout_secs: 0.0,
        ..ControlPlaneConfig::default()
    }
}

fn quiet_failslow() -> FailSlowConfig {
    FailSlowConfig::default()
        .with_sick_fraction(0.0)
        .with_transient_fault_prob(0.0)
}

fn no_split() -> PartitionConfig {
    PartitionConfig::default().with_split_fraction(0.0)
}

fn no_corruption() -> CorruptionConfig {
    CorruptionConfig::default()
        .with_latent_fraction(0.0)
        .with_mean_time_between_corruptions(0.0)
}

/// One optional layer: what it needs underneath (`base`) and how to add
/// it in its inert form (`inert`).
struct Row {
    layer: &'static str,
    base: fn(SimConfig) -> SimConfig,
    inert: fn(SimConfig) -> SimConfig,
}

#[test]
fn inert_layers_are_bit_identical_to_runs_without_them() {
    assert!(perfect_control_plane().is_perfect());
    assert!(quiet_failslow().is_inert());
    assert!(no_split().is_inert());
    assert!(no_corruption().is_inert());
    let rows = [
        Row {
            layer: "perfect control plane",
            base: |c| c,
            inert: |c| c.with_control_plane(perfect_control_plane()),
        },
        Row {
            layer: "inert fail-slow",
            base: |c| c,
            inert: |c| c.with_failslow(quiet_failslow()),
        },
        Row {
            // Partitions need a modeled detector underneath.
            layer: "inert partition",
            base: |c| c.with_control_plane(ControlPlaneConfig::default()),
            inert: |c| c.with_partition(no_split()),
        },
        Row {
            layer: "inert corruption",
            base: |c| c,
            inert: |c| c.with_corruption(no_corruption()),
        },
        Row {
            // A modeled detector repairs lost DataNodes through suspicion
            // rather than instantly: the other repair path corruption
            // shares.
            layer: "inert corruption, modeled detector",
            base: |c| c.with_control_plane(ControlPlaneConfig::default()),
            inert: |c| c.with_corruption(no_corruption()),
        },
    ];
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(8.0)
        .with_horizon(120.0);
    for row in &rows {
        for under_chaos in [false, true] {
            for seed in [3, 19, 71] {
                let mut base = (row.base)(SimConfig::small_demo(seed));
                if under_chaos {
                    base = base.with_chaos(chaos);
                }
                let off = Simulation::run(&base).cluster_metrics;
                let mut on = Simulation::run(&(row.inert)(base)).cluster_metrics;
                // Wall-clock and RSS measure the host machine, not the run.
                on.adopt_host_measurements(&off);
                assert_eq!(
                    off, on,
                    "{} diverged (seed {seed}, chaos {under_chaos})",
                    row.layer
                );
            }
        }
    }
}
