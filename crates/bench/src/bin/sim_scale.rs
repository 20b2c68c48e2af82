//! `sim_scale` — the in-repo performance harness: end-to-end simulator
//! scalability at 1k–100k nodes, and the cost of one allocation round.
//!
//! ```text
//! cargo run --release -p custody-bench --bin sim_scale [-- --quick|--full|--check]
//! ```
//!
//! Sweeps paper-shaped WordCount campaigns over a cluster-size ×
//! application-count grid and reports, per cell: wall time of the whole
//! run, the per-phase breakdown the driver now measures (allocator,
//! event-queue pop, demand maintenance), allocation-round counts, and
//! the process's peak RSS.
//!
//! The allocator-round grid then times single rounds on grant-heavy
//! synthetic views (every executor idle, demand sized to drain the pool)
//! at 100–10,000 nodes × 4–64 applications: the production Custody round,
//! the scan-everything `reference_allocate` specification, the two
//! data-unaware baselines (static-spread, dynamic-offer), and the Custody
//! round under a sick-cluster health-cost table (the soft-demotion
//! multiplier path). Each row first asserts that the production round
//! grants exactly what the reference grants, costless and costed; every
//! timing is the fastest of N calls.
//!
//! Modes:
//!
//! * `--quick` (default) — {1k, 10k} × {4, 16, 64} grid plus the
//!   allocator-round grid; writes `BENCH_scale.json` at the repository
//!   root. Exits 1 if the custody round at 10k × 16 is less than the
//!   baseline's minimum speedup (5×) faster than the reference.
//! * `--full` — adds the 100k × 64 cell (several minutes).
//! * `--check` — CI smoke: one 2k × 16 cell plus the 10k × 16 round,
//!   compared against `crates/bench/scale_baseline.json`; exits 1 if any
//!   budgeted number regresses more than 5%. Writes no JSON.
//!
//! Any other argument is a usage error (exit 2).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use custody_bench::{scale_config, synthetic_round_view};
use custody_core::custody::{reference_allocate, reference_allocate_with_costs};
use custody_core::{
    CustodyAllocator, DynamicOfferAllocator, ExecutorAllocator, HealthCost,
    StaticPartitionAllocator,
};
use custody_dfs::NodeId;
use custody_sim::{RunMetrics, Simulation};
use custody_simcore::SimRng;

/// The allocator-round grid, as (nodes, apps).
const ALLOC_GRID: [(usize, usize); 8] = [
    (100, 4),
    (100, 16),
    (500, 4),
    (500, 16),
    (1000, 4),
    (1000, 16),
    (1000, 64),
    (10_000, 16),
];

/// The allocator-round row every mode gates on.
const GATED_ROW: (usize, usize) = (10_000, 16);

/// Calls per allocator-round timing; the row reports the fastest.
const ROUND_CALLS: usize = 7;

/// The reference takes seconds at 10k nodes, so it gets fewer calls.
const REFERENCE_CALLS: usize = 3;

const BASELINE: &str = include_str!("../../scale_baseline.json");

/// One grid cell's measurements.
struct Cell {
    nodes: usize,
    apps: usize,
    jobs_per_app: usize,
    elapsed_secs: f64,
    metrics: RunMetrics,
}

fn run_cell(nodes: usize, apps: usize, jobs_per_app: usize) -> Cell {
    let cfg = scale_config(nodes, apps, jobs_per_app, 42);
    let started = Instant::now();
    let outcome = Simulation::run(&cfg);
    let elapsed_secs = started.elapsed().as_secs_f64();
    let m = outcome.cluster_metrics;
    println!(
        "{nodes:>6} nodes x {apps:>2} apps: {:>7.2} s wall  {:>8} events  \
         {:>6} rounds ({:>9.1} us/round)  alloc {:>7.1} ms  pop {:>6.1} ms  \
         demand {:>6.1} ms  rss {:>7.1} MiB",
        elapsed_secs,
        m.events_processed,
        m.allocation_rounds,
        m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
        m.allocator_wall_secs * 1e3,
        m.event_pop_wall_secs * 1e3,
        m.demand_wall_secs * 1e3,
        m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );
    assert_eq!(
        m.jobs_completed,
        apps * jobs_per_app - m.jobs_failed,
        "scale run lost jobs"
    );
    Cell {
        nodes,
        apps,
        jobs_per_app,
        elapsed_secs,
        metrics: m,
    }
}

/// Times `f` over `iters` calls and returns the fastest wall time in
/// nanoseconds (minimum beats median for single-digit iteration counts:
/// it rejects one-off scheduling noise without needing many samples).
fn best_ns(iters: usize, mut f: impl FnMut()) -> u128 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .expect("at least one iteration")
}

/// One allocator-round row: the fastest single round of each allocator
/// on the same grant-heavy view.
struct AllocRound {
    nodes: usize,
    apps: usize,
    custody_ns: u128,
    reference_ns: u128,
    static_spread_ns: u128,
    dynamic_offer_ns: u128,
    costed_ns: u128,
}

impl AllocRound {
    fn speedup(&self) -> f64 {
        self.reference_ns as f64 / self.custody_ns as f64
    }

    /// Wall-time ratio of the health-costed round over the costless one
    /// (1.0 = the multiplier path is free).
    fn cost_slowdown(&self) -> f64 {
        self.costed_ns as f64 / self.custody_ns as f64
    }

    /// The row's `alloc_round` entry in `BENCH_scale.json`.
    fn json(&self) -> String {
        let result = |name: &str, ns: u128| {
            format!(
                "\"{name}\": {{ \"best_ns\": {ns}, \"rounds_per_sec\": {:.1} }}",
                1e9 / ns as f64
            )
        };
        format!(
            "{{ \"nodes\": {}, \"apps\": {}, \"results\": {{ {}, {}, {}, {} }}, \
             \"speedup_custody_vs_reference\": {:.2}, \"costed_ns\": {}, \
             \"cost_round_slowdown\": {:.3} }}",
            self.nodes,
            self.apps,
            result("custody", self.custody_ns),
            result("reference", self.reference_ns),
            result("static-spread", self.static_spread_ns),
            result("dynamic-offer", self.dynamic_offer_ns),
            self.speedup(),
            self.costed_ns,
            self.cost_slowdown()
        )
    }
}

/// A sick-cluster cost table: 10% of nodes carry a non-neutral health
/// cost spread across the credit buckets — the regime the soft-demotion
/// path pays for (weighted keys, tiered filler, credit bookkeeping).
fn sick_cost_table(nodes: usize) -> Vec<(NodeId, HealthCost)> {
    let scale = 8;
    (0..nodes)
        .map(|n| {
            let cost = if n % 10 == 3 {
                HealthCost::from_ratio(1.5 + (n % 7) as f64 * 0.5, scale, 4.0)
            } else {
                HealthCost::neutral(scale)
            };
            (NodeId::new(n), cost)
        })
        .collect()
}

fn alloc_round(nodes: usize, apps: usize) -> AllocRound {
    let view = synthetic_round_view(nodes, apps, 0xA110C);
    // Equivalence outside the timed region: the production round and the
    // reference specification must do identical work, with and without
    // health costs.
    let mut custody = CustodyAllocator::new();
    let mut rng = SimRng::seed_from_u64(0);
    let fast = custody.allocate(&view, &mut rng);
    assert_eq!(reference_allocate(&view), fast, "{nodes}x{apps}");
    assert!(!fast.is_empty(), "bench view must produce grants");
    let costs = sick_cost_table(nodes);
    let mut costed = CustodyAllocator::new();
    costed.set_node_health_costs(&costs);
    let costed_grants = costed.allocate(&view, &mut rng);
    assert_eq!(
        reference_allocate_with_costs(&view, &costs),
        costed_grants,
        "costed {nodes}x{apps}"
    );

    // Long-lived allocators: steady-state rounds reuse scratch, which is
    // how the simulation driver calls them.
    let custody_ns = best_ns(ROUND_CALLS, || {
        black_box(custody.allocate(black_box(&view), &mut rng));
    });
    // The costed timing includes re-feeding the cost vector: that is the
    // real per-round path when the health layer is active.
    let costed_ns = best_ns(ROUND_CALLS, || {
        costed.set_node_health_costs(&costs);
        black_box(costed.allocate(black_box(&view), &mut rng));
    });
    let reference_ns = best_ns(REFERENCE_CALLS, || {
        black_box(reference_allocate(black_box(&view)));
    });
    let mut spread = StaticPartitionAllocator::spread(&view.idle, view.apps.len());
    let static_spread_ns = best_ns(ROUND_CALLS, || {
        black_box(spread.allocate(black_box(&view), &mut rng));
    });
    let mut offer = DynamicOfferAllocator::new();
    let dynamic_offer_ns = best_ns(ROUND_CALLS, || {
        black_box(offer.allocate(black_box(&view), &mut rng));
    });
    let r = AllocRound {
        nodes,
        apps,
        custody_ns,
        reference_ns,
        static_spread_ns,
        dynamic_offer_ns,
        costed_ns,
    };
    println!(
        "alloc round {nodes:>6} nodes x {apps:>2} apps: custody {:>9.3} ms vs reference \
         {:>9.3} ms ({:>5.1}x); health-costed {:.2}x costless; static-spread {:.3} ms, \
         dynamic-offer {:.3} ms",
        custody_ns as f64 / 1e6,
        reference_ns as f64 / 1e6,
        r.speedup(),
        r.cost_slowdown(),
        static_spread_ns as f64 / 1e6,
        dynamic_offer_ns as f64 / 1e6,
    );
    r
}

fn write_json(cells: &[Cell], rounds: &[AllocRound], mode: &str) {
    let mut out = String::from("{\n  \"bench\": \"sim_scale\",\n");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p custody-bench --bin sim_scale -- --{mode}\","
    );
    out.push_str("  \"grid\": [\n");
    for (idx, c) in cells.iter().enumerate() {
        let m = &c.metrics;
        let accounted = m.allocator_wall_secs + m.event_pop_wall_secs;
        let _ = writeln!(
            out,
            "    {{ \"nodes\": {}, \"apps\": {}, \"jobs_per_app\": {}, \
             \"elapsed_secs\": {:.3}, \"events\": {}, \"allocation_rounds\": {}, \
             \"rounds_skipped\": {}, \"phases\": {{ \
             \"allocator_wall_secs\": {:.4}, \"allocator_us_per_round\": {:.1}, \
             \"event_pop_wall_secs\": {:.4}, \"demand_wall_secs\": {:.4}, \
             \"other_wall_secs\": {:.4} }}, \"peak_rss_bytes\": {} }}{}",
            c.nodes,
            c.apps,
            c.jobs_per_app,
            c.elapsed_secs,
            m.events_processed,
            m.allocation_rounds,
            m.rounds_skipped,
            m.allocator_wall_secs,
            m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
            m.event_pop_wall_secs,
            m.demand_wall_secs,
            (c.elapsed_secs - accounted).max(0.0),
            m.peak_rss_bytes,
            if idx + 1 < cells.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"alloc_round_unit\": \"fastest single allocation round, wall ns \
         (fastest of {ROUND_CALLS} calls; reference: of {REFERENCE_CALLS})\","
    );
    out.push_str("  \"alloc_round\": [\n");
    for (idx, r) in rounds.iter().enumerate() {
        let sep = if idx + 1 < rounds.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{sep}", r.json());
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &out).expect("write BENCH_scale.json");
    println!("wrote {path}");
}

/// Pulls `"key": <number>` out of a flat JSON text (the baseline file is
/// written by this repo, so a full parser would be overkill).
fn json_number(text: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\"");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("scale_baseline.json is missing {key}"))?;
    let rest = text[at + needle.len()..].trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or_else(|| format!("scale_baseline.json: {key} has no value"))?
        .trim_start();
    let end = rest
        .char_indices()
        .find(|(_, ch)| !matches!(ch, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .map_or(rest.len(), |(i, _)| i);
    rest[..end]
        .parse()
        .map_err(|e| format!("scale_baseline.json: {key}: {e}"))
}

/// The checked-in budgets of `crates/bench/scale_baseline.json`.
struct Baseline {
    nodes: usize,
    apps: usize,
    jobs_per_app: usize,
    budget_elapsed_secs: f64,
    budget_allocator_us_per_round: f64,
    budget_peak_rss_mib: f64,
    min_speedup_custody_vs_reference: f64,
    max_cost_round_slowdown: f64,
}

impl Baseline {
    fn parse(text: &str) -> Result<Self, String> {
        let num = |key| json_number(text, key);
        Ok(Self {
            nodes: num("nodes")? as usize,
            apps: num("apps")? as usize,
            jobs_per_app: num("jobs_per_app")? as usize,
            budget_elapsed_secs: num("budget_elapsed_secs")?,
            budget_allocator_us_per_round: num("budget_allocator_us_per_round")?,
            budget_peak_rss_mib: num("budget_peak_rss_mib")?,
            min_speedup_custody_vs_reference: num("min_speedup_custody_vs_reference")?,
            max_cost_round_slowdown: num("max_cost_round_slowdown")?,
        })
    }
}

/// Prints a one-line `sim_scale: …` message and exits with `code`.
fn exit_with(code: i32, message: &str) -> ! {
    eprintln!("sim_scale: {message}");
    std::process::exit(code)
}

/// CI smoke: one mid-size cell and the gated allocator round under
/// budgets from the checked-in baseline. Budgets carry headroom over a dev-machine measurement; the
/// 5% tolerance guards the budget itself, so a passing run can be up to
/// `budget * 1.05` before the job fails.
fn check(baseline: &Baseline, round: &AllocRound) {
    let (nodes, apps) = (baseline.nodes, baseline.apps);
    let cell = run_cell(nodes, apps, baseline.jobs_per_app);
    let m = &cell.metrics;
    let mut failed = false;
    let mut gate = |label: &str, measured: f64, budget: f64| {
        let limit = budget * 1.05;
        let verdict = if measured <= limit { "ok" } else { "REGRESSED" };
        println!("  {label}: {measured:.3} vs budget {budget:.3} (limit {limit:.3}) {verdict}");
        failed |= measured > limit;
    };
    println!("scale-smoke vs scale_baseline.json ({nodes} nodes x {apps} apps):");
    gate(
        "elapsed_secs",
        cell.elapsed_secs,
        baseline.budget_elapsed_secs,
    );
    gate(
        "allocator_us_per_round",
        m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
        baseline.budget_allocator_us_per_round,
    );
    gate(
        "peak_rss_mib",
        m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        baseline.budget_peak_rss_mib,
    );
    gate(
        "min_speedup_custody_vs_reference (inverted: lower bound)",
        baseline.min_speedup_custody_vs_reference / round.speedup(),
        1.0,
    );
    gate(
        "cost_round_slowdown",
        round.cost_slowdown(),
        baseline.max_cost_round_slowdown,
    );
    if failed {
        exit_with(1, "scale-smoke FAILED: a budget regressed by more than 5%");
    }
    println!("scale-smoke passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.as_slice() {
        [] => "--quick",
        [m] if matches!(m.as_str(), "--quick" | "--full" | "--check") => m.as_str(),
        _ => exit_with(
            2,
            &format!(
                "usage: sim_scale [--quick|--full|--check], got `{}`",
                args.join(" ")
            ),
        ),
    };
    let baseline = Baseline::parse(BASELINE).unwrap_or_else(|e| exit_with(1, &e));
    if mode == "--check" {
        check(&baseline, &alloc_round(GATED_ROW.0, GATED_ROW.1));
        return;
    }
    let full = mode == "--full";
    let mut cells = Vec::new();
    for &nodes in &[1_000usize, 10_000] {
        for &apps in &[4usize, 16, 64] {
            cells.push(run_cell(nodes, apps, 2));
        }
    }
    if full {
        cells.push(run_cell(100_000, 64, 2));
    }
    let rounds: Vec<AllocRound> = ALLOC_GRID
        .iter()
        .map(|&(nodes, apps)| alloc_round(nodes, apps))
        .collect();
    let gated = rounds
        .iter()
        .find(|r| (r.nodes, r.apps) == GATED_ROW)
        .expect("the allocator-round grid holds the gated row");
    if gated.speedup() < baseline.min_speedup_custody_vs_reference {
        exit_with(
            1,
            &format!(
                "custody round must be at least {:.0}x the reference at {} nodes x {} apps, \
                 got {:.1}x",
                baseline.min_speedup_custody_vs_reference,
                gated.nodes,
                gated.apps,
                gated.speedup()
            ),
        );
    }
    write_json(&cells, &rounds, if full { "full" } else { "quick" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_every_budget_check_reads() {
        assert!(Baseline::parse(BASELINE).is_ok());
        let renamed = BASELINE.replace("\"max_cost_round_slowdown\"", "\"max_slowdown\"");
        assert!(Baseline::parse(&renamed).is_err());
        let non_numeric = BASELINE.replace(": 64.0", ": \"64\"");
        assert!(Baseline::parse(&non_numeric).is_err());
    }

    #[test]
    fn alloc_round_row_carries_every_field() {
        let row = alloc_round(100, 4).json();
        for field in [
            "\"nodes\": 100",
            "\"apps\": 4",
            "\"results\"",
            "\"custody\"",
            "\"reference\"",
            "\"static-spread\"",
            "\"dynamic-offer\"",
            "\"best_ns\"",
            "\"rounds_per_sec\"",
            "\"speedup_custody_vs_reference\"",
            "\"costed_ns\"",
            "\"cost_round_slowdown\"",
        ] {
            assert!(row.contains(field), "{field} missing from {row}");
        }
    }
}
