//! Regenerates the paper's evaluation figures from the simulator.
//!
//! ```text
//! cargo run --release -p custody-bench --bin figures -- all
//! cargo run --release -p custody-bench --bin figures -- fig7 fig8
//! cargo run --release -p custody-bench --bin figures -- --quick all
//! cargo run --release -p custody-bench --bin figures -- --jobs 10 --seed 7 fig10
//! ```
//!
//! Targets: `fig7`, `fig7-fixed`, `fig8`, `fig9`, `fig10`, `ablations`,
//! `chaos`, `partition`, `durability`, `detector`, `failslow`,
//! `demotion`, `theory`, `all`. An unknown target is a usage error (exit
//! code 2).

use custody_bench::{
    ablation_delay_table, ablation_inter_table, ablation_intra_table, ablation_placement_table,
    ablation_speculation_table, allocator_cost_summary, chaos_table, demotion_table,
    detector_table, durability_table, failslow_table, fig10_table, fig7_fixed_quota_table,
    fig7_table, fig8_table, fig9_table, partition_table, run_sweep, theory_quality_table,
    FigureOptions,
};

const TARGETS: [&str; 14] = [
    "fig7",
    "fig7-fixed",
    "fig8",
    "fig9",
    "fig10",
    "ablations",
    "chaos",
    "partition",
    "durability",
    "detector",
    "failslow",
    "demotion",
    "theory",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = FigureOptions::default();
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts = FigureOptions::quick(),
            "--jobs" => {
                opts.jobs_per_app = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs requires a number");
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires a number");
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    if let Some(bad) = targets.iter().find(|t| !TARGETS.contains(&t.as_str())) {
        eprintln!(
            "figures: unknown target {bad:?}\n\
             usage: figures [--quick] [--jobs N] [--seed N] [TARGET...]\n\
             targets: {}",
            TARGETS.join(" ")
        );
        std::process::exit(2);
    }
    let all = targets.iter().any(|t| t == "all");
    let wants = |t: &str| all || targets.iter().any(|x| x == t);

    println!(
        "custody figures — jobs/app={} seed={} sizes={:?}\n",
        opts.jobs_per_app, opts.seed, opts.sizes
    );

    // Figs 7–10 share one sweep.
    if wants("fig7") || wants("fig8") || wants("fig9") || wants("fig10") {
        let cells = run_sweep(&opts);
        if wants("fig7") {
            println!("{}", fig7_table(&cells));
        }
        if wants("fig8") {
            println!("{}", fig8_table(&cells));
        }
        if wants("fig9") {
            println!("{}", fig9_table(&cells));
        }
        if wants("fig10") {
            println!("{}", fig10_table(&cells));
        }
        println!("{}", allocator_cost_summary(&cells));
    }
    if wants("fig7-fixed") || wants("fig7") {
        println!("{}", fig7_fixed_quota_table(&opts));
    }
    if wants("ablations") {
        println!("{}", ablation_intra_table(&opts));
        println!("{}", ablation_inter_table(&opts));
        println!("{}", ablation_placement_table(&opts));
        println!("{}", ablation_delay_table(&opts));
        println!("{}", ablation_speculation_table(&opts));
    }
    if wants("chaos") {
        println!("{}", chaos_table(&opts));
    }
    if wants("partition") {
        println!("{}", partition_table(&opts));
    }
    if wants("durability") {
        println!("{}", durability_table(&opts));
    }
    if wants("detector") {
        println!("{}", detector_table(&opts));
    }
    if wants("failslow") {
        println!("{}", failslow_table(&opts));
    }
    if wants("demotion") {
        println!("{}", demotion_table(&opts));
    }
    if wants("theory") {
        println!("{}", theory_quality_table(500, opts.seed));
    }
}
