//! Regenerates the paper's evaluation figures from the simulator.
//!
//! ```text
//! cargo run --release -p custody-bench --bin figures -- all
//! cargo run --release -p custody-bench --bin figures -- fig7 fig8
//! cargo run --release -p custody-bench --bin figures -- --quick all
//! cargo run --release -p custody-bench --bin figures -- --jobs 10 --seed 7 fig10
//! ```
//!
//! Targets are the scenario table's (`custody_sim::experiment::scenarios`)
//! plus `theory` and `all`. An unknown target, or a missing or
//! non-numeric `--jobs`/`--seed` value, is a usage error (exit code 2).

use std::str::FromStr;

use custody_bench::{print_figures, targets, FigureOptions};
use custody_sim::experiment::PAPER_CLUSTER_SIZES;

fn usage(problem: &str) -> ! {
    eprintln!(
        "figures: {problem}\n\
         usage: figures [--quick] [--jobs N] [--seed N] [TARGET...]\n\
         targets: {}",
        targets().join(" ")
    );
    std::process::exit(2)
}

fn number<T: FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} requires a number")))
}

fn main() {
    let mut opts = FigureOptions::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts = FigureOptions::quick(),
            "--jobs" => opts.jobs_per_app = number(&a, args.next()),
            "--seed" => opts.seed = number(&a, args.next()),
            _ => wanted.push(a),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    let known = targets();
    if let Some(bad) = wanted.iter().find(|t| !known.contains(&t.as_str())) {
        usage(&format!("unknown target {bad:?}"));
    }
    let all = wanted.iter().any(|t| t == "all");

    println!(
        "custody figures — jobs/app={} seed={} sizes={:?}\n",
        opts.jobs_per_app, opts.seed, PAPER_CLUSTER_SIZES
    );
    print_figures(&opts, |t| all || wanted.iter().any(|w| w == t));
}
