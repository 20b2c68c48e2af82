//! `benchmark` — the repository benchmark: four workloads, end-to-end
//! metrics a user of the simulator reads (host cost and the simulated
//! locality / job completion time of Figs. 7–8), and per-layer metrics
//! from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed S] [--seconds T] [--trace 0|1] [--record FILE]
//! cargo run --release --manifest-path crates/bench/benchmark/Cargo.toml -- \
//!     compare <parent-records> <change-records>
//! ```
//!
//! One run builds its simulations from `--seed` (default 42), replays
//! their set-up, then runs them one after another on one thread, again
//! and again until `--seconds` (default `run_seconds` of
//! `BENCHMARK.json`) have passed, and reports medians over the passes.
//! Every pass must reproduce the first one's simulated state. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` (jobs) and `metrics`: the end-to-end metrics, or
//! with `--trace 1` the per-layer ones. A failed correctness gate exits
//! with 1, bad arguments with 2. Seed 7 is held out: use it only to
//! confirm a claim made on other seeds.
//!
//! | workload | simulations per pass | stresses |
//! |---|---|---|
//! | `scale_20k` | `scale_config(20_000, 64, 2, S)` | per-round idle-executor list (`sim.alloc_s` ≈ 80% of `run_s`), dataset creation in set-up |
//! | `contention_150` | 16 × `scale_config(150, 16, 12)`, Zipf-shared dataset pools | per-round app demand and the allocator core on a saturated cluster; `DemandCache` reads |
//! | `fault_storm_125` | 8 × `scale_config(125, 8, 16)` with all five fault layers | heartbeat-driven event path, round skipping, journal and repair |
//! | `paper_testbed` | 4 seeds × 3 paper workloads × {Custody, static spread} on 100 nodes | per-simulation fixed costs; the paper's Custody-vs-baseline gains |
//!
//! Per-layer metrics and what they should move: `sim.alloc_s` moves
//! `run_s` on `scale_20k` and `contention_150`; `sim.demand_s` on
//! `contention_150`; `sim.other_s` (self time of `Simulation::run`) on
//! all four; `sim.events`, `sim.rounds_skipped` and
//! `simcore.event_pop_s` move `run_s` and `events_per_s` on
//! `fault_storm_125`; `cluster.*`, `dfs.create_dataset_s` and
//! `workload.*` move `setup_s` on `scale_20k`; `core.*` moves `run_s` on
//! `contention_150` and `paper_testbed`; `scheduler.*` moves `jct_p90_s`
//! and `locality_pct`; the fault-layer counts move `jct_p90_s` on
//! `fault_storm_125`.
//!
//! Known limits, until the program has layer timers of its own:
//! `setup_s` replays the public set-up calls `Simulation::run` makes, so
//! it misses set-up private to the simulator; and `sim.alloc_s` cannot
//! split building the allocator's view from `allocate()` itself.
//!
//! `README.md` beside this file has the full workload reasons, the metric
//! table and the comparison rule.

mod compare;
mod json;
mod measure;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::{quote, Value};
use measure::Report;
use trace::Tracer;

/// The benchmark's declaration, compiled in so the binary and the file
/// cannot disagree about metric directions and bounds.
pub const SPEC: &str = include_str!("../../../../BENCHMARK.json");

const USAGE: &str = "usage:
  benchmark [--workload <name|all>] [--seed S] [--seconds T] [--trace 0|1] [--record FILE]
  benchmark compare <parent-records> <change-records>

workloads: scale_20k, contention_150, fault_storm_125, paper_testbed, all (default)
--seed     workload seed, a whole number (default 42; seed 7 is held out)
--seconds  how long the timed passes run (default: run_seconds of BENCHMARK.json)
--trace    1 prints the per-layer metrics and writes target/benchmark/trace-<workload>-s<seed>.json
--record   appends {\"workload\", \"seed\", \"trace\", \"result\"} as one line to FILE, for compare";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

#[derive(Debug, PartialEq)]
enum Cli {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
    Help,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [parent, change] => Ok(Cli::Compare(parent.into(), change.into())),
                _ => Err("compare takes exactly two record files".into()),
            }
        }
        Some("-h" | "--help" | "help") if args.len() == 1 => return Ok(Cli::Help),
        _ => {}
    }
    let mut run = RunArgs {
        workload: "all".into(),
        seed: 42,
        seconds: spec_run_seconds(),
        trace: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" && workloads::find(name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                run.workload = name.into();
            }
            "--seed" => {
                let v = value()?;
                run.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants a whole number, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds wants a number in (0, 3600], got {v:?}"))?;
            }
            "--trace" => {
                run.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--record" => run.record = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli::Run(run))
}

/// `run_seconds` of the compiled-in `BENCHMARK.json`.
fn spec_run_seconds() -> f64 {
    json::parse(SPEC)
        .ok()
        .and_then(|s| s.get("run_seconds").and_then(Value::as_f64))
        .expect("BENCHMARK.json declares run_seconds")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            2
        }
        Ok(Cli::Help) => {
            println!("{USAGE}");
            0
        }
        Ok(Cli::Compare(parent, change)) => compare::main(&parent, &change),
        Ok(Cli::Run(run)) if run.workload == "all" => run_all(&run),
        Ok(Cli::Run(run)) => run_one(&run),
    };
    ExitCode::from(code)
}

fn run_one(args: &RunArgs) -> u8 {
    let workload = workloads::find(&args.workload).expect("workload validated by parse_args");
    println!(
        "benchmark {} seed {} seconds {} trace {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tracer = Tracer::new(args.trace);
    let sims = workload.sims(args.seed);
    let mut report = measure::run(&sims, workload.setup_replays, args.seconds, &mut tracer);
    if args.trace {
        let path = PathBuf::from(format!(
            "target/benchmark/trace-{}-s{}.json",
            workload.name, args.seed
        ));
        match write_file(&path, &tracer.to_json()) {
            Ok(()) => report.notes.push(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, unit, value) in &report.metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    for e in &report.errors {
        eprintln!("gate failed: {e}");
    }
    let line = result_line(&report);
    if let Some(path) = &args.record {
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            quote(workload.name),
            args.seed,
            u8::from(args.trace)
        );
        if let Err(e) = append(path, &record) {
            eprintln!("cannot append to {}: {e}", path.display());
            return 1;
        }
    }
    println!("{line}");
    u8::from(!report.errors.is_empty())
}

/// The final line of a run.
fn result_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.errors.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    out.push_str("}}");
    out
}

/// Runs every workload in a child process of its own, so each reports
/// its own peak memory, and prints a combined result.
fn run_all(args: &RunArgs) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return 1;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for w in &workloads::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(record) = &args.record {
            cmd.arg("--record").arg(record);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cannot run {}: {e}", w.name);
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let Some(result) = result.filter(|_| output.status.success()) else {
            eprintln!("{} failed ({})", w.name, output.status);
            correct = false;
            continue;
        };
        let field = |k| result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        attempted += field("attempted");
        failed += field("failed");
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&format!("{}/{name}", w.name)),
                quote(unit)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    u8::from(!correct)
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn append(path: &Path, text: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Sim, WORKLOADS};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn names(section: &str, spec: &Value) -> Vec<String> {
        spec.get(section)
            .and_then(Value::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// `sims` on a 10-node cluster with `jobs_per_app` jobs per app.
    fn shrink(sims: Vec<Sim>, jobs_per_app: usize) -> Vec<Sim> {
        sims.into_iter()
            .map(|mut s| {
                s.cfg.cluster.num_nodes = 10;
                s.cfg.campaign = s.cfg.campaign.with_jobs_per_app(jobs_per_app);
                s
            })
            .collect()
    }

    #[test]
    fn bad_input_is_a_usage_error() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--frobnicate"],
            &["compare", "one"],
            &["extra"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
        let Ok(Cli::Run(run)) = parse_args(&args(&[
            "--workload",
            "scale_20k",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])) else {
            panic!("valid arguments rejected");
        };
        assert_eq!(
            (run.workload.as_str(), run.seed, run.seconds, run.trace),
            ("scale_20k", 7, 3.0, true)
        );
        assert_eq!(
            parse_args(&args(&["compare", "a", "b"])),
            Ok(Cli::Compare("a".into(), "b".into()))
        );
    }

    #[test]
    fn benchmark_json_follows_the_naming_rules() {
        let spec = json::parse(SPEC).unwrap();
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let workloads = names("workloads", &spec);
        let end_to_end = names("end_to_end", &spec);
        let per_layer = names("per_layer", &spec);
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&per_layer.len()));
        let mut all: Vec<&String> = workloads
            .iter()
            .chain(&end_to_end)
            .chain(&per_layer)
            .collect();
        assert!(all.iter().all(|n| valid(n)), "invalid name in {all:?}");
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            workloads.len() + end_to_end.len() + per_layer.len()
        );
        for m in spec.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound), "{m:?}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        let spec = json::parse(SPEC).unwrap();
        let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads", &spec), declared);
        for (section, registry) in [
            ("end_to_end", &measure::END_TO_END[..]),
            ("per_layer", &measure::PER_LAYER[..]),
        ] {
            let entries = spec.get(section).and_then(Value::as_array).unwrap();
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, registry, "{section}");
        }
    }

    /// Every workload emits exactly the declared metrics, traced and
    /// untraced, on a shrunk copy with enough jobs for its p90.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "runs simulations; use cargo test --release"
    )]
    fn every_declared_metric_is_emitted() {
        for w in &WORKLOADS {
            let sims = w.sims(3);
            let measured_apps: usize = sims
                .iter()
                .filter(|s| !s.baseline)
                .map(|s| s.cfg.campaign.num_apps())
                .sum();
            let sims = shrink(sims, 110usize.div_ceil(measured_apps));
            for traced in [false, true] {
                let mut tracer = Tracer::new(traced);
                let report = measure::run(&sims, 1, 0.0, &mut tracer);
                assert!(report.errors.is_empty(), "{}: {:?}", w.name, report.errors);
                let emitted: Vec<(&str, &str)> =
                    report.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
                let registry = if traced {
                    &measure::PER_LAYER[..]
                } else {
                    &measure::END_TO_END[..]
                };
                assert_eq!(emitted, registry, "{} traced={traced}", w.name);
                let line = json::parse(&result_line(&report)).unwrap();
                let keys: Vec<&str> = line
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert!(report.attempted > 0);
            }
        }
    }

    /// Each workload's configuration builds and passes its gates on a
    /// 10-node cluster with one job per application.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "runs simulations; use cargo test --release"
    )]
    fn every_workload_passes_its_gates_when_shrunk() {
        for w in &WORKLOADS {
            let sims = shrink(w.sims(42), 1);
            let report = measure::run(&sims, 1, 0.0, &mut Tracer::new(false));
            let gate_errors: Vec<&String> = report
                .errors
                .iter()
                .filter(|e| !e.contains("at least 10 are needed"))
                .collect();
            assert!(gate_errors.is_empty(), "{}: {gate_errors:?}", w.name);
            assert_eq!(report.failed, 0, "{}", w.name);
        }
    }
}
