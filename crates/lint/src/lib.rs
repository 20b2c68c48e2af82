#![warn(missing_docs)]

//! # custody-lint — workspace invariant linter
//!
//! Every correctness claim this reproduction makes — golden determinism
//! per config knob, bit-for-bit `reference_allocate` equivalence, exact
//! `u128` rational `LocalityKey`s — rests on invariants that tests can
//! only catch probabilistically. This crate enforces them statically, on
//! every `.rs` file in the workspace:
//!
//! 1. **unordered-iteration** — `HashMap`/`HashSet` banned in the
//!    deterministic crates.
//! 2. **float-in-decision-path** — no floats inside allocator decision
//!    modules.
//! 3. **rng-discipline** — no ambient entropy; RNGs flow through named
//!    seeded streams.
//! 4. **wall-clock** — `Instant::now` only at allowlisted
//!    host-measurement sites, cross-checked against the
//!    `RunMetrics::adopt_host_measurements` scrub list.
//! 5. **no-panic** — `unwrap`/`expect`/`panic!` in library code needs a
//!    written justification.
//!
//! Allowlists live in the checked-in `lint.toml`; every entry carries a
//! written reason. Run `cargo run -p custody-lint -- --check` for CI
//! (JSON diagnostics, non-zero exit on violations) or `--list` to dump
//! the effective allowlists.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod config;
pub mod lexer;
pub mod lints;

pub use config::{Config, ConfigError};
pub use lints::Diagnostic;

/// Lints one source file given its repo-relative `path` (used for scoping
/// and allowlists) and contents. Pure per-file checks only — the
/// wall-clock cross-check needs the whole workspace and runs in
/// [`check_workspace`].
pub fn check_source(path: &str, source: &str, cfg: &Config) -> Vec<Diagnostic> {
    let ann = lexer::annotate(source);
    lints::check_file(path, &ann, cfg)
}

/// Walks the workspace at `root`, lints every `.rs` file outside the
/// configured skip list, runs the wall-clock cross-check, flags allow
/// entries that cover no walked file or name no function in the files
/// they cover, and returns all diagnostics sorted by (file, line, lint).
pub fn check_workspace(root: &Path, cfg: &Config) -> io::Result<Vec<Diagnostic>> {
    let files = collect_rs_files(root, cfg)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in files {
        let text = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, text));
    }
    let annotated: Vec<(String, lexer::Annotated<'_>)> = sources
        .iter()
        .map(|(rel, text)| (rel.clone(), lexer::annotate(text)))
        .collect();

    let mut diags = lints::stale_allows(&annotated, cfg);
    for (rel, ann) in &annotated {
        diags.extend(lints::check_file(rel, ann, cfg));
    }
    diags.extend(lints::wall_clock_cross_check(&annotated, cfg));
    diags.sort();
    Ok(diags)
}

/// Loads `lint.toml` from the workspace root.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    config::parse(&text).map_err(|e| e.to_string())
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing `lint.toml` (or a root `Cargo.toml` with `[workspace]`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if let Ok(text) = fs::read_to_string(dir.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collects repo-relative `.rs` paths under `root`, skipping
/// `target/`, dotted directories, and the configured skip prefixes.
fn collect_rs_files(root: &Path, cfg: &Config) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if cfg.skipped(&rel) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Serializes diagnostics as a JSON array of
/// `{"lint", "file", "line", "message"}` objects.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(&d.lint),
            json_str(&d.file),
            d.line,
            json_str(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let d = vec![Diagnostic {
            file: "a\\b.rs".to_string(),
            line: 3,
            lint: "no-panic".to_string(),
            message: "say \"no\"\n".to_string(),
        }];
        let j = to_json(&d);
        assert!(j.contains(r#""file": "a\\b.rs""#), "{j}");
        assert!(j.contains(r#"say \"no\"\n"#), "{j}");
        assert_eq!(to_json(&[]), "[]");
    }
}
