//! The five workspace invariant lints.
//!
//! Each lint walks the annotated token stream of one file and emits
//! [`Diagnostic`]s for violations that are not suppressed by an inline
//! `// lint: allow(<name>) — <reason>` annotation (same line or the line
//! above) or by a `lint.toml` allowlist entry. The wall-clock lint
//! additionally runs a whole-workspace cross-check tying the
//! `RunMetrics::adopt_host_measurements` scrub list to the declared
//! host-measured field set.

use std::collections::BTreeSet;

use crate::config::{Config, LintScope};
use crate::lexer::{Annotated, TokKind};

/// One finding: lint name, repo-relative file, 1-based line, message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint name (one of [`crate::config::LINT_NAMES`]).
    pub lint: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(lint: &str, file: &str, line: usize, message: String) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            lint: lint.to_string(),
            message,
        }
    }
}

/// Whether `path` names test-only code by location: integration tests,
/// benches and examples are exempt from the library-code lints.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

/// Context shared by the per-file checks.
struct FileCheck<'a> {
    path: &'a str,
    ann: &'a Annotated<'a>,
    out: Vec<Diagnostic>,
}

impl<'a> FileCheck<'a> {
    /// Emits `message` for the token at `idx` unless an inline allow or a
    /// `lint.toml` entry suppresses it. Inline allows with an empty reason
    /// do not count — the annotation contract requires a justification.
    fn emit(&mut self, scope: &LintScope, lint: &str, idx: usize, message: String) {
        let tok = &self.ann.tokens[idx];
        let enclosing = self.ann.ctx[idx]
            .enclosing_fn
            .map(|i| self.ann.fn_names[i].as_str());
        if scope.allowed_by(self.path, enclosing).is_some() {
            return;
        }
        let inline = self.ann.allows.iter().any(|a| {
            (a.lint == lint || (lint == "no-panic" && a.lint == "panic"))
                && !a.reason.trim().is_empty()
                && (a.line == tok.line || a.line + 1 == tok.line)
        });
        if inline {
            return;
        }
        self.out
            .push(Diagnostic::new(lint, self.path, tok.line, message));
    }
}

/// Runs every per-file lint over one annotated file. `path` is the
/// repo-relative path used for scoping and allowlists.
pub fn check_file(path: &str, ann: &Annotated<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let mut fc = FileCheck {
        path,
        ann,
        out: Vec::new(),
    };
    let test_path = is_test_path(path);
    unordered_iteration(&mut fc, cfg, test_path);
    float_in_decision_path(&mut fc, cfg, test_path);
    rng_discipline(&mut fc, cfg, test_path);
    wall_clock(&mut fc, cfg, test_path);
    no_panic(&mut fc, cfg, test_path);
    fc.out
}

/// Flags every `lint.toml` allow entry whose `path` covers none of the
/// walked workspace `files`: an allow left behind by deleted code is
/// policy nothing checks, and it would silently re-open the exception if
/// the path came back.
pub fn stale_allows(files: &[String], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (lint, scope) in &cfg.lints {
        for allow in &scope.allows {
            if !files.iter().any(|f| allow.covers_path(f)) {
                out.push(Diagnostic::new(
                    lint,
                    "lint.toml",
                    0,
                    format!(
                        "allow entry for `{}` covers no workspace .rs file; delete it",
                        allow.path
                    ),
                ));
            }
        }
    }
    out
}

/// Lint 1 — unordered-iteration: `HashMap`/`HashSet` are banned outright
/// in the deterministic crates. Iteration order of std's hashed
/// containers is seeded per-process, so any iteration (or order-sensitive
/// collect) silently breaks golden determinism; lookup-only uses are
/// still banned because nothing stops a later change from iterating.
/// Use `BTreeMap`/`BTreeSet`, `custody_simcore::DenseSet`, or a sorted
/// vec — or add a justified allow.
fn unordered_iteration(fc: &mut FileCheck<'_>, cfg: &Config, test_path: bool) {
    let scope = cfg.scope("unordered-iteration");
    if test_path || !scope.in_scope(fc.path) {
        return;
    }
    for i in 0..fc.ann.tokens.len() {
        let t = &fc.ann.tokens[i];
        if fc.ann.ctx[i].in_test || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            let name = t.text;
            fc.emit(
                &scope,
                "unordered-iteration",
                i,
                format!(
                    "`{name}` in a deterministic crate: hashed iteration order is \
                     seeded per-process and can leak into results; use BTreeMap/BTreeSet, \
                     DenseSet, or a sorted vec (or add a justified allow)"
                ),
            );
        }
    }
}

/// Lint 2 — float-in-decision-path: `f32`/`f64` types, float literals and
/// float casts are banned inside the allocator decision modules. Every
/// comparison the allocator makes must go through exact integer/rational
/// arithmetic (`u128` cross-multiplication); floats are only for
/// reporting, behind allowlisted functions.
fn float_in_decision_path(fc: &mut FileCheck<'_>, cfg: &Config, test_path: bool) {
    let scope = cfg.scope("float-in-decision-path");
    if test_path || !scope.in_scope(fc.path) {
        return;
    }
    for i in 0..fc.ann.tokens.len() {
        let t = &fc.ann.tokens[i];
        if fc.ann.ctx[i].in_test {
            continue;
        }
        let hit = match t.kind {
            TokKind::Ident => t.text == "f32" || t.text == "f64",
            TokKind::Float => true,
            _ => false,
        };
        if hit {
            let what = match t.kind {
                TokKind::Float => format!("float literal `{}`", t.text),
                _ => format!("`{}`", t.text),
            };
            fc.emit(
                &scope,
                "float-in-decision-path",
                i,
                format!(
                    "{what} in an allocator decision module: decisions must use exact \
                     integer/rational arithmetic; floats are reporting-only and belong in \
                     allowlisted functions"
                ),
            );
        }
    }
}

/// Lint 3 — rng-discipline: ambient entropy (`thread_rng`,
/// `from_entropy`, `OsRng`, `SystemTime::now`) is banned everywhere, and
/// inside the deterministic crates raw `SimRng::seed_from_u64` is banned
/// outside test code — runtime randomness must flow through the named
/// seeded streams (`SimRng::for_stream(seed, "control-plane")` /
/// `rng.split("label")`) so adding a consumer never perturbs existing
/// streams.
fn rng_discipline(fc: &mut FileCheck<'_>, cfg: &Config, test_path: bool) {
    let scope = cfg.scope("rng-discipline");
    if test_path {
        return;
    }
    const BANNED: [(&str, &str); 6] = [
        ("thread_rng", "ambient thread-local entropy"),
        ("from_entropy", "OS entropy seeding"),
        ("OsRng", "OS entropy source"),
        ("StdRng", "external RNG type outside the pinned SimRng"),
        ("SmallRng", "external RNG type outside the pinned SimRng"),
        (
            "SystemTime",
            "wall-clock time as an entropy/ordering source",
        ),
    ];
    for i in 0..fc.ann.tokens.len() {
        let t = &fc.ann.tokens[i];
        if fc.ann.ctx[i].in_test || t.kind != TokKind::Ident {
            continue;
        }
        if let Some((name, why)) = BANNED.iter().find(|(n, _)| *n == t.text) {
            fc.emit(
                &scope,
                "rng-discipline",
                i,
                format!(
                    "`{name}` ({why}) breaks replayability: every run must be a pure \
                     function of the master seed"
                ),
            );
            continue;
        }
        if t.text == "seed_from_u64" && scope.in_scope(fc.path) {
            fc.emit(
                &scope,
                "rng-discipline",
                i,
                "raw `seed_from_u64` in deterministic library code: derive RNGs through \
                 the named-stream constructors (`SimRng::for_stream(seed, \"label\")` or \
                 `rng.split(\"label\")`) so new consumers never perturb existing streams"
                    .to_string(),
            );
        }
    }
}

/// Lint 4 — wall-clock-containment: `Instant` may appear only at
/// allowlisted host-measurement sites. Whatever those sites measure must
/// be scrubbed before run-equality comparisons, which the workspace
/// cross-check ([`wall_clock_cross_check`]) ties to
/// `RunMetrics::adopt_host_measurements`.
fn wall_clock(fc: &mut FileCheck<'_>, cfg: &Config, test_path: bool) {
    let scope = cfg.scope("wall-clock");
    if test_path {
        return;
    }
    for i in 0..fc.ann.tokens.len() {
        let t = &fc.ann.tokens[i];
        if fc.ann.ctx[i].in_test || t.kind != TokKind::Ident || t.text != "Instant" {
            continue;
        }
        fc.emit(
            &scope,
            "wall-clock",
            i,
            "`Instant` outside the allowlisted host-measurement sites: wall-clock \
             readings are host-dependent and must stay contained in the phase timers \
             and bench harness, scrubbed by `RunMetrics::adopt_host_measurements`"
                .to_string(),
        );
    }
}

/// Lint 5 — no-panic-in-lib: `unwrap`/`expect`/`panic!`/`unreachable!`
/// in non-test library code needs a `// lint: allow(panic) — <reason>`
/// annotation. Asserts are exempt: the invariant auditor is built on
/// them.
fn no_panic(fc: &mut FileCheck<'_>, cfg: &Config, test_path: bool) {
    let scope = cfg.scope("no-panic");
    if test_path || !scope.in_scope(fc.path) {
        return;
    }
    for i in 0..fc.ann.tokens.len() {
        let t = &fc.ann.tokens[i];
        if fc.ann.ctx[i].in_test || t.kind != TokKind::Ident {
            continue;
        }
        let next_punct = fc.ann.tokens.get(i + 1).and_then(|n| match n.kind {
            TokKind::Punct(p) => Some(p),
            _ => None,
        });
        let hit = match t.text {
            "unwrap" | "expect" => next_punct == Some(b'('),
            "panic" | "unreachable" | "todo" | "unimplemented" => next_punct == Some(b'!'),
            _ => false,
        };
        if hit {
            let name = t.text;
            fc.emit(
                &scope,
                "no-panic",
                i,
                format!(
                    "`{name}` in library code: justify with `// lint: allow(panic) — \
                     <reason>` on this or the preceding line, or return an error"
                ),
            );
        }
    }
}

/// Workspace-level cross-check for the wall-clock lint. `sources` maps
/// repo-relative paths to annotated files; the check inspects the
/// configured metrics file:
///
/// 1. the set of `self.<field> = other.<field>` assignments inside the
///    scrub function must equal `host_measured_fields` from `lint.toml`;
/// 2. every field of the metrics struct whose name matches a
///    host-measurement naming pattern (`host_field_patterns` in
///    `lint.toml`; `*` at either end is a wildcard) must be in that set.
///
/// Together these make it impossible to add a host-measured field without
/// updating both the scrubber and the checked-in declaration.
pub fn wall_clock_cross_check(
    sources: &[(String, Annotated<'_>)],
    cfg: &Config,
) -> Vec<Diagnostic> {
    let scope = cfg.scope("wall-clock");
    let Some(metrics_file) = scope.extra_one("metrics_file") else {
        return Vec::new();
    };
    let scrub_fn = scope
        .extra_one("scrub_fn")
        .unwrap_or("adopt_host_measurements");
    let struct_name = scope.extra_one("metrics_struct").unwrap_or("RunMetrics");
    let declared: BTreeSet<&str> = scope
        .extra_list("host_measured_fields")
        .iter()
        .map(String::as_str)
        .collect();

    let mut out = Vec::new();
    let Some((path, ann)) = sources.iter().find(|(p, _)| p == metrics_file) else {
        out.push(Diagnostic::new(
            "wall-clock",
            metrics_file,
            0,
            format!("declared metrics_file `{metrics_file}` was not found in the workspace"),
        ));
        return out;
    };

    let scrubbed = scrub_assignments(ann, scrub_fn);
    let Some((fn_line, scrubbed)) = scrubbed else {
        out.push(Diagnostic::new(
            "wall-clock",
            path,
            0,
            format!("scrub function `{scrub_fn}` not found in `{metrics_file}`"),
        ));
        return out;
    };

    for field in &scrubbed {
        if !declared.contains(field.as_str()) {
            out.push(Diagnostic::new(
                "wall-clock",
                path,
                fn_line,
                format!(
                    "`{scrub_fn}` scrubs `{field}` but lint.toml host_measured_fields \
                     does not declare it; update the declaration"
                ),
            ));
        }
    }
    for field in &declared {
        if !scrubbed.contains(*field) {
            out.push(Diagnostic::new(
                "wall-clock",
                path,
                fn_line,
                format!(
                    "lint.toml declares host-measured field `{field}` but `{scrub_fn}` \
                     does not scrub it; a run-equality comparison would see host noise"
                ),
            ));
        }
    }

    let default_patterns = ["*_wall_secs".to_string(), "peak_rss_*".to_string()];
    let configured = scope.extra_list("host_field_patterns");
    let patterns: &[String] = if configured.is_empty() {
        &default_patterns
    } else {
        configured
    };
    for (field, line) in struct_fields(ann, struct_name) {
        let looks_host_measured = patterns.iter().any(|p| glob_match(p, &field));
        if looks_host_measured && !declared.contains(field.as_str()) {
            out.push(Diagnostic::new(
                "wall-clock",
                path,
                line,
                format!(
                    "`{struct_name}::{field}` matches a host-measurement naming pattern \
                     but is neither declared in host_measured_fields nor scrubbed by \
                     `{scrub_fn}`"
                ),
            ));
        }
    }
    out
}

/// Matches a field name against a pattern where a single `*` at the start
/// or end is a wildcard (`*_wall_secs`, `peak_rss_*`); anything else is an
/// exact match. `peak_rss_*` also matches the bare `peak_rss` stem.
fn glob_match(pattern: &str, name: &str) -> bool {
    if let Some(suffix) = pattern.strip_prefix('*') {
        name.ends_with(suffix)
    } else if let Some(prefix) = pattern.strip_suffix('*') {
        name.starts_with(prefix) || name == prefix.trim_end_matches('_')
    } else {
        name == pattern
    }
}

/// Finds `fn <name>` and collects `self.<ident> =` assignments (not `==`)
/// in its body. Returns the definition line and the field set.
fn scrub_assignments(ann: &Annotated<'_>, name: &str) -> Option<(usize, BTreeSet<String>)> {
    let toks = &ann.tokens;
    let start = (0..toks.len()).find(|&i| {
        toks[i].kind == TokKind::Ident
            && toks[i].text == "fn"
            && toks.get(i + 1).map(|t| t.text) == Some(name)
    })?;
    let fn_line = toks[start].line;
    // Find the body: first `{` after the signature, then match braces.
    let mut i = start;
    while i < toks.len() && toks[i].kind != TokKind::Punct(b'{') {
        i += 1;
    }
    let mut depth = 0usize;
    let mut fields = BTreeSet::new();
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            // self . <ident> = (but not ==)
            TokKind::Ident
                if toks[i].text == "self"
                    && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Punct(b'.'))
                    && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident)
                    && toks.get(i + 3).map(|t| t.kind) == Some(TokKind::Punct(b'='))
                    && toks.get(i + 4).map(|t| t.kind) != Some(TokKind::Punct(b'=')) =>
            {
                fields.insert(toks[i + 2].text.to_string());
            }
            _ => {}
        }
        i += 1;
    }
    Some((fn_line, fields))
}

/// Collects `(field, line)` pairs of a struct's named fields.
fn struct_fields(ann: &Annotated<'_>, name: &str) -> Vec<(String, usize)> {
    let toks = &ann.tokens;
    let Some(start) = (0..toks.len()).find(|&i| {
        toks[i].kind == TokKind::Ident
            && toks[i].text == "struct"
            && toks.get(i + 1).map(|t| t.text) == Some(name)
    }) else {
        return Vec::new();
    };
    let mut i = start;
    while i < toks.len() && toks[i].kind != TokKind::Punct(b'{') {
        i += 1;
    }
    let mut depth = 0usize;
    let mut fields = Vec::new();
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            // A field is `ident :` at depth 1 (generic bounds and types
            // sit deeper or after the colon and never match `ident :` at
            // depth 1 followed by a type).
            TokKind::Ident
                if depth == 1
                    && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Punct(b':'))
                    && toks.get(i + 2).map(|t| t.kind) != Some(TokKind::Punct(b':'))
                    && toks[i].text != "pub" =>
            {
                fields.push((toks[i].text.to_string(), toks[i].line));
            }
            _ => {}
        }
        i += 1;
    }
    fields
}
