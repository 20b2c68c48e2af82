//! Fixture-based UI tests: every lint gets at least one violating and one
//! clean snippet, plus allowlist- and inline-annotation-suppression
//! cases. Fixtures live under `tests/fixtures/` (skipped by the
//! workspace walker — they contain intentional violations) and are
//! checked here through [`custody_lint::check_source`] under fake
//! in-scope paths.

use custody_lint::config::parse;
use custody_lint::{check_source, lints, Config, Diagnostic};

/// A config exercising every lint, scoped to the fake paths the fixtures
/// are checked under.
fn fixture_config() -> Config {
    parse(
        r#"
        [lints.unordered-iteration]
        crates = ["core"]

        [[lints.unordered-iteration.allow]]
        path = "crates/core/src/allowed.rs"
        reason = "fixture: lookup-only map justified in the checked-in list"

        [lints.float-in-decision-path]
        files = ["crates/core/src/decision.rs"]

        [[lints.float-in-decision-path.allow]]
        path = "crates/core/src/decision.rs"
        item = "report_only"
        reason = "fixture: diagnostics-only float view"

        [lints.rng-discipline]
        crates = ["core"]

        [lints.wall-clock]
        crates = ["*"]

        [[lints.wall-clock.allow]]
        path = "crates/core/src/timer.rs"
        reason = "fixture: designated host-measurement site"

        [lints.no-panic]
        crates = ["core"]
        "#,
    )
    .expect("fixture config parses")
}

fn lints_hit(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.lint.as_str()).collect()
}

// --- unordered-iteration -------------------------------------------------

#[test]
fn unordered_bad_fixture_is_flagged() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unordered/bad.rs"),
        &fixture_config(),
    );
    assert!(!diags.is_empty(), "HashMap must be flagged");
    assert!(
        diags.iter().all(|d| d.lint == "unordered-iteration"),
        "{diags:?}"
    );
    // The `use` line is a violation and carries a file:line anchor.
    assert!(diags.iter().any(|d| d.line == 2), "{diags:?}");
}

#[test]
fn unordered_good_fixture_is_clean() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unordered/good.rs"),
        &fixture_config(),
    );
    assert!(
        diags.is_empty(),
        "BTreeMap and test-only HashSet: {diags:?}"
    );
}

#[test]
fn unordered_inline_annotation_suppresses() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unordered/inline_allow.rs"),
        &fixture_config(),
    );
    assert!(diags.is_empty(), "inline allows must suppress: {diags:?}");
}

#[test]
fn unordered_allowlist_entry_suppresses() {
    // The same violating fixture, checked under the allowlisted path.
    let diags = check_source(
        "crates/core/src/allowed.rs",
        include_str!("fixtures/unordered/bad.rs"),
        &fixture_config(),
    );
    assert!(diags.is_empty(), "lint.toml allow must suppress: {diags:?}");
}

#[test]
fn unordered_out_of_scope_path_is_ignored() {
    let diags = check_source(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/unordered/bad.rs"),
        &fixture_config(),
    );
    assert!(diags.is_empty(), "bench is out of scope: {diags:?}");
}

// --- float-in-decision-path ----------------------------------------------

#[test]
fn float_bad_fixture_is_flagged() {
    let diags = check_source(
        "crates/core/src/decision.rs",
        include_str!("fixtures/float/bad.rs"),
        &fixture_config(),
    );
    let hits = lints_hit(&diags);
    assert!(
        hits.iter().all(|l| *l == "float-in-decision-path") && hits.len() >= 3,
        "f64 casts and the 1e-6 literal must all be flagged: {diags:?}"
    );
}

#[test]
fn float_good_fixture_is_clean() {
    let diags = check_source(
        "crates/core/src/decision.rs",
        include_str!("fixtures/float/good.rs"),
        &fixture_config(),
    );
    assert!(diags.is_empty(), "u128 cross-multiplication: {diags:?}");
}

#[test]
fn float_item_allow_covers_only_that_fn() {
    let diags = check_source(
        "crates/core/src/decision.rs",
        include_str!("fixtures/float/allowed.rs"),
        &fixture_config(),
    );
    assert!(
        diags.is_empty(),
        "floats confined to the allowlisted fn: {diags:?}"
    );
}

// --- rng-discipline -------------------------------------------------------

#[test]
fn rng_bad_fixture_is_flagged() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/rng/bad.rs"),
        &fixture_config(),
    );
    let hits = lints_hit(&diags);
    assert_eq!(
        hits,
        ["rng-discipline", "rng-discipline"],
        "thread_rng and raw seed_from_u64: {diags:?}"
    );
}

#[test]
fn rng_good_fixture_is_clean() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/rng/good.rs"),
        &fixture_config(),
    );
    assert!(diags.is_empty(), "named streams are sanctioned: {diags:?}");
}

// --- wall-clock ------------------------------------------------------------

#[test]
fn wallclock_bad_fixture_is_flagged() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/wallclock/bad.rs"),
        &fixture_config(),
    );
    assert!(
        diags.iter().any(|d| d.lint == "wall-clock"),
        "Instant must be flagged: {diags:?}"
    );
}

#[test]
fn wallclock_good_fixture_is_clean() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/wallclock/good.rs"),
        &fixture_config(),
    );
    assert!(diags.is_empty(), "simulated time only: {diags:?}");
}

#[test]
fn wallclock_allowlisted_site_is_clean() {
    let diags = check_source(
        "crates/core/src/timer.rs",
        include_str!("fixtures/wallclock/bad.rs"),
        &fixture_config(),
    );
    assert!(
        diags.is_empty(),
        "the designated site may read Instant: {diags:?}"
    );
}

// --- no-panic ---------------------------------------------------------------

#[test]
fn panic_bad_fixture_is_flagged() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic/bad.rs"),
        &fixture_config(),
    );
    let hits = lints_hit(&diags);
    assert_eq!(
        hits,
        ["no-panic", "no-panic"],
        "unwrap and unreachable!: {diags:?}"
    );
}

#[test]
fn panic_good_fixture_is_clean() {
    let diags = check_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic/good.rs"),
        &fixture_config(),
    );
    assert!(
        diags.is_empty(),
        "annotated unwrap, assert, and test code: {diags:?}"
    );
}

#[test]
fn panic_annotation_without_reason_does_not_suppress() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // lint: allow(panic)\n    x.unwrap()\n}\n";
    let diags = check_source("crates/core/src/fixture.rs", src, &fixture_config());
    assert_eq!(
        lints_hit(&diags),
        ["no-panic"],
        "a reason-less annotation must not count: {diags:?}"
    );
}

// --- wall-clock cross-check -------------------------------------------------

/// Builds `(path, Annotated)` sources for the cross-check from raw text.
fn cross_check(metrics_src: &str, cfg_text: &str) -> Vec<Diagnostic> {
    let cfg = parse(cfg_text).expect("config parses");
    let sources = vec![(
        "crates/sim/src/metrics.rs".to_string(),
        custody_lint::lexer::annotate(metrics_src),
    )];
    lints::wall_clock_cross_check(&sources, &cfg)
}

const CROSS_CFG: &str = r#"
    [lints.wall-clock]
    crates = ["*"]
    metrics_file = "crates/sim/src/metrics.rs"
    scrub_fn = "adopt_host_measurements"
    metrics_struct = "RunMetrics"
    host_measured_fields = ["allocator_wall_secs"]
    host_field_patterns = ["*_wall_secs", "peak_rss_*"]
"#;

#[test]
fn cross_check_accepts_consistent_lists() {
    let src = "pub struct RunMetrics {\n    pub allocator_wall_secs: f64,\n    pub jobs_done: u64,\n}\nimpl RunMetrics {\n    pub fn adopt_host_measurements(&mut self, other: &RunMetrics) {\n        self.allocator_wall_secs = other.allocator_wall_secs;\n    }\n}\n";
    let diags = cross_check(src, CROSS_CFG);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn cross_check_catches_unscrubbed_declared_field() {
    // Declared in lint.toml but the scrubber never copies it.
    let src = "pub struct RunMetrics {\n    pub allocator_wall_secs: f64,\n}\nimpl RunMetrics {\n    pub fn adopt_host_measurements(&mut self, _other: &RunMetrics) {}\n}\n";
    let diags = cross_check(src, CROSS_CFG);
    assert!(
        diags.iter().any(|d| d.message.contains("does not scrub")),
        "{diags:?}"
    );
}

#[test]
fn cross_check_catches_undeclared_scrubbed_field() {
    // Scrubbed by the function but missing from host_measured_fields.
    let src = "pub struct RunMetrics {\n    pub allocator_wall_secs: f64,\n    pub extra_wall_secs: f64,\n}\nimpl RunMetrics {\n    pub fn adopt_host_measurements(&mut self, other: &RunMetrics) {\n        self.allocator_wall_secs = other.allocator_wall_secs;\n        self.extra_wall_secs = other.extra_wall_secs;\n    }\n}\n";
    let diags = cross_check(src, CROSS_CFG);
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("does not declare it")),
        "{diags:?}"
    );
}

#[test]
fn cross_check_catches_suspicious_undeclared_struct_field() {
    // A `*_wall_secs` field that is neither declared nor scrubbed.
    let src = "pub struct RunMetrics {\n    pub allocator_wall_secs: f64,\n    pub sneaky_wall_secs: f64,\n}\nimpl RunMetrics {\n    pub fn adopt_host_measurements(&mut self, other: &RunMetrics) {\n        self.allocator_wall_secs = other.allocator_wall_secs;\n    }\n}\n";
    let diags = cross_check(src, CROSS_CFG);
    assert!(
        diags.iter().any(|d| d.message.contains("naming pattern")),
        "{diags:?}"
    );
}

#[test]
fn cross_check_ignores_deterministic_peak_fields() {
    // peak_queue_len is a simulation metric: the patterns must not trip.
    let src = "pub struct RunMetrics {\n    pub allocator_wall_secs: f64,\n    pub peak_queue_len: usize,\n}\nimpl RunMetrics {\n    pub fn adopt_host_measurements(&mut self, other: &RunMetrics) {\n        self.allocator_wall_secs = other.allocator_wall_secs;\n    }\n}\n";
    let diags = cross_check(src, CROSS_CFG);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- stale allow entries -------------------------------------------------

#[test]
fn allow_entries_covering_no_file_are_flagged() {
    let files = [
        "crates/core/src/allowed.rs".to_string(),
        "crates/core/src/decision.rs".to_string(),
    ];
    let diags = lints::stale_allows(&files, &fixture_config());
    assert_eq!(lints_hit(&diags), ["wall-clock"], "{diags:?}");
    assert!(
        diags[0].message.contains("crates/core/src/timer.rs"),
        "{diags:?}"
    );

    let cfg = parse(
        r#"
        [lints.wall-clock]
        crates = ["*"]

        [[lints.wall-clock.allow]]
        path = "crates/core/"
        reason = "fixture: a directory prefix covering a walked file"
        "#,
    )
    .expect("config parses");
    assert!(lints::stale_allows(&files, &cfg).is_empty());
}
