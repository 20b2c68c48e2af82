//! `lint.toml` — the checked-in allowlist configuration.
//!
//! The workspace is offline, so instead of a `toml` dependency the linter
//! parses the small TOML subset it needs: `[table]` headers,
//! `[[array.of.tables]]` headers, `key = "string"` and
//! `key = ["a", "b"]` pairs, comments and blank lines. The parser is
//! strict — anything outside the subset is a hard error, because a
//! silently-ignored allowlist entry would defeat the linter.
//!
//! Every allow entry must carry a non-empty `reason`; the loader rejects
//! configurations with unjustified allows so the policy ("an allow is a
//! documented decision") is enforced by construction.

use std::collections::BTreeMap;
use std::fmt;

/// The five lints. Names here are the strings used in `lint.toml` and in
/// inline `// lint: allow(...)` annotations.
pub const LINT_NAMES: [&str; 5] = [
    "unordered-iteration",
    "float-in-decision-path",
    "rng-discipline",
    "wall-clock",
    "no-panic",
];

/// One allowlist entry: a path (file, or directory prefix when ending in
/// `/`), an optional item (enclosing function name), and a mandatory
/// written justification.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Repo-relative path; a trailing `/` makes it a directory prefix.
    pub path: String,
    /// Restrict the allow to one enclosing function.
    pub item: Option<String>,
    /// Why this exception is sound. Never empty.
    pub reason: String,
}

impl AllowEntry {
    /// Whether this entry covers `path` (and `enclosing_fn`, when the
    /// entry names an item).
    pub fn covers(&self, path: &str, enclosing_fn: Option<&str>) -> bool {
        self.covers_path(path)
            && match &self.item {
                None => true,
                Some(item) => enclosing_fn == Some(item.as_str()),
            }
    }

    /// Whether this entry's `path` (file, or directory prefix) covers
    /// `path`, whatever the item.
    pub(crate) fn covers_path(&self, path: &str) -> bool {
        if self.path.ends_with('/') {
            path.starts_with(self.path.as_str())
        } else {
            path == self.path
        }
    }
}

/// Per-lint scope and allowlist.
#[derive(Debug, Clone, Default)]
pub struct LintScope {
    /// Crate names under `crates/` whose `src/` trees are in scope;
    /// `"*"` puts every walked file in scope.
    pub crates: Vec<String>,
    /// Additional in-scope files or directory prefixes (repo-relative).
    pub files: Vec<String>,
    /// Allowlist entries.
    pub allows: Vec<AllowEntry>,
    /// Extra string-list keys (e.g. `host_measured_fields`).
    pub extra: BTreeMap<String, Vec<String>>,
}

impl LintScope {
    /// Whether `path` (repo-relative, `/`-separated) is in this lint's
    /// scope.
    pub fn in_scope(&self, path: &str) -> bool {
        for c in &self.crates {
            if c == "*" {
                return true;
            }
            if path.starts_with(&format!("crates/{c}/src/")) {
                return true;
            }
        }
        self.files
            .iter()
            .any(|f| path == f || (f.ends_with('/') && path.starts_with(f.as_str())))
    }

    /// The first allow entry covering `(path, enclosing_fn)`, if any.
    pub fn allowed_by(&self, path: &str, enclosing_fn: Option<&str>) -> Option<&AllowEntry> {
        self.allows.iter().find(|a| a.covers(path, enclosing_fn))
    }

    /// A named extra list, empty when absent.
    pub fn extra_list(&self, key: &str) -> &[String] {
        self.extra.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A named extra single value (first element of the list form).
    pub fn extra_one(&self, key: &str) -> Option<&str> {
        self.extra_list(key).first().map(String::as_str)
    }
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes the workspace walker skips entirely (fixtures with
    /// intentional violations, generated code).
    pub skip: Vec<String>,
    /// Per-lint scopes, keyed by lint name.
    pub lints: BTreeMap<String, LintScope>,
}

impl Config {
    /// The scope for `lint`; an empty default when the config omits it.
    pub fn scope(&self, lint: &str) -> LintScope {
        self.lints.get(lint).cloned().unwrap_or_default()
    }

    /// Whether the walker should skip `path`.
    pub fn skipped(&self, path: &str) -> bool {
        self.skip
            .iter()
            .any(|s| path == s || path.starts_with(s.as_str()))
    }
}

/// A configuration error with a line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in `lint.toml` (0 for semantic errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "lint.toml:{}: {}", self.line, self.message)
        } else {
            write!(f, "lint.toml: {}", self.message)
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parses the TOML subset out of `text` and validates the schema.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    // Raw document: table path -> list of table instances (array tables
    // append; a plain table is a single instance).
    let mut doc: BTreeMap<String, Vec<BTreeMap<String, Vec<String>>>> = BTreeMap::new();
    let mut current: Option<String> = None;

    // Join multi-line arrays: a `key = [` line accumulates until the
    // bracket closes (strings in this file never contain brackets).
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let stripped = strip_comment(raw_line).trim().to_string();
        match &mut pending {
            Some((_, acc)) => {
                acc.push(' ');
                acc.push_str(&stripped);
                if stripped.contains(']') {
                    let (l, s) = pending.take().unwrap_or_default();
                    lines.push((l, s));
                }
            }
            None => {
                if stripped.contains('[') && stripped.contains('=') && !stripped.contains(']') {
                    pending = Some((idx + 1, stripped));
                } else {
                    lines.push((idx + 1, stripped));
                }
            }
        }
    }
    if let Some((l, _)) = pending {
        return Err(err(l, "unterminated array"));
    }

    for (lineno, line) in &lines {
        let (lineno, line) = (*lineno, line.as_str());
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = header.trim().to_string();
            if name.is_empty() {
                return Err(err(lineno, "empty array-table header"));
            }
            doc.entry(name.clone()).or_default().push(BTreeMap::new());
            current = Some(name);
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = header.trim().to_string();
            if name.is_empty() {
                return Err(err(lineno, "empty table header"));
            }
            let tables = doc.entry(name.clone()).or_default();
            if tables.is_empty() {
                tables.push(BTreeMap::new());
            }
            current = Some(name);
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim().to_string();
            let value = line[eq + 1..].trim();
            if key.is_empty() {
                return Err(err(lineno, "empty key"));
            }
            let values = parse_value(value).map_err(|m| err(lineno, m))?;
            let table = current
                .as_ref()
                .ok_or_else(|| err(lineno, "key outside any table"))?;
            let instances = doc.get_mut(table).expect("current table exists"); // lint: allow(panic) — the parser creates the table instance before any key line reaches it
            let last = instances.last_mut().expect("table has an instance"); // lint: allow(panic) — the parser creates the table instance before any key line reaches it
            if last.insert(key.clone(), values).is_some() {
                return Err(err(lineno, format!("duplicate key `{key}`")));
            }
        } else {
            return Err(err(lineno, format!("unsupported syntax: `{line}`")));
        }
    }

    build(doc)
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"str"` or `["a", "b"]` into a list of strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Vec::new());
        }
        inner
            .split(',')
            .map(str::trim)
            .filter(|part| !part.is_empty()) // tolerate a trailing comma
            .map(parse_string)
            .collect()
    } else {
        Ok(vec![parse_string(value)?])
    }
}

fn parse_string(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{s}`"))
}

/// Converts the raw document into a validated [`Config`].
fn build(doc: BTreeMap<String, Vec<BTreeMap<String, Vec<String>>>>) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    for (table, instances) in doc {
        if table == "workspace" {
            for inst in instances {
                for (key, values) in inst {
                    match key.as_str() {
                        "skip" => config.skip.extend(values),
                        other => {
                            return Err(err(0, format!("unknown [workspace] key `{other}`")));
                        }
                    }
                }
            }
            continue;
        }
        let Some(rest) = table.strip_prefix("lints.") else {
            return Err(err(0, format!("unknown table `[{table}]`")));
        };
        let (lint, is_allow) = match rest.strip_suffix(".allow") {
            Some(lint) => (lint, true),
            None => (rest, false),
        };
        if !LINT_NAMES.contains(&lint) {
            return Err(err(
                0,
                format!("unknown lint `{lint}` (expected one of {LINT_NAMES:?})"),
            ));
        }
        let scope = config.lints.entry(lint.to_string()).or_default();
        for inst in instances {
            if is_allow {
                let path = inst
                    .get("path")
                    .and_then(|v| v.first())
                    .cloned()
                    .ok_or_else(|| err(0, format!("allow entry for `{lint}` missing `path`")))?;
                let item = inst.get("item").and_then(|v| v.first()).cloned();
                let reason = inst
                    .get("reason")
                    .and_then(|v| v.first())
                    .cloned()
                    .unwrap_or_default();
                if reason.trim().is_empty() {
                    return Err(err(
                        0,
                        format!(
                            "allow entry for `{lint}` at `{path}` has no written justification \
                             (`reason`)"
                        ),
                    ));
                }
                for key in inst.keys() {
                    if !matches!(key.as_str(), "path" | "item" | "reason") {
                        return Err(err(0, format!("unknown allow key `{key}` for `{lint}`")));
                    }
                }
                scope.allows.push(AllowEntry { path, item, reason });
            } else {
                for (key, values) in inst {
                    match key.as_str() {
                        "crates" => scope.crates.extend(values),
                        "files" => scope.files.extend(values),
                        other => {
                            scope.extra.insert(other.to_string(), values);
                        }
                    }
                }
            }
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # comment
        [workspace]
        skip = ["crates/lint/tests/fixtures/"]

        [lints.unordered-iteration]
        crates = ["core", "sim"]

        [[lints.unordered-iteration.allow]]
        path = "crates/core/src/baselines/mod.rs"
        item = "spread_partition"
        reason = "order provably cannot leak"

        [lints.wall-clock]
        crates = ["*"]
        host_measured_fields = ["allocator_wall_secs", "peak_rss_bytes"]
        metrics_file = "crates/sim/src/metrics.rs"
    "#;

    #[test]
    fn parses_scopes_and_allows() {
        let cfg = parse(SAMPLE).expect("valid config");
        assert_eq!(cfg.skip, vec!["crates/lint/tests/fixtures/"]);
        let s = cfg.scope("unordered-iteration");
        assert!(s.in_scope("crates/core/src/lib.rs"));
        assert!(s.in_scope("crates/sim/src/driver.rs"));
        assert!(!s.in_scope("crates/bench/src/lib.rs"));
        assert_eq!(s.allows.len(), 1);
        assert!(s
            .allowed_by("crates/core/src/baselines/mod.rs", Some("spread_partition"))
            .is_some());
        assert!(s
            .allowed_by("crates/core/src/baselines/mod.rs", Some("other_fn"))
            .is_none());
    }

    #[test]
    fn wildcard_crates_cover_everything() {
        let cfg = parse(SAMPLE).expect("valid config");
        let s = cfg.scope("wall-clock");
        assert!(s.in_scope("anything/at/all.rs"));
        assert_eq!(
            s.extra_list("host_measured_fields"),
            ["allocator_wall_secs", "peak_rss_bytes"]
        );
        assert_eq!(
            s.extra_one("metrics_file"),
            Some("crates/sim/src/metrics.rs")
        );
    }

    #[test]
    fn missing_reason_is_rejected() {
        let bad = r#"
            [[lints.no-panic.allow]]
            path = "crates/core/src/lib.rs"
        "#;
        let e = parse(bad).expect_err("must reject");
        assert!(e.message.contains("justification"), "{e}");
    }

    #[test]
    fn unknown_lint_is_rejected() {
        let bad = "[lints.made-up]\ncrates = [\"core\"]\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn directory_prefix_allows() {
        let entry = AllowEntry {
            path: "crates/bench/".to_string(),
            item: None,
            reason: "host measurement harness".to_string(),
        };
        assert!(entry.covers("crates/bench/src/lib.rs", None));
        assert!(!entry.covers("crates/core/src/lib.rs", None));
    }

    #[test]
    fn skip_prefixes() {
        let cfg = parse(SAMPLE).expect("valid config");
        assert!(cfg.skipped("crates/lint/tests/fixtures/unordered/bad.rs"));
        assert!(!cfg.skipped("crates/lint/tests/self_check.rs"));
    }
}
