//! A minimal Rust lexer: just enough token structure for the workspace
//! invariant lints.
//!
//! The build environment is fully offline, so `syn` cannot be a
//! dependency; the workspace has no external crates at all. The lints
//! only need identifier/literal-level facts — "does this non-test code
//! mention `HashMap`?", "is there a float literal inside this
//! function?" — so a hand-rolled lexer plus a light context pass
//! (brace depth, `#[cfg(test)]` regions, enclosing `fn` names, inline
//! `// lint: allow(...)` comments) is sufficient and keeps the linter
//! dependency-free.
//!
//! The lexer understands line/block comments (nested), string literals
//! (plain, raw, byte), char literals vs. lifetimes, numeric literals
//! (classifying floats), and identifiers. Everything else is a one-byte
//! punctuation token.

/// Token kinds the lints care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Floating-point literal (`1.0`, `1e-6`, `2f64`, ...).
    Float,
    /// Integer literal.
    Int,
    /// String literal of any flavour.
    Str,
    /// Character literal.
    Char,
    /// Lifetime or loop label (`'a`).
    Lifetime,
    /// Single punctuation byte.
    Punct(u8),
    /// Line comment, text includes the leading `//`.
    LineComment,
}

/// One token with its source text and 1-based line number.
#[derive(Debug, Clone)]
pub struct Tok<'a> {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's source text.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// Per-token context computed by [`annotate`]: whether the token sits in
/// test-only code and which function body encloses it.
#[derive(Debug, Clone, Copy)]
pub struct TokCtx {
    /// Inside a `#[cfg(test)]` / `#[test]` item body.
    pub in_test: bool,
    /// Index into [`Annotated::fn_names`] of the innermost enclosing
    /// function, if any.
    pub enclosing_fn: Option<usize>,
}

/// An inline allow annotation parsed from a `// lint: allow(<name>) — <reason>`
/// comment.
#[derive(Debug, Clone)]
pub struct InlineAllow {
    /// The lint name inside `allow(...)`.
    pub lint: String,
    /// The justification after the separator; may be empty (the checker
    /// rejects empty reasons).
    pub reason: String,
    /// 1-based line the comment sits on. The allow suppresses findings on
    /// this line and the next.
    pub line: usize,
}

/// Lexed and context-annotated source file.
pub struct Annotated<'a> {
    /// All tokens except comments, in source order.
    pub tokens: Vec<Tok<'a>>,
    /// Context parallel to `tokens`.
    pub ctx: Vec<TokCtx>,
    /// Names of functions, indexed by [`TokCtx::enclosing_fn`].
    pub fn_names: Vec<String>,
    /// Inline allow annotations found in line comments.
    pub allows: Vec<InlineAllow>,
}

/// Lexes `src` into tokens (comments included).
pub fn lex(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::LineComment,
                    text: &src[start..i],
                    line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment; discarded (annotations use `//`).
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (end, nl) = scan_string(b, i);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: &src[i..end],
                    line,
                });
                line += nl;
                i = end;
            }
            b'r' | b'b' if is_raw_or_byte_string(b, i) => {
                let (end, nl) = scan_raw_or_byte(b, i);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: &src[i..end],
                    line,
                });
                line += nl;
                i = end;
            }
            b'\'' => {
                let (kind, end) = scan_quote(b, i);
                toks.push(Tok {
                    kind,
                    text: &src[i..end],
                    line,
                });
                i = end;
            }
            _ if c.is_ascii_digit() => {
                let (kind, end) = scan_number(b, i);
                toks.push(Tok {
                    kind,
                    text: &src[i..end],
                    line,
                });
                i = end;
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: &src[start..i],
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct(c),
                    text: &src[i..i + 1],
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `rb"..."` — but not a
/// plain identifier starting with `r`/`b` and not a raw identifier
/// (`r#ident`).
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters (r, b in either order).
    for _ in 0..2 {
        if j < b.len() && (b[j] == b'r' || b[j] == b'b') {
            j += 1;
        }
    }
    // Then optional hashes, then a quote. `r#ident` (raw identifier) has
    // hashes followed by identifier chars, not a quote, so it lands on
    // the `false` path.
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Scans a plain string literal starting at the opening quote. Returns
/// (end index past closing quote, newlines consumed).
fn scan_string(b: &[u8], start: usize) -> (usize, usize) {
    let mut i = start + 1;
    let mut nl = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return (i + 1, nl),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Scans raw/byte string forms. Returns (end index, newlines consumed).
fn scan_raw_or_byte(b: &[u8], start: usize) -> (usize, usize) {
    let mut i = start;
    while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
        i += 1;
    }
    let mut hashes = 0;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    debug_assert!(i < b.len() && b[i] == b'"');
    if hashes == 0 && !b[start..i].contains(&b'r') {
        // Plain byte string `b"..."`: escapes allowed.
        let (end, nl) = scan_string(b, i);
        return (end, nl);
    }
    i += 1; // past opening quote
    let mut nl = 0;
    while i < b.len() {
        if b[i] == b'\n' {
            nl += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut h = 0;
            while j < b.len() && b[j] == b'#' && h < hashes {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return (j, nl);
            }
        }
        i += 1;
    }
    (i, nl)
}

/// Distinguishes a char literal from a lifetime at a `'`.
fn scan_quote(b: &[u8], start: usize) -> (TokKind, usize) {
    let i = start + 1;
    if i >= b.len() {
        return (TokKind::Punct(b'\''), i);
    }
    if b[i] == b'\\' {
        // Escaped char literal: find the closing quote.
        let mut j = i + 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return (TokKind::Char, (j + 1).min(b.len()));
    }
    if b[i] == b'_' || b[i].is_ascii_alphabetic() {
        // Could be 'a' (char) or 'a (lifetime): lifetime iff the run of
        // identifier chars is not followed by a closing quote.
        let mut j = i;
        while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
            j += 1;
        }
        if j < b.len() && b[j] == b'\'' && j == i + 1 {
            return (TokKind::Char, j + 1);
        }
        return (TokKind::Lifetime, j);
    }
    // Something like '0' or '+' — a char literal.
    let mut j = i + 1;
    while j < b.len() && b[j] != b'\'' {
        j += 1;
    }
    (TokKind::Char, (j + 1).min(b.len()))
}

/// Scans a numeric literal, classifying floats. `1.0`, `1e9`, `1_000.5`,
/// `2f64` are floats; `0..n` and `1.max(2)` are integers followed by
/// punctuation.
fn scan_number(b: &[u8], start: usize) -> (TokKind, usize) {
    let mut i = start;
    let hex = i + 1 < b.len() && b[i] == b'0' && (b[i + 1] | 0x20) == b'x';
    let binoct = i + 1 < b.len() && b[i] == b'0' && matches!(b[i + 1] | 0x20, b'b' | b'o');
    if hex || binoct {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return (TokKind::Int, i);
    }
    let mut float = false;
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
        float = true;
        i += 1;
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
    } else if i < b.len() && b[i] == b'.' && (i + 1 >= b.len() || is_float_dot_end(b[i + 1])) {
        // Trailing-dot float like `1.` (not `1..x` or `1.method()`).
        float = true;
        i += 1;
    }
    if i < b.len() && (b[i] | 0x20) == b'e' {
        let mut j = i + 1;
        if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            float = true;
            i = j;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix.
    if rest_matches(b, i, b"f32") || rest_matches(b, i, b"f64") {
        float = true;
        i += 3;
    } else {
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
    }
    (if float { TokKind::Float } else { TokKind::Int }, i)
}

fn is_float_dot_end(next: u8) -> bool {
    !(next == b'.' || next == b'_' || next.is_ascii_alphabetic())
}

fn rest_matches(b: &[u8], i: usize, pat: &[u8]) -> bool {
    b.len() >= i + pat.len()
        && &b[i..i + pat.len()] == pat
        && (b.len() == i + pat.len()
            || !(b[i + pat.len()].is_ascii_alphanumeric() || b[i + pat.len()] == b'_'))
}

/// Lexes and annotates `src`: computes test regions, enclosing functions
/// and inline allow annotations.
pub fn annotate(src: &str) -> Annotated<'_> {
    let raw = lex(src);
    let mut allows = Vec::new();
    let mut tokens: Vec<Tok<'_>> = Vec::new();
    for t in &raw {
        if t.kind == TokKind::LineComment {
            if let Some(a) = parse_allow_comment(t.text, t.line) {
                allows.push(a);
            }
        } else {
            tokens.push(t.clone());
        }
    }

    let mut ctx = vec![
        TokCtx {
            in_test: false,
            enclosing_fn: None,
        };
        tokens.len()
    ];
    let mut fn_names: Vec<String> = Vec::new();

    let mut depth: usize = 0;
    let mut test_stack: Vec<usize> = Vec::new(); // depths at which test regions opened
    let mut fn_stack: Vec<(usize, usize)> = Vec::new(); // (fn_names idx, depth)
    let mut pending_test = false;
    let mut pending_fn: Option<usize> = None;
    let mut i = 0;
    while i < tokens.len() {
        // Attribute: `#[ ... ]` (skip inner `#![ ... ]`).
        if tokens[i].kind == TokKind::Punct(b'#')
            && i + 1 < tokens.len()
            && tokens[i + 1].kind == TokKind::Punct(b'[')
        {
            let mut j = i + 2;
            let mut bdepth = 1;
            let mut is_test_attr = false;
            let mut saw_cfg = false;
            while j < tokens.len() && bdepth > 0 {
                match tokens[j].kind {
                    TokKind::Punct(b'[') => bdepth += 1,
                    TokKind::Punct(b']') => bdepth -= 1,
                    TokKind::Ident => {
                        let t = tokens[j].text;
                        if t == "cfg" || t == "cfg_attr" {
                            saw_cfg = true;
                        }
                        if t == "test" && (saw_cfg || j == i + 2) {
                            is_test_attr = true;
                        }
                        if t == "should_panic" || t == "bench" {
                            is_test_attr = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            for c in ctx.iter_mut().take(j).skip(i) {
                c.in_test = !test_stack.is_empty() || pending_test || is_test_attr;
            }
            pending_test |= is_test_attr;
            i = j;
            continue;
        }

        ctx[i].in_test = !test_stack.is_empty() || pending_test;
        // Signature tokens (between `fn name` and its `{`) belong to the
        // declared fn, not the enclosing one: allowlist items must cover
        // `-> f64` in `pub fn ratio(&self) -> f64`.
        ctx[i].enclosing_fn = pending_fn.or_else(|| fn_stack.last().map(|&(idx, _)| idx));

        match tokens[i].kind {
            TokKind::Ident
                if tokens[i].text == "fn"
                    && i + 1 < tokens.len()
                    && tokens[i + 1].kind == TokKind::Ident =>
            {
                fn_names.push(tokens[i + 1].text.to_string());
                pending_fn = Some(fn_names.len() - 1);
            }
            TokKind::Punct(b';') => {
                // Item without a body (trait method decl, `mod x;`).
                pending_fn = None;
                pending_test = false;
            }
            TokKind::Punct(b'{') => {
                if pending_test {
                    test_stack.push(depth);
                    pending_test = false;
                }
                if let Some(idx) = pending_fn.take() {
                    fn_stack.push((idx, depth));
                }
                depth += 1;
            }
            TokKind::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                while test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                while fn_stack.last().map(|&(_, d)| d) == Some(depth) {
                    fn_stack.pop();
                }
            }
            _ => {}
        }
        i += 1;
    }

    Annotated {
        tokens,
        ctx,
        fn_names,
        allows,
    }
}

/// Parses `// lint: allow(<name>) — <reason>` (also accepts `-` or `:` as
/// the separator). Returns `None` for ordinary comments.
fn parse_allow_comment(text: &str, line: usize) -> Option<InlineAllow> {
    let body = text.trim_start_matches('/').trim();
    let rest = body.strip_prefix("lint:")?.trim();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    let mut reason = rest[close + 1..].trim();
    for sep in ["—", "--", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim();
            break;
        }
    }
    Some(InlineAllow {
        lint,
        reason: reason.to_string(),
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_vs_ranges_vs_method_calls() {
        let toks = lex("let a = 1.0; let b = 0..n; let c = 1.max(2); let d = 1e-6; let e = 2f64;");
        let kinds: Vec<(TokKind, &str)> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Float | TokKind::Int))
            .map(|t| (t.kind, t.text))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (TokKind::Float, "1.0"),
                (TokKind::Int, "0"),
                (TokKind::Int, "1"),
                (TokKind::Int, "2"),
                (TokKind::Float, "1e-6"),
                (TokKind::Float, "2f64"),
            ]
        );
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Char).count(),
            1,
            "one char literal"
        );
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let src = r##"
            // HashMap in a comment
            let s = "HashMap in a string";
            let r = r#"HashMap raw"#;
            /* block HashMap */
        "##;
        let ann = annotate(src);
        assert!(!ann.tokens.iter().any(|t| t.text == "HashMap"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "
            fn lib_code() { let x = 1; }
            #[cfg(test)]
            mod tests {
                fn test_code() { let y = 2; }
            }
        ";
        let ann = annotate(src);
        let x = ann.tokens.iter().position(|t| t.text == "x").unwrap();
        let y = ann.tokens.iter().position(|t| t.text == "y").unwrap();
        assert!(!ann.ctx[x].in_test);
        assert!(ann.ctx[y].in_test);
    }

    #[test]
    fn enclosing_fn_names_are_tracked() {
        let src = "fn outer() { helper(); } fn later() { other(); }";
        let ann = annotate(src);
        let h = ann.tokens.iter().position(|t| t.text == "helper").unwrap();
        let o = ann.tokens.iter().position(|t| t.text == "other").unwrap();
        assert_eq!(ann.fn_names[ann.ctx[h].enclosing_fn.unwrap()], "outer");
        assert_eq!(ann.fn_names[ann.ctx[o].enclosing_fn.unwrap()], "later");
    }

    #[test]
    fn allow_comments_parse() {
        let ann = annotate("let x = 1; // lint: allow(no-panic) — unwrap on fresh vec\n");
        assert_eq!(ann.allows.len(), 1);
        assert_eq!(ann.allows[0].lint, "no-panic");
        assert_eq!(ann.allows[0].reason, "unwrap on fresh vec");
        assert_eq!(ann.allows[0].line, 1);
    }

    #[test]
    fn test_attr_marks_following_fn() {
        let src = "
            #[test]
            fn a_test() { body(); }
            fn real() { code(); }
        ";
        let ann = annotate(src);
        let b = ann.tokens.iter().position(|t| t.text == "body").unwrap();
        let c = ann.tokens.iter().position(|t| t.text == "code").unwrap();
        assert!(ann.ctx[b].in_test);
        assert!(!ann.ctx[c].in_test);
    }
}
