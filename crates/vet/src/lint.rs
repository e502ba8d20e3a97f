//! Source-level protocol lints (the `nvt-lint` binary's engine).
//!
//! A dependency-free, token-level analyzer over the workspace's own `.rs`
//! files (no `syn` in `third_party/`, so the lexing is hand-rolled: line
//! and nested block comments, plain/raw/byte strings, char literals and
//! lifetimes are recognized; everything else is treated as code tokens).
//!
//! # Rules
//!
//! | rule | scope | requirement |
//! |------|-------|-------------|
//! | `repr-c-pcell` | all first-party crates | every struct containing a `PCell` field carries `#[repr(C)]` (or `transparent`) so field offsets — and therefore flush addresses and recovery layout — are defined |
//! | `safety-comment` | `pmem`, `pool`, `structures` | every `unsafe` block/fn/impl/extern carries a `// SAFETY:` comment (or `# Safety` doc section for fns) |
//! | `raw-pcell-access` | `structures` | no raw `PCell::{load, store, compare_exchange, swap, peek_bits}` outside an explicit allowlist — shared-cell traffic must route through the `Durability` policy so flushes/fences are placed by the protocol |
//! | `wall-clock` | `pmem`, `core`, `structures`, `pool` | no `Instant::now` / `SystemTime` — wall-clock reads on persistence-critical paths are nondeterministic across crash/recovery |
//! | `unused-pub` | library crates (`crates/*/src` outside `bin/`, the umbrella's `src/`) | every `pub` fn, struct, enum, trait, type alias, const or static is named by some non-test code: library code, binaries, benches, `examples/`, `src/` or `nvbench/src`. Tests (`tests/`, `#[cfg(test)]` code), comments, strings, imports, `pub type` aliases and the item's own definition and `impl` headers do not count |
//!
//! # Allowlist annotations
//!
//! ```text
//! // nvt-lint: allow(raw-pcell-access): recovery reads raw bits by design
//! let bits = cell.peek_bits();
//! ```
//!
//! A line annotation allows the named rule on its own line and the next
//! line. Regions bracket larger spans (recovery walks, helping sections):
//!
//! ```text
//! // nvt-lint: begin-allow(raw-pcell-access): quiescent recovery rebuild
//! ...
//! // nvt-lint: end-allow(raw-pcell-access)
//! ```
//!
//! Every `allow`/`begin-allow` must state a reason after the colon;
//! unbalanced regions are themselves violations. `#[cfg(test)]` modules
//! are skipped entirely (tests legitimately use `peek_bits` to inspect
//! post-crash state).

use std::fmt;
use std::path::{Path, PathBuf};

/// A lint rule; see the [module docs](self) for the rule table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `#[repr(C)]` required on structs containing `PCell` fields.
    ReprCPcell,
    /// `// SAFETY:` comments required on `unsafe` code.
    SafetyComment,
    /// No raw `PCell` accesses outside the allowlist.
    RawPcellAccess,
    /// No `Instant::now` / `SystemTime` in persistence-critical crates.
    WallClock,
    /// No `pub` item that only tests name (cross-file: [`lint_workspace`]).
    UnusedPub,
}

impl Rule {
    /// Every rule.
    pub const ALL: [Rule; 5] = [
        Rule::ReprCPcell,
        Rule::SafetyComment,
        Rule::RawPcellAccess,
        Rule::WallClock,
        Rule::UnusedPub,
    ];

    /// Stable kebab-case name used in diagnostics and annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ReprCPcell => "repr-c-pcell",
            Rule::SafetyComment => "safety-comment",
            Rule::RawPcellAccess => "raw-pcell-access",
            Rule::WallClock => "wall-clock",
            Rule::UnusedPub => "unused-pub",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in (as passed to [`lint_source`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable specifics.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

// ---- lexer ----------------------------------------------------------------

/// Source split into per-line code (literals and comments blanked to
/// spaces) and per-line comment text.
struct Scanned {
    code: Vec<String>,
    comments: Vec<String>,
}

fn scan(source: &str) -> Scanned {
    let mut code: Vec<String> = vec![String::new()];
    let mut comments: Vec<String> = vec![String::new()];
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0;
    let n = bytes.len();

    macro_rules! push_code {
        ($c:expr) => {{
            code.last_mut().unwrap().push($c);
            comments.last_mut().unwrap().push(' ');
        }};
    }
    macro_rules! push_comment {
        ($c:expr) => {{
            code.last_mut().unwrap().push(' ');
            comments.last_mut().unwrap().push($c);
        }};
    }
    macro_rules! newline {
        () => {{
            code.push(String::new());
            comments.push(String::new());
        }};
    }

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                newline!();
                i += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                // Line comment (incl. doc comments).
                while i < n && bytes[i] != '\n' {
                    push_comment!(bytes[i]);
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                // Block comment, possibly nested.
                let mut depth = 0usize;
                while i < n {
                    if bytes[i] == '\n' {
                        newline!();
                        i += 1;
                        continue;
                    }
                    if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        depth += 1;
                        push_comment!('/');
                        push_comment!('*');
                        i += 2;
                        continue;
                    }
                    if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                        depth -= 1;
                        push_comment!('*');
                        push_comment!('/');
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                        continue;
                    }
                    push_comment!(bytes[i]);
                    i += 1;
                }
            }
            '"' => {
                // Plain string literal.
                push_code!('"');
                i += 1;
                while i < n {
                    match bytes[i] {
                        '\\' if i + 1 < n => {
                            // A `\<newline>` line continuation must still
                            // advance the line counter.
                            push_code!(' ');
                            if bytes[i + 1] == '\n' {
                                newline!();
                            } else {
                                push_code!(' ');
                            }
                            i += 2;
                        }
                        '"' => {
                            push_code!('"');
                            i += 1;
                            break;
                        }
                        '\n' => {
                            newline!();
                            i += 1;
                        }
                        _ => {
                            push_code!(' ');
                            i += 1;
                        }
                    }
                }
            }
            'r' | 'b'
                if is_raw_string_start(&bytes, i) =>
            {
                // Raw (possibly byte) string: r"..", r#".."#, br#".."#.
                let mut j = i;
                while j < n && (bytes[j] == 'r' || bytes[j] == 'b') {
                    push_code!(bytes[j]);
                    j += 1;
                }
                let mut hashes = 0usize;
                while j < n && bytes[j] == '#' {
                    push_code!('#');
                    hashes += 1;
                    j += 1;
                }
                push_code!('"'); // opening quote
                j += 1;
                'raw: while j < n {
                    if bytes[j] == '\n' {
                        newline!();
                        j += 1;
                        continue;
                    }
                    if bytes[j] == '"' {
                        let mut k = 0;
                        while k < hashes && j + 1 + k < n && bytes[j + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            push_code!('"');
                            for _ in 0..hashes {
                                push_code!('#');
                            }
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    push_code!(' ');
                    j += 1;
                }
                i = j;
            }
            '\'' => {
                // Char literal vs lifetime.
                if i + 1 < n && bytes[i + 1] == '\\' {
                    // Escaped char literal.
                    push_code!('\'');
                    i += 1;
                    while i < n && bytes[i] != '\'' {
                        push_code!(' ');
                        i += 1;
                    }
                    if i < n {
                        push_code!('\'');
                        i += 1;
                    }
                } else if i + 2 < n && bytes[i + 2] == '\'' {
                    // 'x'
                    push_code!('\'');
                    push_code!(' ');
                    push_code!('\'');
                    i += 3;
                } else {
                    // Lifetime (or label): keep as code.
                    push_code!('\'');
                    i += 1;
                }
            }
            c => {
                push_code!(c);
                i += 1;
            }
        }
    }

    Scanned { code, comments }
}

fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    // r" r# b" (byte string) br" br# — but not an identifier like `radius`.
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if j >= bytes.len() {
            return false;
        }
        if bytes[j] == '"' {
            return true; // b"...": treat like a raw-ish string (no escapes matter for us)
        }
    }
    if j >= bytes.len() || bytes[j] != 'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == '#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == '"'
}

// ---- allow annotations ----------------------------------------------------

struct Allows {
    /// `allowed[rule][line]` (0-based line).
    per_rule: std::collections::HashMap<Rule, Vec<bool>>,
    violations: Vec<(usize, Rule, String)>,
}

fn parse_allows(scanned: &Scanned) -> Allows {
    use std::collections::HashMap;
    let lines = scanned.comments.len();
    let mut per_rule: HashMap<Rule, Vec<bool>> = HashMap::new();
    for r in Rule::ALL {
        per_rule.insert(r, vec![false; lines]);
    }
    let mut violations = Vec::new();
    let mut open: HashMap<Rule, usize> = HashMap::new();

    for (ln, comment) in scanned.comments.iter().enumerate() {
        let Some(pos) = comment.find("nvt-lint:") else {
            continue;
        };
        let directive = comment[pos + "nvt-lint:".len()..].trim();
        let (verb, rest) = match directive.find('(') {
            Some(p) => (directive[..p].trim(), &directive[p + 1..]),
            None => {
                violations.push((
                    ln,
                    Rule::ALL[0],
                    format!("malformed nvt-lint directive: `{directive}`"),
                ));
                continue;
            }
        };
        let Some(close) = rest.find(')') else {
            violations.push((ln, Rule::ALL[0], "unclosed rule name in nvt-lint directive".into()));
            continue;
        };
        let rule_name = rest[..close].trim();
        let tail = rest[close + 1..].trim();
        let Some(rule) = Rule::from_name(rule_name) else {
            violations.push((ln, Rule::ALL[0], format!("unknown rule `{rule_name}` in nvt-lint directive")));
            continue;
        };
        match verb {
            "allow" | "begin-allow" => {
                let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
                if reason.is_empty() {
                    violations.push((
                        ln,
                        rule,
                        format!("nvt-lint {verb}({rule}) must state a reason: `: why`"),
                    ));
                    continue;
                }
                if verb == "allow" {
                    let flags = per_rule.get_mut(&rule).unwrap();
                    flags[ln] = true;
                    if ln + 1 < lines {
                        flags[ln + 1] = true;
                    }
                } else {
                    if open.insert(rule, ln).is_some() {
                        violations.push((ln, rule, format!("nested begin-allow({rule}) region")));
                    }
                }
            }
            "end-allow" => match open.remove(&rule) {
                Some(start) => {
                    let flags = per_rule.get_mut(&rule).unwrap();
                    for l in flags.iter_mut().take(ln + 1).skip(start) {
                        *l = true;
                    }
                }
                None => violations.push((ln, rule, format!("end-allow({rule}) without begin-allow"))),
            },
            other => violations.push((ln, rule, format!("unknown nvt-lint verb `{other}`"))),
        }
    }
    for (rule, start) in open {
        violations.push((start, rule, format!("begin-allow({rule}) region never closed")));
    }
    Allows { per_rule, violations }
}

// ---- #[cfg(test)] module masking ------------------------------------------

/// Blanks out every `#[cfg(test)]` (or `#[cfg(all(test, …))]`) item so
/// rules skip it: a braced item (`mod … { … }`, a fn, a `thread_local!`)
/// through its closing brace, a `;`-terminated one (`use`, `mod tests;`, a
/// statement) through its `;`.
fn mask_test_modules(code: &mut [String]) {
    let mut ln = 0;
    while ln < code.len() {
        if let Some(after) = test_attr_end(&code[ln]) {
            let mut depth = 0i64;
            let mut end = None;
            'outer: for (l, line) in code.iter().enumerate().skip(ln) {
                let from = if l == ln { after } else { 0 };
                for c in line[from..].chars() {
                    match c {
                        '{' | '(' | '[' => depth += 1,
                        '}' | ')' | ']' => {
                            depth -= 1;
                            if depth == 0 && c == '}' {
                                end = Some(l);
                                break 'outer;
                            }
                        }
                        ';' if depth == 0 => {
                            end = Some(l);
                            break 'outer;
                        }
                        _ => {}
                    }
                }
            }
            if let Some(end) = end {
                for masked in &mut code[ln..=end] {
                    *masked = masked.chars().map(|_| ' ').collect();
                }
                ln = end;
            }
        }
        ln += 1;
    }
}

/// The byte index just past a test-only `cfg` attribute on `line`.
fn test_attr_end(line: &str) -> Option<usize> {
    let start = ["#[cfg(test)]", "#[cfg(all(test,"]
        .iter()
        .find_map(|attr| line.find(attr))?;
    let mut depth = 0i64;
    for (i, c) in line[start..].char_indices() {
        match c {
            '[' | '(' => depth += 1,
            ')' => depth -= 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(start + i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

// ---- rules ----------------------------------------------------------------

fn word_at(line: &str, idx: usize, word: &str) -> bool {
    let b = line.as_bytes();
    let end = idx + word.len();
    if end > b.len() || &line[idx..end] != word {
        return false;
    }
    let before_ok = idx == 0 || {
        let c = b[idx - 1] as char;
        !c.is_alphanumeric() && c != '_'
    };
    let after_ok = end == b.len() || {
        let c = b[end] as char;
        !c.is_alphanumeric() && c != '_'
    };
    before_ok && after_ok
}

/// Find every word-boundary occurrence of `word` in `line`.
fn find_words(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find(word) {
        let idx = from + p;
        if word_at(line, idx, word) {
            out.push(idx);
        }
        from = idx + word.len();
    }
    out
}

fn check_repr_c_pcell(code: &[String], out: &mut Vec<(usize, String)>) {
    for ln in 0..code.len() {
        for idx in find_words(&code[ln], "struct") {
            // Name follows; find the body (next top-level `{`, `(`, or `;`).
            let mut l = ln;
            let mut ci = idx + "struct".len();
            let (mut body_start, mut opener) = (None, ' ');
            'find: while l < code.len() {
                let chars: Vec<char> = code[l].chars().collect();
                while ci < chars.len() {
                    match chars[ci] {
                        '{' | '(' => {
                            body_start = Some((l, ci));
                            opener = chars[ci];
                            break 'find;
                        }
                        ';' => break 'find,
                        _ => {}
                    }
                    ci += 1;
                }
                l += 1;
                ci = 0;
            }
            let Some((bl, bc)) = body_start else {
                continue; // unit struct
            };
            let closer = if opener == '{' { '}' } else { ')' };
            // Collect the body text.
            let mut body = String::new();
            let mut depth = 0i64;
            let (mut l, mut ci) = (bl, bc);
            'body: while l < code.len() {
                let chars: Vec<char> = code[l].chars().collect();
                while ci < chars.len() {
                    let c = chars[ci];
                    if c == opener {
                        depth += 1;
                    } else if c == closer {
                        depth -= 1;
                        if depth == 0 {
                            break 'body;
                        }
                    }
                    body.push(c);
                    ci += 1;
                }
                body.push('\n');
                l += 1;
                ci = 0;
            }
            // Only *inline* PCell fields constrain the struct's own layout;
            // a `*mut PCell`, `&PCell` or `Box<PCell>` field does not.
            let inline_pcell = find_words(&body, "PCell").into_iter().any(|p| {
                let before = body[..p].trim_end();
                !(before.ends_with("*mut")
                    || before.ends_with("*const")
                    || before.ends_with('&')
                    || before.ends_with("Box<")
                    || before.ends_with("Arc<")
                    || before.ends_with("Rc<")
                    || before.ends_with("NonNull<"))
            });
            if !inline_pcell {
                continue;
            }
            // Gather preceding attribute lines.
            let mut attrs = String::new();
            let mut a = ln;
            while a > 0 {
                a -= 1;
                let t = code[a].trim();
                if t.starts_with("#[") || t.starts_with("#![") || (t.is_empty() && !code[a].is_empty())
                {
                    attrs.push_str(t);
                    attrs.push('\n');
                    continue;
                }
                if t.is_empty() {
                    // Comment-only or blank line: keep scanning upward past
                    // doc comments.
                    continue;
                }
                break;
            }
            // Attributes may share the decl line (`#[repr(C)] struct S`).
            attrs.push_str(&code[ln][..idx]);
            if !repr_is_layout_stable(&attrs) {
                out.push((
                    ln,
                    "struct contains PCell fields but no #[repr(C)] / #[repr(transparent)]; \
                     flush addresses and recovery need a defined layout"
                        .to_string(),
                ));
            }
        }
    }
}

fn repr_is_layout_stable(attrs: &str) -> bool {
    let mut from = 0;
    while let Some(p) = attrs[from..].find("repr(") {
        let start = from + p + "repr(".len();
        let inner = match attrs[start..].find(')') {
            Some(e) => &attrs[start..start + e],
            None => &attrs[start..],
        };
        for part in inner.split(',') {
            let part = part.trim();
            if part == "C" || part == "transparent" {
                return true;
            }
        }
        from = start;
    }
    false
}

fn check_safety_comments(scanned: &Scanned, code: &[String], out: &mut Vec<(usize, String)>) {
    for ln in 0..code.len() {
        let occurrences = find_words(&code[ln], "unsafe");
        if occurrences.is_empty() {
            continue;
        }
        // What follows the keyword decides the required comment style.
        let after = {
            let idx = occurrences[0] + "unsafe".len();
            let mut rest: String = code[ln][idx..].to_string();
            let mut l = ln + 1;
            while rest.trim().is_empty() && l < code.len() {
                rest = code[l].clone();
                l += 1;
            }
            rest.trim_start().to_string()
        };
        let is_fn = after.starts_with("fn ") || after.starts_with("fn(");
        // Look for a SAFETY comment: same line or up to 3 lines above
        // (10 for fns — a trait impl's `// SAFETY:` sits above the
        // `unsafe impl` header, several lines before the method).
        let window = if is_fn { 10 } else { 3 };
        let nearby_safety = (ln.saturating_sub(window)..=ln)
            .any(|l| scanned.comments[l].contains("SAFETY"));
        // `unsafe fn` may instead document a `# Safety` section (doc
        // comments can sit above attributes, a ways up).
        let doc_safety = is_fn
            && (ln.saturating_sub(30)..=ln).any(|l| scanned.comments[l].contains("# Safety"));
        if !nearby_safety && !doc_safety {
            let what = if is_fn {
                "unsafe fn needs a `# Safety` doc section or a `// SAFETY:` comment"
            } else {
                "unsafe code needs a `// SAFETY:` comment within the 3 lines above"
            };
            out.push((ln, what.to_string()));
        }
    }
}

fn check_raw_pcell_access(code: &[String], out: &mut Vec<(usize, String)>) {
    // (method, PCell arity) — an atomic's same-named method takes more
    // arguments (the `Ordering`s), which is how the two are told apart.
    const METHODS: [(&str, usize); 5] = [
        ("load", 0),
        ("store", 1),
        ("compare_exchange", 2),
        ("swap", 1),
        ("peek_bits", 0),
    ];
    for ln in 0..code.len() {
        for (method, arity) in METHODS {
            let pat = format!(".{method}");
            let mut from = 0;
            while let Some(p) = code[ln][from..].find(&pat) {
                let idx = from + p;
                from = idx + pat.len();
                // Must be followed by `(` and be a word boundary.
                let end = idx + pat.len();
                if !word_at(&code[ln], idx + 1, method) {
                    continue;
                }
                let rest = &code[ln][end..];
                if !rest.trim_start().starts_with('(') {
                    continue;
                }
                if let Some(args) = count_args(code, ln, end) {
                    if args == arity {
                        out.push((
                            ln,
                            format!(
                                "raw PCell::{method} — route through the Durability policy \
                                 (t_load / c_load / c_store / c_cas) or annotate why not"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Counts top-level arguments of the call whose `(` is at/after
/// `(line, col)`; `None` if the parens never close (truncated scan).
fn count_args(code: &[String], line: usize, col: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut args = 0usize;
    let mut any = false;
    let mut l = line;
    let mut ci = col;
    while l < code.len() {
        let chars: Vec<char> = code[l].chars().collect();
        while ci < chars.len() {
            let c = chars[ci];
            match c {
                '(' | '[' => {
                    depth += 1;
                }
                ')' | ']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(if any { args + 1 } else { 0 });
                    }
                }
                ',' if depth == 1 => args += 1,
                c if depth >= 1 && !c.is_whitespace() => any = true,
                _ => {}
            }
            ci += 1;
        }
        l += 1;
        ci = 0;
        if l > line + 40 {
            return None; // give up on absurd spans
        }
    }
    None
}

fn check_wall_clock(code: &[String], out: &mut Vec<(usize, String)>) {
    for (ln, line) in code.iter().enumerate() {
        if !find_words(line, "SystemTime").is_empty() || line.contains("Instant::now") {
            out.push((
                ln,
                "wall-clock read in a persistence-critical crate; timing must not \
                 leak into durable state or recovery decisions"
                    .to_string(),
            ));
        }
    }
}

// ---- unused-pub (cross-file) ----------------------------------------------

/// What a workspace-relative path is to `unused-pub`: `(defines, uses)`.
/// Library sources define the checked items; they, binaries, benches,
/// examples, the umbrella crate and `nvbench/src` are the users. Tests
/// are neither.
fn pub_roles(rel: &str) -> (bool, bool) {
    let p = rel.replace('\\', "/");
    if !p.ends_with(".rs") || p.contains("third_party/") || p.contains("/target/") {
        return (false, false);
    }
    if p.ends_with("/tests.rs") || p.starts_with("tests/") || p.contains("/tests/") {
        return (false, false);
    }
    let crate_src = p.starts_with("crates/") && p.contains("/src/");
    let library = (crate_src && !p.contains("/src/bin/")) || p.starts_with("src/");
    let user = library
        || crate_src
        || (p.starts_with("crates/") && p.contains("/benches/"))
        || p.starts_with("examples/")
        || p.starts_with("nvbench/src/");
    (library, user)
}

/// A code token: an identifier (keywords included) or one punctuation
/// character, with its 0-based line.
#[derive(Clone, Copy)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(char),
}

fn tokens(code: &[String]) -> Vec<(usize, Tok<'_>)> {
    let mut out = Vec::new();
    for (ln, line) in code.iter().enumerate() {
        let mut chars = line.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if c.is_alphabetic() || c == '_' {
                let mut end = i + c.len_utf8();
                while let Some(&(j, d)) = chars.peek() {
                    if !(d.is_alphanumeric() || d == '_') {
                        break;
                    }
                    end = j + d.len_utf8();
                    chars.next();
                }
                out.push((ln, Tok::Ident(&line[i..end])));
            } else if c.is_ascii_digit() {
                // A number with its suffix (`1u64`) names nothing.
                while chars
                    .peek()
                    .is_some_and(|&(_, d)| d.is_alphanumeric() || d == '_')
                {
                    chars.next();
                }
            } else if !c.is_whitespace() {
                out.push((ln, Tok::Punct(c)));
            }
        }
    }
    out
}

/// The `pub` items one file defines and the names it uses.
struct PubScan<'a> {
    /// `(0-based line, item keyword, name)` of every bare-`pub` item.
    defs: Vec<(usize, &'a str, &'a str)>,
    /// Every identifier that counts as a use, once per occurrence.
    uses: Vec<&'a str>,
}

/// Splits one file's tokens into the `pub` items it defines and the names
/// it uses. Not a use: a `use` declaration, a `pub type` alias, the name
/// of any item being defined, an `impl` header's self type, and an item's
/// own name inside its body or its `impl` blocks (a constructor, a
/// recursive call).
fn scan_pub<'a>(toks: &[(usize, Tok<'a>)]) -> PubScan<'a> {
    const ITEMS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "union",
    ];
    let ident = |i: usize| match toks.get(i) {
        Some((_, Tok::Ident(s))) => Some(*s),
        _ => None,
    };
    let punct = |i: usize, c: char| matches!(toks.get(i), Some((_, Tok::Punct(p))) if *p == c);
    let skip_to_semicolon = |mut i: usize| {
        while i < toks.len() && !punct(i, ';') {
            i += 1;
        }
        i + 1
    };
    let mut out = PubScan {
        defs: Vec::new(),
        uses: Vec::new(),
    };
    let mut not_a_use = vec![false; toks.len()];
    // Items whose body or `impl` block is open, with the brace depth it
    // opened at; `pending` is named but its `{` has not come yet.
    let mut owners: Vec<(&str, usize)> = Vec::new();
    let mut pending: Option<&str> = None;
    let (mut braces, mut parens) = (0usize, 0i64);
    let mut i = 0;
    while i < toks.len() {
        let word = match toks[i].1 {
            Tok::Punct(c) => {
                match c {
                    '{' => {
                        braces += 1;
                        if let Some(name) = pending.take() {
                            owners.push((name, braces));
                        }
                    }
                    '}' => {
                        if owners.last().is_some_and(|o| o.1 == braces) {
                            owners.pop();
                        }
                        braces = braces.saturating_sub(1);
                    }
                    '(' | '[' => parens += 1,
                    ')' | ']' => parens -= 1,
                    ';' if parens == 0 => pending = None,
                    _ => {}
                }
                i += 1;
                continue;
            }
            Tok::Ident(word) => word,
        };
        match word {
            "use" => {
                i = skip_to_semicolon(i);
                continue;
            }
            "pub" if !punct(i + 1, '(') => {
                let mut j = i + 1;
                loop {
                    match ident(j) {
                        Some("unsafe" | "async" | "extern") => j += 1,
                        Some("const") if matches!(ident(j + 1), Some("fn" | "unsafe")) => j += 1,
                        _ if punct(j, '"') => j += 1,
                        _ => break,
                    }
                }
                if let Some(kw) = ident(j).filter(|k| ITEMS.contains(k)) {
                    let at = if kw == "static" && ident(j + 1) == Some("mut") {
                        j + 2
                    } else {
                        j + 1
                    };
                    if let Some(name) = ident(at) {
                        out.defs.push((toks[at].0, kw, name));
                    }
                    if kw == "type" {
                        i = skip_to_semicolon(i);
                        continue;
                    }
                }
            }
            "fn" | "struct" | "enum" | "trait" | "union" | "mod" | "type" => {
                if let Some(name) = ident(i + 1) {
                    not_a_use[i + 1] = true;
                    pending = Some(name);
                }
            }
            "const" | "static" => {
                let at = if ident(i + 1) == Some("mut") {
                    i + 2
                } else {
                    i + 1
                };
                if ident(at).is_some() && punct(at + 1, ':') {
                    not_a_use[at] = true;
                }
            }
            "impl"
                if i == 0
                    || matches!(toks[i - 1].1, Tok::Punct('}' | ';' | ']' | '{'))
                    || ident(i - 1) == Some("unsafe") =>
            {
                if let Some(head) = impl_self_head(toks, i) {
                    not_a_use[head] = true;
                    pending = ident(head);
                }
            }
            _ => {}
        }
        if !not_a_use[i] && !owners.iter().any(|o| o.0 == word) {
            out.uses.push(word);
        }
        i += 1;
    }
    out
}

/// The token index of an `impl` header's self-type name (`Foo` in
/// `impl<'a, T> Trait for &'a a::Foo<T> where … {`).
fn impl_self_head(toks: &[(usize, Tok<'_>)], at: usize) -> Option<usize> {
    let is = |i: usize, c: char| matches!(toks.get(i), Some((_, Tok::Punct(p))) if *p == c);
    let mut depth = 0i64;
    let mut start = None;
    let mut end = at + 1;
    while end < toks.len() {
        match toks[end].1 {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') if !is(end - 1, '-') => {
                depth -= 1;
                // The `impl<…>` generics close: the type starts after them.
                if depth == 0 && start.is_none() && is(at + 1, '<') {
                    start = Some(end + 1);
                }
            }
            Tok::Punct('{' | ';') => break,
            Tok::Ident("where") if depth == 0 => break,
            Tok::Ident("for") if depth == 0 && !is(end + 1, '<') => start = Some(end + 1),
            _ => {}
        }
        end += 1;
    }
    // The last segment of the first path (`a::b::Foo`), past `&`,
    // lifetimes, `mut` and `dyn`.
    let mut head = None;
    let from = start.unwrap_or(at + 1);
    for (k, (_, tok)) in toks.iter().enumerate().take(end).skip(from) {
        match tok {
            Tok::Punct('&' | '\'' | ':') => {}
            Tok::Ident(_) if is(k - 1, '\'') => {}
            Tok::Ident("mut" | "dyn") if head.is_none() => {}
            Tok::Ident(_) if head.is_none() || is(k - 1, ':') => head = Some(k),
            _ => break,
        }
    }
    head
}

/// `unused-pub` over a set of `(workspace-relative path, source)` files.
fn check_unused_pub(files: &[(String, String)]) -> Vec<Violation> {
    use std::collections::HashSet;
    let mut used: HashSet<String> = HashSet::new();
    let mut defs = Vec::new();
    for (rel, source) in files {
        let (library, user) = pub_roles(rel);
        if !library && !user {
            continue;
        }
        let scanned = scan(source);
        let mut code = scanned.code.clone();
        mask_test_modules(&mut code);
        let toks = tokens(&code);
        let found = scan_pub(&toks);
        if user {
            used.extend(found.uses.iter().map(|u| u.to_string()));
        }
        if library && !found.defs.is_empty() {
            let allowed = parse_allows(&scanned)
                .per_rule
                .remove(&Rule::UnusedPub)
                .unwrap_or_default();
            for (ln, kw, name) in found.defs {
                if !allowed.get(ln).copied().unwrap_or(false) {
                    defs.push((rel.clone(), ln, kw.to_string(), name.to_string()));
                }
            }
        }
    }
    defs.into_iter()
        .filter(|(_, _, _, name)| !used.contains(name))
        .map(|(file, ln, kw, name)| Violation {
            file,
            line: ln + 1,
            rule: Rule::UnusedPub,
            message: format!(
                "`pub {kw} {name}` is named by no non-test code; delete it, narrow its \
                 visibility, or annotate why it stays"
            ),
        })
        .collect()
}

// ---- entry points ---------------------------------------------------------

/// Lints one source file against `rules`, honouring allow annotations and
/// skipping `#[cfg(test)]` modules. `file` is only used for labels.
pub fn lint_source(file: &str, source: &str, rules: &[Rule]) -> Vec<Violation> {
    let scanned = scan(source);
    let allows = parse_allows(&scanned);
    let mut code = scanned.code.clone();
    mask_test_modules(&mut code);

    let mut out: Vec<Violation> = allows
        .violations
        .iter()
        .map(|(ln, rule, msg)| Violation {
            file: file.to_string(),
            line: ln + 1,
            rule: *rule,
            message: msg.clone(),
        })
        .collect();

    for &rule in rules {
        let mut found: Vec<(usize, String)> = Vec::new();
        match rule {
            Rule::ReprCPcell => check_repr_c_pcell(&code, &mut found),
            Rule::SafetyComment => check_safety_comments(&scanned, &code, &mut found),
            Rule::RawPcellAccess => check_raw_pcell_access(&code, &mut found),
            Rule::WallClock => check_wall_clock(&code, &mut found),
            // Cross-file: `lint_workspace` runs it over every file at once.
            Rule::UnusedPub => {}
        }
        let allowed = &allows.per_rule[&rule];
        for (ln, message) in found {
            if allowed.get(ln).copied().unwrap_or(false) {
                continue;
            }
            out.push(Violation {
                file: file.to_string(),
                line: ln + 1,
                rule,
                message,
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Which rules apply to a workspace-relative path; empty to skip the file.
pub fn rules_for(rel_path: &str) -> Vec<Rule> {
    let p = rel_path.replace('\\', "/");
    if p.contains("third_party/") || p.contains("/target/") || p.starts_with("target/") {
        return Vec::new();
    }
    if !p.ends_with(".rs") {
        return Vec::new();
    }
    // Only crate sources (and the umbrella's src/); tests and benches may
    // legitimately poke raw state. `tests.rs` modules are `#[cfg(test)]`-
    // gated at their `mod` declaration, which a per-file scan can't see.
    let in_crates = p.starts_with("crates/") && p.contains("/src/");
    let in_umbrella = p.starts_with("src/");
    if !in_crates && !in_umbrella {
        return Vec::new();
    }
    if p.ends_with("/tests.rs") || p.contains("/tests/") {
        return Vec::new();
    }
    let crate_name = p
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let mut rules = vec![Rule::ReprCPcell];
    if matches!(crate_name, "pmem" | "pool" | "structures") {
        rules.push(Rule::SafetyComment);
    }
    if crate_name == "structures" {
        rules.push(Rule::RawPcellAccess);
    }
    if matches!(crate_name, "pmem" | "core" | "structures" | "pool") {
        rules.push(Rule::WallClock);
    }
    rules
}

/// Lints every applicable `.rs` file under `root` (a workspace checkout):
/// each file's own rules, then `unused-pub` across all of them.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut paths = Vec::new();
    for dir in ["crates", "src", "examples", "nvbench/src"] {
        collect_rs_files(&root.join(dir), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for f in paths {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&f)?));
    }
    Ok(lint_files(&files))
}

/// [`lint_workspace`] over `(workspace-relative path, source)` pairs.
fn lint_files(files: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rel, source) in files {
        let rules = rules_for(rel);
        if !rules.is_empty() {
            out.extend(lint_source(rel, source, &rules));
        }
    }
    out.extend(check_unused_pub(files));
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, rules: &[Rule]) -> Vec<Violation> {
        lint_source("test.rs", src, rules)
    }

    #[test]
    fn repr_c_missing_is_flagged_and_present_is_not() {
        let bad = "pub struct Node<B: Backend> {\n    next: PCell<u64, B>,\n}\n";
        let v = lint(bad, &[Rule::ReprCPcell]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::ReprCPcell);
        assert_eq!(v[0].line, 1);

        let good = "#[repr(C)]\npub struct Node<B: Backend> {\n    next: PCell<u64, B>,\n}\n";
        assert!(lint(good, &[Rule::ReprCPcell]).is_empty());
        let transparent = "#[repr(transparent)]\nstruct W { c: PCell<u64, Noop> }\n";
        assert!(lint(transparent, &[Rule::ReprCPcell]).is_empty());
        let with_align = "#[repr(C, align(64))]\nstruct W { c: PCell<u64, Noop> }\n";
        assert!(lint(with_align, &[Rule::ReprCPcell]).is_empty());
        let no_pcell = "struct Plain { x: u64 }\n";
        assert!(lint(no_pcell, &[Rule::ReprCPcell]).is_empty());
    }

    #[test]
    fn safety_comment_rule() {
        let bad = "fn f(p: *mut u8) {\n    unsafe { p.write(0) };\n}\n";
        let v = lint(bad, &[Rule::SafetyComment]);
        assert_eq!(v.len(), 1, "{v:?}");

        let good = "fn f(p: *mut u8) {\n    // SAFETY: caller owns p\n    unsafe { p.write(0) };\n}\n";
        assert!(lint(good, &[Rule::SafetyComment]).is_empty());

        let doc_fn = "/// Does things.\n///\n/// # Safety\n///\n/// `p` must be valid.\npub unsafe fn g(p: *mut u8) {}\n";
        assert!(lint(doc_fn, &[Rule::SafetyComment]).is_empty(), "{:?}", lint(doc_fn, &[Rule::SafetyComment]));
    }

    #[test]
    fn raw_pcell_access_rule_distinguishes_atomics() {
        let bad = "fn f() {\n    let x = cell.load();\n    cell.store(x);\n    let _ = cell.compare_exchange(a, b);\n    let _ = cell.peek_bits();\n}\n";
        let v = lint(bad, &[Rule::RawPcellAccess]);
        assert_eq!(v.len(), 4, "{v:?}");

        let atomics = "fn f() {\n    let x = a.load(Ordering::SeqCst);\n    a.store(1, Ordering::SeqCst);\n    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n    let _ = a.swap(2, Ordering::SeqCst);\n}\n";
        assert!(lint(atomics, &[Rule::RawPcellAccess]).is_empty(), "{:?}", lint(atomics, &[Rule::RawPcellAccess]));
    }

    #[test]
    fn wall_clock_rule() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint(bad, &[Rule::WallClock]).len(), 1);
        let bad2 = "use std::time::SystemTime;\n";
        assert_eq!(lint(bad2, &[Rule::WallClock]).len(), 1);
        let ok = "fn f() { let d = Duration::from_secs(1); }\n";
        assert!(lint(ok, &[Rule::WallClock]).is_empty());
    }

    #[test]
    fn line_allow_suppresses_with_reason() {
        let src = "fn f() {\n    // nvt-lint: allow(raw-pcell-access): recovery reads raw bits\n    let x = cell.load();\n}\n";
        assert!(lint(src, &[Rule::RawPcellAccess]).is_empty());

        let no_reason = "fn f() {\n    // nvt-lint: allow(raw-pcell-access)\n    let x = cell.load();\n}\n";
        let v = lint(no_reason, &[Rule::RawPcellAccess]);
        assert!(
            v.iter().any(|v| v.message.contains("reason")),
            "missing-reason must be a violation: {v:?}"
        );
    }

    #[test]
    fn region_allow_and_unbalanced_region() {
        let src = "fn f() {\n    // nvt-lint: begin-allow(raw-pcell-access): quiescent rebuild\n    let x = cell.load();\n    let y = cell.peek_bits();\n    // nvt-lint: end-allow(raw-pcell-access)\n    let z = other.load();\n}\n";
        let v = lint(src, &[Rule::RawPcellAccess]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);

        let unbalanced = "// nvt-lint: begin-allow(wall-clock): forever\nfn f() {}\n";
        let v = lint(unbalanced, &[Rule::WallClock]);
        assert!(v.iter().any(|v| v.message.contains("never closed")), "{v:?}");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = cell.peek_bits(); let _ = std::time::Instant::now(); }\n}\n";
        assert!(lint(src, &[Rule::RawPcellAccess, Rule::WallClock]).is_empty());
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = "fn f() {\n    let s = \"cell.load()\";\n    // cell.load() in a comment\n    let r = r#\"Instant::now()\"#;\n}\n";
        assert!(lint(src, &[Rule::RawPcellAccess, Rule::WallClock]).is_empty());
    }

    #[test]
    fn string_line_continuation_keeps_line_numbers() {
        let src = "fn f() {\n    let s = \"a \\\n        b\";\n    let t = std::time::Instant::now();\n}\n";
        let v = lint(src, &[Rule::WallClock]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    fn unused(list: &[(&str, &str)]) -> Vec<String> {
        check_unused_pub(&files(list))
            .into_iter()
            .map(|v| v.message)
            .collect()
    }

    #[test]
    fn a_pub_item_named_only_by_tests_is_unused() {
        let lib = "pub struct PoolBuilder;\nimpl PoolBuilder {\n    pub fn open(self) {}\n    pub fn open_retry(self, attempts: u32) {}\n}\n";
        let test = "fn t() { PoolBuilder.open_retry(3); }\n";
        let example = "fn main() { PoolBuilder.open(); }\n";
        let v = unused(&[
            ("crates/pool/src/lib.rs", lib),
            ("crates/pool/tests/retry.rs", test),
            ("tests/retry.rs", test),
            ("examples/open.rs", example),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("`pub fn open_retry`"), "{v:?}");

        // Kept with a reason, it passes; without one, the annotation fails.
        let kept = lib.replace(
            "    pub fn open_retry",
            "    // nvt-lint: allow(unused-pub): the lock tests wait out a holder with it\n    pub fn open_retry",
        );
        let ok = [
            ("crates/pool/src/lib.rs", kept.as_str()),
            ("examples/open.rs", example),
        ];
        assert!(unused(&ok).is_empty());
        let bare = lib.replace(
            "    pub fn open_retry",
            "    // nvt-lint: allow(unused-pub)\n    pub fn open_retry",
        );
        let v = lint_files(&files(&[
            ("crates/pool/src/lib.rs", bare.as_str()),
            ("examples/open.rs", example),
        ]));
        assert!(
            v.iter().any(|v| v.message.contains("must state a reason")),
            "{v:?}"
        );
    }

    #[test]
    fn what_does_not_count_as_a_use() {
        let lib = "pub struct Pq { inner: u64 }\n\
                   impl Pq {\n    pub fn new() -> Pq { Pq { inner: 0 } }\n}\n\
                   impl Default for Pq {\n    fn default() -> Self { Pq::new() }\n}\n\
                   pub type Alias = Pq;\n\
                   pub use self::Pq as Again;\n\
                   // Pq in a comment\n\
                   pub const NAME: &str = \"Pq\";\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let _ = super::Pq::new(); }\n}\n";
        let v = unused(&[
            ("crates/structures/src/pq.rs", lib),
            ("src/main.rs", "fn main() { NAME; }\n"),
        ]);
        // `new` is used (by `default`); `Pq` only by itself, its impls,
        // an alias, a re-export, a comment, a string and a test.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("`pub struct Pq`")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("`pub type Alias`")), "{v:?}");

        // Any other item's body, a binary or `nvbench/src` is a user.
        for user in [
            "crates/server/src/lib.rs",
            "crates/bench/src/bin/figures.rs",
            "nvbench/src/main.rs",
        ] {
            let v = unused(&[
                ("crates/structures/src/pq.rs", lib),
                (user, "fn f() -> Alias { Pq::new() }\nfn g() { NAME; }\n"),
            ]);
            assert!(v.is_empty(), "{user}: {v:?}");
        }
    }

    #[test]
    fn cfg_test_items_end_at_their_semicolon_or_brace() {
        let src = "#[cfg(test)]\nuse std::cell::Cell;\nfn prod() { unsafe { f() } }\n\
                   #[cfg(all(test, target_os = \"linux\"))]\nfn t() { unsafe { g() } }\n";
        let v = lint(src, &[Rule::SafetyComment]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn rules_for_scopes_by_crate() {
        assert!(rules_for("crates/structures/src/list.rs").contains(&Rule::RawPcellAccess));
        assert!(!rules_for("crates/server/src/lib.rs").contains(&Rule::RawPcellAccess));
        assert!(rules_for("crates/pmem/src/sim.rs").contains(&Rule::SafetyComment));
        assert!(!rules_for("crates/server/src/lib.rs").contains(&Rule::WallClock));
        assert!(rules_for("third_party/rand/src/lib.rs").is_empty());
        assert!(rules_for("tests/common/mod.rs").is_empty());
    }
}
