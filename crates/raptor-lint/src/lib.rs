//! `raptor-lint` — repo-native static analysis for the RAPTOR workspace.
//!
//! Every number in the reproduction's codesign tables is only meaningful if
//! **every** floating-point operation in a kernel routes through the
//! `Tracked` dispatch layer and every `unsafe` argues its case. This crate
//! walks the workspace sources with a hand-rolled lightweight Rust lexer
//! ([`lexer`]) and enforces two repo-specific rules — the invariants the
//! type system cannot carry (the cache's one-shard-lock-at-a-time rule is
//! a borrow-checked type in `raptor-lab` instead):
//!
//! 1. **tracked-escape** ([`rules::tracked`]) — no raw `f64`/`f32`
//!    arithmetic or `std` float intrinsics inside the kernel crates
//!    (`hydro`, `incomp`, `eos`, `raptor-ir`) outside the `Real`
//!    abstraction. Legitimate native sites (CFL/dt bookkeeping, geometry
//!    setup, untracked coefficient prep) carry an explicit
//!    `// lint: allow(native-float, <reason>)` annotation.
//! 2. **unsafe-audit** ([`rules::unsafe_audit`]) — every `unsafe`
//!    block/impl/fn carries a `// SAFETY:` justification (or a
//!    `# Safety` doc section), and library crates with zero unsafe declare
//!    `#![forbid(unsafe_code)]` so the invariant is anchored in the
//!    compiler too.
//!
//! ## Annotation grammar
//!
//! ```text
//! // lint: allow(<rule>, <reason>)
//! ```
//!
//! where `<rule>` is currently `native-float` and `<reason>` is free text
//! that must be non-empty — an allow without a written reason is itself a
//! finding. Scope is positional:
//!
//! * trailing on a code line → that line only;
//! * on its own line directly above an item (`fn`/`impl`/`mod`/`trait`)
//!   → the whole item body;
//! * on its own line above a statement → that statement;
//! * as an inner comment (`//! lint: allow(...)`) → the whole file.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;

use lexer::{lex, Lexed, TokKind, Token};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

pub use report::Finding;

/// Crates whose kernels must route all FP math through `Real` (rule 1).
pub const KERNEL_CRATES: &[&str] = &["hydro", "incomp", "eos", "raptor-ir"];

/// Where a source file sits in its crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Under `src/`.
    Src,
    /// Under `tests/` or `benches/` (integration tests / bench harness).
    Test,
}

/// A parsed `// lint: allow(rule, reason)` annotation with its resolved
/// suppression range (inclusive source lines).
#[derive(Clone, Debug)]
pub struct Allow {
    /// Rule name inside `allow(...)`, e.g. `native-float`.
    pub rule: String,
    /// The written justification (must be non-empty).
    pub reason: String,
    /// Line the annotation appears on.
    pub line: usize,
    /// First suppressed line.
    pub start: usize,
    /// Last suppressed line.
    pub end: usize,
}

/// One lexed workspace source file plus the derived lookup structures the
/// rules share.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Name of the owning crate (directory name under `crates/`,
    /// `raptor-examples` for `examples/`, `raptor-rs` for the root).
    pub crate_name: String,
    /// Src or Test.
    pub kind: FileKind,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// For each token index holding an opening delimiter, the index of
    /// its matching closer (and vice versa).
    pub matches: Vec<Option<usize>>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items or
    /// `#[test]` functions.
    pub test_ranges: Vec<(usize, usize)>,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Whether `line` is inside a `#[cfg(test)]` / `#[test]` region.
    pub fn in_test(&self, line: usize) -> bool {
        self.kind == FileKind::Test
            || self.test_ranges.iter().any(|&(s, e)| s <= line && line <= e)
    }

    /// Whether a finding of `rule` at `line` is suppressed by an allow.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|a| a.rule == rule && a.start <= line && line <= a.end)
    }

    /// Matching delimiter for the token at `i`, if `i` is a delimiter.
    pub fn matching(&self, i: usize) -> Option<usize> {
        self.matches.get(i).copied().flatten()
    }
}

/// The scanned workspace: every `.rs` file of every member crate.
pub struct Workspace {
    /// All lexed files, in stable (sorted) path order.
    pub files: Vec<SourceFile>,
}

/// Lint the workspace rooted at `root` with both rules plus the
/// annotation-grammar check. Findings come back sorted by (file, line).
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let ws = Workspace::scan(root)?;
    let mut findings = Vec::new();
    findings.extend(check_annotations(&ws));
    findings.extend(rules::tracked::check(&ws));
    findings.extend(rules::unsafe_audit::check(&ws));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.msg == b.msg);
    Ok(findings)
}

impl Workspace {
    /// Scan `root` (a workspace directory laid out like this repo:
    /// `crates/*`, `examples/`, plus the root facade crate) and lex every
    /// `.rs` file under each member's `src/`, `tests/`, and `benches/`.
    /// Directories named `fixtures` are skipped — they hold seeded-
    /// violation inputs for the lint's own tests.
    pub fn scan(root: &Path) -> Result<Workspace, String> {
        let mut files = Vec::new();
        let mut members: Vec<(String, PathBuf)> = Vec::new();
        let crates_dir = root.join("crates");
        if let Ok(entries) = std::fs::read_dir(&crates_dir) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                // The linter exempts itself: its sources and docs are full
                // of deliberately-malformed annotations and seeded
                // violations (they are its test vocabulary); its own
                // invariants are enforced by its unit tests.
                if name == "raptor-lint" {
                    continue;
                }
                if e.path().is_dir() {
                    members.push((name, e.path()));
                }
            }
        }
        if root.join("examples/src").is_dir() {
            members.push(("raptor-examples".into(), root.join("examples")));
        }
        if root.join("src").is_dir() {
            members.push(("raptor-rs".into(), root.to_path_buf()));
        }
        if members.is_empty() {
            return Err(format!("{}: no workspace members found", root.display()));
        }
        members.sort();
        for (name, dir) in members {
            for (sub, kind) in
                [("src", FileKind::Src), ("tests", FileKind::Test), ("benches", FileKind::Test)]
            {
                collect_rs(&dir.join(sub), &mut |path| {
                    let src = std::fs::read_to_string(path)
                        .map_err(|e| format!("read {}: {e}", path.display()))?;
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    files.push(SourceFile::new(rel, name.clone(), kind, &src));
                    Ok(())
                })?;
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { files })
    }
}

fn collect_rs(
    dir: &Path,
    f: &mut dyn FnMut(&Path) -> Result<(), String>,
) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Ok(()) };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            if matches!(name.as_deref(), Some("fixtures" | "target" | ".git")) {
                continue;
            }
            collect_rs(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path)?;
        }
    }
    Ok(())
}

impl SourceFile {
    /// Lex and derive the shared lookup structures for one file.
    pub fn new(rel: String, crate_name: String, kind: FileKind, src: &str) -> SourceFile {
        let lexed = lex(src);
        let matches = match_delims(&lexed.tokens);
        let mut file = SourceFile {
            rel,
            crate_name,
            kind,
            lexed,
            matches,
            test_ranges: Vec::new(),
            allows: Vec::new(),
        };
        file.test_ranges = find_test_ranges(&file);
        file.allows = resolve_allows(&file);
        file
    }
}

/// Pair up `(`/`)`, `[`/`]`, `{`/`}` over the token stream.
fn match_delims(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; tokens.len()];
    let mut stack: Vec<(usize, &str)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => stack.push((i, t.text.as_str())),
            ")" | "]" | "}" => {
                let want = match t.text.as_str() {
                    ")" => "(",
                    "]" => "[",
                    _ => "{",
                };
                // Pop until the matching opener kind (tolerates stray
                // unbalanced delimiters in half-broken sources).
                while let Some((open, kind)) = stack.pop() {
                    if kind == want {
                        out[open] = Some(i);
                        out[i] = Some(open);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// A function item found in the token stream (at any nesting depth).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Token range of the parameter list, `(` .. `)` inclusive.
    pub params: (usize, usize),
    /// Token range of the body `{` .. `}` inclusive; `None` for
    /// body-less trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// Collect every `fn` item in the file, at any depth.
pub fn collect_fns(file: &SourceFile) -> Vec<FnItem> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1; // `fn(` pointer type
            continue;
        }
        // Find the parameter list: first `(` at angle-bracket depth 0.
        let mut j = i + 2;
        let mut angle = 0i32;
        let popen = loop {
            let Some(t) = toks.get(j) else { break None };
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "(" if angle <= 0 => break Some(j),
                "{" | ";" => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(popen) = popen else {
            i += 1;
            continue;
        };
        let Some(pclose) = file.matching(popen) else {
            i += 1;
            continue;
        };
        // Find the body `{` (skipping return-type and where-clause
        // delimiters) or a terminating `;`.
        let mut k = pclose + 1;
        let mut body = None;
        while let Some(t) = toks.get(k) {
            match t.text.as_str() {
                "{" => {
                    if let Some(close) = file.matching(k) {
                        body = Some((k, close));
                    }
                    break;
                }
                ";" => break,
                "(" | "[" => {
                    k = file.matching(k).unwrap_or(k);
                }
                _ => {}
            }
            k += 1;
        }
        out.push(FnItem { params: (popen, pclose), body });
        i = popen; // keep scanning inside (nested fns are separate items)
    }
    out
}

/// Line ranges covered by `#[cfg(test)]` items and `#[test]` functions.
fn find_test_ranges(file: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // An attribute: `#` `[` ... `]`.
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            let Some(close) = file.matching(i + 1) else {
                i += 1;
                continue;
            };
            let attr: Vec<&str> =
                toks[i + 2..close].iter().map(|t| t.text.as_str()).collect();
            let is_test_attr = attr == ["test"]
                || (attr.contains(&"cfg") && attr.contains(&"test"))
                || (attr.first() == Some(&"cfg_attr") && attr.contains(&"test"));
            if !is_test_attr {
                i = close + 1;
                continue;
            }
            // Skip further attributes, then find the annotated item's body.
            let mut j = close + 1;
            while toks.get(j).is_some_and(|t| t.text == "#")
                && toks.get(j + 1).is_some_and(|t| t.text == "[")
            {
                j = file.matching(j + 1).map(|c| c + 1).unwrap_or(j + 2);
            }
            // Scan to the item's `{` or `;` at depth 0.
            let mut k = j;
            while let Some(t) = toks.get(k) {
                match t.text.as_str() {
                    "{" => {
                        if let Some(end) = file.matching(k) {
                            out.push((toks[i].line, toks[end].line));
                            k = end;
                        }
                        break;
                    }
                    ";" | "}" => break,
                    "(" | "[" => k = file.matching(k).unwrap_or(k),
                    _ => {}
                }
                k += 1;
            }
            i = k.max(close) + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Extract and scope `lint: allow(...)` annotations from the comments.
fn resolve_allows(file: &SourceFile) -> Vec<Allow> {
    let toks = &file.lexed.tokens;
    let last_line = toks.last().map(|t| t.line).unwrap_or(1);
    let mut out = Vec::new();
    for c in &file.lexed.comments {
        let Some((rule, reason)) = parse_allow(&c.text) else { continue };
        let (start, end) = if c.inner_doc {
            (1, last_line)
        } else if !c.own_line {
            (c.line, c.line)
        } else {
            own_line_scope(file, c.line)
        };
        out.push(Allow { rule, reason, line: c.line, start, end });
    }
    out
}

/// Scope of an own-line annotation at `line`: the next item's body if the
/// next tokens introduce an item, otherwise the following statement.
fn own_line_scope(file: &SourceFile, line: usize) -> (usize, usize) {
    let toks = &file.lexed.tokens;
    let Some(first) = toks.iter().position(|t| t.line > line) else {
        return (line, line);
    };
    // Skip attributes and modifiers to see whether an item follows.
    let mut i = first;
    loop {
        let Some(t) = toks.get(i) else { return (line, toks.last().map(|t| t.line).unwrap_or(line)) };
        match t.text.as_str() {
            "#" if toks.get(i + 1).is_some_and(|t| t.text == "[") => {
                i = file.matching(i + 1).map(|c| c + 1).unwrap_or(i + 2);
            }
            "pub" => {
                i += 1;
                if toks.get(i).is_some_and(|t| t.text == "(") {
                    i = file.matching(i).map(|c| c + 1).unwrap_or(i + 1);
                }
            }
            "unsafe" | "const" | "async" | "extern" | "default" => i += 1,
            "fn" | "mod" | "impl" | "trait" => {
                // Item scope: to the matching close of its body.
                let mut k = i;
                while let Some(t) = toks.get(k) {
                    match t.text.as_str() {
                        "{" => {
                            let end = file.matching(k).map(|c| toks[c].line);
                            return (line, end.unwrap_or(toks[k].line));
                        }
                        ";" => return (line, toks[k].line),
                        "(" | "[" => k = file.matching(k).unwrap_or(k),
                        _ => {}
                    }
                    k += 1;
                }
                return (line, toks.last().map(|t| t.line).unwrap_or(line));
            }
            _ => break,
        }
    }
    // Statement scope: from the first token to its terminating `;` (or
    // the end of a trailing block) at the statement's depth.
    let mut depth = 0i32;
    let mut k = first;
    while let Some(t) = toks.get(k) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return (line, toks[k].line);
                }
            }
            ";" if depth == 0 => return (line, toks[k].line),
            _ => {}
        }
        k += 1;
    }
    (line, toks.last().map(|t| t.line).unwrap_or(line))
}

/// Parse `lint: allow(rule, reason)` out of a comment. Returns None if
/// the comment carries no annotation; `Some((rule, reason))` with reason
/// possibly empty (the grammar check flags empty reasons).
fn parse_allow(text: &str) -> Option<(String, String)> {
    let at = text.find("lint:")?;
    let rest = text[at + 5..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (rule, reason) = match inner.split_once(',') {
        Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
        None => (inner.trim().to_string(), String::new()),
    };
    Some((rule, reason))
}

/// Known annotation rules.
const ALLOW_RULES: &[&str] = &["native-float"];

/// Grammar check for the annotations themselves: unknown rule names and
/// empty reasons are findings — an allow must say *why*.
fn check_annotations(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        for a in &f.allows {
            if !ALLOW_RULES.contains(&a.rule.as_str()) {
                out.push(Finding::new(
                    "annotation",
                    &f.rel,
                    a.line,
                    format!("unknown lint rule `{}` in allow(...)", a.rule),
                ));
            } else if a.reason.is_empty() {
                out.push(Finding::new(
                    "annotation",
                    &f.rel,
                    a.line,
                    format!("allow({}) without a written reason", a.rule),
                ));
            }
        }
    }
    out
}

/// Map of source line → indices of tokens on that line.
pub fn tokens_by_line(file: &SourceFile) -> HashMap<usize, Vec<usize>> {
    let mut map: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, t) in file.lexed.tokens.iter().enumerate() {
        map.entry(t.line).or_default().push(i);
    }
    map
}
