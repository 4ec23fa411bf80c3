//! Integration tests for the two rules and the annotation grammar: every
//! seeded violation in the fixture workspace under `tests/fixtures/ws/`
//! must be caught, nothing else in the fixture may fire, and the real
//! workspace must be clean.

use raptor_lint::{lint_workspace, Finding};
use std::path::{Path, PathBuf};

fn fixture_findings() -> Vec<Finding> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    lint_workspace(&root).expect("fixture workspace scans")
}

fn by_rule(all: &[Finding], rule: &str) -> Vec<Finding> {
    all.iter().filter(|f| f.rule == rule).cloned().collect()
}

#[test]
fn tracked_escape_seeds_are_caught() {
    let all = fixture_findings();
    let hits = by_rule(&all, "tracked-escape");
    let mut lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(lines.len(), 3, "exactly the three seeded escape lines: {hits:?}");
    assert!(hits.iter().all(|f| f.file == "crates/hydro/src/lib.rs"));
    // `escaped` (a * b) fires; the allow under an unknown rule name does
    // not suppress `unknown_rule` (a - 1.0); a `*_batch` name is no
    // exemption (`scaled_batch`, x / 2.0).
    assert!(hits.iter().any(|f| f.msg.contains("raw `*`")), "{hits:?}");
    assert!(hits.iter().any(|f| f.msg.contains("raw `-`")), "{hits:?}");
    assert!(hits.iter().any(|f| f.msg.contains("raw `/`")), "{hits:?}");
    // `annotated` and `missing_reason` are suppressed (the latter still
    // draws an annotation finding below).
    assert!(!hits.iter().any(|f| f.msg.contains("raw `+`")), "{hits:?}");
}

#[test]
fn annotation_grammar_seeds_are_caught() {
    let all = fixture_findings();
    let hits = by_rule(&all, "annotation");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|f| f.msg.contains("without a written reason")), "{hits:?}");
    assert!(
        hits.iter().any(|f| f.msg.contains("unknown lint rule `no-such-rule`")),
        "{hits:?}"
    );
}

#[test]
fn unsafe_audit_seeds_are_caught() {
    let all = fixture_findings();
    let hits = by_rule(&all, "unsafe-audit");
    assert_eq!(hits.len(), 2, "{hits:?}");
    // The undocumented block in `util` fires; the documented fn/block
    // pair does not.
    assert!(
        hits.iter().any(|f| {
            f.file == "crates/util/src/lib.rs" && f.msg.contains("unsafe block")
        }),
        "{hits:?}"
    );
    // `clean` lacks the forbid anchor; `guarded` carries it.
    assert!(
        hits.iter().any(|f| {
            f.file == "crates/clean/src/lib.rs" && f.msg.contains("forbid(unsafe_code)")
        }),
        "{hits:?}"
    );
    assert!(!hits.iter().any(|f| f.file.contains("guarded")), "{hits:?}");
}

/// The real workspace is the fourth fixture: it must stay clean, so the
/// lint can gate CI at exit status 0.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        raptor_lint::report::render_text(&findings)
    );
}
