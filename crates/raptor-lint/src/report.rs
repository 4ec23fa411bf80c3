//! Findings and output rendering (text and JSON).
//!
//! The JSON emitter is hand-rolled (10 lines) rather than a dependency —
//! the lint deliberately depends on nothing it lints.

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: `tracked-escape`, `unsafe-audit`, or `annotation`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl Finding {
    /// Construct a finding.
    pub fn new(rule: &'static str, file: &str, line: usize, msg: String) -> Finding {
        Finding { rule, file: file.to_string(), line, msg }
    }
}

/// Render findings as one line each: `rule  file:line  message`.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{:<15} {}:{}  {}\n", f.rule, f.file, f.line, f.msg));
    }
    out.push_str(&format!(
        "raptor-lint: {} finding{}\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    ));
    out
}

/// Render findings as a JSON array of objects.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"msg\":\"{}\"}}",
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.msg)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out.push('\n');
    out
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_json_round_out() {
        let fs = vec![
            Finding::new("tracked-escape", "crates/hydro/src/a.rs", 3, "raw `*` on f64".into()),
            Finding::new("unsafe-audit", "crates/amr/src/b.rs", 9, "missing SAFETY".into()),
        ];
        let text = render_text(&fs);
        assert!(text.contains("crates/hydro/src/a.rs:3"));
        assert!(text.contains("2 findings"));
        let json = render_json(&fs);
        assert!(json.contains("\"rule\":\"unsafe-audit\""));
        assert!(json.contains("\"line\":9"));
        assert_eq!(render_json(&[]), "[]\n");
    }
}
