//! Rule 1 — **tracked-escape**: no raw `f64`/`f32` arithmetic or std
//! float intrinsics inside kernel crates outside the `Real` abstraction.
//!
//! A raw `a * b` on `f64` inside `hydro`/`incomp`/`eos`/`raptor-ir`
//! silently escapes truncation *and* the op counters, corrupting both
//! fidelity and the roofline speedup model — and no dynamic test can see
//! it (the untruncated run is bit-identical either way).
//!
//! Without a type checker the rule works from **float evidence**, which
//! is sound for Rust's coherence rules: a float *literal* (`0.5`) can
//! only type as `f32`/`f64`, there is no `f64 ⊙ R` operator impl, and
//! `as f64`, `.to_f64()`, and `: f64` declarations name the type
//! outright. Per function the rule collects the set of known-float
//! bindings (parameters and `let`s with float-typed annotations or
//! float-evident initializers), then flags every binary arithmetic
//! operator (`+ - * / %` and compound assignments) with a float-evident
//! operand, every math-method call (`.sqrt()`, `.exp()`, `.mul_add()`,
//! ...) on a float-evident receiver, and every `f64::<math>` path call.
//! Unknown-typed operands are *not* flagged (generic `R` kernels read as
//! unknown), so the rule under-approximates rather than drowning real
//! escapes in noise.
//!
//! Exemptions: `#[cfg(test)]` regions and `tests/`/`benches/` files
//! (differential oracles legitimately compute natively); assertion /
//! formatting macro arguments (diagnostics, not kernel math);
//! `R::from_f64(...)` argument lists (that *is* the lifting boundary);
//! and anything covered by a `// lint: allow(native-float, reason)`
//! annotation.

use crate::lexer::{TokKind, Token};
use crate::{collect_fns, Finding, SourceFile, Workspace, KERNEL_CRATES};
use std::collections::HashMap;

/// Binary arithmetic operators (and their compound assignments).
const BIN_OPS: &[&str] = &["+", "-", "*", "/", "%", "+=", "-=", "*=", "/=", "%="];

/// Keywords that make a following `-`/`*`/`&` a unary/prefix operator.
const EXPR_KEYWORDS: &[&str] = &[
    "return", "as", "in", "if", "else", "match", "break", "continue", "while", "loop", "move",
    "where", "unsafe", "let", "mut", "ref", "dyn", "yield",
];

/// Instrumented math operations: calling the std float version of one of
/// these bypasses truncation *and* the op counters. (Exact sign/select
/// ops — `abs`, `min`, `max`, `copysign` — are deliberately absent: they
/// are uncounted classification in both the scalar and batch paths.)
const MATH_METHODS: &[&str] = &[
    "sqrt", "powi", "powf", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log10", "log2", "sin", "cos",
    "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "floor", "ceil", "round",
    "trunc", "mul_add", "recip", "hypot", "cbrt",
];

/// Macros whose argument lists are diagnostics, not kernel math.
const DIAG_MACROS: &[&str] = &[
    "assert", "assert_eq", "assert_ne", "debug_assert", "debug_assert_eq", "debug_assert_ne",
    "panic", "format", "println", "print", "eprintln", "eprint", "write", "writeln",
    "unreachable", "todo", "unimplemented",
];

/// What we know about a binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FloatKind {
    /// `f64` / `f32` scalar.
    Scalar,
    /// Slice/array/Vec of floats: indexing yields a float.
    Slice,
}

/// Run the rule over the workspace.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !KERNEL_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        if file.kind != crate::FileKind::Src {
            continue;
        }
        check_file(file, &mut out);
    }
    out
}

/// Lint one already-lexed file (fixture-test entry point).
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    // File-wide pass with no known bindings: catches const items and any
    // code outside fn bodies (literal evidence only).
    scan_range(file, 0, toks.len(), &HashMap::new(), out);
    // Per-fn passes with the known-float binding sets.
    for f in collect_fns(file) {
        let Some((bopen, bclose)) = f.body else { continue };
        let mut known = params_of(file, f.params);
        // Two passes so a `let` can use one declared later in rare
        // reordered code; lets normally flow forward.
        for _ in 0..2 {
            collect_lets(file, bopen + 1, bclose, &mut known);
        }
        scan_range(file, bopen + 1, bclose, &known, out);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.msg == b.msg);
}

/// Known-float bindings from a parameter list.
fn params_of(file: &SourceFile, (popen, pclose): (usize, usize)) -> HashMap<String, FloatKind> {
    let toks = &file.lexed.tokens;
    let mut known = HashMap::new();
    let mut i = popen + 1;
    while i < pclose {
        // One parameter: tokens up to the next top-level comma.
        let start = i;
        let mut depth = 0i32;
        while i < pclose {
            match toks[i].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "," if depth <= 0 => break,
                _ => {}
            }
            i += 1;
        }
        param_binding(&toks[start..i], &mut known);
        i += 1;
    }
    known
}

/// Extract `name: Type` from one parameter's tokens.
fn param_binding(param: &[Token], known: &mut HashMap<String, FloatKind>) {
    let Some(colon) = param.iter().position(|t| t.text == ":") else { return };
    // Pattern side: `ident` or `mut ident` only (destructuring skipped).
    let pat: Vec<&Token> =
        param[..colon].iter().filter(|t| t.text != "mut" && t.text != "ref").collect();
    let [name] = pat[..] else { return };
    if name.kind != TokKind::Ident {
        return;
    }
    if let Some(kind) = classify_type(&param[colon + 1..]) {
        known.insert(name.text.clone(), kind);
    }
}

/// Classify a type annotation's tokens as float scalar / float slice.
fn classify_type(ty: &[Token]) -> Option<FloatKind> {
    let texts: Vec<&str> = ty.iter().map(|t| t.text.as_str()).collect();
    let stripped: Vec<&str> =
        texts.iter().copied().filter(|t| *t != "&" && *t != "mut").collect();
    match stripped[..] {
        ["f64"] | ["f32"] => return Some(FloatKind::Scalar),
        _ => {}
    }
    // `[f64]`, `[f64; N]`, `Vec<f64>`, `&mut [f64]` ...
    for w in stripped.windows(2) {
        if (w[0] == "[" && (w[1] == "f64" || w[1] == "f32"))
            || (w[0] == "<" && (w[1] == "f64" || w[1] == "f32")
                && stripped.first() == Some(&"Vec"))
        {
            return Some(FloatKind::Slice);
        }
    }
    None
}

/// Scan a body for `let` bindings, growing the known-float set.
fn collect_lets(
    file: &SourceFile,
    start: usize,
    end: usize,
    known: &mut HashMap<String, FloatKind>,
) {
    let toks = &file.lexed.tokens;
    let mut i = start;
    while i < end {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let Some(name) = toks.get(j) else { break };
        if name.kind != TokKind::Ident {
            i = j; // destructuring let — skip
            continue;
        }
        j += 1;
        // Optional type annotation up to `=` or `;`.
        let mut ty_range: Option<(usize, usize)> = None;
        if toks.get(j).is_some_and(|t| t.text == ":") {
            let ty_start = j + 1;
            let mut depth = 0i32;
            let mut k = ty_start;
            while k < end {
                match toks[k].text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "=" | ";" if depth <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            ty_range = Some((ty_start, k));
            j = k;
        }
        if let Some((s, e)) = ty_range {
            if let Some(kind) = classify_type(&toks[s..e]) {
                known.insert(name.text.clone(), kind);
            }
            if toks.get(j).is_some_and(|t| t.text == ";") {
                i = j + 1;
                continue;
            }
        }
        if toks.get(j).is_none_or(|t| t.text != "=") {
            i = j;
            continue;
        }
        // Initializer: to the `;` at this depth.
        let init_start = j + 1;
        let mut depth = 0i32;
        let mut k = init_start;
        while k < end {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        if ty_range.is_none() && float_evidence(file, init_start, k, known).is_some() {
            let is_vec = toks.get(init_start).is_some_and(|t| t.text == "vec")
                || toks[init_start..k.min(toks.len())]
                    .first()
                    .is_some_and(|t| t.text == "[");
            known
                .insert(name.text.clone(), if is_vec { FloatKind::Slice } else { FloatKind::Scalar });
        }
        i = k + 1;
    }
}

/// Search a token range for float evidence. Returns the evidence
/// description, or None. Skips `from_f64(...)` argument lists (the
/// lifting boundary) and nested call argument lists (a call's return
/// type is unknown even if its arguments are floats).
fn float_evidence(
    file: &SourceFile,
    start: usize,
    end: usize,
    known: &HashMap<String, FloatKind>,
) -> Option<String> {
    let toks = &file.lexed.tokens;
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        match t.kind {
            TokKind::Float => return Some(format!("float literal `{}`", t.text)),
            TokKind::Ident => {
                let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
                let next = toks.get(i + 1).map(|t| t.text.as_str());
                if t.text == "to_f64" && next == Some("(") {
                    return Some("`.to_f64()` result".into());
                }
                if t.text == "as" && matches!(next, Some("f64" | "f32")) {
                    return Some(format!("`as {}` cast", toks[i + 1].text));
                }
                // Skip call argument lists entirely (incl. from_f64).
                if next == Some("(") && prev != Some("as") {
                    i = file.matching(i + 1).unwrap_or(i + 1);
                    continue;
                }
                let standalone = !matches!(prev, Some("." | "::")) && next != Some("::");
                if standalone {
                    match known.get(&t.text) {
                        Some(FloatKind::Scalar) => {
                            return Some(format!("float binding `{}`", t.text))
                        }
                        Some(FloatKind::Slice) if next == Some("[") => {
                            return Some(format!("indexed float slice `{}`", t.text))
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Classify the operand ending at token `i` (inclusive) — the left-hand
/// side of an operator at `i + 1`.
fn left_operand(
    file: &SourceFile,
    i: usize,
    known: &HashMap<String, FloatKind>,
) -> Option<String> {
    let toks = &file.lexed.tokens;
    let t = toks.get(i)?;
    match t.kind {
        TokKind::Float => Some(format!("float literal `{}`", t.text)),
        TokKind::Ident => {
            if EXPR_KEYWORDS.contains(&t.text.as_str()) {
                return None;
            }
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let standalone = !matches!(prev, Some("." | "::"));
            if standalone {
                if let Some(FloatKind::Scalar) = known.get(&t.text) {
                    return Some(format!("float binding `{}`", t.text));
                }
            }
            // `nx as f64` — the cast keyword path is handled by the
            // right-operand scan of the *previous* operator; here check
            // the two tokens before: `as f64` directly left.
            if matches!(t.text.as_str(), "f64" | "f32") && prev == Some("as") {
                return Some(format!("`as {}` cast", t.text));
            }
            None
        }
        TokKind::Punct => match t.text.as_str() {
            ")" => {
                let open = file.matching(i)?;
                // A call's return type is unknown — except `.to_f64()`.
                if open > 0 && toks[open - 1].kind == TokKind::Ident {
                    let callee = toks[open - 1].text.as_str();
                    if callee == "to_f64" {
                        return Some("`.to_f64()` result".into());
                    }
                    return None;
                }
                float_evidence(file, open + 1, i, known)
            }
            "]" => {
                let open = file.matching(i)?;
                if open > 0 && toks[open - 1].kind == TokKind::Ident {
                    if let Some(FloatKind::Slice) = known.get(&toks[open - 1].text) {
                        return Some(format!("indexed float slice `{}`", toks[open - 1].text));
                    }
                }
                None
            }
            _ => None,
        },
        _ => None,
    }
}

/// Whether tokens[i] begins a *binary* use of an operator (vs unary).
fn is_binary(toks: &[Token], i: usize) -> bool {
    let Some(p) = i.checked_sub(1) else { return false };
    let prev = &toks[p];
    match prev.kind {
        TokKind::Ident => !EXPR_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Int | TokKind::Float => true,
        TokKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
        _ => false,
    }
}

/// End of the right operand starting at `start`: scan to the next
/// same-depth operator/terminator.
fn right_operand_end(file: &SourceFile, start: usize, limit: usize) -> usize {
    let toks = &file.lexed.tokens;
    let mut i = start;
    // Leading unary prefixes.
    while i < limit && matches!(toks[i].text.as_str(), "-" | "!" | "&" | "*" | "mut") {
        i += 1;
    }
    let mut depth = 0i32;
    while i < limit {
        let text = toks[i].text.as_str();
        match text {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            _ if depth == 0
                && toks[i].kind == TokKind::Punct
                    && (BIN_OPS.contains(&text)
                        || matches!(
                            text,
                            ";" | ","
                                | "=="
                                | "!="
                                | "<"
                                | ">"
                                | "<="
                                | ">="
                                | "&&"
                                | "||"
                                | "="
                                | "?"
                                | ".."
                                | "..="
                        ))
                => {
                    return i;
                }
            _ => {}
        }
        i += 1;
    }
    limit
}

/// The main finding scan over a token range.
fn scan_range(
    file: &SourceFile,
    start: usize,
    end: usize,
    known: &HashMap<String, FloatKind>,
    out: &mut Vec<Finding>,
) {
    let toks = &file.lexed.tokens;
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        // Skip diagnostics macros: `name ! ( .. )` / `name ! [ .. ]`.
        if t.kind == TokKind::Ident
            && DIAG_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            if let Some(open) = toks.get(i + 2) {
                if matches!(open.text.as_str(), "(" | "[" | "{") {
                    i = file.matching(i + 2).map(|c| c + 1).unwrap_or(i + 3);
                    continue;
                }
            }
        }
        // `from_f64(...)` argument lists are the lifting boundary:
        // literal-only constant expressions inside (`R::from_f64(1.0 / 6.0)`)
        // are one-time setup, not kernel math — skip them. If the
        // arguments touch *runtime* floats (a known binding, `.to_f64()`,
        // a cast), the arithmetic happens natively per call and the span
        // is scanned normally.
        if t.kind == TokKind::Ident
            && t.text == "from_f64"
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(close) = file.matching(i + 1) {
                let runtime = (i + 2..close).any(|k| {
                    let tk = &toks[k];
                    tk.kind == TokKind::Ident
                        && (tk.text == "to_f64"
                            || tk.text == "as"
                            || (known.contains_key(&tk.text)
                                && !matches!(
                                    k.checked_sub(1).map(|p| toks[p].text.as_str()),
                                    Some("." | "::")
                                )))
                });
                if !runtime {
                    i = close + 1;
                    continue;
                }
            }
        }
        // Path intrinsics: `f64::sqrt(..)`.
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "f64" | "f32") {
            let is_cast = i.checked_sub(1).is_some_and(|p| toks[p].text == "as");
            if !is_cast
                && toks.get(i + 1).is_some_and(|n| n.text == "::")
                && toks.get(i + 2).is_some_and(|m| {
                    m.kind == TokKind::Ident && MATH_METHODS.contains(&m.text.as_str())
                })
            {
                emit(
                    file,
                    toks[i].line,
                    format!("native `{}::{}` call escapes Tracked dispatch", t.text, toks[i + 2].text),
                    out,
                );
                i += 3;
                continue;
            }
        }
        // Method intrinsics: `<recv>.sqrt(..)`.
        if t.text == "."
            && toks.get(i + 1).is_some_and(|m| {
                m.kind == TokKind::Ident && MATH_METHODS.contains(&m.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|p| p.text == "(")
        {
            if let Some(recv) = i.checked_sub(1).and_then(|p| left_operand(file, p, known)) {
                emit(
                    file,
                    toks[i + 1].line,
                    format!(
                        "native `.{}()` on {} escapes Tracked dispatch",
                        toks[i + 1].text, recv
                    ),
                    out,
                );
            }
            i += 3;
            continue;
        }
        // Binary arithmetic.
        if t.kind == TokKind::Punct && BIN_OPS.contains(&t.text.as_str()) && is_binary(toks, i) {
            let left = i.checked_sub(1).and_then(|p| left_operand(file, p, known));
            let evidence = left.or_else(|| {
                let rend = right_operand_end(file, i + 1, end);
                float_evidence(file, i + 1, rend, known)
            });
            if let Some(ev) = evidence {
                emit(
                    file,
                    t.line,
                    format!("raw `{}` on native float ({ev}) escapes Tracked dispatch", t.text),
                    out,
                );
            }
        }
        i += 1;
    }
}

fn emit(file: &SourceFile, line: usize, msg: String, out: &mut Vec<Finding>) {
    if file.in_test(line) || file.allowed("native-float", line) {
        return;
    }
    out.push(Finding::new("tracked-escape", &file.rel, line, msg));
}
