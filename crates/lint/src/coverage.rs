//! The `state-coverage` rule: checkpoint codecs must mention every
//! field of the structs they serialize.
//!
//! A struct opts in with a directive placed next to its codec:
//!
//! ```text
//! // crp-lint: checkpoint(<Struct>, <ser_fn>, <de_fn>)
//! ```
//!
//! The pass finds `<Struct>`'s field list (same file first, then the
//! whole workspace), resolves `<ser_fn>` / `<de_fn>` the same way, and
//! computes the set of identifiers mentioned by each function *and
//! everything it transitively calls* (over the call graph of
//! [`crate::workspace`]). A field whose name never appears in
//! the serializer's reachable identifiers is state the checkpoint
//! silently drops; one missing from the restorer is state that never
//! comes back. Findings anchor at the field's declaration line, so a
//! justified exception lives next to the field:
//!
//! ```text
//! // crp-lint: allow(state-coverage, rebuilt cold on restore)
//! ```
//!
//! The check is name-based, not value-based: a codec that mentions the
//! identifier for an unrelated reason (another struct's field of the
//! same name, a local variable) counts as coverage. That trades
//! precision for zero false positives on the drift class that matters —
//! "added a field, forgot the codec" — and the checkpoint roundtrip
//! proptests pin the values themselves.

use crate::lexer::{Token, TokenKind};
use crate::rules::{matching, CheckpointDirective, Diagnostic, Rule};
use crate::workspace::Workspace;
use std::collections::BTreeSet;

/// Runs the `state-coverage` rule over `ws`.
pub(crate) fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for (fi, file) in ws.files.iter().enumerate() {
        for cp in &file.ann.checkpoints {
            check_directive(ws, fi, cp, out);
        }
    }
}

fn check_directive(ws: &Workspace, fi: usize, cp: &CheckpointDirective, out: &mut Vec<Diagnostic>) {
    let mut fail = |line: u32, message: String| {
        ws.files[fi].emit(out, Rule::StateCoverage, line, message);
    };

    let Some((sfi, fields)) = find_struct(ws, fi, &cp.strukt) else {
        fail(
            cp.line,
            format!(
                "checkpoint directive names struct `{}`, which has no \
                 brace-field definition in the workspace",
                cp.strukt
            ),
        );
        return;
    };
    if fields.is_empty() {
        fail(
            cp.line,
            format!("struct `{}` has no named fields to check", cp.strukt),
        );
        return;
    }

    let ser = resolve_codec_fn(ws, fi, &cp.ser);
    let de = resolve_codec_fn(ws, fi, &cp.de);
    for (what, name, roots) in [("serializer", &cp.ser, &ser), ("restorer", &cp.de, &de)] {
        if roots.is_empty() {
            fail(
                cp.line,
                format!(
                    "checkpoint directive for `{}` names {what} `{name}`, \
                     which is not defined in this file or the workspace",
                    cp.strukt
                ),
            );
        }
    }
    if ser.is_empty() || de.is_empty() {
        return;
    }

    let ser_idents = reachable_idents(ws, &ser);
    let de_idents = reachable_idents(ws, &de);
    let struct_file = &ws.files[sfi];
    for (fname, fline) in &fields {
        for (what, fn_name, idents, consequence) in [
            (
                "serializer",
                &cp.ser,
                &ser_idents,
                "the checkpoint silently drops it",
            ),
            (
                "restorer",
                &cp.de,
                &de_idents,
                "a restored run diverges from the snapshot",
            ),
        ] {
            if idents.contains(fname) {
                continue;
            }
            struct_file.emit(
                out,
                Rule::StateCoverage,
                *fline,
                format!(
                    "field `{fname}` of `{}` is never mentioned by {what} \
                     `{fn_name}` (directly or through its helpers): \
                     {consequence} — extend the codec or annotate why the \
                     field is recoverable",
                    cp.strukt
                ),
            );
        }
    }
}

/// Finds `struct <name> { .. }`: same file first, then workspace-wide.
/// Returns the file index and the `(field, line)` list.
fn find_struct(ws: &Workspace, fi: usize, name: &str) -> Option<(usize, Vec<(String, u32)>)> {
    let in_file = |idx: usize| -> Option<Vec<(String, u32)>> {
        let code = &ws.files[idx].code;
        for i in 0..code.len().saturating_sub(1) {
            if code[i].is_ident("struct") && code[i + 1].is_ident(name) {
                // Skip generics and any `where` clause to the body `{`;
                // a `;` first means a tuple/unit struct (no named fields).
                let mut j = i + 2;
                let mut angle = 0i32;
                while j < code.len() {
                    let t = &code[j];
                    if t.is_punct('<') {
                        angle += 1;
                    } else if t.is_punct('>') {
                        angle -= 1;
                    } else if angle == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_punct('('))
                    {
                        break;
                    }
                    j += 1;
                }
                if !code.get(j).is_some_and(|t| t.is_punct('{')) {
                    return Some(Vec::new());
                }
                let close = matching(code, j, '{', '}')?;
                return Some(parse_fields(code, j, close));
            }
        }
        None
    };
    if let Some(fields) = in_file(fi) {
        return Some((fi, fields));
    }
    for idx in 0..ws.files.len() {
        if idx == fi {
            continue;
        }
        if let Some(fields) = in_file(idx) {
            return Some((idx, fields));
        }
    }
    None
}

/// Field names (and lines) of a brace struct body.
fn parse_fields(code: &[Token], open: usize, close: usize) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &code[i];
        // Attributes on a field.
        if t.is_punct('#') && code.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            i = matching(code, i + 1, '[', ']').map_or(close, |e| e + 1);
            continue;
        }
        // `pub` / `pub(crate)` / `pub(in ..)`.
        if t.is_ident("pub") {
            i += 1;
            if code.get(i).is_some_and(|n| n.is_punct('(')) {
                i = matching(code, i, '(', ')').map_or(close, |e| e + 1);
            }
            continue;
        }
        if t.kind == TokenKind::Ident && code.get(i + 1).is_some_and(|n| n.is_punct(':')) {
            out.push((t.text.clone(), t.line));
            // Skip the type to the next top-level `,` (or the close).
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < close {
                let c = &code[j];
                if c.kind == TokenKind::Punct {
                    match c.text.as_bytes().first() {
                        Some(b'(' | b'[' | b'{' | b'<') => depth += 1,
                        Some(b')' | b']' | b'}' | b'>') => depth -= 1,
                        Some(b',') if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Function indices matching `name`: same-file definitions shadow the
/// rest of the workspace (codec functions are commonly all called
/// `to_json`; the directive lives next to the intended one).
fn resolve_codec_fn(ws: &Workspace, fi: usize, name: &str) -> Vec<usize> {
    let by_name = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
        ws.fns
            .iter()
            .enumerate()
            .filter(|(i, f)| f.name == name && pred(*i))
            .map(|(i, _)| i)
            .collect()
    };
    let same_file = by_name(&|i| ws.fns[i].file == fi);
    if same_file.is_empty() {
        by_name(&|_| true)
    } else {
        same_file
    }
}

/// Union of identifier texts in the bodies of `roots` and everything
/// they transitively call.
fn reachable_idents(ws: &Workspace, roots: &[usize]) -> BTreeSet<String> {
    let mut seen = vec![false; ws.fns.len()];
    for &r in roots {
        seen[r] = true;
    }
    ws.fixpoint(|i, _, t| {
        let now = seen[i] && !seen[t];
        seen[t] |= now;
        now
    });
    let mut idents = BTreeSet::new();
    for (f, _) in ws.fns.iter().zip(&seen).filter(|(_, &s)| s) {
        let code = &ws.files[f.file].code;
        for t in &code[f.body.0 + 1..f.body.1] {
            if t.kind == TokenKind::Ident {
                idents.insert(t.text.clone());
            }
        }
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(
            &Workspace::build(&[("t.rs".to_string(), src.to_string())]),
            &mut out,
        );
        out
    }

    #[test]
    fn dropped_field_is_flagged_in_both_directions() {
        let src = "
            // crp-lint: checkpoint(State, ser, de)
            struct State { a: u64, b: f64 }
            fn ser(s: &State) -> String { format!(\"{}\", s.a) }
            fn de(text: &str) -> State { State { a: parse_a(text), b: 0.0 } }
            fn parse_a(text: &str) -> u64 { 0 }
        ";
        let d = run(src);
        // `b` is missing from the serializer only: `de` mentions it.
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::StateCoverage);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("`b`"), "{}", d[0].message);
    }

    #[test]
    fn coverage_through_helpers_counts() {
        let src = "
            // crp-lint: checkpoint(State, ser, de)
            struct State { a: u64, b: f64 }
            fn ser(s: &State) -> String { body(s) }
            fn body(s: &State) -> String { format!(\"{} {}\", s.a, s.b) }
            fn de(text: &str) -> State { State { a: 0, b: 0.0 } }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn missing_struct_or_fn_is_a_directive_finding() {
        let src = "
            // crp-lint: checkpoint(Ghost, ser, de)
            fn ser() {}
            fn de() {}
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Ghost"), "{}", d[0].message);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn allow_on_the_field_line_suppresses() {
        let src = "
            // crp-lint: checkpoint(State, ser, de)
            struct State {
                a: u64,
                // crp-lint: allow(state-coverage, pure memo, rebuilt cold)
                b: f64,
            }
            fn ser(s: &State) -> String { format!(\"{}\", s.a) }
            fn de(text: &str) -> State { State { a: 0, b: 0.0 } }
        ";
        assert!(run(src).is_empty());
    }
}
