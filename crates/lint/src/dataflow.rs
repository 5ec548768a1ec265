//! Interprocedural dataflow rules: `float-order` and `epoch-protocol`.
//!
//! Both rules read the call graph of [`crate::workspace`], where every
//! site is a call (an acquiring `.lock()` included), and propagate
//! their facts over its resolved edges to a fixed point.
//!
//! # `float-order`
//!
//! `f64` addition does not commute bitwise: `(a + b) + c` and
//! `a + (b + c)` can differ in the last ulp, so any order-sensitive
//! reduction whose iteration order is not pinned breaks the flow's
//! bit-identical reproducibility contract. The rule flags, in flow
//! files only:
//!
//! - `.sum()` / `.product()` / `.fold(..)` reductions with `f64`
//!   evidence (an `::<f64>` turbofish, an `f64` in the statement or the
//!   fold seed, or an enclosing function returning `f64`) whose source
//!   statement mentions a hash-typed binding (hash iteration order is
//!   seeded per process), **or** which sit in code reachable from a
//!   `run_indexed(..)`/`spawn(..)` callback — there the reduction runs
//!   on worker threads, and keeping it bit-identical at any thread
//!   count requires a named fixed-order reduction. The fix is to route
//!   the terms through `crp_geom::sum_ordered` (a plain left-to-right
//!   loop whose name states the order contract) over a fixed-order
//!   view, or to annotate why the source order is pinned.
//! - compound `+=`/`-=` accumulation into a shared place (a `*deref`
//!   target or a `.lock()`ed one) textually inside a
//!   `run_indexed(..)`/`spawn(..)` argument list: cross-worker
//!   accumulation order is scheduler-dependent; merge per-worker
//!   results by index instead.
//!
//! # `epoch-protocol`
//!
//! A field declared `// crp-lint: epoch-protected(<field>[,
//! <validator>])` may only be read (in flow files) by functions that
//! call the validator (default `region_touched_since`) themselves, or
//! that are reachable *only* from such functions. This is an
//! order-insensitive approximation of dominance — the pass checks that
//! a validation exists in the function or in every caller, not that it
//! textually precedes the read — which is exactly the protocol the
//! price cache's dynamic oracle checks one execution at a time; the
//! rule checks every call path at once.

use crate::lexer::{Token, TokenKind};
use crate::rules::{hash_typed_names, matching, Diagnostic, Rule};
use crate::workspace::{SourceFile, Workspace};

/// Integer types whose appearance in a reduction turbofish proves the
/// reduction is not about floats.
const INT_TYPES: &[&str] = &[
    "u8", "i8", "u16", "i16", "u32", "i32", "u64", "i64", "u128", "i128", "usize", "isize",
];

/// Runs the `float-order` and `epoch-protocol` rules over `ws`.
pub(crate) fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    check_float_order(ws, out);
    check_epoch_protocol(ws, out);
}

// ---------------------------------------------------------------------
// float-order
// ---------------------------------------------------------------------

fn check_float_order(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let parallel = parallel_reachable(ws);
    for (fi, fc) in ws.files.iter().enumerate() {
        if !fc.scope.flow {
            continue;
        }
        let hash_names = hash_typed_names(&fc.code);
        let code = &fc.code;
        for i in 1..code.len() {
            if fc.test[i] {
                continue;
            }
            check_reduction_site(ws, &parallel, fi, &hash_names, i, out);
            check_shared_accumulation(fc, i, out);
        }
    }
}

/// Marks every function reachable from a `run_indexed`/`spawn` argument
/// list: those run on worker threads.
fn parallel_reachable(ws: &Workspace) -> Vec<bool> {
    let mut reach = vec![false; ws.fns.len()];
    ws.fixpoint(|i, s, t| {
        let f = &ws.fns[i];
        let hit = reach[i] || ws.files[f.file].in_parallel(f.sites[s].tok);
        let changed = hit && !reach[t];
        reach[t] |= hit;
        changed
    });
    reach
}

/// A `.sum()` / `.product()` / `.fold(..)` with f64 evidence whose
/// source is hash-ordered or parallel-reachable.
fn check_reduction_site(
    ws: &Workspace,
    parallel: &[bool],
    fi: usize,
    hash_names: &[String],
    i: usize,
    out: &mut Vec<Diagnostic>,
) {
    let fc = &ws.files[fi];
    let code = &fc.code;
    let t = &code[i];
    if !(t.kind == TokenKind::Ident && matches!(t.text.as_str(), "sum" | "product" | "fold")) {
        return;
    }
    if !code[i - 1].is_punct('.') {
        return;
    }
    // Optional `::<T>` turbofish between the method name and `(`.
    let mut j = i + 1;
    let mut turbo: Option<(usize, usize)> = None;
    if code.get(j).is_some_and(|n| n.is_punct(':'))
        && code.get(j + 1).is_some_and(|n| n.is_punct(':'))
        && code.get(j + 2).is_some_and(|n| n.is_punct('<'))
    {
        let Some(cl) = matching(code, j + 2, '<', '>') else {
            return;
        };
        turbo = Some((j + 2, cl));
        j = cl + 1;
    }
    if !code.get(j).is_some_and(|n| n.is_punct('(')) {
        return;
    }
    let args_open = j;
    let args_close = matching(code, args_open, '(', ')').unwrap_or(args_open);

    // f64 evidence. An integer turbofish is proof of the opposite.
    let enclosing = ws.enclosing_fn(fi, i);
    let is_f64 = if let Some((o, c)) = turbo {
        if code[o + 1..c].iter().any(|t| t.is_ident("f64")) {
            true
        } else if code[o + 1..c]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && INT_TYPES.contains(&t.text.as_str()))
        {
            return;
        } else {
            false
        }
    } else {
        false
    };
    let stmt_start = statement_start(code, i);
    let window_f64 = code[stmt_start..args_close.min(code.len())]
        .iter()
        .any(|t| {
            t.is_ident("f64")
                || (t.kind == TokenKind::Number && (t.text.contains('.') || t.text.contains("f64")))
        });
    let fn_f64 = t.text != "fold" && enclosing.is_some_and(|e| ws.fns[e].returns_f64);
    if !(is_f64 || window_f64 || fn_f64) {
        return;
    }

    // Order sensitivity: hash-ordered source, or parallel execution.
    let hash_src = code[stmt_start..i]
        .iter()
        .find(|t| t.kind == TokenKind::Ident && hash_names.contains(&t.text));
    let in_par_range = fc.in_parallel(i);
    let par_reach = enclosing.is_some_and(|e| parallel[e]);

    let why = if let Some(h) = hash_src {
        format!(
            "iterates the hash-ordered binding `{}` (iteration order is \
             seeded per process)",
            h.text
        )
    } else if in_par_range || par_reach {
        "runs on `run_indexed`/`spawn` worker threads (reachable from a \
         parallel callback)"
            .to_string()
    } else {
        return;
    };
    fc.emit(
        out,
        Rule::FloatOrder,
        t.line,
        format!(
            "order-sensitive f64 reduction `.{}(..)` {why}; f64 addition \
             does not commute bitwise — route the terms through \
             `crp_geom::sum_ordered` over a fixed-order source (BTree, \
             sorted, or indexed), or annotate why the order is pinned",
            t.text
        ),
    );
}

/// `+=`/`-=` into a shared place (`*deref` or `.lock()`ed) textually
/// inside a parallel argument list.
fn check_shared_accumulation(fc: &SourceFile, i: usize, out: &mut Vec<Diagnostic>) {
    let code = &fc.code;
    if !(code[i].is_punct('=')
        && (code[i - 1].is_punct('+') || code[i - 1].is_punct('-'))
        && i >= 2
        // `x + -1 = ..` cannot occur; but exclude `==`, `>=`, `<=` chains.
        && !code[i - 2].is_punct('='))
    {
        return;
    }
    if !fc.in_parallel(i) {
        return;
    }
    let stmt_start = statement_start(code, i - 1);
    let lhs = &code[stmt_start..i - 1];
    let shared = lhs.first().is_some_and(|t| t.is_punct('*'))
        || lhs
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_ident("lock"));
    if !shared {
        return;
    }
    fc.emit(
        out,
        Rule::FloatOrder,
        code[i].line,
        format!(
            "`{}=` into a shared accumulator inside a `run_indexed`/`spawn` \
             callback: cross-worker accumulation order is \
             scheduler-dependent — collect per-worker results and merge \
             them by index instead, or annotate why order cannot reach a \
             result",
            code[i - 1].text
        ),
    );
}

/// Token index where the statement containing `i` starts (just past the
/// previous `;`, `{`, or `}`).
fn statement_start(code: &[Token], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let t = &code[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    j
}

// ---------------------------------------------------------------------
// epoch-protocol
// ---------------------------------------------------------------------

fn check_epoch_protocol(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // Directives are global: declared next to the field, enforced on
    // every flow file.
    let directives: Vec<(String, String)> = {
        let mut v: Vec<(String, String)> = ws
            .files
            .iter()
            .flat_map(|f| &f.ann.epochs)
            .map(|e| (e.field.clone(), e.validator.clone()))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    for (field, validator) in &directives {
        let protected = protected_fns(ws, validator);
        for (fi, fc) in ws.files.iter().enumerate() {
            if !fc.scope.flow {
                continue;
            }
            let code = &fc.code;
            for i in 1..code.len() {
                if fc.test[i] || !code[i].is_ident(field) || !code[i - 1].is_punct('.') {
                    continue;
                }
                // `.field(` is a method call; `.field = v` a plain write
                // (`==` stays a read).
                if code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                    continue;
                }
                if code.get(i + 1).is_some_and(|n| n.is_punct('='))
                    && !code.get(i + 2).is_some_and(|n| n.is_punct('='))
                {
                    continue;
                }
                let ok = ws.enclosing_fn(fi, i).is_some_and(|e| protected[e]);
                if ok {
                    continue;
                }
                fc.emit(
                    out,
                    Rule::EpochProtocol,
                    code[i].line,
                    format!(
                        "read of epoch-protected field `.{field}` without a \
                         `{validator}(..)` validation in this function or in \
                         every caller; a stale entry can survive a region \
                         mutation — validate the epoch first, or annotate \
                         why staleness is impossible here"
                    ),
                );
            }
        }
    }
}

/// Functions protected for `validator`: they call it directly, or every
/// resolved caller is protected (and there is at least one).
fn protected_fns(ws: &Workspace, validator: &str) -> Vec<bool> {
    let mut prot: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| {
            let code = &ws.files[f.file].code;
            (f.body.0 + 1..f.body.1).any(|k| {
                code[k].is_ident(validator) && code.get(k + 1).is_some_and(|n| n.is_punct('('))
            })
        })
        .collect();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
    for (i, f) in ws.fns.iter().enumerate() {
        for &t in f.sites.iter().flat_map(|s| &s.targets) {
            if !callers[t].contains(&i) {
                callers[t].push(i);
            }
        }
    }
    ws.fixpoint(|_, _, t| {
        let now = !prot[t] && callers[t].iter().all(|&c| prot[c]);
        prot[t] |= now;
        now
    });
    prot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let sources = [("crates/core/src/t.rs".to_string(), src.to_string())];
        let mut out = Vec::new();
        check(&Workspace::build(&sources), &mut out);
        out
    }

    #[test]
    fn hash_sourced_f64_sum_is_flagged() {
        let src = "
            fn f(m: &HashMap<u32, f64>) -> f64 {
                m.values().copied().sum::<f64>()
            }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::FloatOrder);
    }

    #[test]
    fn integer_turbofish_is_exempt() {
        let src = "
            fn f(m: &HashMap<u32, u64>) -> u64 {
                m.values().copied().sum::<u64>()
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn parallel_reachable_sum_is_flagged() {
        let src = "
            fn price(xs: &[f64]) -> f64 { xs.iter().copied().sum() }
            fn drive(xs: &[f64]) {
                run_indexed(4, 2, || (), |_, _| { let _ = price(xs); });
            }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("worker threads"), "{}", d[0].message);
    }

    #[test]
    fn serial_slice_sum_is_clean() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().copied().sum() }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn epoch_read_without_validation_is_flagged() {
        let src = "
            // crp-lint: epoch-protected(price)
            struct Entry { price: f64 }
            fn bad(e: &Entry) -> f64 { e.price }
            fn good(e: &Entry, grid: &G, lo: u64) -> Option<f64> {
                if grid.region_touched_since(lo) { return None; }
                Some(e.price)
            }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::EpochProtocol);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn epoch_read_protected_through_all_callers() {
        let src = "
            // crp-lint: epoch-protected(price)
            struct Entry { price: f64 }
            fn leaf(e: &Entry) -> f64 { e.price }
            fn caller(e: &Entry, grid: &G, lo: u64) -> f64 {
                let _ = grid.region_touched_since(lo);
                leaf(e)
            }
        ";
        assert!(run(src).is_empty());
    }
}
