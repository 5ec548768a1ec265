//! `crp-lint`: the CR&P workspace's static-analysis gate.
//!
//! The whole flow rests on one contract: results are bit-identical
//! across thread counts, cache settings, and check levels. `crp-check`
//! enforces that contract at runtime; this crate enforces it in the
//! source, where it actually gets broken — a `HashMap` iteration whose
//! order leaks into a cost, an `unwrap()` that turns a malformed DEF
//! into a panic, an `Ordering::Relaxed` nobody can explain. Ten rules
//! (see [`rules::Rule`]) run over a hand-rolled lexer (the vendor tree
//! is offline; there is no `syn` to lean on), with inline
//! `// crp-lint: allow(<rule>, <reason>)` suppressions so that every
//! exception is explained where it lives.
//!
//! [`lint_sources`] builds one [`workspace`] model per run and runs all
//! ten rules over it. Each file is lexed once; one item scan fills one
//! function table; and one resolver turns each function's call sites
//! into one call graph, every site tagged with what it is (a call, a
//! lock acquisition, a blocking operation, a `spawn`/`run_indexed`
//! argument list). Five rules are per-file token patterns in [`rules`].
//! The rest propagate facts over the call graph with one fixpoint: the
//! two lock rules in [`locks`] walk guard scopes and report lock-order
//! cycles (`lock-order`) and blocking operations under a live guard
//! (`held-lock-blocking`); [`dataflow`] flags order-sensitive `f64`
//! reductions over hash-ordered or parallel sources (`float-order`) and
//! unvalidated reads of epoch-protected cache fields (`epoch-protocol`);
//! and [`coverage`] checks that checkpoint codecs mention every field of
//! the structs they serialize (`state-coverage`).
//!
//! Alongside the lexical pass, [`race`] is a bounded-interleaving
//! checker (a miniature `loom`); [`models`] are its models of the
//! workspace's two lock-free protocols — the `run_indexed` work-steal
//! cursor and the epoch-invalidated price cache — and [`models_serve`]
//! covers the `crp-serve` daemon's fair-share ledger and bounded
//! connection pool. A passing model is a proof over *every* interleaving
//! at model size that no schedule loses an index, claims one twice,
//! serves a stale-epoch cache hit, breaks a ledger invariant, or drops a
//! pooled connection.
//!
//! Run the lint gate with `cargo run -p crp-lint -- --deny-warnings`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod locks;
pub mod models;
pub mod models_serve;
pub mod race;
pub mod rules;
pub mod workspace;

pub use engine::{lint_sources, lint_workspace, scope_of, FLOW_PATHS};
pub use rules::{Diagnostic, FileScope, Rule};
