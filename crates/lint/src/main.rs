//! The `crp-lint` command-line driver.
//!
//! ```text
//! cargo run -p crp-lint -- [--deny-warnings] [--race] [--race-deep]
//!                          [--format text|json] [--rules <list>]
//!                          [--skip-rules <list>] [ROOT]
//! ```
//!
//! Lints every workspace source file under `ROOT` (default: the
//! workspace the binary was built from, falling back to the current
//! directory) and prints one line per finding. `--deny-warnings` makes
//! any finding fatal (exit 1) — that is how CI runs it. `--race`
//! additionally exhausts the protocol models of [`crp_lint::models`]
//! and [`crp_lint::models_serve`]; `--race-deep` swaps in the larger
//! model instances the scheduled CI job runs. `--format json` prints
//! the findings as a stable JSON array (objects with `rule`, `file`,
//! `line`, `reason`, sorted by file then line) for machine consumption
//! — CI uploads it as an artifact when the gate fails. `--rules` /
//! `--skip-rules` take comma-separated rule names and keep / drop the
//! named rules' findings, so CI jobs and local runs can target subsets
//! (e.g. `--rules float-order,epoch-protocol`).

use crp_lint::models::{CachePhaseModel, StealPriceModel, WorkStealModel};
use crp_lint::models_serve::{ChangeSignalModel, ConnPoolModel, FairshareModel, LockOrderModel};
use crp_lint::race::{explore, Model};
use crp_lint::{Diagnostic, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

/// Total lint rules enforced (see `crp_lint::rules::Rule`;
/// `bad-suppression` is the meta-rule on top).
const RULE_COUNT: usize = 10;

fn main() -> ExitCode {
    let mut deny = false;
    let mut race = false;
    let mut deep = false;
    let mut json = false;
    let mut keep: Option<Vec<Rule>> = None;
    let mut skip: Vec<Rule> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny = true,
            "--race" => race = true,
            "--race-deep" => {
                race = true;
                deep = true;
            }
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "crp-lint: --format expects `text` or `json`, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--format=json" => json = true,
            "--format=text" => json = false,
            "--rules" | "--skip-rules" => {
                let Some(list) = args.next() else {
                    eprintln!("crp-lint: {arg} expects a comma-separated rule list");
                    return ExitCode::FAILURE;
                };
                match parse_rule_list(&list) {
                    Ok(rules) if arg == "--rules" => {
                        keep.get_or_insert_with(Vec::new).extend(rules);
                    }
                    Ok(rules) => skip.extend(rules),
                    Err(bad) => {
                        eprintln!(
                            "crp-lint: unknown rule `{bad}` in {arg}; known rules: {}",
                            rule_names().join(", ")
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: crp-lint [--deny-warnings] [--race] [--race-deep] \
                     [--format text|json] [--rules <list>] [--skip-rules <list>] [ROOT]\n\
                     \n\
                     --rules       keep only the named rules' findings (comma-separated)\n\
                     --skip-rules  drop the named rules' findings (comma-separated)\n\
                     \n\
                     rules: {}",
                    rule_names().join(", ")
                );
                return ExitCode::SUCCESS;
            }
            _ => root = Some(PathBuf::from(arg)),
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    let mut diagnostics = match crp_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("crp-lint: cannot read workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if let Some(keep) = &keep {
        diagnostics.retain(|d| keep.contains(&d.rule));
    }
    diagnostics.retain(|d| !skip.contains(&d.rule));
    if json {
        println!("{}", findings_json(&diagnostics));
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
    }

    let mut failed = deny && !diagnostics.is_empty();
    if race {
        failed |= !run_race_models(deep);
    }

    if !json {
        let filtered = keep.is_some() || !skip.is_empty();
        match diagnostics.len() {
            0 if !filtered => println!("crp-lint: clean ({RULE_COUNT} rules)"),
            0 => {
                // `bad-suppression` is the meta-rule on top of the
                // ten; it is not counted, matching RULE_COUNT.
                let active = Rule::ALL
                    .iter()
                    .filter(|&&r| r != Rule::BadSuppression)
                    .filter(|r| match &keep {
                        Some(k) => k.contains(r),
                        None => true,
                    })
                    .filter(|r| !skip.contains(r))
                    .count();
                println!("crp-lint: clean ({active} of {RULE_COUNT} rules checked)");
            }
            n => println!("crp-lint: {n} finding(s)"),
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Every rule name, in report order.
fn rule_names() -> Vec<&'static str> {
    Rule::ALL.iter().map(|r| r.name()).collect()
}

/// Parses a comma-separated rule list; `Err` carries the first unknown
/// name.
fn parse_rule_list(list: &str) -> Result<Vec<Rule>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            Rule::ALL
                .iter()
                .copied()
                .find(|r| r.name() == p)
                .ok_or_else(|| p.to_string())
        })
        .collect()
}

/// Renders the findings as a JSON array with a stable field order:
/// `rule`, `file`, `line`, `reason` — already sorted by file then line
/// by `lint_workspace`. Hand-rolled (the vendor tree is offline) with
/// full string escaping, so any finding text round-trips.
fn findings_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\": ");
        json_string(d.rule.name(), &mut out);
        out.push_str(", \"file\": ");
        json_string(&d.file, &mut out);
        out.push_str(&format!(", \"line\": {}", d.line));
        out.push_str(", \"reason\": ");
        json_string(&d.message, &mut out);
        out.push('}');
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Appends `s` as a JSON string literal (quotes, escapes, control
/// characters as `\u00XX`).
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Exhausts every protocol model; returns false on any violation. The
/// `deep` flag swaps in the larger serve-model instances (more jobs,
/// more pick attempts, accept back-pressure) used by the scheduled CI
/// run.
fn run_race_models(deep: bool) -> bool {
    let mut ok = true;
    ok &= report(
        "work-steal cursor (3 workers, 4 items)",
        &WorkStealModel::new(4, 3),
    );
    ok &= report(
        "epoch cache across mutation phase",
        &CachePhaseModel::correct(),
    );
    ok &= report(
        "work-steal + shared cache key (2 workers, 3 items)",
        &StealPriceModel::new(3, 2),
    );
    if deep {
        ok &= report(
            "fair-share ledger, deep (recovery + 5 picks)",
            &FairshareModel::deep(),
        );
        ok &= report(
            "serve conn pool, deep (4 conns, cap 2, 2 workers)",
            &ConnPoolModel::deep(),
        );
        ok &= report(
            "serve change signal, deep (2 event sources, 1 hand-over)",
            &ChangeSignalModel::deep(),
        );
    } else {
        ok &= report(
            "fair-share ledger (admit/cancel/rollback vs. snapshots)",
            &FairshareModel::correct(),
        );
        ok &= report(
            "serve conn pool (3 conns, 2 workers, shutdown)",
            &ConnPoolModel::correct(),
        );
        ok &= report(
            "serve change signal (2 events, 1 hand-over vs. worker wait)",
            &ChangeSignalModel::correct(),
        );
    }
    ok &= report("two-lock acquisition order", &LockOrderModel::consistent());
    ok
}

fn report<M: Model>(name: &str, model: &M) -> bool {
    match explore(model) {
        Ok(stats) => {
            println!(
                "crp-lint race: {name}: ok ({} interleavings, {} transitions)",
                stats.terminals, stats.transitions
            );
            true
        }
        Err(v) => {
            eprintln!("crp-lint race: {name}: VIOLATION: {v}");
            false
        }
    }
}

/// The workspace root: compiled in at build time (`CARGO_MANIFEST_DIR`
/// is `crates/lint`), with a cwd fallback for relocated binaries.
fn workspace_root() -> PathBuf {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match compiled.parent().and_then(std::path::Path::parent) {
        Some(root) if root.join("crates").is_dir() => root.to_path_buf(),
        _ => PathBuf::from("."),
    }
}
