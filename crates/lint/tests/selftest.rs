//! Fixture-based self-tests: every rule must fire on its failing
//! snippet, stay silent on its passing snippet (including the annotated
//! suppression cases inside), and malformed suppressions must be
//! findings of their own.

use crp_lint::{lint_sources, FileScope, Rule};

fn read_fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints `src` as the file `rel` and keeps only the findings of `family`.
fn lint_family(rel: String, src: String, family: &[Rule]) -> Vec<crp_lint::Diagnostic> {
    let mut d = lint_sources(&[(rel, src)]);
    d.retain(|x| family.contains(&x.rule));
    d
}

/// Runs the per-file rules over one fixture, placed where `scope` puts
/// it: flow code in `crates/core/src/`, a crate root as
/// `crates/tools/src/lib.rs`, anything else in `crates/tools/src/`.
fn lint_fixture(name: &str, scope: FileScope) -> Vec<crp_lint::Diagnostic> {
    let rel = match (scope.flow, scope.crate_root) {
        (true, _) => format!("crates/core/src/{name}"),
        (false, true) => "crates/tools/src/lib.rs".to_string(),
        (false, false) => format!("crates/tools/src/{name}"),
    };
    let per_file = &[
        Rule::NondetIter,
        Rule::AtomicsJustified,
        Rule::NoPanicPaths,
        Rule::ForbidUnsafe,
        Rule::CastTruncation,
        Rule::BadSuppression,
    ];
    lint_family(rel, read_fixture(name), per_file)
}

/// Runs only the interprocedural lock analysis over one fixture.
fn lock_fixture(name: &str) -> Vec<crp_lint::Diagnostic> {
    let family = &[Rule::LockOrder, Rule::HeldLockBlocking];
    lint_family(name.to_string(), read_fixture(name), family)
}

/// The dataflow rules' findings.
const DATAFLOW: &[Rule] = &[Rule::FloatOrder, Rule::EpochProtocol];

/// Runs the dataflow rules (float-order, epoch-protocol) over one
/// fixture, placed on a flow path so the rules apply.
fn dataflow_fixture(name: &str) -> Vec<crp_lint::Diagnostic> {
    lint_family(
        format!("crates/core/src/{name}"),
        read_fixture(name),
        DATAFLOW,
    )
}

/// Runs the state-coverage rule over one fixture.
fn coverage_fixture(name: &str) -> Vec<crp_lint::Diagnostic> {
    let family = &[Rule::StateCoverage];
    lint_family(
        format!("crates/core/src/{name}"),
        read_fixture(name),
        family,
    )
}

const FLOW: FileScope = FileScope {
    flow: true,
    crate_root: false,
};

const ROOT: FileScope = FileScope {
    flow: false,
    crate_root: true,
};

fn rules_fired(diags: &[crp_lint::Diagnostic]) -> Vec<Rule> {
    let mut r: Vec<Rule> = diags.iter().map(|d| d.rule).collect();
    r.dedup();
    r
}

#[test]
fn nondet_iter_fires_on_every_iteration_form() {
    let d = lint_fixture("nondet_iter_fail.rs", FLOW);
    assert!(
        d.iter().all(|d| d.rule == Rule::NondetIter),
        "unexpected rules: {d:?}"
    );
    // keys(), iter(), the for-loop over a field, and into_iter() on an
    // untyped init: four distinct sites.
    assert_eq!(d.len(), 4, "wrong sites: {d:?}");
}

#[test]
fn nondet_iter_passes_keyed_lookups_btrees_wrappers_and_annotations() {
    let d = lint_fixture("nondet_iter_pass.rs", FLOW);
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn atomics_fires_on_unjustified_relaxed_and_seqcst() {
    let d = lint_fixture("atomics_fail.rs", FLOW);
    assert_eq!(rules_fired(&d), vec![Rule::AtomicsJustified]);
    assert_eq!(d.len(), 2, "Relaxed and SeqCst sites: {d:?}");
}

#[test]
fn atomics_passes_justified_and_self_documenting_orderings() {
    let d = lint_fixture("atomics_pass.rs", FLOW);
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn no_panic_fires_on_unwrap_expect_and_panic_macros() {
    let d = lint_fixture("no_panic_fail.rs", FLOW);
    assert!(d.iter().all(|d| d.rule == Rule::NoPanicPaths));
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented!.
    assert_eq!(d.len(), 6, "wrong sites: {d:?}");
}

#[test]
fn no_panic_passes_results_tests_parser_expect_and_annotations() {
    let d = lint_fixture("no_panic_pass.rs", FLOW);
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn no_panic_is_scoped_to_flow_code() {
    let d = lint_fixture(
        "no_panic_fail.rs",
        FileScope {
            flow: false,
            crate_root: false,
        },
    );
    assert!(d.is_empty(), "non-flow files must not be panic-checked");
}

#[test]
fn forbid_unsafe_fires_on_a_bare_crate_root() {
    let d = lint_fixture("unsafe_fail.rs", ROOT);
    assert_eq!(rules_fired(&d), vec![Rule::ForbidUnsafe]);
}

#[test]
fn forbid_unsafe_passes_a_forbidding_crate_root() {
    let d = lint_fixture("unsafe_pass.rs", ROOT);
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn cast_truncation_fires_on_narrowing_casts() {
    let d = lint_fixture("cast_fail.rs", FLOW);
    assert!(d.iter().all(|d| d.rule == Rule::CastTruncation));
    // x as u16, y as u16, i as u32.
    assert_eq!(d.len(), 3, "wrong sites: {d:?}");
}

#[test]
fn cast_truncation_passes_try_from_widening_and_annotated() {
    let d = lint_fixture("cast_pass.rs", FLOW);
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn malformed_suppressions_are_findings() {
    let d = lint_fixture("bad_suppression.rs", FLOW);
    let bad: Vec<_> = d
        .iter()
        .filter(|d| d.rule == Rule::BadSuppression)
        .collect();
    assert_eq!(bad.len(), 2, "missing-reason and unknown-rule: {d:?}");
    // The reasonless allow must also NOT suppress the unwrap under it.
    assert!(
        d.iter().any(|d| d.rule == Rule::NoPanicPaths),
        "reasonless allow suppressed the finding: {d:?}"
    );
}

#[test]
fn lock_order_fires_on_inversion_and_reacquisition() {
    let d = lock_fixture("lock_order_fail.rs");
    assert!(
        d.iter().all(|d| d.rule == Rule::LockOrder),
        "unexpected rules: {d:?}"
    );
    assert_eq!(d.len(), 2, "cycle + self-deadlock: {d:?}");
    let cycle = d
        .iter()
        .find(|x| x.message.contains("acquisition cycle"))
        .unwrap_or_else(|| panic!("no cycle finding: {d:?}"));
    // Both witness paths of the inversion are named in one finding.
    assert!(
        cycle
            .message
            .contains("`lock_order_fail.rs::index` -> `lock_order_fail.rs::stats`"),
        "{}",
        cycle.message
    );
    assert!(
        cycle
            .message
            .contains("`lock_order_fail.rs::stats` -> `lock_order_fail.rs::index`"),
        "{}",
        cycle.message
    );
    assert!(
        d.iter().any(|x| x.message.contains("self-deadlock")),
        "no self-deadlock finding: {d:?}"
    );
}

#[test]
fn lock_order_passes_a_consistent_global_order() {
    let d = lock_fixture("lock_order_pass.rs");
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn held_lock_blocking_fires_on_io_join_and_sleep() {
    let d = lock_fixture("held_block_fail.rs");
    assert!(
        d.iter().all(|d| d.rule == Rule::HeldLockBlocking),
        "unexpected rules: {d:?}"
    );
    assert_eq!(d.len(), 3, "write_all, join, sleep: {d:?}");
    for op in ["`.write_all(..)`", "`.join(..)`", "`sleep(..)`"] {
        assert!(
            d.iter().any(|x| x.message.contains(op)),
            "missing {op}: {d:?}"
        );
    }
}

#[test]
fn held_lock_blocking_passes_restructured_and_justified_sites() {
    let d = lock_fixture("held_block_pass.rs");
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn float_order_fires_on_hash_parallel_and_shared_sites() {
    let d = dataflow_fixture("float_order_fail.rs");
    assert!(
        d.iter().all(|x| x.rule == Rule::FloatOrder),
        "unexpected rules: {d:?}"
    );
    // Hash-ordered sum, hash-ordered fold, worker-reachable helper sum,
    // in-callback sum, shared `+=`.
    assert_eq!(d.len(), 5, "wrong sites: {d:?}");
    assert!(
        d.iter()
            .any(|x| x.message.contains("hash-ordered binding `weights`")),
        "{d:?}"
    );
    assert!(
        d.iter().any(|x| x.message.contains("worker threads")),
        "{d:?}"
    );
    assert!(
        d.iter().any(|x| x.message.contains("shared accumulator")),
        "{d:?}"
    );
}

#[test]
fn float_order_passes_ordered_integer_and_annotated_sites() {
    let d = dataflow_fixture("float_order_pass.rs");
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn float_order_is_scoped_to_flow_code() {
    let d = lint_family(
        "tools/float_order_fail.rs".to_string(),
        read_fixture("float_order_fail.rs"),
        DATAFLOW,
    );
    assert!(d.is_empty(), "non-flow files must not be float-checked");
}

#[test]
fn epoch_protocol_fires_on_unvalidated_and_partially_validated_reads() {
    let d = dataflow_fixture("epoch_protocol_fail.rs");
    assert!(
        d.iter().all(|x| x.rule == Rule::EpochProtocol),
        "unexpected rules: {d:?}"
    );
    // `peek`, the `==` comparison in `is_free`, and `leaf` (one of its
    // two callers never validates).
    assert_eq!(d.len(), 3, "wrong sites: {d:?}");
}

#[test]
fn epoch_protocol_passes_validated_callers_writes_and_annotations() {
    let d = dataflow_fixture("epoch_protocol_pass.rs");
    assert!(d.is_empty(), "false positives: {d:?}");
}

#[test]
fn state_coverage_fires_on_dropped_fields_and_stale_directives() {
    let d = coverage_fixture("state_coverage_fail.rs");
    assert!(
        d.iter().all(|x| x.rule == Rule::StateCoverage),
        "unexpected rules: {d:?}"
    );
    // `epoch` missing from the serializer, `rounds` missing from both
    // directions, and the directive naming a nonexistent restorer.
    assert_eq!(d.len(), 4, "wrong sites: {d:?}");
    assert!(
        d.iter().filter(|x| x.message.contains("`rounds`")).count() == 2,
        "{d:?}"
    );
    assert!(
        d.iter().any(|x| x.message.contains("gone_restore")),
        "{d:?}"
    );
}

#[test]
fn state_coverage_passes_helper_coverage_and_annotated_fields() {
    let d = coverage_fixture("state_coverage_pass.rs");
    assert!(d.is_empty(), "false positives: {d:?}");
}

/// The drift scenario `state-coverage` exists for: a field added to the
/// struct without touching the codec must be named in both directions,
/// while the unmodified fixture stays silent.
#[test]
fn state_coverage_catches_a_seeded_phantom_field() {
    let src = read_fixture("state_coverage_pass.rs");
    let seeded = src.replacen(
        "struct FlowState {",
        "struct FlowState {\n    phantom_knob: u64,",
        1,
    );
    assert_ne!(seeded, src, "seeding the phantom field failed");
    let d = lint_family(
        "crates/core/src/state_coverage_pass.rs".to_string(),
        seeded,
        &[Rule::StateCoverage],
    );
    assert_eq!(d.len(), 2, "serializer + restorer direction: {d:?}");
    assert!(
        d.iter().all(|x| x.message.contains("`phantom_knob`")),
        "{d:?}"
    );
}

/// FNV-1a, 64-bit: a dependency-free digest of a finding list.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every fixture at once, in a two-crate tree: `crates/core/src/` is
/// flow code and `crates/tools/src/` is not. Calls now resolve within a
/// file and across the fixtures of one crate, each crate's copies
/// shadow the other's, and the per-file rules run beside the
/// interprocedural ones in one `lint_workspace` run. The per-rule
/// counts and the digest of the sorted `rule file:line` list pin that
/// run's findings.
#[test]
fn fixture_workspace_findings_are_pinned() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let root = std::env::temp_dir().join(format!("crp-lint-fixture-ws-{}", std::process::id()));
    for krate in ["core", "tools"] {
        let dir = root.join("crates").join(krate).join("src");
        std::fs::create_dir_all(&dir).expect("temp tree writable");
        for entry in std::fs::read_dir(&fixtures).expect("fixtures readable") {
            let path = entry.expect("fixture entry").path();
            let name = path.file_name().expect("fixture file name");
            std::fs::copy(&path, dir.join(name)).expect("fixture copied");
        }
    }
    let diags = crp_lint::lint_workspace(&root);
    std::fs::remove_dir_all(&root).ok();
    let diags = diags.expect("fixture tree readable");

    let mut counts: Vec<(&str, usize)> = Vec::new();
    for d in &diags {
        match counts.iter_mut().find(|(r, _)| *r == d.rule.name()) {
            Some((_, n)) => *n += 1,
            None => counts.push((d.rule.name(), 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    assert_eq!(
        counts,
        vec![
            ("no-panic-paths", 28),
            ("nondet-iter", 9),
            ("state-coverage", 8),
            ("held-lock-blocking", 6),
            ("float-order", 5),
            ("atomics-justified", 4),
            ("bad-suppression", 4),
            ("lock-order", 4),
            ("cast-truncation", 3),
            ("epoch-protocol", 3),
        ],
        "{diags:#?}"
    );
    let mut sites: Vec<String> = diags
        .iter()
        .map(|d| format!("{} {}:{}", d.rule.name(), d.file, d.line))
        .collect();
    sites.sort();
    let digest = fnv1a(sites.join("\n").as_bytes());
    assert_eq!(
        digest, 0x8c23_c847_31aa_634c,
        "digest {digest:#018x} of {sites:#?}"
    );
}

/// The gate the CI job enforces: the workspace's own tree is clean.
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let diags = crp_lint::lint_workspace(root).expect("workspace readable");
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
