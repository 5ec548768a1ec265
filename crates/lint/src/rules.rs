//! The `crp-lint` rule engine.
//!
//! The per-file rules here read one file entry of the workspace model
//! at a time (see [`crate::workspace`]); none of them needs an AST.
//! Each rule, per-file or interprocedural, can be suppressed per-site
//! with an inline annotation:
//!
//! ```text
//! // crp-lint: allow(<rule>, <reason>)
//! ```
//!
//! placed on the offending line or on one of the two lines above it. A
//! suppression without a reason is itself a diagnostic — the point of
//! the gate is that every exception is explained in place.
//!
//! The `atomics-justified` rule uses its own annotation form, because a
//! memory-ordering choice is not an exception to justify away but a
//! protocol membership to document:
//!
//! ```text
//! // atomics(<protocol>): <why this ordering is sufficient>
//! ```

use crate::lexer::{Token, TokenKind};
use crate::workspace::SourceFile;

/// The lint rules. See `DESIGN.md` §9 for rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Iteration over `HashMap`/`HashSet` in flow code: iteration order
    /// is seeded per-process (`RandomState`), so any order reaching
    /// candidate costs, ILP inputs, or output files breaks bit-identical
    /// reproducibility. Iterate a `BTreeMap`/`BTreeSet`, sort first, or
    /// annotate why order provably cannot reach a result.
    NondetIter,
    /// `Ordering::Relaxed` / `Ordering::SeqCst` without an
    /// `// atomics(<protocol>): ...` comment naming the protocol the
    /// access belongs to and why the ordering suffices.
    AtomicsJustified,
    /// `unwrap()` / `expect()` / `panic!`-family macros in non-test flow
    /// code: bad inputs must surface as `Result`s, not panics. Genuinely
    /// infallible cases carry an annotation stating the invariant.
    NoPanicPaths,
    /// A crate root without `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// A narrowing `as` cast (`as u8`/`i8`/`u16`/`i16`/`u32`/`i32`) on
    /// flow paths, where coordinates are `i64`/`usize`: silent
    /// truncation corrupts geometry. Use `try_from` or annotate the
    /// range invariant.
    CastTruncation,
    /// A cycle in the global lock-order graph: two code paths acquire
    /// the same pair of locks in opposite orders (directly or through
    /// calls), so some interleaving deadlocks. See [`crate::locks`].
    LockOrder,
    /// A blocking operation (socket `read`/`write`/`accept`,
    /// `JoinHandle::join`, `Condvar::wait`, `sleep`, channel `recv`)
    /// performed while a lock guard is live. See [`crate::locks`].
    HeldLockBlocking,
    /// A field of a checkpointed struct (declared with
    /// `// crp-lint: checkpoint(<Struct>, <ser>, <de>)`) that the
    /// serialize or restore function never mentions, directly or through
    /// helpers: the checkpoint silently drops state. See
    /// [`crate::coverage`].
    StateCoverage,
    /// An order-sensitive `f64` reduction (`.sum()`, `.product()`,
    /// `.fold(..)`) whose iteration source is hash-ordered or which runs
    /// in parallel-reachable flow code: summation order changes the
    /// bits. Route it through `crp_geom::sum_ordered` (a named
    /// fixed-order reduction) or annotate why the source order is
    /// pinned. See [`crate::dataflow`].
    FloatOrder,
    /// A read of an epoch-protected field (declared with
    /// `// crp-lint: epoch-protected(<field>[, <validator>])`) that is
    /// not dominated by the validation call in the same function or in
    /// every caller. See [`crate::dataflow`].
    EpochProtocol,
    /// A malformed or unknown `crp-lint:` annotation.
    BadSuppression,
}

impl Rule {
    /// The rule's name as used in annotations and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::AtomicsJustified => "atomics-justified",
            Rule::NoPanicPaths => "no-panic-paths",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::CastTruncation => "cast-truncation",
            Rule::LockOrder => "lock-order",
            Rule::HeldLockBlocking => "held-lock-blocking",
            Rule::StateCoverage => "state-coverage",
            Rule::FloatOrder => "float-order",
            Rule::EpochProtocol => "epoch-protocol",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    /// Parses the rule name of an `allow` annotation. `bad-suppression`
    /// is not a valid target: a malformed annotation cannot excuse itself.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .find(|&r| r != Rule::BadSuppression && r.name() == s)
    }

    /// Every rule, in report order (also the `--rules` help list); the
    /// last, `bad-suppression`, is the meta-rule on top of the ten.
    pub const ALL: &'static [Rule] = &[
        Rule::NondetIter,
        Rule::AtomicsJustified,
        Rule::NoPanicPaths,
        Rule::ForbidUnsafe,
        Rule::CastTruncation,
        Rule::LockOrder,
        Rule::HeldLockBlocking,
        Rule::StateCoverage,
        Rule::FloatOrder,
        Rule::EpochProtocol,
        Rule::BadSuppression,
    ];
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path of the file the finding is in.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// How a file participates in the rule set.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// Flow code: determinism and panic-freedom rules apply (every path
    /// under [`crate::FLOW_PATHS`]).
    pub flow: bool,
    /// A crate root (`src/lib.rs`): must forbid `unsafe_code`.
    pub crate_root: bool,
}

/// Methods whose call on a hash-ordered collection observes its order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Integer targets narrower than the workspace's coordinate types.
const NARROW_INTS: &[&str] = &["u8", "i8", "u16", "i16", "u32", "i32"];

/// Runs the per-file rules over one file of the workspace model.
pub(crate) fn check_file(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (line, message) in &file.ann.malformed {
        file.emit(out, Rule::BadSuppression, *line, message.clone());
    }
    if file.scope.crate_root {
        check_forbid_unsafe(file, out);
    }
    check_atomics(file, out);
    if file.scope.flow {
        check_nondet_iter(file, out);
        check_no_panic(file, out);
        check_casts(file, out);
    }
}

// ---------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------

/// A `// crp-lint: checkpoint(<Struct>, <ser>, <de>)` declaration: the
/// named struct's fields must all be reachable from the serialize and
/// restore functions (see [`crate::coverage`]).
#[derive(Debug, Clone)]
pub(crate) struct CheckpointDirective {
    /// Comment line of the directive.
    pub line: u32,
    /// The checkpointed struct's name.
    pub strukt: String,
    /// The serializing function's name.
    pub ser: String,
    /// The restoring function's name.
    pub de: String,
}

/// A `// crp-lint: epoch-protected(<field>[, <validator>])` declaration:
/// reads of `.field` in flow code must be dominated by a call to the
/// validator (default `region_touched_since`).
#[derive(Debug, Clone)]
pub(crate) struct EpochDirective {
    /// The protected field's name.
    pub field: String,
    /// The validating function whose call protects a read.
    pub validator: String,
}

/// Parsed `crp-lint: allow(...)` / `checkpoint(...)` /
/// `epoch-protected(...)` and `atomics(...)` comments.
pub(crate) struct Annotations {
    /// `(rule, comment line)` of each well-formed suppression.
    allows: Vec<(Rule, u32)>,
    /// Lines carrying a well-formed `atomics(<protocol>): <why>` note.
    atomics: Vec<u32>,
    /// Well-formed `checkpoint(..)` coverage declarations.
    pub(crate) checkpoints: Vec<CheckpointDirective>,
    /// Well-formed `epoch-protected(..)` declarations.
    pub(crate) epochs: Vec<EpochDirective>,
    /// `(line, message)` of malformed annotations.
    malformed: Vec<(u32, String)>,
}

impl Annotations {
    pub(crate) fn parse(tokens: &[Token]) -> Annotations {
        let mut a = Annotations {
            allows: Vec::new(),
            atomics: Vec::new(),
            checkpoints: Vec::new(),
            epochs: Vec::new(),
            malformed: Vec::new(),
        };
        for t in tokens.iter().filter(|t| t.is_comment()) {
            // Doc comments (`///`, `//!`) document the syntax; only plain
            // `//` comments are directives.
            if t.text.starts_with("///") || t.text.starts_with("//!") {
                continue;
            }
            if let Some(rest) = find_after(&t.text, "crp-lint:") {
                a.parse_directive(rest.trim(), t.line);
            } else if let Some(rest) = find_after(&t.text, "atomics(") {
                a.parse_atomics(rest, t.line);
            }
        }
        a
    }

    fn parse_directive(&mut self, body: &str, line: u32) {
        if let Some(rest) = body.strip_prefix("allow(") {
            self.parse_allow(rest, line);
        } else if let Some(rest) = body.strip_prefix("checkpoint(") {
            self.parse_checkpoint(rest, line);
        } else if let Some(rest) = body.strip_prefix("epoch-protected(") {
            self.parse_epoch(rest, line);
        } else {
            self.malformed.push((
                line,
                "malformed annotation: expected `crp-lint: allow(<rule>, <reason>)`, \
                 `checkpoint(<Struct>, <ser>, <de>)`, or \
                 `epoch-protected(<field>[, <validator>])`"
                    .to_string(),
            ));
        }
    }

    /// The comma-separated identifiers inside a directive's parentheses,
    /// or `None` when the `)` is missing or any part is not a plain
    /// identifier.
    fn directive_idents(rest: &str) -> Option<Vec<String>> {
        let (inner, _) = rest.split_once(')')?;
        let parts: Vec<String> = inner.split(',').map(|p| p.trim().to_string()).collect();
        let ident_ok = |s: &str| {
            !s.is_empty()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !s.starts_with(|c: char| c.is_ascii_digit())
        };
        parts.iter().all(|p| ident_ok(p)).then_some(parts)
    }

    fn parse_checkpoint(&mut self, rest: &str, line: u32) {
        match Self::directive_idents(rest).as_deref() {
            Some([strukt, ser, de]) => self.checkpoints.push(CheckpointDirective {
                line,
                strukt: strukt.clone(),
                ser: ser.clone(),
                de: de.clone(),
            }),
            _ => self.malformed.push((
                line,
                "malformed annotation: expected \
                 `crp-lint: checkpoint(<Struct>, <ser_fn>, <de_fn>)`"
                    .to_string(),
            )),
        }
    }

    fn parse_epoch(&mut self, rest: &str, line: u32) {
        match Self::directive_idents(rest).as_deref() {
            Some([field]) => self.epochs.push(EpochDirective {
                field: field.clone(),
                validator: "region_touched_since".to_string(),
            }),
            Some([field, validator]) => self.epochs.push(EpochDirective {
                field: field.clone(),
                validator: validator.clone(),
            }),
            _ => self.malformed.push((
                line,
                "malformed annotation: expected \
                 `crp-lint: epoch-protected(<field>[, <validator>])`"
                    .to_string(),
            )),
        }
    }

    fn parse_allow(&mut self, rest: &str, line: u32) {
        // A long reason may run past the line (and thus lack the `)`);
        // take what is there.
        let inner = rest.split_once(')').map_or(rest, |(head, _)| head);
        let (name, reason) = match inner.split_once(',') {
            Some((n, r)) => (n.trim(), r.trim()),
            None => (inner.trim(), ""),
        };
        let Some(rule) = Rule::from_name(name) else {
            self.malformed
                .push((line, format!("unknown rule `{name}` in allow annotation")));
            return;
        };
        if reason.is_empty() {
            self.malformed.push((
                line,
                format!("allow({name}) has no reason; every suppression must be explained"),
            ));
            return;
        }
        self.allows.push((rule, line));
    }

    fn parse_atomics(&mut self, rest: &str, line: u32) {
        // rest is everything after "atomics(": "<protocol>): <why>".
        let ok = rest.split_once(')').is_some_and(|(proto, why)| {
            !proto.trim().is_empty() && why.trim_start_matches([':', ' ']).len() >= 3
        });
        if ok {
            self.atomics.push(line);
        } else {
            self.malformed.push((
                line,
                "malformed annotation: expected `atomics(<protocol>): <why>`".to_string(),
            ));
        }
    }

    /// Whether a diagnostic of `rule` at `line` is suppressed: an allow
    /// on the same line or on one of the two lines above it.
    pub(crate) fn allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows
            .iter()
            .any(|&(r, l)| r == rule && l <= line && line <= l + 2)
    }

    /// Whether an atomics site at `line` carries a justification: an
    /// `atomics(...)` note on the same line or up to four lines above
    /// (orderings often sit on a continuation line of the statement,
    /// below further comment lines).
    fn atomics_justified(&self, line: u32) -> bool {
        self.atomics.iter().any(|&l| l <= line && line <= l + 4)
    }
}

fn find_after<'a>(haystack: &'a str, needle: &str) -> Option<&'a str> {
    haystack.find(needle).map(|i| &haystack[i + needle.len()..])
}

// ---------------------------------------------------------------------
// Test-region masking
// ---------------------------------------------------------------------

/// Marks every code token covered by a `#[cfg(test)]` or `#[test]` item
/// (attribute through the item's closing brace or semicolon).
pub(crate) fn test_region_mask(code: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if !(code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = matching(code, i + 1, '[', ']') else {
            break;
        };
        if !attr_is_test(&code[i + 2..attr_end]) {
            i = attr_end + 1;
            continue;
        }
        // Mask from the attribute through the end of the item it
        // decorates (skipping any further attributes in between).
        let mut j = attr_end + 1;
        while code.get(j).is_some_and(|t| t.is_punct('#'))
            && code.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(code, j + 1, '[', ']') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        let item_end = item_end_from(code, j);
        for m in mask
            .iter_mut()
            .take(item_end.min(code.len()))
            .skip(attr_start)
        {
            *m = true;
        }
        i = item_end;
    }
    mask
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]` — but not
/// `#[cfg(not(test))]`, which guards *production* code.
fn attr_is_test(attr: &[Token]) -> bool {
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// Index one past the end of the item starting at `start`: either the
/// first top-level `;` or the brace block's closing `}`.
pub(crate) fn item_end_from(code: &[Token], start: usize) -> usize {
    let mut depth_paren = 0i32;
    let mut j = start;
    while j < code.len() {
        let t = &code[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(') | Some(b'[') => depth_paren += 1,
                Some(b')') | Some(b']') => depth_paren -= 1,
                Some(b';') if depth_paren == 0 => return j + 1,
                Some(b'{') if depth_paren == 0 => {
                    return matching(code, j, '{', '}').map_or(code.len(), |e| e + 1);
                }
                _ => {}
            }
        }
        j += 1;
    }
    code.len()
}

/// Index of the token closing the group opened at `open_idx`.
pub(crate) fn matching(code: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// forbid-unsafe
// ---------------------------------------------------------------------

fn check_forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let found = file.code.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !found {
        file.emit(
            out,
            Rule::ForbidUnsafe,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

// ---------------------------------------------------------------------
// atomics-justified
// ---------------------------------------------------------------------

fn check_atomics(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for i in 0..code.len().saturating_sub(3) {
        if file.test[i] {
            continue;
        }
        let ordering = code[i].is_ident("Ordering")
            && code[i + 1].is_punct(':')
            && code[i + 2].is_punct(':')
            && (code[i + 3].is_ident("Relaxed") || code[i + 3].is_ident("SeqCst"));
        if !ordering {
            continue;
        }
        let line = code[i + 3].line;
        if file.ann.atomics_justified(line) {
            continue;
        }
        file.emit(
            out,
            Rule::AtomicsJustified,
            line,
            format!(
                "`Ordering::{}` without an `// atomics(<protocol>): <why>` justification",
                code[i + 3].text
            ),
        );
    }
}

// ---------------------------------------------------------------------
// nondet-iter
// ---------------------------------------------------------------------

/// Identifiers in a type position that may wrap the hash collection
/// without changing what the *binding itself* iterates as.
const TYPE_WRAPPERS: &[&str] = &["Option", "mut", "dyn"];

/// Names in this file bound (via `: HashMap<..>` / `: HashSet<..>`
/// annotations or `= HashMap::new()` initializers) directly to a
/// hash-ordered collection. Wrapped types (`Vec<Mutex<HashMap<..>>>`)
/// are *not* recorded: iterating the wrapper is order-safe.
pub(crate) fn hash_typed_names(code: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..code.len() {
        if !(code[i].is_ident("HashMap") || code[i].is_ident("HashSet")) {
            continue;
        }
        // Walk left over `&`, `<`, lifetimes, Option/mut: the tokens a
        // directly-hash-typed annotation may interpose.
        let mut j = i;
        while j > 0 {
            let t = &code[j - 1];
            let skippable = t.is_punct('&')
                || t.is_punct('<')
                || t.kind == TokenKind::Lifetime
                || (t.kind == TokenKind::Ident && TYPE_WRAPPERS.contains(&t.text.as_str()));
            if skippable {
                j -= 1;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        let before = &code[j - 1];
        if before.is_punct(':') && j >= 2 && !code[j - 2].is_punct(':') {
            // `name: HashMap<..>` (declaration, field, or parameter) —
            // but not a `::` path like `std::collections::HashMap`.
            if code[j - 2].kind == TokenKind::Ident {
                names.push(code[j - 2].text.clone());
            }
        } else if before.is_punct('=') && j >= 2 && code[j - 2].kind == TokenKind::Ident {
            // `let name = HashMap::new()` (untyped init).
            names.push(code[j - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

fn check_nondet_iter(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let (code, test_mask) = (&file.code, &file.test);
    let names = hash_typed_names(code);
    if names.is_empty() {
        return;
    }
    let is_hash = |t: &Token| t.kind == TokenKind::Ident && names.contains(&t.text);
    let mut flagged: Vec<(u32, String)> = Vec::new();

    // `map.iter()`, `map.keys()`, ... — order-observing method calls.
    for i in 1..code.len().saturating_sub(2) {
        if test_mask[i] {
            continue;
        }
        if code[i].is_punct('.')
            && code[i + 2].is_punct('(')
            && ITER_METHODS.contains(&code[i + 1].text.as_str())
            && is_hash(&code[i - 1])
        {
            flagged.push((
                code[i + 1].line,
                format!("`{}.{}()`", code[i - 1].text, code[i + 1].text),
            ));
        }
    }

    // `for x in &map { .. }` — direct iteration.
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("for") || test_mask[i] {
            i += 1;
            continue;
        }
        // Find the `in` of this loop header, then the expression up to
        // the body's `{` (at bracket depth 0).
        let mut j = i + 1;
        while j < code.len() && !code[j].is_ident("in") && !code[j].is_punct('{') {
            j += 1;
        }
        if j >= code.len() || !code[j].is_ident("in") {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut k = j + 1;
        while k < code.len() {
            let t = &code[k];
            if t.kind == TokenKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'(') | Some(b'[') => depth += 1,
                    Some(b')') | Some(b']') => depth -= 1,
                    Some(b'{') if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        for t in &code[j + 1..k.min(code.len())] {
            if is_hash(t) {
                flagged.push((t.line, format!("`for .. in {}`", t.text)));
                break;
            }
        }
        i = k;
    }

    flagged.sort();
    flagged.dedup_by_key(|f| f.0);
    for (line, what) in flagged {
        file.emit(
            out,
            Rule::NondetIter,
            line,
            format!(
                "{what} iterates a hash-ordered collection in flow code; \
                 use BTreeMap/BTreeSet, sort first, or annotate why order \
                 cannot reach a result"
            ),
        );
    }
}

// ---------------------------------------------------------------------
// no-panic-paths
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn check_no_panic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for i in 0..code.len().saturating_sub(1) {
        if file.test[i] {
            continue;
        }
        let t = &code[i];
        let (line, what) = if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && code[i + 1].is_punct('!')
        {
            (t.line, format!("`{}!`", t.text))
        } else if i > 0
            && code[i - 1].is_punct('.')
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            // `.expect(..)?` is a parser-style Result helper (the lefdef
            // lexer has one), not Option::expect; skip those.
            if let Some(close) = matching(code, i + 1, '(', ')') {
                if code.get(close + 1).is_some_and(|n| n.is_punct('?')) {
                    continue;
                }
            }
            (t.line, format!("`.{}()`", t.text))
        } else {
            continue;
        };
        file.emit(
            out,
            Rule::NoPanicPaths,
            line,
            format!(
                "{what} in non-test flow code; propagate a Result or annotate \
                 the invariant that makes this infallible"
            ),
        );
    }
}

// ---------------------------------------------------------------------
// cast-truncation
// ---------------------------------------------------------------------

fn check_casts(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for i in 0..code.len().saturating_sub(1) {
        if file.test[i] {
            continue;
        }
        if !(code[i].is_ident("as") && NARROW_INTS.contains(&code[i + 1].text.as_str())) {
            continue;
        }
        file.emit(
            out,
            Rule::CastTruncation,
            code[i + 1].line,
            format!(
                "narrowing `as {}` cast on a flow path; use `try_from` or \
                 annotate the range invariant",
                code[i + 1].text
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(src: &str) -> Vec<Diagnostic> {
        crate::lint_sources(&[("crates/core/src/t.rs".to_string(), src.to_string())])
    }

    #[test]
    fn unwrap_in_test_mod_is_exempt() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\n";
        assert!(flow(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_still_flow_code() {
        let src = "#[cfg(not(test))]\nfn a() { x.unwrap(); }\n";
        let d = flow(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::NoPanicPaths);
    }

    #[test]
    fn suppression_needs_reason() {
        let src = "// crp-lint: allow(no-panic-paths)\nfn a() { x.unwrap(); }\n";
        let d = flow(src);
        assert!(d.iter().any(|d| d.rule == Rule::BadSuppression));
        assert!(d.iter().any(|d| d.rule == Rule::NoPanicPaths));
    }

    #[test]
    fn every_rule_but_bad_suppression_is_an_allow_target() {
        for &rule in Rule::ALL {
            let parsed = Rule::from_name(rule.name());
            if rule == Rule::BadSuppression {
                assert_eq!(parsed, None);
            } else {
                assert_eq!(parsed, Some(rule));
            }
        }
        let d = flow("// crp-lint: allow(bad-suppression, x)\nfn a() {}\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::BadSuppression);
    }

    #[test]
    fn wrapped_hash_types_are_not_bindings() {
        let src = "struct S { shards: Vec<Mutex<HashMap<K, V>>> }\n\
                   fn f(s: &S) { for x in &s.shards {} }\n";
        assert!(flow(src).is_empty());
    }
}
