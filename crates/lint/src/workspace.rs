//! The workspace model that all ten rules run over.
//!
//! `Workspace::build` lexes each source once into a `SourceFile`:
//! its comment-free code tokens, test-region mask, parsed annotations
//! and rule scope. One item scan fills one function table, one walk over
//! each body lists its call sites, and one resolver links every site to
//! the functions it may call. The per-file rules read a file entry; the
//! interprocedural rules read the function table and propagate facts
//! over the resolved edges with `Workspace::fixpoint`; every finding
//! passes the one suppression check in `SourceFile::emit`.
//!
//! Each `Site` records what it is (`SiteKind`), so that every rule
//! keeps its own view of the one graph. To [`crate::dataflow`] and
//! [`crate::coverage`] every site is a call: `.lock()` resolves to any
//! workspace method named `lock`. To [`crate::locks`] an argless
//! `.lock()` is an acquisition, `sleep(..)` a blocking operation, and a
//! `spawn(..)` argument list a root of its own.
//!
//! Calls are resolved by name and arity (`self` excluded on both sides),
//! preferring same-file over same-crate over workspace-wide candidates,
//! and never to the function the site sits in. Method calls whose names
//! collide with ubiquitous std methods (`clear`, `get`, `push`, ...) are
//! not sites: the lexer cannot see receiver types, and resolving them
//! drowns the graph in false edges, so a lock-acquiring workspace method
//! should simply not shadow a std collection name. Calls through
//! function pointers or `dyn Fn` parameters are invisible.

use crate::engine::scope_of;
use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{
    item_end_from, matching, test_region_mask, Annotations, Diagnostic, FileScope, Rule,
};
use std::collections::BTreeMap;

/// Keywords and std constructors that look like calls but are not
/// workspace functions.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "else", "unsafe", "ref",
    "break", "continue", "where", "impl", "dyn", "fn", "Some", "Ok", "Err", "None", "Box", "Vec",
];

/// Method names that collide with ubiquitous std methods: never sites
/// (see module docs).
const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_str",
    "binary_search",
    "chain",
    "chars",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "expect",
    "extend",
    "fetch_add",
    "fetch_sub",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "insert",
    "into_iter",
    "is_empty",
    "is_some",
    "is_none",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "len",
    "load",
    "map",
    "map_err",
    "map_or",
    "map_or_else",
    "max",
    "max_by_key",
    "min",
    "min_by_key",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "parse",
    "pop",
    "pop_front",
    "position",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "splice",
    "split",
    "split_once",
    "split_whitespace",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "then",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "zip",
];

/// Guard types whose appearance in a return type marks a lock helper.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Blocking methods regardless of argument count.
const BLOCKING_ANY_ARGS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write_all",
    "flush",
];

/// Blocking methods only when argless (`path.join(sep)` and
/// `slice.join(..)` are string ops; `stream.read(&mut buf)` is I/O but
/// argless `.read()` is an RwLock acquisition).
const BLOCKING_ARGLESS: &[&str] = &["join", "accept"];

/// One source file, lexed once.
pub(crate) struct SourceFile {
    /// Workspace-relative path.
    pub(crate) rel: String,
    pub(crate) scope: FileScope,
    /// The code tokens; the comments live on as `ann`.
    pub(crate) code: Vec<Token>,
    /// Per code token: inside a `#[cfg(test)]` or `#[test]` item.
    pub(crate) test: Vec<bool>,
    pub(crate) ann: Annotations,
    /// `(open, close)` parens of every `spawn(..)`/`run_indexed(..)`
    /// argument list in the file's functions.
    parallel: Vec<(usize, usize)>,
}

impl SourceFile {
    fn new(rel: &str, src: &str) -> SourceFile {
        let (comments, code): (Vec<Token>, Vec<Token>) =
            lex(src).into_iter().partition(Token::is_comment);
        SourceFile {
            rel: rel.to_string(),
            scope: scope_of(rel),
            test: test_region_mask(&code),
            code,
            ann: Annotations::parse(&comments),
            parallel: Vec::new(),
        }
    }

    /// Records a `rule` finding at `line` unless an allow annotation in
    /// this file suppresses it there.
    pub(crate) fn emit(&self, out: &mut Vec<Diagnostic>, rule: Rule, line: u32, message: String) {
        if !self.ann.allowed(rule, line) {
            out.push(Diagnostic {
                rule,
                file: self.rel.clone(),
                line,
                message,
            });
        }
    }

    /// Whether code token `tok` runs on worker threads: it sits inside a
    /// `spawn(..)`/`run_indexed(..)` argument list.
    pub(crate) fn in_parallel(&self, tok: usize) -> bool {
        self.parallel.iter().any(|&(o, c)| o < tok && tok < c)
    }
}

/// One non-test `fn` with a body.
pub(crate) struct Function {
    pub(crate) name: String,
    /// Index into [`Workspace::files`].
    pub(crate) file: usize,
    /// Parameter count excluding any `self` receiver.
    arity: usize,
    has_self: bool,
    /// Whether a lock guard type appears in the return type.
    returns_guard: bool,
    /// Whether `f64` appears in the return type.
    pub(crate) returns_f64: bool,
    /// Token range of the body: `(open brace, close brace)`.
    pub(crate) body: (usize, usize),
    /// The body's call sites in token order, nested `fn` items excluded.
    pub(crate) sites: Vec<Site>,
}

/// A call-shaped `name(..)` in a function body.
pub(crate) struct Site {
    /// Token index of `name`.
    pub(crate) tok: usize,
    pub(crate) callee: String,
    /// Argument count.
    arity: usize,
    /// Called as `.name(..)`.
    method_form: bool,
    pub(crate) kind: SiteKind,
    /// The functions this site may call.
    pub(crate) targets: Vec<usize>,
}

/// What a site is.
pub(crate) enum SiteKind {
    /// A plain call.
    Call,
    /// A lock acquisition: an argless `.lock()`/`.read()`/`.write()`, or
    /// a call to a guard-returning helper. The lock is identified as
    /// `"<file>::<base>"` (see [`crate::locks`]); the acquiring
    /// expression spans tokens `start..=end`.
    Acquire {
        lock: String,
        start: usize,
        end: usize,
    },
    /// A blocking operation, named for reports (`` `.join(..)` ``).
    Block(String),
    /// `spawn(..)` or `run_indexed(..)`: the argument list, closing at
    /// token `close`, runs on worker threads.
    Parallel { close: usize },
}

/// Guard-returning helpers by name: `(file, arity, lock)`.
type Helpers = BTreeMap<String, Vec<(usize, usize, String)>>;

/// The lexed workspace with its resolved call graph.
pub(crate) struct Workspace {
    pub(crate) files: Vec<SourceFile>,
    pub(crate) fns: Vec<Function>,
}

impl Workspace {
    /// Builds the model of `sources`, given as `(workspace-relative
    /// path, source text)` pairs.
    pub(crate) fn build(sources: &[(String, String)]) -> Workspace {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::new(rel, src))
            .collect();
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            scan_functions(file, fi, &mut fns);
        }

        // A guard-returning helper acquires the lock its body takes, so
        // a lock keeps the identity of its defining file.
        let mut helpers = Helpers::new();
        for f in fns.iter().filter(|f| f.returns_guard) {
            if let Some(lock) = first_direct_lock(&files[f.file], f.body) {
                helpers
                    .entry(f.name.clone())
                    .or_default()
                    .push((f.file, f.arity, lock));
            }
        }
        for f in &mut fns {
            f.sites = collect_sites(&files[f.file], f.file, f.body, &helpers);
        }

        let targets: Vec<Vec<Vec<usize>>> = {
            let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for (i, f) in fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push(i);
            }
            fns.iter()
                .enumerate()
                .map(|(i, f)| {
                    f.sites
                        .iter()
                        .map(|s| resolve_call(&files, &fns, &by_name, i, s))
                        .collect()
                })
                .collect()
        };
        for (f, targets) in fns.iter_mut().zip(targets) {
            for (site, t) in f.sites.iter_mut().zip(targets) {
                site.targets = t;
            }
        }

        for f in &fns {
            for site in &f.sites {
                if let SiteKind::Parallel { close } = site.kind {
                    files[f.file].parallel.push((site.tok + 1, close));
                }
            }
        }
        Workspace { files, fns }
    }

    /// Index of the innermost function of `file` whose body contains
    /// token `tok`.
    pub(crate) fn enclosing_fn(&self, file: usize, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.body.0 < tok && tok < f.body.1)
            .max_by_key(|(_, f)| f.body.0)
            .map(|(i, _)| i)
    }

    /// Propagates facts over the resolved call edges: applies
    /// `step(caller, site, callee)` to every edge, in function and site
    /// order, until a whole sweep changes nothing. `site` indexes
    /// `fns[caller].sites`, and `step` returns whether it changed a fact.
    pub(crate) fn fixpoint(&self, mut step: impl FnMut(usize, usize, usize) -> bool) {
        loop {
            let mut changed = false;
            for (caller, f) in self.fns.iter().enumerate() {
                for (s, site) in f.sites.iter().enumerate() {
                    for &callee in &site.targets {
                        changed |= step(caller, s, callee);
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// `crates/serve/src/x.rs` → `crates/serve`.
fn crate_of(rel: &str) -> &str {
    rel.match_indices('/')
        .nth(1)
        .map_or(rel, |(i, _)| &rel[..i])
}

// ---------------------------------------------------------------------
// Item scan
// ---------------------------------------------------------------------

/// Appends every non-test `fn` with a body in `file` (index `fi`) to
/// `out`, sites still empty.
fn scan_functions(file: &SourceFile, fi: usize, out: &mut Vec<Function>) {
    let code = &file.code;
    let mut i = 0;
    while i + 1 < code.len() {
        if !code[i].is_ident("fn") || code[i + 1].kind != TokenKind::Ident || file.test[i] {
            i += 1;
            continue;
        }
        let name = code[i + 1].text.clone();
        // Skip generics between the name and the parameter list.
        let mut j = i + 2;
        if code.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while j < code.len() {
                if code[j].is_punct('<') {
                    depth += 1;
                } else if code[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !code.get(j).is_some_and(|t| t.is_punct('(')) {
            i += 1;
            continue;
        }
        let Some(params_end) = matching(code, j, '(', ')') else {
            break;
        };
        let (arity, has_self) = param_info(&code[j + 1..params_end]);
        // Return type runs to the body `{` (or `;` for a bodyless trait
        // method, which we skip).
        let mut k = params_end + 1;
        let mut depth = 0i32;
        let mut returns_guard = false;
        let mut returns_f64 = false;
        let mut body_open = None;
        while k < code.len() {
            let t = &code[k];
            if t.kind == TokenKind::Ident && GUARD_TYPES.contains(&t.text.as_str()) {
                returns_guard = true;
            }
            if t.is_ident("f64") {
                returns_f64 = true;
            }
            if t.kind == TokenKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'(' | b'[' | b'<') => depth += 1,
                    Some(b')' | b']' | b'>') => depth -= 1,
                    Some(b';') if depth <= 0 => break,
                    Some(b'{') if depth <= 0 => {
                        body_open = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let Some(open) = body_open else {
            i = k + 1;
            continue;
        };
        let close = matching(code, open, '{', '}').unwrap_or(code.len() - 1);
        out.push(Function {
            name,
            file: fi,
            arity,
            has_self,
            returns_guard,
            returns_f64,
            body: (open, close),
            sites: Vec::new(),
        });
        // Continue *inside* the body so nested fns are found too; the
        // body walk skips them when listing the outer function's sites.
        i += 2;
    }
}

/// `(parameter count excluding self, has a self receiver)`.
fn param_info(params: &[Token]) -> (usize, bool) {
    if params.is_empty() {
        return (0, false);
    }
    let mut segments = 1usize;
    let mut depth = 0i32;
    for t in params {
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(' | b'[' | b'<') => depth += 1,
                Some(b')' | b']' | b'>') => depth -= 1,
                Some(b',') if depth == 0 => segments += 1,
                _ => {}
            }
        }
    }
    // A trailing comma creates an empty trailing segment.
    if params.last().is_some_and(|t| t.is_punct(',')) {
        segments -= 1;
    }
    // `self`, `&self`, `&'a self`, `&mut self`, `mut self`.
    let has_self = params
        .iter()
        .take_while(|t| {
            t.is_punct('&')
                || t.kind == TokenKind::Lifetime
                || t.is_ident("mut")
                || t.is_ident("self")
        })
        .any(|t| t.is_ident("self"));
    (segments - usize::from(has_self), has_self)
}

// ---------------------------------------------------------------------
// Sites
// ---------------------------------------------------------------------

/// The call sites of the body spanning `body` in `file` (index `fi`).
fn collect_sites(
    file: &SourceFile,
    fi: usize,
    body: (usize, usize),
    helpers: &Helpers,
) -> Vec<Site> {
    let code = &file.code;
    let mut sites = Vec::new();
    let mut i = body.0 + 1;
    while i < body.1 {
        let t = &code[i];
        // A nested `fn` item is a function of its own.
        if t.is_ident("fn") && code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            i = item_end_from(code, i);
            continue;
        }
        let method_form = code[i - 1].is_punct('.');
        let call = t.kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NON_CALLS.contains(&t.text.as_str())
            && !(method_form && STD_METHODS.contains(&t.text.as_str()));
        if call {
            let close = matching(code, i + 1, '(', ')');
            let mut site = Site {
                tok: i,
                callee: t.text.clone(),
                arity: count_args(code, i + 1, close.unwrap_or(i + 1)),
                method_form,
                kind: SiteKind::Call,
                targets: Vec::new(),
            };
            site.kind = classify(file, fi, &site, close, helpers);
            sites.push(site);
        }
        i += 1;
    }
    sites
}

/// What `site` is; `close` is the `)` matching its `(`.
fn classify(
    file: &SourceFile,
    fi: usize,
    site: &Site,
    close: Option<usize>,
    helpers: &Helpers,
) -> SiteKind {
    let (code, i, name) = (&file.code, site.tok, site.callee.as_str());
    let method_form = site.method_form;
    let argless = close == Some(i + 2);
    if let (Some(close), "spawn" | "run_indexed") = (close, name) {
        return SiteKind::Parallel { close };
    }
    if method_form && argless && matches!(name, "lock" | "read" | "write") {
        return SiteKind::Acquire {
            lock: format!("{}::{}", file.rel, receiver_base(code, i - 1)),
            start: receiver_start(code, i - 1),
            end: i + 2,
        };
    }
    if !method_form {
        let cands = helpers.get(name).map_or(&[][..], Vec::as_slice);
        let pick = cands
            .iter()
            .find(|(f, a, _)| *f == fi && *a == site.arity)
            .or_else(|| cands.iter().find(|(_, a, _)| *a == site.arity));
        if let Some((_, _, lock)) = pick {
            return SiteKind::Acquire {
                lock: lock.clone(),
                start: i,
                end: close.unwrap_or(i + 1),
            };
        }
    }
    let blocking = if method_form {
        BLOCKING_ANY_ARGS.contains(&name)
            || (argless && BLOCKING_ARGLESS.contains(&name))
            || (!argless && matches!(name, "read" | "write"))
    } else {
        name == "sleep"
    };
    match (blocking, method_form) {
        (false, _) => SiteKind::Call,
        (true, true) => SiteKind::Block(format!("`.{name}(..)`")),
        (true, false) => SiteKind::Block("`sleep(..)`".to_string()),
    }
}

/// Number of top-level comma-separated arguments between `open` and
/// `close` (exclusive). A closure's `|..|` parameter list, wherever it
/// opens an argument, holds no argument separators.
fn count_args(code: &[Token], open: usize, close: usize) -> usize {
    if close <= open + 1 {
        return 0;
    }
    let mut depth = 0i32;
    let mut args = 1usize;
    let mut k = open + 1;
    while k < close {
        let t = &code[k];
        let prev = &code[k - 1];
        let opens_arg =
            k == open + 1 || (depth == 0 && prev.is_punct(',')) || prev.is_ident("move");
        if opens_arg && t.is_punct('|') {
            k += 1;
            while k < close && !code[k].is_punct('|') {
                k += 1;
            }
        } else if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(' | b'[' | b'{') => depth += 1,
                Some(b')' | b']' | b'}') => depth -= 1,
                Some(b',') if depth == 0 => args += 1,
                _ => {}
            }
        }
        k += 1;
    }
    if code[close - 1].is_punct(',') {
        args -= 1;
    }
    args
}

/// Resolves `site` in function `caller`: name and arity must match (a
/// `Type::method(recv, ..)` path call counts the receiver); same-file
/// candidates shadow same-crate ones, which shadow the rest of the
/// workspace; a function never resolves to itself.
fn resolve_call(
    files: &[SourceFile],
    fns: &[Function],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    site: &Site,
) -> Vec<usize> {
    let Some(cands) = by_name.get(site.callee.as_str()) else {
        return Vec::new();
    };
    let arity_ok = |t: &Function| {
        t.arity == site.arity || (!site.method_form && t.has_self && t.arity + 1 == site.arity)
    };
    let matches: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&t| arity_ok(&fns[t]))
        .collect();
    let file = fns[caller].file;
    let pick = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
        matches
            .iter()
            .copied()
            .filter(|&t| pred(fns[t].file))
            .collect()
    };
    let mut scoped = pick(&|f| f == file);
    if scoped.is_empty() {
        scoped = pick(&|f| crate_of(&files[f].rel) == crate_of(&files[file].rel));
    }
    if scoped.is_empty() {
        scoped = matches;
    }
    scoped.retain(|&t| t != caller);
    scoped
}

// ---------------------------------------------------------------------
// Lock identity
// ---------------------------------------------------------------------

/// The lock taken by the first argless `.lock()`/`.read()`/`.write()` in
/// a helper's body, qualified with the helper's file.
fn first_direct_lock(file: &SourceFile, body: (usize, usize)) -> Option<String> {
    let code = &file.code;
    (body.0 + 1..body.1).find_map(|i| {
        let t = &code[i];
        let acquires = matches!(t.text.as_str(), "lock" | "read" | "write")
            && t.kind == TokenKind::Ident
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.is_punct(')'));
        acquires.then(|| format!("{}::{}", file.rel, receiver_base(code, i - 1)))
    })
}

/// The last path segment of the receiver ending at the `.` at `dot`:
/// `self.inner.state.lock()` → `state`; `self.shard_of(&k).lock()` →
/// `shard_of`.
fn receiver_base(code: &[Token], dot: usize) -> String {
    if dot == 0 {
        return "<unknown>".to_string();
    }
    let prev = &code[dot - 1];
    if prev.kind == TokenKind::Ident {
        return prev.text.clone();
    }
    if prev.is_punct(')') {
        let m = call_open(code, dot - 1);
        if m > 0 && code[m - 1].kind == TokenKind::Ident {
            return code[m - 1].text.clone();
        }
    }
    format!("<expr at line {}>", code[dot].line)
}

/// Index of the first token of the receiver chain ending at the `.` at
/// `dot` (where a `let` binding of the acquisition would sit before).
fn receiver_start(code: &[Token], dot: usize) -> usize {
    let mut r = dot;
    while r > 0 {
        let prev = &code[r - 1];
        if prev.is_punct(')') {
            r = call_open(code, r - 1);
        } else if prev.kind == TokenKind::Ident || prev.is_punct('.') {
            r -= 1;
        } else if prev.is_punct(':') && r >= 2 && code[r - 2].is_punct(':') {
            r -= 2;
        } else {
            break;
        }
    }
    r
}

/// Index of the `(` matching the `)` at `close`, walking backwards (0
/// when unmatched).
fn call_open(code: &[Token], close: usize) -> usize {
    let mut depth = 1i32;
    let mut m = close;
    while m > 0 {
        m -= 1;
        if code[m].is_punct(')') {
            depth += 1;
        } else if code[m].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
    }
    m
}
