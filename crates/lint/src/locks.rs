//! Interprocedural lock-order and held-lock-blocking analysis.
//!
//! A whole-workspace pass over the model of [`crate::workspace`]: it
//! walks the guard scopes of every function body, propagates each
//! function's acquisitions across the resolved calls, and builds one
//! lock-order graph for the whole workspace.
//!
//! Two rules come out of it:
//!
//! - **`lock-order`** — a cycle in the graph means two code paths
//!   acquire the same pair of locks in opposite orders (directly or
//!   through calls), so some thread interleaving deadlocks. Every cycle
//!   is reported once, with the witness site of each participating edge.
//! - **`held-lock-blocking`** — a blocking operation (socket
//!   `read`/`write`/`accept`, `JoinHandle::join`, `Condvar::wait`,
//!   `sleep`, channel `recv`) performed while a guard is live stalls
//!   every contender on that lock. Sites that are safe by design (a
//!   condvar wait releases its own mutex atomically) carry the usual
//!   mandatory-reason `// crp-lint: allow(held-lock-blocking, <why>)`.
//!
//! # How the model works, and what it cannot see
//!
//! A *lock* is identified by `"<file>::<base>"`, where `<base>` is the
//! last path segment of the receiver of an argless `.lock()` / `.read()`
//! / `.write()` call (`self.inner.state.lock()` → `state`; for a
//! computed receiver like `self.shard_of(&key).lock()` the method name
//! `shard_of` is used). Locks accessed from other files go through
//! guard-returning helper functions (`lock_state`, `lock_inbox`, ...),
//! which the model discovers by their `MutexGuard`/`RwLock*Guard` return
//! types and maps to the lock their body takes — so the identity stays
//! anchored to the defining file.
//!
//! A guard bound by `let` lives to the end of its block (or an explicit
//! `drop(guard)`); an unbound acquisition (`lock_inbox(x).push(..)`)
//! lives to the end of its statement. A binding whose initializer chains
//! past `unwrap`/`expect`/`unwrap_or_else` (e.g. `..lock()..clone()`)
//! binds a *derived value*, not the guard, and is treated as
//! statement-scoped.
//!
//! Calls follow the model's resolution. Closure bodies are analyzed as
//! part of their enclosing function, except arguments to `spawn(..)`,
//! which run on a *different* thread and are analyzed as independent
//! roots with an empty held-set. Their sites still belong to the
//! enclosing function, so, like a self-call, a call from such a closure
//! back to that function is not followed. The arguments of a
//! guard-returning helper call are not walked.

use crate::lexer::{Token, TokenKind};
use crate::rules::{item_end_from, matching, Diagnostic, Rule};
use crate::workspace::{Function, SiteKind, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Adapter methods that may sit between `.lock()` and the guard binding
/// without changing what the binding holds.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "unwrap_or"];

/// One acquisition while other guards were (possibly) held.
struct AcqEvent {
    lock: String,
    line: u32,
    held: Vec<HeldLock>,
}

/// A lock live at some program point, with its acquisition line.
struct HeldLock {
    lock: String,
    line: u32,
}

/// A blocking operation and the guards live across it.
struct BlockEvent {
    op: String,
    line: u32,
    held: Vec<HeldLock>,
}

/// What the guard-scope walk sees in one root.
#[derive(Default)]
struct Scopes {
    acquires: Vec<AcqEvent>,
    blocks: Vec<BlockEvent>,
    /// Call sites, as indices into the function's sites, with the guards
    /// live at each.
    calls: Vec<(usize, Vec<HeldLock>)>,
}

/// One walked root: a function body, or a `spawn(..)` closure in one.
struct Root {
    /// The function whose body holds the root.
    func: usize,
    /// The function's name; for a closure,
    /// `<fn>::<spawn closure at line N>`.
    name: String,
    scopes: Scopes,
}

/// A guard live during the body walk.
struct Guard {
    lock: String,
    binding: Option<String>,
    /// Statement-scoped (unbound or derived-value binding).
    temp: bool,
    /// Brace depth the guard was created at; it dies below that depth.
    depth: i32,
    line: u32,
}

/// Runs the lock-order and held-lock-blocking rules over `ws`.
pub(crate) fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // Every function, then the spawn closures inside it: spawned code
    // runs on its own thread, so it is a root that no call reaches.
    let mut roots: Vec<Root> = Vec::new();
    let mut own = Vec::with_capacity(ws.fns.len());
    for (fi, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        let mut spawns = Vec::new();
        own.push(roots.len());
        roots.push(Root {
            func: fi,
            name: f.name.clone(),
            scopes: walk(file, f, f.body, &mut spawns),
        });
        while let Some((range, line)) = spawns.pop() {
            roots.push(Root {
                func: fi,
                name: format!("{}::<spawn closure at line {line}>", f.name),
                scopes: walk(file, f, range, &mut spawns),
            });
        }
    }

    // The locks each function may acquire, and why it may block,
    // through every call it makes.
    let mut acq: Vec<BTreeSet<String>> = own
        .iter()
        .map(|&r| {
            roots[r]
                .scopes
                .acquires
                .iter()
                .map(|a| a.lock.clone())
                .collect()
        })
        .collect();
    let mut blk: Vec<Option<String>> = ws
        .fns
        .iter()
        .zip(&own)
        .map(|(f, &r)| {
            let file = &ws.files[f.file].rel;
            roots[r]
                .scopes
                .blocks
                .first()
                .map(|b| format!("{} at {file}:{}", b.op, b.line))
        })
        .collect();
    ws.fixpoint(|i, s, t| {
        // Only the calls the guard walk saw: not an acquisition, a
        // blocking operation, spawned code, or a lock helper's arguments.
        let calls = &roots[own[i]].scopes.calls;
        if calls.binary_search_by_key(&s, |c| c.0).is_err() {
            return false;
        }
        let add: Vec<String> = acq[t].difference(&acq[i]).cloned().collect();
        let mut changed = !add.is_empty();
        acq[i].extend(add);
        if blk[i].is_none() {
            if let Some(why) = &blk[t] {
                let callee = &ws.fns[i].sites[s].callee;
                blk[i] = Some(format!("call to `{callee}` may block ({why})"));
                changed = true;
            }
        }
        changed
    });

    // Build the lock-order graph and the blocking findings.
    let mut edges: BTreeMap<LockEdge, EdgeWitness> = BTreeMap::new();
    let mut add_edge = |from: &HeldLock, to: &str, file: usize, line: u32, note: String| {
        edges
            .entry((from.lock.clone(), to.to_string()))
            .or_insert_with(|| (file, line, note));
    };
    for root in &roots {
        let f = &ws.fns[root.func];
        let file = &ws.files[f.file];
        for a in &root.scopes.acquires {
            for h in &a.held {
                let note = format!(
                    "`{}` acquires `{}` while holding `{}` (held since line {})",
                    root.name, a.lock, h.lock, h.line
                );
                add_edge(h, &a.lock, f.file, a.line, note);
            }
        }
        for (s, held) in &root.scopes.calls {
            if held.is_empty() {
                continue;
            }
            let site = &f.sites[*s];
            let line = file.code[site.tok].line;
            for &t in &site.targets {
                for lock in &acq[t] {
                    for h in held {
                        let note = format!(
                            "`{}` calls `{}`, which acquires `{}`, while holding `{}` \
                             (held since line {})",
                            root.name, site.callee, lock, h.lock, h.line
                        );
                        add_edge(h, lock, f.file, line, note);
                    }
                }
                if let Some(why) = &blk[t] {
                    file.emit(
                        out,
                        Rule::HeldLockBlocking,
                        line,
                        format!(
                            "call to `{}` may block ({why}) while holding `{}`; \
                             blocking inside a critical section stalls every contender \
                             — move it outside the guard or annotate why it is safe",
                            site.callee,
                            held_list(held),
                        ),
                    );
                }
            }
        }
        for b in &root.scopes.blocks {
            if b.held.is_empty() {
                continue;
            }
            file.emit(
                out,
                Rule::HeldLockBlocking,
                b.line,
                format!(
                    "{} while holding `{}`; blocking inside a critical section stalls \
                     every contender — move it outside the guard or annotate why it \
                     is safe",
                    b.op,
                    held_list(&b.held),
                ),
            );
        }
    }

    report_cycles(ws, &edges, out);
}

fn held_list(held: &[HeldLock]) -> String {
    held.iter()
        .map(|h| h.lock.as_str())
        .collect::<Vec<_>>()
        .join("`, `")
}

fn held_now(guards: &[Guard]) -> Vec<HeldLock> {
    guards
        .iter()
        .map(|g| HeldLock {
            lock: g.lock.clone(),
            line: g.line,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Guard-scope walk
// ---------------------------------------------------------------------

/// Walks the guard scopes of the tokens strictly inside `range`, a body
/// or a `spawn(..)` argument list of `f`, reading `f`'s sites on the
/// way. The argument lists of nested `spawn(..)` calls are pushed onto
/// `spawns` with their line, to be walked as roots of their own.
fn walk(
    file: &SourceFile,
    f: &Function,
    range: (usize, usize),
    spawns: &mut Vec<((usize, usize), u32)>,
) -> Scopes {
    let code = &file.code;
    let (open, close) = range;
    let mut out = Scopes::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut next = f.sites.partition_point(|s| s.tok <= open);

    let mut i = open + 1;
    while i < close {
        let t = &code[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'{') => depth += 1,
                Some(b'}') => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                Some(b';') => guards.retain(|g| !(g.temp && depth <= g.depth)),
                _ => {}
            }
            i += 1;
            continue;
        }

        // drop(guard) ends that guard's region early.
        if t.is_ident("drop")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            let name = code[i + 2].text.as_str();
            guards.retain(|g| g.binding.as_deref() != Some(name));
            i += 4;
            continue;
        }

        // A nested `fn` item is its own root; skip it here.
        if t.is_ident("fn") && code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            i = item_end_from(code, i);
            continue;
        }

        while f.sites.get(next).is_some_and(|s| s.tok < i) {
            next += 1;
        }
        let Some(site) = f.sites.get(next).filter(|s| s.tok == i) else {
            i += 1;
            continue;
        };
        match &site.kind {
            // spawn(..) arguments run on another thread.
            SiteKind::Parallel { close } if site.callee == "spawn" => {
                spawns.push(((i + 1, *close), t.line));
                i = close + 1;
                continue;
            }
            SiteKind::Acquire { lock, start, end } => {
                record_acquisition(
                    &mut out,
                    &mut guards,
                    code,
                    lock.clone(),
                    *start,
                    *end,
                    depth,
                );
                i = end + 1;
                continue;
            }
            SiteKind::Block(op) => out.blocks.push(BlockEvent {
                op: op.clone(),
                line: t.line,
                held: held_now(&guards),
            }),
            // `run_indexed(..)` joins its workers before it returns.
            SiteKind::Call | SiteKind::Parallel { .. } => {
                out.calls.push((next, held_now(&guards)));
            }
        }
        i += 1;
    }
    out
}

/// Records an acquisition event and pushes the new guard, classifying
/// it as block-scoped (a plain `let` binding) or statement-scoped.
fn record_acquisition(
    out: &mut Scopes,
    guards: &mut Vec<Guard>,
    code: &[Token],
    lock: String,
    expr_start: usize,
    call_close: usize,
    depth: i32,
) {
    let line = code[expr_start].line;
    out.acquires.push(AcqEvent {
        lock: lock.clone(),
        line,
        held: held_now(guards),
    });

    // `let [mut] name = <acquisition>` (or a plain reassignment).
    let binding = if expr_start >= 2
        && code[expr_start - 1].is_punct('=')
        && !code
            .get(expr_start.wrapping_sub(2))
            .is_some_and(|t| t.is_punct('=') || t.is_punct('<') || t.is_punct('>'))
        && code[expr_start - 2].kind == TokenKind::Ident
        && !code[expr_start - 2].is_ident("mut")
    {
        Some(code[expr_start - 2].text.clone())
    } else {
        None
    };

    // If the initializer chains past the guard adapters (e.g. a trailing
    // `.clone()`), the binding holds a derived value, not the guard.
    let mut derived = false;
    let mut j = call_close + 1;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct('?') {
            j += 1;
            continue;
        }
        if t.is_punct('.') && code.get(j + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            if code.get(j + 2).is_some_and(|n| n.is_punct('('))
                && GUARD_ADAPTERS.contains(&code[j + 1].text.as_str())
            {
                j = matching(code, j + 2, '(', ')').map_or(code.len(), |c| c + 1);
                continue;
            }
            derived = true;
        }
        break;
    }

    let temp = binding.is_none() || derived;
    guards.push(Guard {
        lock,
        binding: if derived { None } else { binding },
        temp,
        depth,
        line,
    });
}

// ---------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------

/// A directed `(from_lock, to_lock)` edge in the lock-order graph:
/// some function acquired `to_lock` while `from_lock` was held.
type LockEdge = (String, String);

/// The first site that witnessed an edge: `(file index, line, note)`.
type EdgeWitness = (usize, u32, String);

/// Reports every strongly-connected component of the lock graph (and
/// every self-loop) as one `lock-order` diagnostic carrying the witness
/// site of each participating edge.
fn report_cycles(
    ws: &Workspace,
    edges: &BTreeMap<LockEdge, EdgeWitness>,
    out: &mut Vec<Diagnostic>,
) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().insert(to);
        adj.entry(to).or_default();
    }
    for component in sccs(&adj) {
        let in_scc: BTreeSet<&str> = component.iter().copied().collect();
        let is_cycle = component.len() > 1
            || component
                .first()
                .is_some_and(|n| edges.contains_key(&((*n).to_string(), (*n).to_string())));
        if !is_cycle {
            continue;
        }
        let witnesses: Vec<(&LockEdge, &EdgeWitness)> = edges
            .iter()
            .filter(|((f, t), _)| in_scc.contains(f.as_str()) && in_scc.contains(t.as_str()))
            .collect();
        let Some(&(_, &(file, line, _))) = witnesses.first() else {
            continue;
        };
        let paths = witnesses
            .iter()
            .map(|((f, t), (wf, wl, note))| {
                let wf = &ws.files[*wf].rel;
                format!("`{f}` -> `{t}` at {wf}:{wl} ({note})")
            })
            .collect::<Vec<_>>()
            .join("; ");
        let message = if component.len() == 1 {
            format!("potential self-deadlock: {paths}")
        } else {
            format!(
                "potential deadlock: locks {} form an acquisition cycle: {paths}",
                component
                    .iter()
                    .map(|n| format!("`{n}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        ws.files[file].emit(out, Rule::LockOrder, line, message);
    }
}

/// Tarjan's strongly-connected components, iterative, deterministic
/// (nodes visited in sorted order).
fn sccs<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Iterative Tarjan: each frame is (node, iterator position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = work.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let succs: Vec<usize> = adj[nodes[v]]
                .iter()
                .filter_map(|s| index_of.get(s).copied())
                .collect();
            if *pos < succs.len() {
                let w = succs[*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&mut (parent, _)) = work.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }
    }
    components.sort();
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        let mut out = Vec::new();
        check(&Workspace::build(&sources), &mut out);
        out
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        analyze(&[("t.rs", src)])
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let src = "
            fn fwd(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); }
            fn bwd(s: &S) { let gb = s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::LockOrder);
        assert!(d[0].message.contains("t.rs::a"), "{}", d[0].message);
        assert!(d[0].message.contains("t.rs::b"), "{}", d[0].message);
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            fn one(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); }
            fn two(s: &S) { let ga = s.a.lock().unwrap(); let gb = s.b.lock().unwrap(); }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn interprocedural_cycle_via_call() {
        let src = "
            fn take_b(s: &S) -> u32 { let gb = s.b.lock().unwrap(); 0 }
            fn fwd(s: &S) { let ga = s.a.lock().unwrap(); take_b(s); }
            fn bwd(s: &S) { let gb = s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("take_b"), "{}", d[0].message);
    }

    #[test]
    fn closure_arguments_do_not_hide_calls() {
        // The comma in `|x, y|` separates closure parameters, not call
        // arguments: `with_b(s, |x, y| ..)` has two arguments, resolves,
        // and carries `b` into `fwd`'s held-`a` region.
        let src = "
            fn with_b(s: &S, f: impl Fn(u32, u32) -> u32) { let gb = s.b.lock().unwrap(); }
            fn fwd(s: &S) { let ga = s.a.lock().unwrap(); with_b(s, |x, y| x + y); }
            fn bwd(s: &S) { let gb = s.b.lock().unwrap(); let ga = s.a.lock().unwrap(); }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::LockOrder);
        assert!(d[0].message.contains("calls `with_b`"), "{}", d[0].message);
    }

    #[test]
    fn reacquire_is_a_self_deadlock() {
        let src = "fn f(s: &S) { let g1 = s.a.lock().unwrap(); let g2 = s.a.lock().unwrap(); }";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("self-deadlock"), "{}", d[0].message);
    }

    #[test]
    fn blocking_under_guard_is_flagged_and_scoped() {
        let src = "
            fn f(s: &S, stream: &mut TcpStream) {
                let g = s.a.lock().unwrap();
                stream.read(&mut buf).ok();
                drop(g);
                stream.read(&mut buf).ok();
            }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::HeldLockBlocking);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn string_join_and_argless_rwlock_read_are_not_blocking() {
        let src = "
            fn f(s: &S, parts: &[String]) -> String {
                let g = s.a.lock().unwrap();
                let r = s.map.read().unwrap();
                parts.join(\",\")
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn suppression_with_reason_is_honored() {
        let src = "
            fn f(s: &S, h: JoinHandle<()>) {
                let g = s.a.lock().unwrap();
                // crp-lint: allow(held-lock-blocking, the join target never takes s.a)
                h.join().ok();
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn spawn_closures_do_not_leak_locks_to_the_caller() {
        let src = "
            fn f(s: &Arc<S>) {
                let ga = s.a.lock().unwrap();
                let s2 = s.clone();
                std::thread::spawn(move || { let gb = s2.b.lock().unwrap(); });
            }
            fn g(s: &S) { let gb = s.b.lock().unwrap(); helper_a(s); }
            fn helper_a(s: &S) { let ga = s.a.lock().unwrap(); }
        ";
        // f holds a and *spawns* a closure taking b: no a->b edge, so
        // g's b->a ordering is not a cycle.
        assert!(run(src).is_empty());
    }

    #[test]
    fn helper_returning_guard_carries_its_lock_identity() {
        let files = [
            (
                "h.rs",
                "pub fn lock_state(m: &Mutex<u32>) -> MutexGuard<'_, u32> {
                    m.state.lock().unwrap()
                }",
            ),
            (
                "u.rs",
                "fn f(s: &S) { let g = lock_state(&s.m); let gb = s.b.lock().unwrap(); }
                 fn r(s: &S) { let gb = s.b.lock().unwrap(); let g = lock_state(&s.m); }",
            ),
        ];
        let d = analyze(&files);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("h.rs::state"), "{}", d[0].message);
    }

    #[test]
    fn statement_temporary_guard_ends_at_semicolon() {
        let src = "
            fn f(s: &S, stream: &mut TcpStream) {
                s.a.lock().unwrap().push(1);
                stream.read(&mut buf).ok();
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn derived_binding_is_not_a_guard() {
        let src = "
            fn f(s: &S, stream: &mut TcpStream) {
                let v = s.a.lock().unwrap().clone();
                stream.read(&mut buf).ok();
            }
        ";
        assert!(run(src).is_empty());
    }
}
