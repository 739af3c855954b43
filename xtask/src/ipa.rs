//! The three interprocedural lints, built on [`crate::resolver`].
//!
//! - **panic-reachability** — a `lint:scope(panic-reachability)` file
//!   may not hold an `unwrap`/`expect`/`panic!`-family/slice-index site
//!   anywhere, and no path from one of its functions may reach such a
//!   site in *any* crate (reported with the full call chain).
//!   Unresolvable dynamic calls (through callable params) are
//!   conservatively panic-capable.
//! - **lock-discipline** — in `src/serve.rs` and `src/lsm.rs`: no second
//!   lock acquisition and no raw VFS I/O reachable inside a lock critical
//!   section; no staging-class
//!   maintenance (`prepare`/`prepare_*`, `stage`) reachable from a
//!   `Writer::apply` publication closure; every `publish_*` in the LSM
//!   carries the ops-counter fence (or delegates only to fenced
//!   publishers); a write-lock critical section in the serving layer must
//!   publish the epoch before it ends.
//! - **accounting-dataflow** — every raw `VfsFile` I/O call site must
//!   reach an `IoStats` update in the same function or transitively in a
//!   caller (any-path, best-effort — see ANALYSIS.md for the conservatism
//!   policy).
//!
//! Violations are filtered through the same allowlist/marker machinery as
//! the token lints, in [`crate::analyze_repo`].

use std::collections::{HashSet, VecDeque};

use crate::lexer::Tok;
use crate::lints::Violation;
use crate::resolver::{FnId, Workspace};

/// Files subject to the lock-discipline pass — the serving layer and the
/// LSM publication path.
pub const LOCK_DISCIPLINE_TARGETS: [&str; 2] = ["src/serve.rs", "src/lsm.rs"];

/// Staging-class maintenance functions — the expensive half of the
/// prepare/publish split: the LSM's `prepare` and the one stage under it
/// (`IndexedTable::stage`, which is also the monolith's rebuild). Reaching
/// one from a publication critical section reintroduces the
/// hold-the-lock-during-merge stall the split removed.
fn is_staging(name: &str) -> bool {
    name == "prepare" || name.starts_with("prepare_") || name == "stage"
}

fn violation(file: &str, line: u32, lint: &'static str, message: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        lint,
        message,
    }
}

/// Drop `debug_assert*!(...)` invocations from a body slice: the macro
/// (and any slice-indexing inside its arguments) is erased in release
/// builds, so it cannot panic on a production decode path.
fn strip_debug_asserts(body: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        if body[i].s.starts_with("debug_assert")
            && body.get(i + 1).is_some_and(|t| t.s == "!")
            && body.get(i + 2).is_some_and(|t| t.s == "(")
        {
            let mut d = 0i64;
            let mut j = i + 2;
            while j < body.len() {
                match body[j].s.as_str() {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        out.push(body[i].clone());
        i += 1;
    }
    out
}

/// Keywords that can legitimately precede a `[` that is *not* an index
/// expression (`for [a, b] in …`, `impl Trait for [T]`, `return [x]`, …).
const NON_INDEX_KEYWORDS: [&str; 16] = [
    "for", "in", "as", "return", "break", "if", "else", "match", "move", "mut", "ref", "where",
    "impl", "dyn", "let", "box",
];

/// Panic-capable tokens in a token slice — `.unwrap()`, `.expect(`,
/// `panic!`, `unreachable!`, `todo!`, `unimplemented!`, and slice-index
/// expressions (`buf[i]`, `buf[a..b]`) — minus release-erased
/// `debug_assert*!` arguments. Lookalikes (`unwrap_or`, `vec![…]`,
/// `#[attr]`, array types) are not sites. Returns `(line, description)`
/// pairs.
fn panic_sites(toks: &[Tok]) -> Vec<(u32, String)> {
    let toks = strip_debug_asserts(toks);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let nx = |k: usize| toks.get(i + k).map(|t| t.s.as_str());
        let prev = i
            .checked_sub(1)
            .and_then(|p| toks.get(p))
            .map(|t| t.s.as_str());
        match t.s.as_str() {
            "unwrap" | "expect" if prev == Some(".") && nx(1) == Some("(") => {
                out.push((t.line, format!("`.{}()`", t.s)));
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if nx(1) == Some("!") => {
                out.push((t.line, format!("`{}!`", t.s)));
            }
            "[" => {
                let Some(p) = prev else { continue };
                let is_index_base = p == ")"
                    || p == "]"
                    || (p
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                        && !NON_INDEX_KEYWORDS.contains(&p));
                if is_index_base {
                    out.push((t.line, format!("slice-index `{p}[…]` (use `.get(…)`)")));
                }
            }
            _ => {}
        }
    }
    out
}

/// Raw `VfsFile` I/O call tokens inside one body slice.
fn raw_io_sites(body: &[Tok]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        let prev = i
            .checked_sub(1)
            .and_then(|p| body.get(p))
            .map(|t| t.s.as_str());
        let nx = body.get(i + 1).map(|t| t.s.as_str());
        match t.s.as_str() {
            "read_at" | "write_at" if prev == Some(".") && nx == Some("(") => {
                out.push((t.line, t.s.clone()));
            }
            "read_full_at" | "write_full_at" | "read_to_vec" | "write_vec"
                if prev != Some("fn") && nx == Some("(") =>
            {
                out.push((t.line, t.s.clone()));
            }
            _ => {}
        }
    }
    out
}

/// Zero-argument `.lock()` / `.read()` / `.write()` acquisitions inside a
/// token slice. Returns the token index of the method name.
fn lock_acquisitions(body: &[Tok]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        if matches!(body[i].s.as_str(), "lock" | "read" | "write")
            && i >= 1
            && body[i - 1].s == "."
            && body.get(i + 1).is_some_and(|t| t.s == "(")
            && body.get(i + 2).is_some_and(|t| t.s == ")")
        {
            out.push(i);
        }
    }
    out
}

fn body_slice(ws: &Workspace, id: FnId) -> &[Tok] {
    let f = &ws.fns[id];
    let toks = &ws.files[f.file].toks;
    let (a, b) = f.body;
    &toks[a.min(toks.len())..b.min(toks.len())]
}

/// `panic-reachability`: report each panic-capable token in a file whose
/// path is in `scoped_paths` — function bodies and module-level items
/// alike — then BFS from every function defined there and report each
/// panic-capable token in a reached *unscoped* function, and each
/// unresolvable dynamic call anywhere in the closure.
pub fn panic_reachability(ws: &Workspace, scoped_paths: &HashSet<String>) -> Vec<Violation> {
    const LINT: &str = "panic-reachability";
    let scoped: Vec<bool> = ws
        .files
        .iter()
        .map(|f| scoped_paths.contains(&f.path))
        .collect();
    let mut out = Vec::new();
    for file in ws.files.iter().filter(|f| scoped_paths.contains(&f.path)) {
        for (line, desc) in panic_sites(&file.toks) {
            out.push(violation(
                &file.path,
                line,
                LINT,
                format!("{desc} in a `lint:scope(panic-reachability)` module"),
            ));
        }
    }

    let entries: Vec<FnId> = (0..ws.fns.len())
        .filter(|&id| scoped[ws.fns[id].file])
        .collect();
    let preds = ws.forward_reach(&entries);
    let mut reached: Vec<FnId> = preds.keys().copied().collect();
    reached.sort();
    for id in reached {
        let f = &ws.fns[id];
        let path = ws.files[f.file].path.clone();
        let chain = ws.chain(&preds, id);
        if !scoped[f.file] {
            for (line, desc) in panic_sites(body_slice(ws, id)) {
                out.push(violation(
                    &path,
                    line,
                    LINT,
                    format!(
                        "{desc} in `{}` is reachable from a panic-reachability scope: {chain}",
                        ws.fn_display(id)
                    ),
                ));
            }
        }
        for site in &ws.calls[id] {
            if site.dynamic {
                out.push(violation(
                    &path,
                    site.line,
                    LINT,
                    format!(
                        "unresolvable dynamic call `{}` in `{}` — conservatively \
                         panic-capable (chain: {chain})",
                        site.display,
                        ws.fn_display(id)
                    ),
                ));
            }
        }
    }
    out
}

/// `lock-discipline`: see the module docs for the four sub-rules.
pub fn lock_discipline(ws: &Workspace) -> Vec<Violation> {
    const LINT: &str = "lock-discipline";
    let n = ws.fns.len();
    let acquires: Vec<bool> = (0..n)
        .map(|id| !lock_acquisitions(body_slice(ws, id)).is_empty())
        .collect();
    let does_io: Vec<bool> = (0..n)
        .map(|id| !raw_io_sites(body_slice(ws, id)).is_empty())
        .collect();

    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !LOCK_DISCIPLINE_TARGETS.contains(&file.path.as_str()) {
            continue;
        }
        let path = file.path.as_str();
        for id in 0..n {
            if ws.fns[id].file != fi {
                continue;
            }
            let body = body_slice(ws, id);
            let b0 = ws.fns[id].body.0;
            let fname = ws.fns[id].name.clone();

            // (1)+(2)+(4): lock critical sections.
            let acqs = lock_acquisitions(body);
            for &acq in &acqs {
                let end = region_end(body, acq);
                let is_write = body[acq].s == "write";
                let mut second_lock_direct = false;
                let mut epoch_published = false;
                for &other in &acqs {
                    if other > acq && other < end {
                        second_lock_direct = true;
                        out.push(violation(
                            path,
                            body[other].line,
                            LINT,
                            format!(
                                "second lock acquisition `.{}()` in `{fname}` while a lock \
                                 guard from line {} is live",
                                body[other].s, body[acq].line
                            ),
                        ));
                    }
                }
                for k in acq + 3..end {
                    if body[k].s == "epoch"
                        && body.get(k + 1).is_some_and(|t| t.s == ".")
                        && body
                            .get(k + 2)
                            .is_some_and(|t| t.s == "fetch_add" || t.s == "store")
                    {
                        epoch_published = true;
                    }
                }
                let io_direct = raw_io_sites(&body[acq..end]).into_iter().next();
                if let Some((line, ref call)) = io_direct {
                    out.push(violation(
                        path,
                        line,
                        LINT,
                        format!(
                            "raw `{call}` in `{fname}` while a lock guard from line {} is live",
                            body[acq].line
                        ),
                    ));
                }
                // Transitive: anything the region calls that locks or
                // does raw I/O.
                let region_callees: Vec<FnId> = ws.calls[id]
                    .iter()
                    .filter(|s| s.tok >= b0 + acq && s.tok < b0 + end)
                    .flat_map(|s| s.callees.iter().copied())
                    .collect();
                if !second_lock_direct {
                    if let Some((hit, chain)) = ws.find_reachable(&region_callees, |c| acquires[c])
                    {
                        out.push(violation(
                            path,
                            body[acq].line,
                            LINT,
                            format!(
                                "`{}` acquires a lock and is reachable from `{fname}`'s \
                                 critical section (line {}): {chain}",
                                ws.fn_display(hit),
                                body[acq].line
                            ),
                        ));
                    }
                }
                if io_direct.is_none() {
                    if let Some((hit, chain)) = ws.find_reachable(&region_callees, |c| does_io[c]) {
                        out.push(violation(
                            path,
                            body[acq].line,
                            LINT,
                            format!(
                                "`{}` does raw VFS I/O and is reachable from `{fname}`'s \
                                 critical section (line {}): {chain}",
                                ws.fn_display(hit),
                                body[acq].line
                            ),
                        ));
                    }
                }
                if path == "src/serve.rs" && is_write && !epoch_published {
                    out.push(violation(
                        path,
                        body[acq].line,
                        LINT,
                        format!(
                            "write-lock critical section in `{fname}` ends without \
                             publishing the epoch (`epoch.fetch_add`/`.store` must precede \
                             the guard drop)"
                        ),
                    ));
                }
            }

            // (3): publication closures — no staging-class maintenance
            // reachable from inside an `apply(...)` argument.
            for k in 0..body.len() {
                if body[k].s != "apply" || body.get(k + 1).map(|t| t.s.as_str()) != Some("(") {
                    continue;
                }
                let close = {
                    let mut d = 0i64;
                    let mut e = k + 1;
                    while e < body.len() {
                        match body[e].s.as_str() {
                            "(" => d += 1,
                            ")" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        e += 1;
                    }
                    e
                };
                let callees: Vec<FnId> = ws.calls[id]
                    .iter()
                    .filter(|s| s.tok > b0 + k && s.tok < b0 + close)
                    .flat_map(|s| s.callees.iter().copied())
                    .collect();
                if let Some((hit, chain)) =
                    ws.find_reachable(&callees, |c| is_staging(&ws.fns[c].name))
                {
                    out.push(violation(
                        path,
                        body[k].line,
                        LINT,
                        format!(
                            "staging-class `{}` is reachable from the publication closure \
                             in `{fname}` — stage outside the writer lock, publish the \
                             finished plan: {chain}",
                            ws.fn_display(hit)
                        ),
                    ));
                }
            }

            // (5): ops-counter fence in every LSM publisher.
            if path == "src/lsm.rs" && fname.starts_with("publish_") {
                // `ops !=` or `ops ==` — the plan-vs-live comparison.
                let fenced = body
                    .windows(3)
                    .any(|w| w[0].s == "ops" && w[2].s == "=" && (w[1].s == "!" || w[1].s == "="));
                let delegates = !ws.calls[id].is_empty()
                    && ws.calls[id].iter().all(|s| {
                        s.callees
                            .iter()
                            .all(|&c| ws.fns[c].name.starts_with("publish_"))
                    });
                if !fenced && !delegates {
                    out.push(violation(
                        path,
                        ws.fns[id].line,
                        LINT,
                        format!(
                            "publisher `{fname}` has no ops-counter fence (compare the \
                             plan's `ops` against the live counter) and does not delegate \
                             to a fenced publisher"
                        ),
                    ));
                }
            }
        }
    }
    dedup(out)
}

/// End of the lexical region opened by the acquisition at `acq`: the `}`
/// that closes the enclosing block, or an explicit `drop(<guard>)` of the
/// binding the acquisition was assigned to.
fn region_end(body: &[Tok], acq: usize) -> usize {
    // Guard name: walk back to the statement start looking for
    // `let [mut] <name> =`.
    let mut guard: Option<&str> = None;
    let mut s = acq;
    while s > 0 {
        match body[s - 1].s.as_str() {
            ";" | "{" | "}" => break,
            _ => s -= 1,
        }
    }
    if body.get(s).is_some_and(|t| t.s == "let") {
        let mut m = s + 1;
        while body.get(m).is_some_and(|t| t.s == "mut" || t.s == "ref") {
            m += 1;
        }
        if body.get(m).is_some_and(|t| {
            t.s.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
        }) && body.get(m + 1).is_some_and(|t| t.s == "=")
        {
            guard = Some(body[m].s.as_str());
        }
    }
    let mut d = 0i64;
    let mut k = acq;
    while k < body.len() {
        match body[k].s.as_str() {
            "{" => d += 1,
            "}" => {
                d -= 1;
                if d < 0 {
                    return k;
                }
            }
            "drop"
                if d == 0
                    && body.get(k + 1).is_some_and(|t| t.s == "(")
                    && guard.is_some()
                    && body.get(k + 2).map(|t| t.s.as_str()) == guard =>
            {
                return k;
            }
            _ => {}
        }
        k += 1;
    }
    body.len()
}

/// `accounting-dataflow`: a function with raw I/O call sites must mention
/// `IoStats` (or call a `record_*` method, or take an `IoStats` param)
/// itself, or have at least one transitive caller that does.
pub fn accounting_dataflow(ws: &Workspace, in_scope: &dyn Fn(&str) -> bool) -> Vec<Violation> {
    const LINT: &str = "accounting-dataflow";
    let n = ws.fns.len();
    let accounted: Vec<bool> = (0..n)
        .map(|id| {
            let body = body_slice(ws, id);
            let in_body = body.iter().enumerate().any(|(i, t)| {
                t.s == "IoStats"
                    || (t.s.starts_with("record_")
                        && i >= 1
                        && body[i - 1].s == "."
                        && body.get(i + 1).is_some_and(|t| t.s == "("))
            });
            in_body
                || ws.fns[id]
                    .params
                    .iter()
                    .any(|(_, t)| t.as_deref() == Some("IoStats"))
        })
        .collect();
    let callers = ws.callers();

    let mut out = Vec::new();
    for id in 0..n {
        let path = &ws.files[ws.fns[id].file].path;
        if !in_scope(path) {
            continue;
        }
        let sites = raw_io_sites(body_slice(ws, id));
        if sites.is_empty() || accounted[id] {
            continue;
        }
        // Reverse BFS: does any transitive caller account?
        let mut seen: HashSet<FnId> = HashSet::from([id]);
        let mut q: VecDeque<FnId> = VecDeque::from([id]);
        let mut reached_accounting = false;
        let mut visited_callers = 0usize;
        while let Some(f) = q.pop_front() {
            for &c in callers.get(&f).map(Vec::as_slice).unwrap_or(&[]) {
                if seen.insert(c) {
                    visited_callers += 1;
                    if accounted[c] {
                        reached_accounting = true;
                        q.clear();
                        break;
                    }
                    q.push_back(c);
                }
            }
        }
        if !reached_accounting {
            let direct: Vec<String> = callers
                .get(&id)
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .take(3)
                .map(|&c| ws.fn_display(c))
                .collect();
            for (line, call) in sites {
                out.push(violation(
                    path,
                    line,
                    LINT,
                    format!(
                        "raw `{call}` in `{}` never reaches an `IoStats` update — not in \
                         this function nor in any of {visited_callers} transitive caller(s){}",
                        ws.fn_display(id),
                        if direct.is_empty() {
                            String::from(" (no workspace caller found)")
                        } else {
                            format!(" (direct callers: {})", direct.join(", "))
                        }
                    ),
                ));
            }
        }
    }
    out
}

/// Sort + dedup violations (several lock-discipline sub-rules can hit the
/// same line with the same message when regions nest).
fn dedup(mut v: Vec<Violation>) -> Vec<Violation> {
    v.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    v.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    v
}
