//! Whole-workspace resolver and best-effort call graph.
//!
//! Indexes every `fn`, `impl`, `trait`, `struct`, `use` alias and `type`
//! alias across the workspace from the token streams produced by
//! [`crate::lexer`] — still no `syn`, no nightly, no network — and
//! extracts call edges for the interprocedural lints
//! (`panic-reachability`, `lock-discipline`, `accounting-dataflow`; see
//! `ANALYSIS.md` for the catalog entries).
//!
//! ## Resolution rules (documented in ANALYSIS.md, kept in sync)
//!
//! - **Free calls** `name(...)` resolve to free functions of that name in
//!   the same file first, else to every free function of that name in the
//!   workspace (cross-crate `use` needs no path resolution: names are
//!   global; `use ... as alias` renames are applied first).
//! - **Qualified calls** `Type::name(...)` resolve through the impl index
//!   for `Type` (structs and enums), through the trait-impl index when
//!   `Type` is a trait (every impl of that trait method), or — when the
//!   qualifier is lowercase — to functions defined in the file whose stem
//!   matches (`codec::le_u64` → `crates/storage/src/codec.rs`).
//!   `Self::name` uses the enclosing impl type; unknown qualifiers are
//!   external (std) and produce no edge.
//! - **Type aliases** `type A = B<…>;` (module level, `B` a workspace
//!   type) make `A` a known type with `B`'s methods and fields besides
//!   its own `impl A` ones; `B` gets the methods written on its aliases
//!   (`impl A` is an impl of `B<…>`). This holds for qualified calls and
//!   typed receivers alike.
//! - **Method calls** `recv.name(...)` infer the receiver type from
//!   `self` (the enclosing impl type), typed params, `let` bindings
//!   (`let x: T`, `let x = T::...`), and `self.field` chains through the
//!   struct-field index. A receiver that resolves to a trait links to
//!   every impl of that trait method. An *unknown* receiver links to every
//!   workspace impl of that method name — conservative over-approximation
//!   — unless the name is in [`PRELUDE_METHODS`] (ubiquitous std names),
//!   in which case it is assumed std and produces no edge.
//! - **Dynamic calls** — invoking a callable parameter (`f(...)` where
//!   `f: impl FnOnce(...)`) — cannot be resolved at all. They are recorded
//!   as [`CallSite::dynamic`] and the panic-reachability pass treats them
//!   as panic-capable unless a `lint:allow` marker audits them.
//! - Macros other than the panic family are not call edges (their
//!   argument expressions still are, token by token).
//!
//! Nested `fn` bodies overlap their parent's body range, so a parent is
//! (conservatively) credited with its nested function's calls too.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::lexer::Tok;

/// Index into [`Workspace::fns`].
pub type FnId = usize;

/// One source file in the workspace (token stream is test-stripped).
pub struct SourceFile {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// File stem (`bytelog` for `crates/storage/src/bytelog.rs`).
    pub stem: String,
    /// Test-stripped token stream.
    pub toks: Vec<Tok>,
    /// `use ... as alias` renames: alias → original name.
    pub aliases: HashMap<String, String>,
}

/// One `fn` definition found anywhere in the workspace.
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the name token.
    pub line: u32,
    /// Enclosing `impl`/`trait` self type, if any (last path segment).
    pub impl_type: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` fns.
    pub trait_name: Option<String>,
    /// Token range of the body *inside* the braces, within the file's
    /// stream. `(0, 0)` for body-less trait declarations.
    pub body: (usize, usize),
    /// Parameter names with their resolved workspace types (if any).
    pub params: Vec<(String, Option<String>)>,
    /// Parameters whose type mentions `Fn`/`FnMut`/`FnOnce` — calling one
    /// is an unresolvable dynamic edge.
    pub callable_params: Vec<String>,
    /// Workspace type returned by this fn, if resolvable (`Self` maps to
    /// the impl type). Types `let x = f(…)` locals at call sites.
    pub ret_type: Option<String>,
}

/// One resolved call site inside a function body.
pub struct CallSite {
    /// Candidate callees (possibly several — conservative).
    pub callees: Vec<FnId>,
    /// 1-based source line of the call.
    pub line: u32,
    /// Token index of the called name within the file's stream.
    pub tok: usize,
    /// Display text for diagnostics (`Type::name`, `.name`, `name`).
    pub display: String,
    /// True for calls through callable params — unresolvable, treated as
    /// panic-capable by the reachability pass unless marked.
    pub dynamic: bool,
}

/// The resolved workspace: files, functions, and per-function call sites.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnDef>,
    /// Parallel to `fns`: the call sites inside each body.
    pub calls: Vec<Vec<CallSite>>,
}

/// Ubiquitous std method names: an *unknown-receiver* call to one of these
/// is assumed to be std and produces no edge. A receiver that resolves to
/// a workspace type still links precisely. This is the documented
/// precision/recall trade: workspace methods shadowing these names need a
/// typed receiver (`self.`, a typed param, or a `let` binding) to get an
/// edge.
pub const PRELUDE_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "chain",
    "chars",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "create",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "extend_from_slice",
    "fetch_add",
    "fetch_or",
    "fetch_sub",
    "fill",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_inner",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "map_err",
    "map_or",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "ok_or",
    "ok_or_else",
    "open",
    "or_else",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "peek",
    "position",
    "pow",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "read",
    "recv",
    "remove",
    "repeat",
    "resize",
    "retain",
    "rev",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "spawn",
    "split_at",
    "split_off",
    "starts_with",
    "step_by",
    "store",
    "sum",
    "swap",
    "take",
    "then",
    "to_le_bytes",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "wait",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "write",
    "zip",
];

/// Keywords that look like free calls but are not.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "move", "in", "as", "fn", "let", "else",
    "unsafe", "where", "break", "continue", "await", "box", "dyn", "ref",
];

/// Container/wrapper types skipped when extracting the "interesting" type
/// ident from a type expression — the resolver wants `Shared` out of
/// `Arc<Shared<E>>`, which it finds as the first *workspace-known* ident.
fn resolve_type_ident(raw: &[String], known: &HashSet<String>) -> Option<String> {
    raw.iter().find(|s| known.contains(s.as_str())).cloned()
}

/// Skip a balanced `<...>` group starting at `toks[j] == "<"`. `->` inside
/// (Fn-trait sugar) is stepped over so its `>` does not close the group.
fn skip_angles(toks: &[Tok], mut j: usize) -> usize {
    let mut d = 0i64;
    while j < toks.len() {
        match toks[j].s.as_str() {
            "-" if toks.get(j + 1).is_some_and(|t| t.s == ">") => {
                j += 2;
                continue;
            }
            "<" => d += 1,
            ">" => {
                d -= 1;
                if d == 0 {
                    return j + 1;
                }
            }
            // An array type (`[u8; 64]`) nested in the generics carries a
            // `;` that must not trip the bail-out below.
            "[" => {
                j = skip_brackets(toks, j);
                continue;
            }
            ";" | "{" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skip a balanced `(...)` group starting at `toks[j] == "("`.
fn skip_parens(toks: &[Tok], mut j: usize) -> usize {
    let mut d = 0i64;
    while j < toks.len() {
        match toks[j].s.as_str() {
            "(" => d += 1,
            ")" => {
                d -= 1;
                if d == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skip a balanced `[...]` group starting at `toks[j] == "["`.
fn skip_brackets(toks: &[Tok], mut j: usize) -> usize {
    let mut d = 0i64;
    while j < toks.len() {
        match toks[j].s.as_str() {
            "[" => d += 1,
            "]" => {
                d -= 1;
                if d == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Raw (pre-resolution) function record from the structural pass.
struct RawFn {
    name: String,
    file: usize,
    line: u32,
    impl_type: Option<String>,
    trait_name: Option<String>,
    body: (usize, usize),
    /// (param name, raw type tokens)
    params_raw: Vec<(String, Vec<String>)>,
    /// Ident tokens of the return type (`-> …`, up to `where`/body).
    ret_raw: Vec<String>,
}

enum Ctx {
    Impl {
        ty: Option<String>,
        tr: Option<String>,
    },
    Trait(String),
}

impl Workspace {
    /// Build the workspace from `(repo-relative path, test-stripped
    /// tokens)` pairs.
    pub fn build(inputs: Vec<(String, Vec<Tok>)>) -> Workspace {
        let mut files = Vec::new();
        let mut raw_fns: Vec<RawFn> = Vec::new();
        let mut struct_fields_raw: HashMap<String, Vec<(String, Vec<String>)>> = HashMap::new();
        let mut traits: HashSet<String> = HashSet::new();
        let mut type_aliases: HashMap<String, String> = HashMap::new();

        for (path, toks) in inputs {
            let stem = path
                .rsplit('/')
                .next()
                .unwrap_or(&path)
                .trim_end_matches(".rs")
                .to_string();
            let file_idx = files.len();
            let mut aliases = HashMap::new();
            scan_file(
                file_idx,
                &toks,
                &mut raw_fns,
                &mut struct_fields_raw,
                &mut traits,
                &mut aliases,
                &mut type_aliases,
            );
            files.push(SourceFile {
                path,
                stem,
                toks,
                aliases,
            });
        }

        // The known-type universe: impl self types, struct names, traits.
        let mut known: HashSet<String> = traits.clone();
        known.extend(struct_fields_raw.keys().cloned());
        for f in &raw_fns {
            if let Some(t) = &f.impl_type {
                known.insert(t.clone());
            }
        }
        // Only an alias of a workspace type is one; it is known in turn.
        type_aliases.retain(|alias, target| alias != target && known.contains(target));
        known.extend(type_aliases.keys().cloned());
        let mut aliased_by: HashMap<String, Vec<String>> = HashMap::new();
        for (alias, target) in &type_aliases {
            aliased_by
                .entry(target.clone())
                .or_default()
                .push(alias.clone());
        }

        let fields: HashMap<String, HashMap<String, String>> = struct_fields_raw
            .iter()
            .map(|(name, flds)| {
                let m = flds
                    .iter()
                    .filter_map(|(fname, raw)| {
                        resolve_type_ident(raw, &known).map(|t| (fname.clone(), t))
                    })
                    .collect();
                (name.clone(), m)
            })
            .collect();

        let fns: Vec<FnDef> = raw_fns
            .into_iter()
            .map(|r| {
                let callable_params = r
                    .params_raw
                    .iter()
                    .filter(|(_, raw)| {
                        raw.iter()
                            .any(|s| matches!(s.as_str(), "Fn" | "FnMut" | "FnOnce"))
                    })
                    .map(|(n, _)| n.clone())
                    .collect();
                let params = r
                    .params_raw
                    .iter()
                    .map(|(n, raw)| (n.clone(), resolve_type_ident(raw, &known)))
                    .collect();
                let ret_type = if r.ret_raw.iter().any(|s| s == "Self") {
                    r.impl_type.clone()
                } else {
                    resolve_type_ident(&r.ret_raw, &known)
                };
                FnDef {
                    name: r.name,
                    file: r.file,
                    line: r.line,
                    impl_type: r.impl_type,
                    trait_name: r.trait_name,
                    body: r.body,
                    params,
                    callable_params,
                    ret_type,
                }
            })
            .collect();

        // Indexes for resolution.
        let mut free_by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut methods: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut trait_methods: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut by_stem: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            match &f.impl_type {
                None => free_by_name.entry(&f.name).or_default().push(id),
                Some(t) => {
                    methods_by_name.entry(&f.name).or_default().push(id);
                    methods.entry((t, &f.name)).or_default().push(id);
                }
            }
            if let Some(tr) = &f.trait_name {
                trait_methods.entry((tr, &f.name)).or_default().push(id);
            }
            by_stem
                .entry((&files[f.file].stem, &f.name))
                .or_default()
                .push(id);
        }

        let idx = Indexes {
            known: &known,
            traits: &traits,
            type_aliases: &type_aliases,
            aliased_by: &aliased_by,
            fields: &fields,
            free_by_name: &free_by_name,
            methods_by_name: &methods_by_name,
            methods: &methods,
            trait_methods: &trait_methods,
            by_stem: &by_stem,
        };

        let calls = fns
            .iter()
            .map(|f| extract_calls(f, &fns, &files, &idx))
            .collect();

        Workspace { files, fns, calls }
    }

    /// `stem::name` or `stem::Type::name` — the diagnostic display form.
    pub fn fn_display(&self, id: FnId) -> String {
        let f = &self.fns[id];
        let stem = &self.files[f.file].stem;
        match &f.impl_type {
            Some(t) => format!("{stem}::{t}::{}", f.name),
            None => format!("{stem}::{}", f.name),
        }
    }

    /// Every function defined in `path`.
    pub fn fns_in_file(&self, path: &str) -> Vec<FnId> {
        let Some(fi) = self.files.iter().position(|f| f.path == path) else {
            return Vec::new();
        };
        (0..self.fns.len())
            .filter(|&id| self.fns[id].file == fi)
            .collect()
    }

    /// Forward BFS from `entries`. Returns reachable fn → predecessor
    /// `(caller, call line)`; entries map to `None`.
    pub fn forward_reach(&self, entries: &[FnId]) -> HashMap<FnId, Option<(FnId, u32)>> {
        let mut preds: HashMap<FnId, Option<(FnId, u32)>> = HashMap::new();
        let mut q: VecDeque<FnId> = VecDeque::new();
        for &e in entries {
            if preds.insert(e, None).is_none() {
                q.push_back(e);
            }
        }
        while let Some(f) = q.pop_front() {
            for site in &self.calls[f] {
                for &c in &site.callees {
                    preds.entry(c).or_insert_with(|| {
                        q.push_back(c);
                        Some((f, site.line))
                    });
                }
            }
        }
        preds
    }

    /// Reconstruct the entry→target chain from a [`forward_reach`] map,
    /// formatted for diagnostics: `a::f → b::g → c::h`.
    pub fn chain(&self, preds: &HashMap<FnId, Option<(FnId, u32)>>, target: FnId) -> String {
        let mut path = vec![target];
        let mut cur = target;
        while let Some(Some((p, _))) = preds.get(&cur) {
            path.push(*p);
            cur = *p;
            if path.len() > 64 {
                break;
            }
        }
        path.reverse();
        path.iter()
            .map(|&id| self.fn_display(id))
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Caller map: callee → callers (deduplicated).
    pub fn callers(&self) -> HashMap<FnId, Vec<FnId>> {
        let mut m: HashMap<FnId, Vec<FnId>> = HashMap::new();
        for (f, sites) in self.calls.iter().enumerate() {
            for site in sites {
                for &c in &site.callees {
                    let v = m.entry(c).or_default();
                    if !v.contains(&f) {
                        v.push(f);
                    }
                }
            }
        }
        m
    }

    /// BFS from `start` for the first function satisfying `pred` (the
    /// start set itself included); returns the call chain
    /// `start → … → hit` if found.
    pub fn find_reachable(
        &self,
        start: &[FnId],
        pred: impl Fn(FnId) -> bool,
    ) -> Option<(FnId, String)> {
        let preds = self.forward_reach(start);
        let mut hits: Vec<FnId> = preds.keys().copied().filter(|&id| pred(id)).collect();
        hits.sort();
        hits.first().map(|&h| (h, self.chain(&preds, h)))
    }
}

struct Indexes<'a> {
    known: &'a HashSet<String>,
    traits: &'a HashSet<String>,
    /// `type` alias → the workspace type it names.
    type_aliases: &'a HashMap<String, String>,
    /// Workspace type → its `type` aliases.
    aliased_by: &'a HashMap<String, Vec<String>>,
    fields: &'a HashMap<String, HashMap<String, String>>,
    free_by_name: &'a HashMap<&'a str, Vec<FnId>>,
    methods_by_name: &'a HashMap<&'a str, Vec<FnId>>,
    methods: &'a HashMap<(&'a str, &'a str), Vec<FnId>>,
    trait_methods: &'a HashMap<(&'a str, &'a str), Vec<FnId>>,
    by_stem: &'a HashMap<(&'a str, &'a str), Vec<FnId>>,
}

impl Indexes<'_> {
    /// The field index of `ty`, or of the type it aliases.
    fn fields_of(&self, ty: &str) -> Option<&HashMap<String, String>> {
        let target = || self.type_aliases.get(ty).and_then(|t| self.fields.get(t));
        self.fields.get(ty).or_else(target)
    }
}

/// Structural pass over one file: functions, impl/trait contexts, struct
/// fields, `use ... as` aliases and module-level `type` aliases (alias →
/// the last path segment before the target's generics).
fn scan_file(
    file_idx: usize,
    toks: &[Tok],
    fns: &mut Vec<RawFn>,
    struct_fields: &mut HashMap<String, Vec<(String, Vec<String>)>>,
    traits: &mut HashSet<String>,
    aliases: &mut HashMap<String, String>,
    type_aliases: &mut HashMap<String, String>,
) {
    let mut depth = 0i64;
    // (depth the block opened at — pop when depth drops back to it)
    let mut ctx: Vec<(i64, Ctx)> = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        match toks[i].s.as_str() {
            "{" => {
                depth += 1;
                i += 1;
            }
            "}" => {
                depth -= 1;
                while ctx.last().is_some_and(|(d, _)| *d > depth) {
                    ctx.pop();
                }
                i += 1;
            }
            "use" => {
                // Walk to `;`, recording `as` renames.
                let mut last_ident: Option<&str> = None;
                while i < n && toks[i].s != ";" {
                    if toks[i].s == "as" {
                        if let (Some(orig), Some(alias)) = (last_ident, toks.get(i + 1)) {
                            if is_ident(&alias.s) {
                                aliases.insert(alias.s.clone(), orig.to_string());
                            }
                        }
                        i += 1;
                    } else if is_ident(&toks[i].s) {
                        last_ident = Some(&toks[i].s);
                    }
                    i += 1;
                }
                i += 1;
            }
            "struct" if toks.get(i + 1).is_some_and(|t| is_ident(&t.s)) => {
                let name = toks[i + 1].s.clone();
                let mut j = i + 2;
                if toks.get(j).is_some_and(|t| t.s == "<") {
                    j = skip_angles(toks, j);
                }
                // Skip any `where` clause before the body.
                while j < n && toks[j].s != "{" && toks[j].s != "(" && toks[j].s != ";" {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.s == "{") {
                    let flds = parse_struct_fields(toks, j);
                    struct_fields.insert(name, flds);
                }
                // Main loop continues from the header; the body holds no
                // items of interest and braces stay balanced.
                i += 2;
            }
            "type" if ctx.is_empty() && toks.get(i + 1).is_some_and(|t| is_ident(&t.s)) => {
                let mut j = i + 2;
                if toks.get(j).is_some_and(|t| t.s == "<") {
                    j = skip_angles(toks, j);
                }
                if toks.get(j).is_some_and(|t| t.s == "=") {
                    let mut target = None;
                    j += 1;
                    while j < n && toks[j].s != ";" && toks[j].s != "<" {
                        if is_ident(&toks[j].s) {
                            target = Some(toks[j].s.clone());
                        }
                        j += 1;
                    }
                    if let Some(target) = target {
                        type_aliases.insert(toks[i + 1].s.clone(), target);
                    }
                }
                i += 2;
            }
            "trait" if toks.get(i + 1).is_some_and(|t| is_ident(&t.s)) => {
                let name = toks[i + 1].s.clone();
                traits.insert(name.clone());
                let mut j = i + 2;
                while j < n && toks[j].s != "{" && toks[j].s != ";" {
                    if toks[j].s == "<" {
                        j = skip_angles(toks, j);
                    } else {
                        j += 1;
                    }
                }
                if toks.get(j).is_some_and(|t| t.s == "{") {
                    depth += 1;
                    ctx.push((depth, Ctx::Trait(name)));
                    i = j + 1;
                } else {
                    i = j;
                }
            }
            "impl" => {
                let (hdr, j) = parse_impl_header(toks, i);
                match hdr {
                    Some((ty, tr)) => {
                        depth += 1;
                        ctx.push((depth, Ctx::Impl { ty, tr }));
                        i = j; // just past the `{`
                    }
                    None => i = j,
                }
            }
            "fn" if toks.get(i + 1).is_some_and(|t| is_ident(&t.s)) => {
                let (raw, next) = parse_fn(file_idx, toks, i, ctx.last().map(|(_, c)| c), traits);
                if let Some(mut r) = raw {
                    // Count braces the main loop will now skip (signature
                    // only — we resume at the body start so nested items
                    // are still scanned).
                    if r.body != (0, 0) {
                        depth += 1; // the body's opening brace
                        r.body.0 = r.body.0.min(n);
                    }
                    let resume = if r.body == (0, 0) { next } else { r.body.0 };
                    fns.push(r);
                    i = resume;
                } else {
                    i = next;
                }
            }
            _ => i += 1,
        }
    }
}

/// `(self type, trait)` of an impl block, when its header parses.
type ImplSides = Option<(Option<String>, Option<String>)>;

/// Parse `impl [<…>] Path [for Path] [where …] {` starting at the `impl`
/// token. Returns `((self type, trait), index just past `{`)`; `None` when
/// no braced body is found (e.g. an `impl` inside a type position — the
/// caller then advances past this token).
fn parse_impl_header(toks: &[Tok], i: usize) -> (ImplSides, usize) {
    let n = toks.len();
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.s == "<") {
        j = skip_angles(toks, j);
    }
    let mut before_for: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    let mut in_where = false;
    while j < n {
        match toks[j].s.as_str() {
            "{" => {
                let (tr, ty) = if saw_for {
                    (before_for.last().cloned(), after_for.last().cloned())
                } else {
                    (None, before_for.last().cloned())
                };
                return (Some((ty, tr)), j + 1);
            }
            ";" => return (None, j + 1),
            "for" => {
                saw_for = true;
                j += 1;
            }
            "where" => {
                in_where = true;
                j += 1;
            }
            "<" => j = skip_angles(toks, j),
            "(" => j = skip_parens(toks, j),
            s if is_ident(s) && !in_where && s != "dyn" && s != "mut" => {
                if saw_for {
                    after_for.push(s.to_string());
                } else {
                    before_for.push(s.to_string());
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    (None, n)
}

/// Parse the fields of `struct Name { … }` with the cursor at the `{`.
fn parse_struct_fields(toks: &[Tok], open: usize) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut j = open + 1;
    let n = toks.len();
    while j < n && toks[j].s != "}" {
        // Skip visibility: `pub`, `pub(crate)`, `pub(in …)`.
        if toks[j].s == "pub" {
            j += 1;
            if toks.get(j).is_some_and(|t| t.s == "(") {
                j = skip_parens(toks, j);
            }
            continue;
        }
        if toks[j].s == "#" {
            // Field attribute `#[…]`.
            j += 1;
            if toks.get(j).is_some_and(|t| t.s == "[") {
                let mut d = 0i64;
                while j < n {
                    match toks[j].s.as_str() {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            continue;
        }
        if is_ident(&toks[j].s) && toks.get(j + 1).is_some_and(|t| t.s == ":") {
            let name = toks[j].s.clone();
            j += 2;
            let mut ty = Vec::new();
            let mut angle = 0i64;
            while j < n {
                match toks[j].s.as_str() {
                    "-" if toks.get(j + 1).is_some_and(|t| t.s == ">") => {
                        j += 2;
                        continue;
                    }
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "," if angle == 0 => break,
                    "}" if angle <= 0 => break,
                    s if is_ident(s) => ty.push(s.to_string()),
                    _ => {}
                }
                j += 1;
            }
            out.push((name, ty));
        } else {
            j += 1;
        }
    }
    out
}

/// Parse one `fn` item with the cursor on the `fn` token. Returns the raw
/// record (if parseable) plus the resume index: the body start for braced
/// fns (so nested items are scanned), or just past the signature.
fn parse_fn(
    file_idx: usize,
    toks: &[Tok],
    i: usize,
    ctx: Option<&Ctx>,
    traits: &HashSet<String>,
) -> (Option<RawFn>, usize) {
    let n = toks.len();
    let name_tok = &toks[i + 1];
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.s == "<") {
        j = skip_angles(toks, j);
    }
    if toks.get(j).is_none_or(|t| t.s != "(") {
        return (None, j);
    }
    // Collect params between balanced parens, splitting on top-level `,`.
    let params_end = skip_parens(toks, j);
    let mut params_raw: Vec<(String, Vec<String>)> = Vec::new();
    {
        let mut k = j + 1;
        let mut paren = 0i64;
        let mut angle = 0i64;
        let mut bracket = 0i64;
        let mut chunk: Vec<&str> = Vec::new();
        let mut chunks: Vec<Vec<&str>> = Vec::new();
        while k < params_end.saturating_sub(1) {
            let s = toks[k].s.as_str();
            match s {
                "-" if toks.get(k + 1).is_some_and(|t| t.s == ">") => {
                    k += 2;
                    continue;
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">" => angle -= 1,
                "," if paren == 0 && angle == 0 && bracket == 0 => {
                    chunks.push(std::mem::take(&mut chunk));
                    k += 1;
                    continue;
                }
                _ => {}
            }
            chunk.push(s);
            k += 1;
        }
        if !chunk.is_empty() {
            chunks.push(chunk);
        }
        for ch in chunks {
            let Some(colon) = ch.iter().position(|&s| s == ":") else {
                continue; // `self`, `&self`, `&mut self`
            };
            let name = ch[..colon]
                .iter()
                .rev()
                .find(|s| is_ident(s) && **s != "mut" && **s != "ref")
                .map(|s| s.to_string());
            if let Some(name) = name {
                let ty: Vec<String> = ch[colon + 1..]
                    .iter()
                    .filter(|s| is_ident(s))
                    .map(|s| s.to_string())
                    .collect();
                params_raw.push((name, ty));
            }
        }
    }
    // After the params: return type / where clause, then `{` or `;`.
    // Array types (`[u8; 64]`) carry a `;` that must not read as a
    // bodyless declaration, so bracket groups are skipped whole.
    let mut k = params_end;
    while k < n {
        match toks[k].s.as_str() {
            "{" | ";" => break,
            "<" => k = skip_angles(toks, k),
            "(" => k = skip_parens(toks, k),
            "[" => k = skip_brackets(toks, k),
            _ => k += 1,
        }
    }
    // Return-type idents (for `let x = f(…)` local typing): everything
    // between `->` and `where`/body.
    let mut ret_raw: Vec<String> = Vec::new();
    {
        let mut seen_arrow = false;
        let mut q = params_end;
        while q < k.min(n) {
            let s = toks[q].s.as_str();
            if s == "-" && toks.get(q + 1).is_some_and(|t| t.s == ">") {
                seen_arrow = true;
                q += 2;
                continue;
            }
            if s == "where" {
                break;
            }
            if seen_arrow && is_ident(s) {
                ret_raw.push(s.to_string());
            }
            q += 1;
        }
    }
    let (impl_type, trait_name) = match ctx {
        Some(Ctx::Impl { ty, tr }) => (ty.clone(), tr.clone()),
        Some(Ctx::Trait(t)) => (Some(t.clone()), Some(t.clone())),
        _ => (None, None),
    };
    // Suppress the trait-decl duplication: a default method in `trait T`
    // gets impl_type = trait name so trait-receiver calls find it.
    let _ = traits;
    if toks.get(k).is_some_and(|t| t.s == "{") {
        let mut d = 0i64;
        let mut e = k;
        while e < n {
            match toks[e].s.as_str() {
                "{" => d += 1,
                "}" => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            e += 1;
        }
        (
            Some(RawFn {
                name: name_tok.s.clone(),
                file: file_idx,
                line: name_tok.line,
                impl_type,
                trait_name,
                body: (k + 1, e),
                params_raw,
                ret_raw,
            }),
            k + 1,
        )
    } else {
        (
            Some(RawFn {
                name: name_tok.s.clone(),
                file: file_idx,
                line: name_tok.line,
                impl_type,
                trait_name,
                body: (0, 0),
                params_raw,
                ret_raw,
            }),
            k + 1,
        )
    }
}

/// Extract the call sites of one function body.
fn extract_calls(f: &FnDef, fns: &[FnDef], files: &[SourceFile], idx: &Indexes) -> Vec<CallSite> {
    let (b0, b1) = f.body;
    if b0 >= b1 {
        return Vec::new();
    }
    let file = &files[f.file];
    let toks = &file.toks;
    let body = &toks[b0..b1.min(toks.len())];

    // Local type bindings: `let [mut] x: T = …` and `let x = T::…`.
    let mut locals: HashMap<&str, String> = HashMap::new();
    for (p, t) in &f.params {
        if let Some(t) = t {
            locals.insert(p.as_str(), t.clone());
        }
    }
    let mut k = 0usize;
    while k < body.len() {
        if body[k].s == "let" {
            let mut m = k + 1;
            while body.get(m).is_some_and(|t| t.s == "mut" || t.s == "ref") {
                m += 1;
            }
            if body.get(m).is_some_and(|t| is_ident(&t.s)) {
                let name = body[m].s.as_str();
                match body.get(m + 1).map(|t| t.s.as_str()) {
                    Some(":") => {
                        let mut ty = Vec::new();
                        let mut q = m + 2;
                        let mut angle = 0i64;
                        while q < body.len() {
                            match body[q].s.as_str() {
                                "-" if body.get(q + 1).is_some_and(|t| t.s == ">") => {
                                    q += 2;
                                    continue;
                                }
                                "<" => angle += 1,
                                ">" => angle -= 1,
                                "=" | ";" if angle <= 0 => break,
                                s if is_ident(s) => ty.push(s.to_string()),
                                _ => {}
                            }
                            q += 1;
                        }
                        if let Some(t) = resolve_type_ident(&ty, idx.known) {
                            locals.insert(name, t);
                        }
                    }
                    Some("=") => {
                        if let (Some(t1), Some(t2)) = (body.get(m + 2), body.get(m + 3)) {
                            if t2.s == "::" && idx.known.contains(&t1.s) {
                                // `let x = Type::method(…)` — prefer the
                                // method's return type; fall back to
                                // `Type` (constructor convention).
                                let ty = body
                                    .get(m + 4)
                                    .filter(|_| body.get(m + 5).is_some_and(|p| p.s == "("))
                                    .map(|meth| resolve_qualified(&t1.s, &meth.s, idx))
                                    .and_then(|cs| cs.iter().find_map(|&c| fns[c].ret_type.clone()))
                                    .unwrap_or_else(|| t1.s.clone());
                                locals.insert(name, ty);
                            } else if t2.s == "(" && is_ident(&t1.s) {
                                // `let x = free_fn(…)` — type by the
                                // callee's return type.
                                let callees = resolve_free(&t1.s, f.file, fns, idx);
                                if let Some(rt) =
                                    callees.iter().find_map(|&c| fns[c].ret_type.clone())
                                {
                                    locals.insert(name, rt);
                                }
                            } else if t2.s == "{" && t1.s == "Self" {
                                // `let x = Self { … }` struct literal.
                                if let Some(t) = f.impl_type.clone() {
                                    locals.insert(name, t);
                                }
                            } else if t2.s == "{" && idx.known.contains(&t1.s) {
                                // `let x = Type { … }` struct literal.
                                locals.insert(name, t1.s.clone());
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        k += 1;
    }

    let mut out = Vec::new();
    for j in 0..body.len() {
        let t = &body[j];
        if !is_ident(&t.s) {
            continue;
        }
        let nx = body.get(j + 1).map(|t| t.s.as_str());
        if nx != Some("(") {
            continue;
        }
        let prev = j
            .checked_sub(1)
            .and_then(|p| body.get(p))
            .map(|t| t.s.as_str());
        let name = t.s.as_str();
        match prev {
            Some("fn") => continue,
            Some(".") => {
                // Method call: resolve the receiver chain
                // `base(.field)*.name(`.
                let mut chain: Vec<&str> = Vec::new();
                let mut p = j - 1; // the `.`
                while let Some(recv) = p.checked_sub(1).and_then(|q| body.get(q)) {
                    if !is_ident(&recv.s) {
                        break;
                    }
                    chain.push(recv.s.as_str());
                    match p.checked_sub(2).and_then(|q| body.get(q)) {
                        Some(d) if d.s == "." && p >= 2 => p -= 2,
                        _ => break,
                    }
                }
                chain.reverse();
                let recv_ty: Option<String> = match chain.first() {
                    Some(&"self") => {
                        let mut ty = f.impl_type.clone();
                        for fld in &chain[1..] {
                            ty = ty
                                .as_ref()
                                .and_then(|t| idx.fields_of(t))
                                .and_then(|m| m.get(*fld))
                                .cloned();
                        }
                        ty
                    }
                    Some(base) => {
                        let mut ty = locals
                            .get(base)
                            .cloned()
                            .or_else(|| idx.known.contains(*base).then(|| base.to_string()));
                        for fld in &chain[1..] {
                            ty = ty
                                .as_ref()
                                .and_then(|t| idx.fields_of(t))
                                .and_then(|m| m.get(*fld))
                                .cloned();
                        }
                        ty
                    }
                    None => None,
                };
                let callees = resolve_method(recv_ty.as_deref(), name, idx);
                if !callees.is_empty() {
                    out.push(CallSite {
                        callees,
                        line: t.line,
                        tok: b0 + j,
                        display: format!(".{name}"),
                        dynamic: false,
                    });
                }
            }
            Some("::") => {
                let Some(q_tok) = j.checked_sub(2).and_then(|q| body.get(q)) else {
                    continue;
                };
                if !is_ident(&q_tok.s) {
                    continue;
                }
                let q_raw = q_tok.s.as_str();
                let q = file.aliases.get(q_raw).map(String::as_str).unwrap_or(q_raw);
                let callees: Vec<FnId> = if q == "Self" {
                    f.impl_type
                        .as_deref()
                        .map(|t| resolve_qualified(t, name, idx))
                        .unwrap_or_default()
                } else if q == "crate" || q == "self" || q == "super" {
                    resolve_free(name, f.file, fns, idx)
                } else if idx.known.contains(q) {
                    resolve_qualified(q, name, idx)
                } else if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                    // Module-path call: `codec::le_u64(…)` → the file
                    // whose stem is `codec`.
                    idx.by_stem.get(&(q, name)).cloned().unwrap_or_default()
                } else {
                    Vec::new() // external (std) path
                };
                if !callees.is_empty() {
                    out.push(CallSite {
                        callees,
                        line: t.line,
                        tok: b0 + j,
                        display: format!("{q_raw}::{name}"),
                        dynamic: false,
                    });
                }
            }
            _ => {
                if CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                if f.callable_params.iter().any(|p| p == name) {
                    out.push(CallSite {
                        callees: Vec::new(),
                        line: t.line,
                        tok: b0 + j,
                        display: format!("{name}(…) [callable param]"),
                        dynamic: true,
                    });
                    continue;
                }
                let resolved = file.aliases.get(name).map(String::as_str).unwrap_or(name);
                let callees = resolve_free(resolved, f.file, fns, idx);
                if !callees.is_empty() {
                    out.push(CallSite {
                        callees,
                        line: t.line,
                        tok: b0 + j,
                        display: name.to_string(),
                        dynamic: false,
                    });
                }
            }
        }
    }
    out
}

fn resolve_free(name: &str, file: usize, fns: &[FnDef], idx: &Indexes) -> Vec<FnId> {
    let Some(all) = idx.free_by_name.get(name) else {
        return Vec::new();
    };
    let same_file: Vec<FnId> = all
        .iter()
        .copied()
        .filter(|&id| fns[id].file == file)
        .collect();
    if same_file.is_empty() {
        all.clone()
    } else {
        same_file
    }
}

/// `Type::name` / trait-receiver resolution: the impl index for concrete
/// types — an alias's and its target's impls, or a type's and its
/// aliases' — every impl of the method for traits (default methods
/// included via the impl index keyed by the trait name).
fn resolve_qualified(ty: &str, name: &str, idx: &Indexes) -> Vec<FnId> {
    let target = idx.type_aliases.get(ty).into_iter();
    let aliases = idx.aliased_by.get(ty).into_iter().flatten();
    let mut out = Vec::new();
    for t in std::iter::once(ty).chain(target.chain(aliases).map(String::as_str)) {
        for id in idx.methods.get(&(t, name)).into_iter().flatten() {
            if !out.contains(id) {
                out.push(*id);
            }
        }
    }
    if idx.traits.contains(ty) {
        for id in idx.trait_methods.get(&(ty, name)).into_iter().flatten() {
            if !out.contains(id) {
                out.push(*id);
            }
        }
    }
    out
}

fn resolve_method(recv_ty: Option<&str>, name: &str, idx: &Indexes) -> Vec<FnId> {
    if let Some(t) = recv_ty {
        let precise = resolve_qualified(t, name, idx);
        if !precise.is_empty() {
            return precise;
        }
        // Known receiver but unknown method (deref / blanket impl):
        // fall through to the unknown-receiver rule.
    }
    if PRELUDE_METHODS.contains(&name) {
        return Vec::new(); // assumed std
    }
    idx.methods_by_name.get(name).cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), tokenize(s)))
                .collect(),
        )
    }

    fn callee_names(ws: &Workspace, caller: &str) -> Vec<String> {
        let id = ws.fns.iter().position(|f| f.name == caller).unwrap();
        ws.calls[id]
            .iter()
            .flat_map(|s| s.callees.iter().map(|&c| ws.fn_display(c)))
            .collect()
    }

    #[test]
    fn free_calls_prefer_same_file_then_cross_crate() {
        let w = ws(&[
            ("a/src/lib.rs", "fn helper() {} fn caller() { helper(); }"),
            ("b/src/lib.rs", "fn helper() {}"),
        ]);
        assert_eq!(callee_names(&w, "caller"), vec!["lib::helper"]);
        let id = w.fns.iter().position(|f| f.name == "caller").unwrap();
        assert_eq!(w.fns[w.calls[id][0].callees[0]].file, 0);

        // No same-file definition: cross-crate `use` resolution is by
        // name — every free fn of that name links.
        let w = ws(&[
            ("a/src/lib.rs", "pub fn decode_u32() {}"),
            (
                "b/src/lib.rs",
                "use a::decode_u32; fn caller() { decode_u32(); }",
            ),
        ]);
        assert_eq!(callee_names(&w, "caller"), vec!["lib::decode_u32"]);
    }

    #[test]
    fn use_as_alias_is_applied() {
        let w = ws(&[
            ("a/src/lib.rs", "pub fn decode_u32() {}"),
            (
                "b/src/lib.rs",
                "use a::decode_u32 as du; fn caller() { du(); }",
            ),
        ]);
        assert_eq!(callee_names(&w, "caller"), vec!["lib::decode_u32"]);
    }

    #[test]
    fn method_resolution_through_typed_receivers() {
        let src_a = "pub struct Table { inner: Pager }
                     pub struct Pager;
                     impl Pager { pub fn read_page(&self) {} }
                     impl Table {
                         pub fn get(&self) { self.inner.read_page(); }
                     }";
        let src_b = "use a::Table;
                     fn by_param(t: &Table) { t.get(); }
                     fn by_let() { let t = Table::default(); t.get(); }";
        let w = ws(&[("a/src/lib.rs", src_a), ("b/src/lib.rs", src_b)]);
        // self-field chain: Table::get → inner: Pager → Pager::read_page.
        assert_eq!(callee_names(&w, "get"), vec!["lib::Pager::read_page"]);
        assert_eq!(callee_names(&w, "by_param"), vec!["lib::Table::get"]);
        assert_eq!(callee_names(&w, "by_let"), vec!["lib::Table::get"]);
    }

    #[test]
    fn trait_receiver_links_every_impl() {
        let src = "trait Vfs { fn open(&self); }
                   struct Mem; struct Real;
                   impl Vfs for Mem { fn open(&self) {} }
                   impl Vfs for Real { fn open(&self) {} }
                   fn caller(v: &dyn Vfs) { v.open(); }";
        let w = ws(&[("a/src/vfs.rs", src)]);
        let names = callee_names(&w, "caller");
        assert!(names.contains(&"vfs::Mem::open".to_string()), "{names:?}");
        assert!(names.contains(&"vfs::Real::open".to_string()), "{names:?}");
    }

    #[test]
    fn unknown_receiver_is_conservative_unless_prelude() {
        // `mystery.decode_row()` — receiver unresolvable, name defined in
        // the workspace → links to every impl (conservative).
        let src = "struct Row; impl Row { fn decode_row(&self) {} }
                   fn caller(mystery: &M) { mystery.decode_row(); mystery.len(); }";
        let w = ws(&[("a/src/lib.rs", src)]);
        let names = callee_names(&w, "caller");
        assert_eq!(names, vec!["lib::Row::decode_row"]);
        // `.len()` is PRELUDE — assumed std, no edge, even though the
        // receiver is unknown.
        assert!(PRELUDE_METHODS.contains(&"len"));
    }

    #[test]
    fn callable_param_is_a_dynamic_edge() {
        let src = "fn apply(f: impl FnOnce(u32) -> u32) { f(1); }";
        let w = ws(&[("a/src/lib.rs", src)]);
        let id = w.fns.iter().position(|f| f.name == "apply").unwrap();
        assert_eq!(w.calls[id].len(), 1);
        assert!(w.calls[id][0].dynamic);
        assert!(w.calls[id][0].callees.is_empty());
    }

    #[test]
    fn module_stem_qualified_calls_resolve() {
        let w = ws(&[
            ("s/src/codec.rs", "pub fn le_u64() {}"),
            ("s/src/bytelog.rs", "fn parse() { codec::le_u64(); }"),
        ]);
        assert_eq!(callee_names(&w, "parse"), vec!["codec::le_u64"]);
    }

    #[test]
    fn forward_reach_builds_chains() {
        let w = ws(&[(
            "a/src/lib.rs",
            "fn entry() { mid(); } fn mid() { leaf(); } fn leaf() {} fn island() {}",
        )]);
        let entry = w.fns.iter().position(|f| f.name == "entry").unwrap();
        let leaf = w.fns.iter().position(|f| f.name == "leaf").unwrap();
        let island = w.fns.iter().position(|f| f.name == "island").unwrap();
        let preds = w.forward_reach(&[entry]);
        assert!(preds.contains_key(&leaf));
        assert!(!preds.contains_key(&island));
        assert_eq!(w.chain(&preds, leaf), "lib::entry → lib::mid → lib::leaf");
    }

    #[test]
    fn callee_return_type_flows_into_let_locals() {
        // `let l = make();` types `l` by `make`'s declared return type,
        // so the follow-up method call resolves without an annotation.
        let w = ws(&[(
            "a/src/lib.rs",
            "pub struct Log;
             impl Log { pub fn flush(&self) {} }
             fn make() -> Log { todo() }
             fn caller() { let l = make(); l.flush(); }",
        )]);
        assert!(
            callee_names(&w, "caller").contains(&"lib::Log::flush".to_string()),
            "{:?}",
            callee_names(&w, "caller")
        );
    }

    #[test]
    fn struct_literals_type_let_locals() {
        // Both spellings: `Self { … }` inside an impl (resolved through
        // the impl's type) and a named `Type { … }` literal elsewhere.
        let w = ws(&[(
            "a/src/lib.rs",
            "pub struct Log { n: u32 }
             impl Log {
                 pub fn flush(&self) {}
                 pub fn fresh() -> Self { let log = Self { n: 0 }; log.flush(); log }
             }
             fn caller() { let l = Log { n: 1 }; l.flush(); }",
        )]);
        assert_eq!(callee_names(&w, "fresh"), vec!["lib::Log::flush"]);
        assert_eq!(callee_names(&w, "caller"), vec!["lib::Log::flush"]);
    }

    #[test]
    fn impl_trait_for_type_records_both_sides() {
        let w = ws(&[(
            "a/src/lib.rs",
            "trait Metric { fn combine(&self); }
             enum Kind {}
             impl Metric for Kind { fn combine(&self) {} }",
        )]);
        let f = w
            .fns
            .iter()
            .find(|f| f.impl_type.as_deref() == Some("Kind"))
            .unwrap();
        assert_eq!(f.trait_name.as_deref(), Some("Metric"));
    }
}
