//! `cargo xtask analyze` — architectural-invariant lints for the iVA-file
//! workspace. See `ANALYSIS.md` at the repo root for the lint catalog and
//! the allowlist policy.
//!
//! The crate is a library so the meta-tests in `tests/lints.rs` can feed
//! known-bad snippets straight to [`analyze_source`] and assert each lint
//! actually fires, then run [`analyze_repo`] and assert the tree is clean.

pub mod allowlist;
pub mod benchjson;
pub mod ipa;
pub mod lexer;
pub mod lints;
pub mod resolver;

use std::collections::HashMap;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

use allowlist::{parse_allowlist, parse_markers, parse_scopes, AllowEntry, Marker};
use lexer::{strip_cfg_test, tokenize};
use lints::{Violation, LINT_NAMES};
use resolver::Workspace;

/// Result of a full-repo run: surviving violations plus policy errors
/// (stale allows, malformed markers, oversized allowlists).
#[derive(Debug, Default)]
pub struct Analysis {
    /// Violations not covered by any allowlist entry or marker.
    pub violations: Vec<Violation>,
    /// Allowlist/marker policy errors — these fail the run even when the
    /// code itself is clean.
    pub errors: Vec<String>,
    /// Files scanned, per lint (for the summary line).
    pub files_scanned: usize,
}

impl Analysis {
    /// True when the run should exit 0.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.errors.is_empty()
    }
}

/// Vendored stand-ins for external crates, the xtask tool itself, and
/// build output are not part of the database being linted.
fn excluded(path: &str) -> bool {
    path.starts_with("vendor/") || path.starts_with("xtask/") || path.starts_with("target/")
}

/// The root crate's library: `src/` minus its binaries.
fn root_lib(path: &str) -> bool {
    path.starts_with("src/") && !path.starts_with("src/bin/")
}

/// Which files a per-file token lint looks at. Paths are repo-relative
/// with forward slashes. The interprocedural lints run over the whole
/// workspace at once, after the per-file phase — never per file.
fn in_scope(lint: &str, path: &str) -> bool {
    !excluded(path)
        && match lint {
            // Everything in the workspace — production, tests, and
            // benches — except the seam module itself.
            "vfs-seam" => path != "crates/storage/src/vfs.rs",
            "determinism" => production_module(path),
            _ => false,
        }
}

/// Whether `#[cfg(test)]` items are stripped before a lint runs. The seam
/// lint keeps them: tests must construct their Vfs explicitly too.
fn strips_tests(lint: &str) -> bool {
    lint != "vfs-seam"
}

/// Production modules of the replayable stack — `determinism`'s scope,
/// and the set where an undeclared decode function is a policy error (see
/// [`undeclared_decoder`]). Bench/workload/baseline crates measure
/// wall-clock by design and are exempt.
fn production_module(path: &str) -> bool {
    let core = path.starts_with("crates/core/src/")
        || path.starts_with("crates/storage/src/")
        || path.starts_with("crates/swt/src/")
        || path.starts_with("crates/text/src/");
    core || root_lib(path)
}

/// `accounting-dataflow`'s scope: any production module doing raw
/// VfsFile I/O must account for it — every crate's sources bar its
/// benches, and the root facade with its serving layer.
fn accounting_scope(path: &str) -> bool {
    let crates =
        path.starts_with("crates/") && path.contains("/src/") && !path.contains("/benches/");
    crates || root_lib(path)
}

/// A production module that defines a `fn decode…` is parsing bytes that
/// may have come from disk — it must carry the
/// `//! lint:scope(panic-reachability)` attribute so the lint covers it
/// from birth. Returns the first offending definition `(line, name)` in
/// the test-stripped token stream (test-only decoders are exempt).
fn undeclared_decoder(toks: &[lexer::Tok]) -> Option<(u32, String)> {
    toks.windows(2).find_map(|w| {
        (w[0].s == "fn" && w[1].s.starts_with("decode")).then(|| (w[1].line, w[1].s.clone()))
    })
}

fn run_lint(lint: &str, path: &str, toks: &[lexer::Tok]) -> Vec<Violation> {
    match lint {
        "vfs-seam" => lints::vfs_seam(path, toks),
        "determinism" => lints::determinism(path, toks),
        _ => Vec::new(),
    }
}

/// Lint a single in-memory source file. In-code `lint:allow` markers are
/// honored; allowlist files are not consulted. Used by the meta-tests and
/// usable for editor integration.
pub fn analyze_source(lint: &str, path: &str, source: &str) -> Vec<Violation> {
    let toks = tokenize(source);
    let toks = if strips_tests(lint) {
        strip_cfg_test(&toks)
    } else {
        toks
    };
    let (mut markers, _) = parse_markers(path, source);
    run_lint(lint, path, &toks)
        .into_iter()
        .filter(|v| !marker_covers(&mut markers, lint, v.line))
        .collect()
}

fn marker_covers(markers: &mut [Marker], lint: &str, line: u32) -> bool {
    for m in markers.iter_mut() {
        if m.lint == lint && (m.line == line || m.line + 1 == line) {
            m.hits += 1;
            return true;
        }
    }
    false
}

fn allowlist_covers(entries: &mut [AllowEntry], file: &str, line_text: &str) -> bool {
    for e in entries.iter_mut() {
        if e.path == file && line_text.contains(&e.substring) {
            e.hits += 1;
            return true;
        }
    }
    false
}

/// Collect every `.rs` file under `root`, repo-relative, sorted.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Per-file state shared between the token-lint phase and the
/// interprocedural phase (markers must stay live across both so stale
/// detection sees every suppression).
struct FileData {
    rel: String,
    source: String,
    /// Carries `//! lint:scope(panic-reachability)`.
    scoped: bool,
    markers: Vec<Marker>,
    toks_full: Vec<lexer::Tok>,
    toks_stripped: Vec<lexer::Tok>,
}

/// Production files that feed the call graph: crate sources and the root
/// library, excluding binaries, integration tests, and benches.
fn graph_file(path: &str) -> bool {
    let crate_lib = path.contains("/src/") && !path.contains("/bin/");
    root_lib(path) || crate_lib
}

/// Run the requested lints (all five when `only` is `None`) over the
/// repo at `root`, applying allowlist files from `xtask/allowlists/` and
/// in-code markers, and reporting stale suppressions as errors.
pub fn analyze_repo(root: &Path, only: Option<&str>) -> Analysis {
    let mut inputs = Vec::new();
    for abs in rust_files(root) {
        let Ok(rel_os) = abs.strip_prefix(root) else {
            continue;
        };
        let rel = rel_os.to_string_lossy().replace('\\', "/");
        if excluded(&rel) {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&abs) else {
            continue;
        };
        inputs.push((rel, source));
    }
    analyze_impl(inputs, only, Some(root))
}

/// Lint a set of in-memory source files through the full pipeline —
/// token lints, interprocedural lints, markers, stale-marker detection —
/// without consulting allowlist files. This is the meta-test entry point
/// for the interprocedural lints, which need cross-file fixtures.
pub fn analyze_sources(only: Option<&str>, files: &[(&str, &str)]) -> Analysis {
    let inputs = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_impl(inputs, only, None)
}

fn analyze_impl(
    inputs: Vec<(String, String)>,
    only: Option<&str>,
    root: Option<&Path>,
) -> Analysis {
    let mut analysis = Analysis::default();
    let lint_filter: Vec<&str> = match only {
        Some(l) => vec![l],
        None => LINT_NAMES.to_vec(),
    };

    // Load allowlists (repo runs only; the in-memory entry point tests
    // marker behavior without allowlist files). A file for a lint that
    // does not exist would never be read, so it is an error of its own.
    let allow_dir = root.map(|r| r.join("xtask/allowlists"));
    if let Some(dir) = &allow_dir {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            if let Some(stem) = name.strip_suffix(".allow") {
                if !LINT_NAMES.contains(&stem.replace('_', "-").as_str()) {
                    analysis.errors.push(format!(
                        "xtask/allowlists/{name}: allowlist for `{stem}`, which is not a lint"
                    ));
                }
            }
        }
    }
    let mut allows: Vec<(&str, Vec<AllowEntry>)> = Vec::new();
    for &lint in &lint_filter {
        let content = allow_dir
            .as_ref()
            .and_then(|d| {
                std::fs::read_to_string(d.join(format!("{}.allow", lint.replace('-', "_")))).ok()
            })
            .unwrap_or_default();
        let entries = parse_allowlist(lint, &content).unwrap_or_else(|errs| {
            analysis.errors.extend(errs);
            Vec::new()
        });
        allows.push((lint, entries));
    }

    // Phase 0: parse every file once.
    analysis.files_scanned = inputs.len();
    let mut files: Vec<FileData> = Vec::new();
    for (rel, source) in inputs {
        let (scopes, scope_errors) = parse_scopes(&rel, &source);
        analysis.errors.extend(scope_errors);
        for s in scopes.iter().filter(|s| *s != "panic-reachability") {
            analysis.errors.push(format!(
                "{rel}: lint:scope({s}) names a lint whose scope is not attribute-driven"
            ));
        }
        let scoped = scopes.iter().any(|s| s == "panic-reachability");
        if scoped && !graph_file(&rel) {
            analysis.errors.push(format!(
                "{rel}: lint:scope(panic-reachability) on a file outside the call graph \
                 (crate and root library sources) — the lint would never read it"
            ));
        }
        let (markers, marker_errors) = parse_markers(&rel, &source);
        analysis.errors.extend(marker_errors);
        let toks_full = tokenize(&source);
        let toks_stripped = strip_cfg_test(&toks_full);
        files.push(FileData {
            rel,
            source,
            scoped,
            markers,
            toks_full,
            toks_stripped,
        });
    }

    // Phase 1: per-file token lints.
    for fd in &mut files {
        let lines: Vec<&str> = fd.source.lines().collect();
        for &lint in lint_filter.iter().filter(|l| in_scope(l, &fd.rel)) {
            let toks = if strips_tests(lint) {
                &fd.toks_stripped
            } else {
                &fd.toks_full
            };
            let entries = allows.iter_mut().find(|(l, _)| *l == lint).map(|(_, e)| e);
            let Some(entries) = entries else { continue };
            for v in run_lint(lint, &fd.rel, toks) {
                if marker_covers(&mut fd.markers, lint, v.line) {
                    continue;
                }
                let line_text = lines.get(v.line as usize - 1).copied().unwrap_or("");
                if allowlist_covers(entries, &fd.rel, line_text) {
                    continue;
                }
                analysis.violations.push(v);
            }
        }
    }

    // Phase 2: interprocedural lints over the whole-workspace call graph.
    let interprocedural: Vec<&str> = lint_filter
        .iter()
        .copied()
        .filter(|l| {
            matches!(
                *l,
                "panic-reachability" | "lock-discipline" | "accounting-dataflow"
            )
        })
        .collect();
    if !interprocedural.is_empty() {
        // A scoped file's own panic sites are checked from the workspace's
        // copy of its tokens; phase 0 rejects a scoped file outside it.
        let ws = Workspace::build(
            files
                .iter()
                .filter(|fd| graph_file(&fd.rel))
                .map(|fd| (fd.rel.clone(), fd.toks_stripped.clone()))
                .collect(),
        );
        let by_rel: HashMap<String, usize> = files
            .iter()
            .enumerate()
            .map(|(i, fd)| (fd.rel.clone(), i))
            .collect();
        let mut raw: Vec<Violation> = Vec::new();
        for &lint in &interprocedural {
            match lint {
                "panic-reachability" => {
                    // A decode module carries the lint from birth: one
                    // without the scope attribute is a policy error.
                    for fd in files
                        .iter()
                        .filter(|fd| !fd.scoped && production_module(&fd.rel))
                    {
                        if let Some((line, name)) = undeclared_decoder(&fd.toks_stripped) {
                            analysis.errors.push(format!(
                                "{}:{line}: `fn {name}` in a production module without \
                                 `//! lint:scope(panic-reachability)` — decode modules carry \
                                 the lint from birth",
                                fd.rel
                            ));
                        }
                    }
                    let scoped_paths: HashSet<String> = files
                        .iter()
                        .filter(|fd| fd.scoped)
                        .map(|fd| fd.rel.clone())
                        .collect();
                    raw.extend(ipa::panic_reachability(&ws, &scoped_paths));
                }
                "lock-discipline" => raw.extend(ipa::lock_discipline(&ws)),
                "accounting-dataflow" => {
                    raw.extend(ipa::accounting_dataflow(&ws, &accounting_scope));
                }
                _ => {}
            }
        }
        raw.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        for v in raw {
            let Some(&fi) = by_rel.get(&v.file) else {
                analysis.violations.push(v);
                continue;
            };
            let fd = &mut files[fi];
            if marker_covers(&mut fd.markers, v.lint, v.line) {
                continue;
            }
            let line_text = fd
                .source
                .lines()
                .nth(v.line as usize - 1)
                .unwrap_or_default();
            let entries = allows
                .iter_mut()
                .find(|(l, _)| *l == v.lint)
                .map(|(_, e)| e);
            if let Some(entries) = entries {
                if allowlist_covers(entries, &v.file, line_text) {
                    continue;
                }
            }
            analysis.violations.push(v);
        }
    }

    // Phase 3: a marker naming no lint could never suppress anything, and
    // stale suppressions fail the run — the code a marker or allowlist
    // entry excused has moved or been fixed; remove it.
    for fd in &files {
        for m in &fd.markers {
            if !LINT_NAMES.contains(&m.lint.as_str()) {
                analysis.errors.push(format!(
                    "{}:{}: lint:allow({}) names no lint — the lints are {}",
                    fd.rel,
                    m.line,
                    m.lint,
                    LINT_NAMES.join(", ")
                ));
            } else if m.hits == 0 && lint_filter.contains(&m.lint.as_str()) {
                analysis.errors.push(format!(
                    "{}:{}: stale lint:allow({}) marker — it no longer suppresses anything",
                    fd.rel, m.line, m.lint
                ));
            }
        }
    }
    for (lint, entries) in &allows {
        for e in entries {
            if e.hits == 0 {
                analysis.errors.push(format!(
                    "{}.allow:{}: stale entry for {} (`{}`) — it no longer suppresses anything",
                    lint.replace('-', "_"),
                    e.defined_at,
                    e.path,
                    e.substring
                ));
            }
        }
    }
    analysis
}

/// Serialize an [`Analysis`] as the machine-readable findings document
/// emitted by `cargo xtask analyze --json`. Strict JSON — validated by
/// [`benchjson::check_json`] in the meta-tests and diffable across PRs in
/// CI.
pub fn json_report(a: &Analysis, only: Option<&str>) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }
    let lints: Vec<&str> = match only {
        Some(l) => vec![l],
        None => LINT_NAMES.to_vec(),
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"tool\": \"xtask-analyze\",\n");
    s.push_str(&format!(
        "  \"lints\": [{}],\n",
        lints
            .iter()
            .map(|l| format!("\"{}\"", esc(l)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!("  \"clean\": {},\n", a.is_clean()));
    s.push_str(&format!("  \"files_scanned\": {},\n", a.files_scanned));
    s.push_str("  \"violations\": [");
    for (i, v) in a.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            esc(&v.file),
            v.line,
            esc(v.lint),
            esc(&v.message)
        ));
    }
    if !a.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    s.push_str("  \"errors\": [");
    for (i, e) in a.errors.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\"", esc(e)));
    }
    if !a.errors.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}
