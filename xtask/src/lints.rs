//! The two per-file token lints, and the [`Violation`] every lint reports.
//!
//! Each lint takes a repo-relative path plus the file's token stream and
//! returns raw violations; allowlist filtering happens in
//! [`crate::allowlist`]. See `ANALYSIS.md` for the catalog and rationale.

use crate::lexer::Tok;

/// One raw lint finding, before allowlist filtering.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name (one of [`LINT_NAMES`]).
    pub lint: &'static str,
    /// Human-readable description of what fired.
    pub message: String,
}

/// All lint names, in the order they run. The first two are per-file
/// token lints; the last three are interprocedural (see [`crate::ipa`]).
pub const LINT_NAMES: [&str; 5] = [
    "vfs-seam",
    "determinism",
    "panic-reachability",
    "lock-discipline",
    "accounting-dataflow",
];

fn violation(file: &str, line: u32, lint: &'static str, message: String) -> Violation {
    Violation {
        file: file.to_string(),
        line,
        lint,
        message,
    }
}

/// `vfs-seam`: the only module allowed to touch the host filesystem is
/// `crates/storage/src/vfs.rs` (where [`RealVfs`] lives). Everything else
/// — production code, tests, and benches alike — must go through a [`Vfs`]
/// handle, or fault injection and the in-memory harness silently lose
/// coverage. Flags `std::fs`, `fs::…` paths, `File::open`/`File::create`,
/// and `OpenOptions`.
pub fn vfs_seam(file: &str, toks: &[Tok]) -> Vec<Violation> {
    const LINT: &str = "vfs-seam";
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let nx = |k: usize| toks.get(i + k).map(|t| t.s.as_str());
        match t.s.as_str() {
            "std" if nx(1) == Some("::") && nx(2) == Some("fs") => {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    "`std::fs` outside the Vfs seam".into(),
                ));
            }
            // Bare `fs::…` after a `use std::fs` (the use itself is also
            // flagged, but a partial cleanup should not hide call sites).
            "fs" if nx(1) == Some("::")
                && (i == 0 || toks[i - 1].s != "::")
                && nx(2).is_some_and(|s| s != "Vfs" && s != "VfsFile") =>
            {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    "`fs::` path outside the Vfs seam".into(),
                ));
            }
            "File"
                if nx(1) == Some("::")
                    && matches!(nx(2), Some("open") | Some("create"))
                    && (i == 0 || toks[i - 1].s != "::") =>
            {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    format!("`File::{}` outside the Vfs seam", nx(2).unwrap_or("")),
                ));
            }
            "OpenOptions" => {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    "`OpenOptions` outside the Vfs seam".into(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// `determinism`: the index/storage/query stack must be replayable — the
/// crash-recovery torture tests replay an operation log and expect
/// bit-identical files, and query results must not depend on the clock.
/// Flags `Instant::now`, `SystemTime`, `thread_rng`, `from_entropy`, and
/// `rand::random` in production modules. The one audited clock is
/// `thread_cpu_time()` in `crates/core/src/timing.rs` (measurement only,
/// never control flow) — it is carried on the allowlist.
pub fn determinism(file: &str, toks: &[Tok]) -> Vec<Violation> {
    const LINT: &str = "determinism";
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let nx = |k: usize| toks.get(i + k).map(|t| t.s.as_str());
        match t.s.as_str() {
            "Instant" if nx(1) == Some("::") && nx(2) == Some("now") => {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    "`Instant::now` in a deterministic module".into(),
                ));
            }
            "SystemTime" => {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    "`SystemTime` in a deterministic module".into(),
                ));
            }
            "thread_rng" | "from_entropy" => {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    format!("`{}` (ambient randomness) in a deterministic module", t.s),
                ));
            }
            "random" if i >= 2 && toks[i - 1].s == "::" && toks[i - 2].s == "rand" => {
                out.push(violation(
                    file,
                    t.line,
                    LINT,
                    "`rand::random` in a deterministic module".into(),
                ));
            }
            _ => {}
        }
    }
    out
}
