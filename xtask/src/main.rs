//! `cargo xtask <command>` — repo automation.
//!
//! Commands:
//! - `analyze [--lint <name>]` — run the architectural-invariant lints
//!   (see `ANALYSIS.md`); exits non-zero on any violation, malformed or
//!   stale suppression, or oversized allowlist.
//! - `bench-json` — validate every recorded `BENCH_*.json` artifact at
//!   the repo root: strict JSON (the writers hand-roll their output, so
//!   a missing comma or a formatted `NaN` ships silently otherwise) plus
//!   the artifact contract (top-level object with a `"bench"` string
//!   that names a `[[bench]]` target of `crates/bench`).

use std::path::PathBuf;
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    // xtask always lives at <repo>/xtask.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => {
            let mut only: Option<String> = None;
            let mut json = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--lint" => {
                        let Some(name) = args.get(i + 1) else {
                            eprintln!(
                                "`--lint` needs a lint name — available: {}",
                                xtask::lints::LINT_NAMES.join(", ")
                            );
                            return ExitCode::FAILURE;
                        };
                        only = Some(name.clone());
                        i += 2;
                    }
                    "--json" => {
                        json = true;
                        i += 1;
                    }
                    other => {
                        eprintln!("unknown argument `{other}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(l) = &only {
                if !xtask::lints::LINT_NAMES.contains(&l.as_str()) {
                    eprintln!(
                        "unknown lint `{l}` — available: {}",
                        xtask::lints::LINT_NAMES.join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
            let analysis = xtask::analyze_repo(&repo_root(), only.as_deref());
            if json {
                print!("{}", xtask::json_report(&analysis, only.as_deref()));
                return if analysis.is_clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            for v in &analysis.violations {
                println!("{}:{}: [{}] {}", v.file, v.line, v.lint, v.message);
            }
            for e in &analysis.errors {
                println!("policy: {e}");
            }
            if analysis.is_clean() {
                println!(
                    "analyze: clean ({} files scanned, lints: {})",
                    analysis.files_scanned,
                    only.as_deref().unwrap_or("all")
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "analyze: {} violation(s), {} policy error(s)",
                    analysis.violations.len(),
                    analysis.errors.len()
                );
                ExitCode::FAILURE
            }
        }
        Some("bench-json") => {
            let problems = xtask::benchjson::check_dir(&repo_root());
            if problems.is_empty() {
                println!("bench-json: all artifacts parse and name a bench target");
                ExitCode::SUCCESS
            } else {
                for (file, err) in &problems {
                    println!("{file}: {err}");
                }
                println!("bench-json: {} bad artifact(s)", problems.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo xtask analyze [--lint <name>] [--json] | bench-json");
            ExitCode::FAILURE
        }
    }
}
