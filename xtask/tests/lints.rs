//! Meta-tests for `cargo xtask analyze`: every lint must fire on a
//! known-bad snippet, the escape hatches must work exactly as documented,
//! and the real tree must be clean.

use std::path::{Path, PathBuf};

use xtask::{analyze_repo, analyze_source, analyze_sources, Analysis};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(PathBuf::from)
        .expect("xtask sits one level below the repo root")
}

// ---------------------------------------------------------------------------
// Each lint fires on a bad snippet
// ---------------------------------------------------------------------------

#[test]
fn vfs_seam_fires_on_std_fs() {
    let v = analyze_source(
        "vfs-seam",
        "crates/core/src/index.rs",
        "fn f() { let d = std::fs::read(\"x\").unwrap(); }",
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].message.contains("std::fs"));
}

#[test]
fn vfs_seam_fires_on_file_open_and_openoptions() {
    let v = analyze_source(
        "vfs-seam",
        "crates/swt/tests/t.rs",
        "fn f() { let _ = File::open(\"x\"); let _ = OpenOptions::new(); }",
    );
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn vfs_seam_does_not_fire_on_blockfile_open() {
    // Token-level matching: `BlockFile::open` is not `File::open`.
    let v = analyze_source(
        "vfs-seam",
        "crates/storage/src/pager.rs",
        "fn f() { let _ = BlockFile::open(path); }",
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn vfs_seam_checks_test_code_too() {
    // Unlike the other lints, cfg(test) items are NOT exempt: tests must
    // construct their Vfs explicitly.
    let v = analyze_source(
        "vfs-seam",
        "crates/storage/src/file.rs",
        "#[cfg(test)]\nmod tests {\n fn f() { std::fs::create_dir_all(\"d\").unwrap(); }\n}",
    );
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn determinism_fires_on_clocks_and_rngs() {
    let src = r#"
fn f() {
    let t = Instant::now();
    let s = SystemTime::now();
    let r = thread_rng();
    let x = rand::random::<u64>();
}
"#;
    let v = analyze_source("determinism", "crates/core/src/scan.rs", src);
    assert_eq!(v.len(), 4, "{v:?}");
}

// ---------------------------------------------------------------------------
// panic-reachability inside a scoped file: every panic site in a
// `lint:scope(panic-reachability)` module is a violation of its own,
// whether or not anything calls it.
// ---------------------------------------------------------------------------

/// `src` as the one file of a workspace, carrying the scope attribute,
/// through the panic-reachability lint.
fn scoped_file(path: &str, src: &str) -> Analysis {
    let src = format!("//! lint:scope(panic-reachability)\n{src}");
    analyze_sources(Some("panic-reachability"), &[(path, &src)])
}

#[test]
fn panic_reachability_fires_on_unwrap_expect_and_macros_in_scope() {
    let src = r#"
fn f(buf: &[u8]) -> u32 {
    let x = buf.first().unwrap();
    let y = buf.last().expect("y");
    if *x == 0 { panic!("zero"); }
    match y { 0 => unreachable!(), _ => u32::from(*y) }
}
"#;
    let a = scoped_file("crates/swt/src/record.rs", src);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert_eq!(a.violations.len(), 4, "{:?}", a.violations);
}

#[test]
fn panic_reachability_fires_on_slice_index_in_scope() {
    let a = scoped_file(
        "crates/core/src/layout.rs",
        "fn f(b: &[u8]) -> u8 { b[0] + b[1..3][0] }",
    );
    assert_eq!(a.violations.len(), 3, "{:?}", a.violations);
}

#[test]
fn panic_reachability_fires_on_module_level_items_in_scope() {
    // Not inside any function: a const initializer indexes a table.
    let a = scoped_file(
        "crates/core/src/layout.rs",
        "const T: [u8; 2] = [1, 2];\nconst FIRST: u8 = T[0];\n",
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert_eq!(a.violations[0].line, 3, "{:?}", a.violations);
}

#[test]
fn panic_reachability_skips_lookalikes_in_scope() {
    // unwrap_or / expect_err are different identifiers; vec![…] and
    // #[attr] brackets are not index expressions; array types neither.
    let src = r#"
#[derive(Debug)]
struct S;
fn f(o: Option<u8>) -> Vec<u8> {
    let _ = o.unwrap_or(3);
    let _: [u8; 2] = [0, 1];
    vec![o.unwrap_or_default(); 4]
}
"#;
    let a = scoped_file("crates/swt/src/record.rs", src);
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn panic_reachability_exempts_debug_asserts_in_scope() {
    // Release builds erase the macro and everything in its arguments.
    let a = scoped_file(
        "crates/swt/src/record.rs",
        "fn f(b: &[u8]) -> bool {
    debug_assert!(b[0] == 0);
    b.is_empty()
}
",
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn panic_reachability_ignores_test_modules_in_scope() {
    let a = scoped_file(
        "crates/swt/src/record.rs",
        "#[cfg(test)]\nmod tests {\n fn f(b: &[u8]) -> u8 { b[0] }\n}\n",
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

// ---------------------------------------------------------------------------
// accounting-dataflow on one file: raw I/O with no accounting anywhere on
// its call paths.
// ---------------------------------------------------------------------------

/// One file through the accounting-dataflow lint, beside a `stats.rs`
/// that defines `IoStats` as the real workspace does (a parameter counts
/// as accounting only when its type resolves to that workspace type).
fn accounting_file(path: &str, src: &str) -> Analysis {
    analyze_sources(
        Some("accounting-dataflow"),
        &[
            (path, src),
            (
                "crates/storage/src/stats.rs",
                "pub struct IoStats {\n    reads: u64,\n}\n",
            ),
        ],
    )
}

#[test]
fn accounting_dataflow_fires_on_unaccounted_raw_io() {
    let a = accounting_file(
        "crates/storage/src/newmod.rs",
        "fn f(file: &dyn VfsFile) { let mut b = [0u8; 8]; file.read_at(&mut b, 0).ok(); }",
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert!(
        a.violations[0].message.contains("IoStats"),
        "{:?}",
        a.violations
    );
}

#[test]
fn accounting_dataflow_accepts_a_function_taking_stats() {
    let src = r#"
fn f(file: &dyn VfsFile, stats: &IoStats) {
    let mut b = [0u8; 8];
    file.read_at(&mut b, 0).ok();
}
"#;
    let a = accounting_file("crates/storage/src/newmod.rs", src);
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn accounting_dataflow_fires_on_unaccounted_whole_file_helpers() {
    // The manifest/commit path of the segmented store streams whole
    // files through `read_to_vec`/`write_vec`/`write_full_at` — a tier
    // module doing that without IoStats is under-reported I/O.
    let a = accounting_file(
        "crates/storage/src/newtier.rs",
        "fn load(vfs: &dyn Vfs, p: &Path) -> Vec<u8> { read_to_vec(vfs, p).unwrap() }",
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert!(
        a.violations[0].message.contains("read_to_vec"),
        "{:?}",
        a.violations
    );
    let a = accounting_file(
        "crates/storage/src/newtier.rs",
        "fn save(vfs: &dyn Vfs, p: &Path) { write_vec(vfs, p, b\"x\").unwrap(); }",
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
}

#[test]
fn accounting_dataflow_accepts_whole_file_helpers_with_stats() {
    let src = r#"
fn save(vfs: &dyn Vfs, p: &Path, io: &IoStats) {
    io.record_disk_write(1);
    write_vec(vfs, p, b"x").unwrap();
}
"#;
    let a = accounting_file("crates/storage/src/newtier.rs", src);
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn accounting_dataflow_ignores_trait_definitions() {
    let a = accounting_file(
        "crates/storage/src/newmod.rs",
        "trait T { fn read_at(&self, buf: &mut [u8], off: u64) -> usize; }",
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

// ---------------------------------------------------------------------------
// Escape hatches
// ---------------------------------------------------------------------------

#[test]
fn in_code_marker_suppresses_with_justification() {
    let src = r#"
fn f(b: &[u8]) -> u8 {
    // lint:allow(panic-reachability, "b is checked to be non-empty by the caller")
    b[0]
}
"#;
    let a = scoped_file("crates/core/src/layout.rs", src);
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn marker_without_justification_is_rejected() {
    let (markers, errors) =
        xtask::allowlist::parse_markers("f.rs", "// lint:allow(panic-reachability, \"\")\n");
    assert!(markers.is_empty());
    assert_eq!(errors.len(), 1);
}

#[test]
fn marker_for_other_lint_does_not_suppress() {
    let src = r#"
fn f(b: &[u8]) -> u8 {
    // lint:allow(determinism, "wrong lint")
    b[0]
}
"#;
    let a = scoped_file("crates/core/src/layout.rs", src);
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
}

#[test]
fn marker_naming_no_lint_is_a_policy_error() {
    // A leftover marker for a deleted lint can never suppress anything,
    // so it fails the run rather than lingering unchecked.
    let a = analyze_sources(
        None,
        &[(
            "crates/core/src/layout.rs",
            "// lint:allow(accounting, \"left over from a deleted lint\")\nfn ok() {}\n",
        )],
    );
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(a.errors[0].contains("names no lint"), "{:?}", a.errors);
}

#[test]
fn stale_in_code_marker_fails_the_run() {
    let a = scoped_file(
        "crates/core/src/layout.rs",
        "// lint:allow(panic-reachability, \"nothing here anymore\")\nfn ok() {}\n",
    );
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(a.errors[0].contains("stale"), "{:?}", a.errors);
}

// ---------------------------------------------------------------------------
// Full-repo runs (allowlist files) on a scratch repo
// ---------------------------------------------------------------------------

fn write(root: &Path, rel: &str, content: &str) {
    let p = root.join(rel);
    std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
    std::fs::write(p, content).expect("write");
}

fn scratch_repo(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-meta-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

#[test]
fn stale_allowlist_entry_fails_the_run() {
    let dir = scratch_repo("stale");
    write(&dir, "crates/core/src/layout.rs", "fn ok() {}\n");
    write(
        &dir,
        "xtask/allowlists/panic_reachability.allow",
        "crates/core/src/layout.rs :: b[0] :: was needed once\n",
    );
    let a = analyze_repo(&dir, Some("panic-reachability"));
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(a.errors[0].contains("stale"), "{:?}", a.errors);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_allowlist_entry_suppresses_and_is_not_stale() {
    let dir = scratch_repo("live");
    write(
        &dir,
        "crates/core/src/layout.rs",
        "//! lint:scope(panic-reachability)\nfn f(b: &[u8]) -> u8 { b[0] }\n",
    );
    write(
        &dir,
        "xtask/allowlists/panic_reachability.allow",
        "crates/core/src/layout.rs :: b[0] :: caller guarantees non-empty\n",
    );
    let a = analyze_repo(&dir, Some("panic-reachability"));
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_allowlist_fails_the_run() {
    let dir = scratch_repo("oversized");
    write(&dir, "crates/core/src/layout.rs", "fn ok() {}\n");
    let mut allow = String::new();
    for i in 0..41 {
        allow.push_str(&format!("crates/core/src/layout.rs :: x{i} :: filler\n"));
    }
    write(&dir, "xtask/allowlists/panic_reachability.allow", &allow);
    let a = analyze_repo(&dir, Some("panic-reachability"));
    assert!(a.errors.iter().any(|e| e.contains("cap")), "{:?}", a.errors);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn allowlist_file_naming_no_lint_is_a_policy_error() {
    // Only the running lints' allowlists are read, so an orphan file for
    // a deleted lint would otherwise never be looked at again.
    let dir = scratch_repo("orphan-allowlist");
    write(&dir, "crates/core/src/layout.rs", "fn ok() {}\n");
    write(
        &dir,
        "xtask/allowlists/accounting.allow",
        "# accounting allowlist\n",
    );
    let a = analyze_repo(&dir, None);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(
        a.errors[0].contains("accounting.allow") && a.errors[0].contains("not a lint"),
        "{:?}",
        a.errors
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_flag_without_a_value_is_an_error() {
    // Not a run of every lint: a dropped value must not pass for "all".
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--lint"])
        .output()
        .expect("run xtask");
    assert!(!out.status.success(), "`analyze --lint` exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`--lint` needs a lint name"), "{stderr}");
}

// ---------------------------------------------------------------------------
// Scope attributes
// ---------------------------------------------------------------------------

#[test]
fn scope_attribute_brings_module_in_scope() {
    let a = scoped_file(
        "crates/core/src/newmod.rs",
        "fn f(b: &[u8]) -> u8 { b[0] }\n",
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert!(a.violations[0].message.contains("slice-index"));
}

#[test]
fn module_without_attribute_is_out_of_scope() {
    let a = analyze_sources(
        Some("panic-reachability"),
        &[(
            "crates/core/src/newmod.rs",
            "fn f(b: &[u8]) -> u8 { b[0] }\n",
        )],
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn undeclared_decoder_module_is_a_policy_error() {
    // A production module that *parses* (defines `fn decode…`) without
    // declaring itself in scope must fail the run — decode modules carry
    // the lint from birth, not after someone remembers to list them.
    let a = analyze_sources(
        Some("panic-reachability"),
        &[(
            "crates/core/src/newmod.rs",
            "fn decode_header(b: &[u8]) -> u8 { 0 }\n",
        )],
    );
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(
        a.errors[0].contains("decode_header") && a.errors[0].contains("lint:scope"),
        "{:?}",
        a.errors
    );
}

#[test]
fn test_only_decoder_is_exempt_from_the_policy() {
    let a = analyze_sources(
        Some("panic-reachability"),
        &[(
            "crates/core/src/newmod.rs",
            "#[cfg(test)]\nmod tests {\n fn decode_fixture(b: &[u8]) -> u8 { b[0] }\n}\n",
        )],
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn scope_attribute_outside_the_call_graph_is_a_policy_error() {
    // An integration test is no graph file, so the lint could never read
    // the module it names.
    let a = analyze_sources(
        Some("panic-reachability"),
        &[(
            "tests/decode.rs",
            "//! lint:scope(panic-reachability)\nfn f(b: &[u8]) -> u8 { b[0] }\n",
        )],
    );
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(
        a.errors[0].contains("outside the call graph"),
        "{:?}",
        a.errors
    );
}

#[test]
fn scope_attribute_for_non_scoped_lint_is_rejected() {
    let a = analyze_sources(
        Some("panic-reachability"),
        &[(
            "crates/core/src/newmod.rs",
            "//! lint:scope(determinism)\nfn ok() {}\n",
        )],
    );
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(
        a.errors[0].contains("not attribute-driven"),
        "{:?}",
        a.errors
    );
}

// ---------------------------------------------------------------------------
// Interprocedural lints (the call-graph phase): panic-reachability,
// lock-discipline, accounting-dataflow. These run over an in-memory
// workspace via `analyze_sources`, which exercises the same resolver and
// marker machinery as the repo run (allowlist files are repo-run-only).
// ---------------------------------------------------------------------------

#[test]
fn panic_reachability_fires_across_files_with_chain() {
    let a = analyze_sources(
        Some("panic-reachability"),
        &[
            (
                "crates/swt/src/parse.rs",
                "//! lint:scope(panic-reachability)\npub fn parse(b: &[u8]) -> u8 { helper::finish(b) }\n",
            ),
            (
                "crates/swt/src/helper.rs",
                "pub fn finish(b: &[u8]) -> u8 { b[0] }\n",
            ),
        ],
    );
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    let v = &a.violations[0];
    // The panic site is reported where it lives — in the *unscoped*
    // helper crate — with the entry→target call chain in the message.
    assert_eq!(v.file, "crates/swt/src/helper.rs");
    assert!(v.message.contains("slice-index"), "{}", v.message);
    assert!(
        v.message.contains("parse::parse → helper::finish"),
        "chain missing from: {}",
        v.message
    );
}

#[test]
fn panic_reachability_flags_dynamic_calls_in_the_closure() {
    let a = analyze_sources(
        Some("panic-reachability"),
        &[(
            "crates/swt/src/parse.rs",
            "//! lint:scope(panic-reachability)\npub fn parse(f: impl Fn(u8) -> u8) -> u8 { f(0) }\n",
        )],
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert!(
        a.violations[0].message.contains("dynamic call"),
        "{}",
        a.violations[0].message
    );
}

#[test]
fn panic_reachability_marker_suppresses_at_the_panic_site() {
    let a = analyze_sources(
        Some("panic-reachability"),
        &[
            (
                "crates/swt/src/parse.rs",
                "//! lint:scope(panic-reachability)\npub fn parse(b: &[u8]) -> u8 { helper::finish(b) }\n",
            ),
            (
                "crates/swt/src/helper.rs",
                "pub fn finish(b: &[u8]) -> u8 {\n    // lint:allow(panic-reachability, \"callers slice after a bounds check\")\n    b[0]\n}\n",
            ),
        ],
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn panic_reachability_stale_marker_fails_the_run() {
    let a = analyze_sources(
        Some("panic-reachability"),
        &[(
            "crates/swt/src/helper.rs",
            "pub fn finish(b: &[u8]) -> u8 {\n    // lint:allow(panic-reachability, \"was needed before the bounds check\")\n    b.first().copied().unwrap_or(0)\n}\n",
        )],
    );
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert_eq!(a.errors.len(), 1, "{:?}", a.errors);
    assert!(a.errors[0].contains("stale"), "{:?}", a.errors);
}

/// Regression meta-test for the cross-module panic path this lint found
/// in the real tree: `ByteLog::open_with_vfs → parse_payload` decoded
/// fixed-width seal fields with unchecked slicing + `unwrap`, reachable
/// from the scoped table-open path. The pre-fix shape must fire; the
/// shipped decoder must stay clean under the same scoped caller.
#[test]
fn panic_reachability_regression_bytelog_parse_payload() {
    let entry = "//! lint:scope(panic-reachability)\n\
                 pub fn open(b: &[u8]) -> (u64, usize) { ByteLog::open_with_vfs(b) }\n";
    let pre_fix = r#"
pub struct ByteLog;
impl ByteLog {
    pub fn open_with_vfs(payload: &[u8]) -> (u64, usize) {
        parse_payload(payload)
    }
}
pub(crate) fn parse_payload(payload: &[u8]) -> (u64, usize) {
    let len = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let tail = u32::from_le_bytes(payload[40..44].try_into().unwrap()) as usize;
    (len, tail)
}
"#;
    let a = analyze_sources(
        Some("panic-reachability"),
        &[
            ("crates/storage/src/bytelog.rs", pre_fix),
            ("crates/swt/src/table.rs", entry),
        ],
    );
    assert!(!a.violations.is_empty(), "pre-fix parse_payload must fire");
    assert!(
        a.violations.iter().any(|v| v
            .message
            .contains("ByteLog::open_with_vfs → bytelog::parse_payload")),
        "{:?}",
        a.violations
    );

    let shipped = std::fs::read_to_string(repo_root().join("crates/storage/src/bytelog.rs"))
        .expect("read crates/storage/src/bytelog.rs");
    let a = analyze_sources(
        Some("panic-reachability"),
        &[
            ("crates/storage/src/bytelog.rs", &shipped),
            ("crates/swt/src/table.rs", entry),
        ],
    );
    assert!(
        a.violations.is_empty(),
        "shipped parse_payload regressed: {:?}",
        a.violations
    );
}

#[test]
fn lock_discipline_flags_second_lock_in_a_critical_section() {
    let a = analyze_sources(
        Some("lock-discipline"),
        &[(
            "src/lsm.rs",
            "pub struct S;\nimpl S {\n    fn swap(&self) {\n        let front = self.front.lock();\n        let back = self.back.lock();\n    }\n}\n",
        )],
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert!(
        a.violations[0].message.contains("second lock acquisition"),
        "{}",
        a.violations[0].message
    );
}

#[test]
fn lock_discipline_flags_raw_io_under_a_guard() {
    let a = analyze_sources(
        Some("lock-discipline"),
        &[(
            "src/lsm.rs",
            "pub struct S;\nimpl S {\n    fn seal(&self) {\n        let g = self.state.lock();\n        write_full_at(self.file.as_ref(), b\"x\", 0);\n    }\n}\n",
        )],
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert!(
        a.violations[0].message.contains("write_full_at")
            && a.violations[0].message.contains("lock guard"),
        "{}",
        a.violations[0].message
    );
}

#[test]
fn lock_discipline_flags_staging_reachable_from_publication_closure() {
    // The serving layer's `apply` closure runs under the writer lock;
    // reaching staging-class maintenance (`prepare`/`prepare_*`, `stage`)
    // from it — even transitively through another file — is the
    // hold-the-lock-during-merge stall the prepare/publish split removed.
    // The shape below is the real one: `seal` → `prepare` → the pair's
    // `stage`, two files away from the closure.
    let a = analyze_sources(
        Some("lock-discipline"),
        &[
            (
                "src/serve.rs",
                "pub struct Writer;\nimpl Writer {\n    pub fn flush(&self) {\n        self.apply(|eng| eng.seal_now())\n    }\n}\n",
            ),
            (
                "src/lsm.rs",
                "pub struct Db;\nimpl Db {\n    pub fn seal_now(&self) { self.prepare() }\n    fn prepare(&self) { IndexedTable::stage() }\n}\n",
            ),
            (
                "crates/core/src/indexed_table.rs",
                "pub struct IndexedTable;\nimpl IndexedTable {\n    pub fn stage() {}\n}\n",
            ),
        ],
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    let v = &a.violations[0];
    assert_eq!(v.file, "src/serve.rs");
    assert!(
        v.message.contains("staging-class `lsm::Db::prepare`"),
        "{}",
        v.message
    );
    assert!(
        v.message.contains("lsm::Db::seal_now → lsm::Db::prepare"),
        "chain missing from: {}",
        v.message
    );

    // The stage alone is staging-class too — the monolith's `rebuild`
    // reaches it with no `prepare` in between.
    let b = analyze_sources(
        Some("lock-discipline"),
        &[
            (
                "src/serve.rs",
                "pub struct Writer;\nimpl Writer {\n    pub fn delete(&self) {\n        self.apply(|eng| eng.rebuild_now())\n    }\n}\n",
            ),
            (
                "src/db.rs",
                "pub struct Db;\nimpl Db {\n    pub fn rebuild_now(&self) { IndexedTable::stage() }\n}\n",
            ),
            (
                "crates/core/src/indexed_table.rs",
                "pub struct IndexedTable;\nimpl IndexedTable {\n    pub fn stage() {}\n}\n",
            ),
        ],
    );
    assert_eq!(b.violations.len(), 1, "{:?}", b.violations);
    assert!(
        b.violations[0]
            .message
            .contains("staging-class `indexed_table::IndexedTable::stage`"),
        "{}",
        b.violations[0].message
    );
}

#[test]
fn lock_discipline_ignores_files_outside_its_targets() {
    // Same double-lock shape, but not in the serving layer or the LSM.
    let a = analyze_sources(
        Some("lock-discipline"),
        &[(
            "crates/core/src/index.rs",
            "pub struct S;\nimpl S {\n    fn swap(&self) {\n        let front = self.front.lock();\n        let back = self.back.lock();\n    }\n}\n",
        )],
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn lock_discipline_marker_suppresses_and_stale_marker_fails() {
    let suppressed = analyze_sources(
        Some("lock-discipline"),
        &[(
            "src/lsm.rs",
            "pub struct S;\nimpl S {\n    fn swap(&self) {\n        let front = self.front.lock();\n        // lint:allow(lock-discipline, \"back is ordered strictly after front at every site\")\n        let back = self.back.lock();\n    }\n}\n",
        )],
    );
    assert!(
        suppressed.is_clean(),
        "{:?} / {:?}",
        suppressed.violations,
        suppressed.errors
    );

    let stale = analyze_sources(
        Some("lock-discipline"),
        &[(
            "src/lsm.rs",
            "pub struct S;\nimpl S {\n    fn swap(&self) {\n        // lint:allow(lock-discipline, \"nothing locks here anymore\")\n        let front = self.front.lock();\n    }\n}\n",
        )],
    );
    assert!(stale.violations.is_empty(), "{:?}", stale.violations);
    assert_eq!(stale.errors.len(), 1, "{:?}", stale.errors);
    assert!(stale.errors[0].contains("stale"), "{:?}", stale.errors);
}

#[test]
fn accounting_dataflow_fires_when_no_caller_accounts() {
    let a = analyze_sources(
        Some("accounting-dataflow"),
        &[(
            "crates/storage/src/blob.rs",
            "pub fn load(f: &dyn VfsFile) -> [u8; 8] {\n    let mut b = [0u8; 8];\n    let _ = read_full_at(f, &mut b, 0);\n    b\n}\n",
        )],
    );
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    let v = &a.violations[0];
    assert!(
        v.message.contains("read_full_at")
            && v.message.contains("IoStats")
            && v.message.contains("no workspace caller found"),
        "{}",
        v.message
    );
}

#[test]
fn accounting_dataflow_accepts_accounting_in_a_transitive_caller() {
    // The I/O site itself never touches IoStats; its caller records the
    // bytes. The reverse walk over the call graph must find it.
    let a = analyze_sources(
        Some("accounting-dataflow"),
        &[
            (
                "crates/storage/src/blob.rs",
                "pub fn load(f: &dyn VfsFile) -> [u8; 8] {\n    let mut b = [0u8; 8];\n    let _ = read_full_at(f, &mut b, 0);\n    b\n}\n",
            ),
            (
                "crates/storage/src/tier.rs",
                "pub fn fetch(f: &dyn VfsFile, io: &IoStats) -> [u8; 8] {\n    let b = load(f);\n    io.record_disk_read(1);\n    b\n}\n",
            ),
        ],
    );
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
}

#[test]
fn accounting_dataflow_takes_an_unknown_receiver_edge_as_a_caller() {
    // The verdict is only as precise as the resolver. `src`'s type is
    // not a workspace type, so `src.load_raw(f)` links to every
    // `load_raw` in the workspace, and that name-only edge supplies the
    // accounting caller. The I/O site passes, although no `IoStats` may
    // ever see its bytes — where the per-file lint this one replaced
    // failed the module for never naming `IoStats`.
    let blob = (
        "crates/storage/src/blob.rs",
        "pub struct Blob;\nimpl Blob {\n    pub fn load_raw(&self, f: &dyn VfsFile) -> [u8; 8] {\n        let mut b = [0u8; 8];\n        let _ = read_full_at(f, &mut b, 0);\n        b\n    }\n}\n",
    );
    let tier = (
        "crates/storage/src/tier.rs",
        "pub fn fetch(src: &Source, f: &dyn VfsFile, io: &IoStats) -> [u8; 8] {\n    let b = src.load_raw(f);\n    io.record_disk_read(1);\n    b\n}\n",
    );
    let a = analyze_sources(Some("accounting-dataflow"), &[blob, tier]);
    assert!(a.is_clean(), "{:?} / {:?}", a.violations, a.errors);
    // Without that edge the same site fails.
    let a = analyze_sources(Some("accounting-dataflow"), &[blob]);
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
}

#[test]
fn accounting_dataflow_marker_suppresses_and_stale_marker_fails() {
    let suppressed = analyze_sources(
        Some("accounting-dataflow"),
        &[(
            "crates/storage/src/blob.rs",
            "pub fn load(f: &dyn VfsFile) -> [u8; 8] {\n    let mut b = [0u8; 8];\n    // lint:allow(accounting-dataflow, \"fixture helper, never on a measured path\")\n    let _ = read_full_at(f, &mut b, 0);\n    b\n}\n",
        )],
    );
    assert!(
        suppressed.is_clean(),
        "{:?} / {:?}",
        suppressed.violations,
        suppressed.errors
    );

    let stale = analyze_sources(
        Some("accounting-dataflow"),
        &[(
            "crates/storage/src/blob.rs",
            "pub fn load() -> u8 {\n    // lint:allow(accounting-dataflow, \"no raw I/O here anymore\")\n    0\n}\n",
        )],
    );
    assert!(stale.violations.is_empty(), "{:?}", stale.violations);
    assert_eq!(stale.errors.len(), 1, "{:?}", stale.errors);
    assert!(stale.errors[0].contains("stale"), "{:?}", stale.errors);
}

// ---------------------------------------------------------------------------
// Machine-readable report (`cargo xtask analyze --json`)
// ---------------------------------------------------------------------------

/// The `--json` report must be strict JSON — validated with the same
/// parser that gates the recorded bench artifacts — for both a clean run
/// and one carrying violations and policy errors.
#[test]
fn json_report_is_strict_json_clean_and_dirty() {
    let clean = analyze_repo(&repo_root(), None);
    let doc = xtask::json_report(&clean, None);
    xtask::benchjson::check_json(&doc).expect("clean report must be strict JSON");
    assert!(doc.contains("\"tool\""), "{doc}");
    assert!(doc.contains("xtask-analyze"), "{doc}");

    let dirty = analyze_sources(
        Some("panic-reachability"),
        &[
            (
                "crates/swt/src/parse.rs",
                "//! lint:scope(panic-reachability)\npub fn parse(b: &[u8]) -> u8 { helper::finish(b) }\n",
            ),
            (
                "crates/swt/src/helper.rs",
                "pub fn finish(b: &[u8]) -> u8 { b[0] }\n// lint:allow(panic-reachability, \"stale on purpose\")\n",
            ),
        ],
    );
    assert!(!dirty.is_clean());
    let doc = xtask::json_report(&dirty, Some("panic-reachability"));
    xtask::benchjson::check_json(&doc).expect("dirty report must be strict JSON");
    assert!(
        doc.contains("\"clean\": false") || doc.contains("\"clean\":false"),
        "{doc}"
    );
}

/// The real tree is clean: zero unallowed violations, zero stale
/// suppressions. This is the same check CI runs via `cargo xtask analyze`.
#[test]
fn current_tree_is_clean() {
    let a = analyze_repo(&repo_root(), None);
    assert!(
        a.is_clean(),
        "violations: {:#?}\npolicy errors: {:#?}",
        a.violations,
        a.errors
    );
    assert!(a.files_scanned > 50, "scanned only {}", a.files_scanned);
}
