//! Crash-torture tests for the byte log.
//!
//! A deterministic workload (appends and flushes) is first
//! dry-run on a pass-through [`FaultVfs`] to count filesystem operations,
//! then replayed once per operation index with a power cut injected at
//! exactly that op. After each crash the durable disk image is reopened
//! and must decode to a *committed* state: the state of the last flush
//! that returned `Ok`, or — if the crash hit mid-flush — possibly the
//! state that flush was committing (the rename may have happened before
//! the cut). Anything else (a mix, a panic, unreadable data) is a bug.
//!
//! Every assertion message carries `(seed, crash_at)`; re-running the
//! binary with those values in `replay_one` reproduces the failure
//! exactly. See TESTING.md.

use std::path::Path;
use std::sync::Arc;

use iva_storage::{ByteLog, FaultKind, FaultVfs, IoStats, PagerOptions, PlannedFault, Vfs};

const PAGE: usize = 128;
const LOG_PATH: &str = "torture.log";

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: PAGE,
        cache_bytes: PAGE * 8,
    }
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A log state a crash may legitimately recover to.
#[derive(Clone, PartialEq)]
struct State {
    content: Vec<u8>,
    user: Vec<u8>,
}

/// What a (possibly crash-interrupted) workload run acknowledged.
struct Outcome {
    /// State of the last flush that returned `Ok` (None: even `create`'s
    /// initial flush did not complete, nothing was ever acked).
    acked: Option<State>,
    /// State a flush was committing when an op failed mid-flush, if any —
    /// the crash may have landed after the commit point.
    pending: Option<State>,
}

/// Replay the deterministic workload for `seed` on `vfs`, stopping at the
/// first failed operation. Returns the states a reopen may observe.
fn run_workload(vfs: Arc<dyn Vfs>, seed: u64) -> Outcome {
    let mut rng = seed;
    let mut log = match ByteLog::create_with_vfs(vfs, Path::new(LOG_PATH), &opts(), IoStats::new())
    {
        Ok(log) => log,
        Err(_) => {
            return Outcome {
                acked: None,
                pending: None,
            }
        }
    };
    let mut current = State {
        content: Vec::new(),
        user: Vec::new(),
    };
    let mut acked = Some(current.clone());
    let mut flushes = 0u64;

    for _ in 0..48 {
        match splitmix(&mut rng) % 5 {
            // Flush: stamp recognizable user bytes — their length cycles
            // through 0, a few bytes, and more than a page — and attempt
            // the commit.
            0 => {
                flushes += 1;
                let n = [0usize, 7, 32, 300][flushes as usize % 4];
                current.user = (0..n)
                    .map(|i| (flushes as u8).wrapping_add(i as u8))
                    .collect();
                log.set_user(current.user.clone());
                let pending = current.clone();
                match log.flush() {
                    Ok(()) => acked = Some(pending),
                    Err(_) => {
                        return Outcome {
                            acked,
                            pending: Some(pending),
                        }
                    }
                }
            }
            // Append a run of derived bytes (often page-crossing).
            _ => {
                let n = 1 + (splitmix(&mut rng) % 200) as usize;
                let data: Vec<u8> = (0..n).map(|_| splitmix(&mut rng) as u8).collect();
                match log.append(&data) {
                    Ok(off) => {
                        assert_eq!(off, current.content.len() as u64);
                        current.content.extend_from_slice(&data);
                    }
                    Err(_) => {
                        return Outcome {
                            acked,
                            pending: None,
                        }
                    }
                }
            }
        }
    }
    // Clean completion: commit whatever is left so the run ends acked.
    let pending = current.clone();
    match log.flush() {
        Ok(()) => Outcome {
            acked: Some(pending),
            pending: None,
        },
        Err(_) => Outcome {
            acked,
            pending: Some(pending),
        },
    }
}

/// Reopen `disk` and check the recovered log equals one of the states the
/// workload acked (or was committing). Then prove the recovered log is
/// live: append, flush, reopen again.
fn verify_recovery(disk: &dyn Fn() -> Arc<dyn Vfs>, outcome: &Outcome, ctx: &str) {
    let reopened = ByteLog::open_with_vfs(disk(), Path::new(LOG_PATH), &opts(), IoStats::new());
    let Some(acked) = &outcome.acked else {
        // Nothing was ever acked; an error (e.g. missing commit record) is
        // a legitimate answer, a panic is not — reaching this line at all
        // is the assertion.
        return;
    };
    let mut log = match reopened {
        Ok(log) => log,
        Err(e) => panic!("{ctx}: acked state exists but reopen failed: {e}"),
    };

    let matches = |want: &State| -> bool {
        if log.len() != want.content.len() as u64 || log.user() != want.user {
            return false;
        }
        let mut buf = vec![0u8; want.content.len()];
        log.read_at(0, &mut buf)
            .unwrap_or_else(|e| panic!("{ctx}: read failed: {e}"));
        buf == want.content
    };
    let ok = matches(acked) || outcome.pending.as_ref().is_some_and(&matches);
    assert!(
        ok,
        "{ctx}: recovered log (len {}) matches neither the acked state (len {}) nor the \
         in-flight one (len {:?})",
        log.len(),
        acked.content.len(),
        outcome.pending.as_ref().map(|p| p.content.len()),
    );
    assert_eq!(
        log.committed_len(),
        log.len(),
        "{ctx}: reopen must be committed"
    );

    // The recovered log must accept new writes and commit them.
    let base = log.len();
    log.append(b"post-recovery write")
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    log.flush().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let mut buf = vec![0u8; 19];
    log.read_at(base, &mut buf)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(&buf, b"post-recovery write", "{ctx}");
}

#[test]
fn power_cut_at_every_op_recovers_a_committed_state() {
    for seed in [0xC0FF_EE00_u64, 0x5EED_0002, 0x5EED_0003] {
        // Dry run: count the workload's filesystem operations.
        let dry = FaultVfs::passthrough(seed);
        let outcome = run_workload(Arc::new(dry.clone()), seed);
        assert!(outcome.acked.is_some() && outcome.pending.is_none());
        let total_ops = dry.op_count();
        assert!(total_ops > 100, "workload too small to be interesting");

        for crash_at in 0..total_ops {
            let fv = FaultVfs::power_cut_at(seed, crash_at);
            let outcome = run_workload(Arc::new(fv.clone()), seed);
            assert!(
                fv.crashed(),
                "seed={seed:#x} crash_at={crash_at}: cut never fired"
            );
            let ctx = format!("seed={seed:#x} crash_at={crash_at}");
            let snap = fv.durable_snapshot();
            verify_recovery(&|| Arc::new(snap.clone()), &outcome, &ctx);
        }
    }
}

#[test]
fn transient_faults_error_not_panic_and_preserve_commits() {
    let seed = 0xBAD5_EED1_u64;
    let dry = FaultVfs::passthrough(seed);
    run_workload(Arc::new(dry.clone()), seed);
    let total_ops = dry.op_count();

    for kind in [
        FaultKind::ShortRead,
        FaultKind::ShortWrite,
        FaultKind::Eio,
        FaultKind::SyncFail,
    ] {
        for at in 0..total_ops {
            let fv = FaultVfs::with_faults(seed, vec![PlannedFault { at, kind }]);
            let outcome = run_workload(Arc::new(fv.clone()), seed);
            assert!(!fv.crashed());
            // No power cut: the "disk" is the volatile image. Short
            // reads/writes are absorbed by the full-read/write loops, so
            // most runs complete; an EIO/SyncFail mid-run must still leave
            // a reopenable committed state.
            let ctx = format!("seed={seed:#x} kind={kind:?} at={at}");
            let snap = fv.volatile_snapshot();
            verify_recovery(&|| Arc::new(snap.clone()), &outcome, &ctx);
        }
    }
}
