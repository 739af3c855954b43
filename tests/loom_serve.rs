//! Loom models of the serving layer (`src/serve.rs`): the epoch
//! publication protocol, and the admission queue's shutdown handshake.
//!
//! **Epochs.** The writer bumps the epoch counter *inside* the write
//! critical section, so no reader can pair new engine state with an old
//! epoch or old state with a new one.
//!
//! The vendored checker has no `RwLock`, so the
//! lock-exclusion + epoch-bump protocol is restated as its equivalent
//! seqlock: an odd epoch value plays the role of "write lock held"
//! (production readers block here; the model's readers instead discard
//! the sample), and the even bump before anything else can run again is
//! the in-critical-section publication of `Writer::apply`. Publication
//! `i` stores state `i` and lands on epoch `2·i`, so a consistent sample
//! must satisfy `state == epoch / 2` — exactly the serving layer's
//! "two snapshots with equal epochs saw bit-identical data".
//!
//! Two models: the shipped protocol, which must hold under every
//! interleaving, and the tempting-but-wrong variant that publishes state
//! before bumping (the bump-after-release bug), which the checker must
//! catch — proving the model is strong enough to see the difference.
//!
//! **Shutdown.** A job pushed onto the admission queue after the last
//! worker exited is never answered: its caller blocks forever. The queue
//! is a model `Mutex`, the shutdown flag an atomic; the shipped
//! `Client::search` reads the flag under the queue lock, and a variant
//! that reads it before taking the lock must be caught.
//!
//! Run with the vendored bounded checker (see TESTING.md):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --test loom_serve --release
//! ```
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};

const PUBLICATIONS: u64 = 2;

/// One reader pass: the model analogue of `read_snapshot` — sample the
/// epoch, the state, and the epoch again. In production the read guard
/// makes the three reads atomic with respect to the writer; here a
/// sample is "a snapshot" only if the writer provably did not overlap
/// (both epoch loads equal and even). No retry loop: an inconsistent
/// sample is simply not a snapshot, and bounding the reader keeps the
/// schedule tree finite.
fn sample(epoch: &AtomicU64, state: &AtomicU64) -> Option<(u64, u64)> {
    let e1 = epoch.load(Ordering::Acquire);
    let s = state.load(Ordering::Acquire);
    let e2 = epoch.load(Ordering::Acquire);
    (e1 == e2 && e1 % 2 == 0).then_some((e1, s))
}

#[test]
fn epoch_always_pairs_with_its_publication() {
    loom::model(|| {
        let epoch = Arc::new(AtomicU64::new(0));
        let state = Arc::new(AtomicU64::new(0));

        let writer = {
            let epoch = Arc::clone(&epoch);
            let state = Arc::clone(&state);
            loom::thread::spawn(move || {
                for i in 1..=PUBLICATIONS {
                    // Writer::apply: enter the critical section (odd —
                    // readers excluded), mutate, publish the epoch while
                    // still inside, then release (even).
                    epoch.fetch_add(1, Ordering::Release);
                    state.store(i, Ordering::Release);
                    epoch.fetch_add(1, Ordering::Release);
                }
            })
        };
        let reader = {
            let epoch = Arc::clone(&epoch);
            let state = Arc::clone(&state);
            loom::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..2 {
                    if let Some((e, s)) = sample(&epoch, &state) {
                        assert_eq!(
                            s,
                            e / 2,
                            "snapshot pairs state {s} with epoch {e}: torn publication"
                        );
                        assert!(e >= last, "epoch went backwards");
                        last = e;
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Quiescent end state: everything published, epoch even.
        assert_eq!(epoch.load(Ordering::Acquire), 2 * PUBLICATIONS);
        assert_eq!(state.load(Ordering::Acquire), PUBLICATIONS);
    });
}

/// The buggy ordering — mutate first, then bump straight to the next
/// even epoch (i.e. the bump happens outside the critical section, as if
/// `Writer::apply` bumped after `drop(guard)`). A reader can then pair
/// the *new* state with the *old* epoch. The checker must find that
/// schedule; if it ever stops doing so, the model has gone blind and
/// the passing test above means nothing.
#[test]
fn late_epoch_bump_is_caught_by_the_model() {
    let caught = std::panic::catch_unwind(|| {
        loom::model(|| {
            let epoch = Arc::new(AtomicU64::new(0));
            let state = Arc::new(AtomicU64::new(0));

            let writer = {
                let epoch = Arc::clone(&epoch);
                let state = Arc::clone(&state);
                loom::thread::spawn(move || {
                    for i in 1..=PUBLICATIONS {
                        state.store(i, Ordering::Release);
                        epoch.fetch_add(2, Ordering::Release);
                    }
                })
            };
            let reader = {
                let epoch = Arc::clone(&epoch);
                let state = Arc::clone(&state);
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        if let Some((e, s)) = sample(&epoch, &state) {
                            assert_eq!(s, e / 2, "torn publication");
                        }
                    }
                })
            };
            writer.join().unwrap();
            reader.join().unwrap();
        });
    });
    assert!(
        caught.is_err(),
        "the model failed to catch the bump-after-release bug"
    );
}

/// One job submitted while the server shuts down under one worker — the
/// model analogue of `Client::search`, `Server::begin_shutdown` and
/// `worker_loop`. The queue holds a job count.
///
/// The worker runs one pass: take the lock, pop a job if there is one,
/// else exit if the flag is set. That pass stands for the worker's last:
/// an earlier pass either pops the one job (nothing is left to strand) or
/// finds the queue empty and the flag clear and waits, changing nothing.
/// Shutdown is the flag store alone: its notify only wakes a waiting
/// worker, and the one pass may already run at any point.
///
/// Under every schedule in which the worker exited, no job may be left
/// queued: it would be a job no worker will ever answer. Returns the
/// number of schedules explored.
fn shutdown_handshake(flag_read_under_lock: bool) -> usize {
    let schedules = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counter = Arc::clone(&schedules);
    loom::model(move || {
        counter.fetch_add(1, Ordering::Relaxed);
        let queue = Arc::new(Mutex::new(0u32));
        let shutdown = Arc::new(AtomicBool::new(false));

        let worker = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            loom::thread::spawn(move || {
                let mut q = queue.lock().unwrap();
                if *q > 0 {
                    *q -= 1;
                    return false;
                }
                shutdown.load(Ordering::Acquire)
            })
        };
        let client = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            loom::thread::spawn(move || {
                if flag_read_under_lock {
                    let mut q = queue.lock().unwrap();
                    if !shutdown.load(Ordering::Acquire) {
                        *q += 1;
                    }
                } else if !shutdown.load(Ordering::Acquire) {
                    *queue.lock().unwrap() += 1;
                }
            })
        };
        shutdown.store(true, Ordering::Release);

        client.join().unwrap();
        let exited = worker.join().unwrap();
        if exited {
            assert_eq!(
                *queue.lock().unwrap(),
                0,
                "a job was queued after the last worker exited"
            );
        }
    });
    schedules.load(Ordering::Relaxed)
}

#[test]
fn no_job_is_stranded_by_shutdown() {
    let explored = shutdown_handshake(true);
    // Below the checker's cap, so the exploration was exhaustive.
    assert!(explored < loom::MAX_ITERATIONS, "{explored} schedules");
}

/// The shutdown flag read before the queue lock: the client sees the
/// server open, shutdown runs, the worker finds the queue empty and
/// exits, and only then is the job pushed. The checker must find it.
#[test]
fn flag_read_outside_the_lock_is_caught_by_the_model() {
    let caught = std::panic::catch_unwind(|| shutdown_handshake(false));
    assert!(
        caught.is_err(),
        "the model failed to catch the job stranded by a stale shutdown flag"
    );
}
