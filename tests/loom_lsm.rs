//! Loom model of the seal/publish handoff behind
//! `serve::Writer::maintain` (`src/serve.rs` + `src/lsm.rs`): the
//! expensive prepare phase runs *outside* the write critical section
//! (readers keep answering), and the publish phase — the tier-list swap
//! — happens entirely *inside* it, so no reader can ever observe a
//! record in both tiers (double count) or in neither (dropped).
//!
//! The vendored checker has atomics only, so the reader-writer lock is
//! restated as the same seqlock idiom `loom_serve.rs` uses: an odd epoch
//! plays "write lock held" (production readers block; the model's
//! readers discard the sample). The store's tier state is reduced to two
//! words — `sealed` (records in sealed segments) and `mem` (records in
//! the memtable). A seal moves the memtable's records to the sealed
//! tier; the invariant every consistent snapshot must satisfy is
//! conservation: `sealed + mem == TOTAL`.
//!
//! Two models: the shipped protocol (prepare outside, both tier words
//! swapped inside one critical section), which must hold under every
//! interleaving, and the tempting-but-wrong variant that publishes the
//! sealed segment *before* entering the critical section — "the segment
//! is immutable, surely pushing it early is harmless" — which lets a
//! reader double-count the records mid-handoff. The checker must catch
//! it; if it ever stops doing so, the passing model above means nothing.
//!
//! Run with the vendored bounded checker (see TESTING.md):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --test loom_lsm --release
//! ```
#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;

/// Records living in the memtable at the start; a seal moves all of them.
const TOTAL: u64 = 3;

/// One reader pass — the model analogue of pinning a snapshot and
/// scanning both tiers. Valid only if the writer provably did not
/// overlap (both epoch loads equal and even).
fn sample(epoch: &AtomicU64, sealed: &AtomicU64, mem: &AtomicU64) -> Option<(u64, u64)> {
    let e1 = epoch.load(Ordering::Acquire);
    let s = sealed.load(Ordering::Acquire);
    let m = mem.load(Ordering::Acquire);
    let e2 = epoch.load(Ordering::Acquire);
    (e1 == e2 && e1 % 2 == 0).then_some((s, m))
}

#[test]
fn seal_handoff_conserves_every_record() {
    loom::model(|| {
        let epoch = Arc::new(AtomicU64::new(0));
        let sealed = Arc::new(AtomicU64::new(0));
        let mem = Arc::new(AtomicU64::new(TOTAL));

        let writer = {
            let epoch = Arc::clone(&epoch);
            let sealed = Arc::clone(&sealed);
            let mem = Arc::clone(&mem);
            loom::thread::spawn(move || {
                // Prepare (LsmDb::plan_maintenance under a read snapshot):
                // stage the segment from the memtable's records. Reads
                // only — concurrent readers are unaffected.
                let staged = mem.load(Ordering::Acquire);
                // Publish (Writer::apply(publish_maintenance)): enter the
                // critical section, swap both tier words, leave. The two
                // stores sit inside one lock hold, which is exactly what
                // keeps the conservation invariant readable.
                epoch.fetch_add(1, Ordering::Release);
                sealed.store(staged, Ordering::Release);
                mem.store(0, Ordering::Release);
                epoch.fetch_add(1, Ordering::Release);
            })
        };
        let reader = {
            let epoch = Arc::clone(&epoch);
            let sealed = Arc::clone(&sealed);
            let mem = Arc::clone(&mem);
            loom::thread::spawn(move || {
                for _ in 0..2 {
                    if let Some((s, m)) = sample(&epoch, &sealed, &mem) {
                        assert_eq!(
                            s + m,
                            TOTAL,
                            "snapshot sees {s} sealed + {m} memtable records: the seal \
                             handoff tore"
                        );
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Quiescent end state: everything sealed, nothing left behind.
        assert_eq!(sealed.load(Ordering::Acquire), TOTAL);
        assert_eq!(mem.load(Ordering::Acquire), 0);
        assert_eq!(epoch.load(Ordering::Acquire), 2);
    });
}

/// The buggy ordering — push the sealed segment into the tier list
/// during the prepare phase (outside the critical section) and only
/// clear the memtable inside it. A reader between the two observes the
/// records twice. The checker must find that schedule.
#[test]
fn early_segment_publish_is_caught_by_the_model() {
    let caught = std::panic::catch_unwind(|| {
        loom::model(|| {
            let epoch = Arc::new(AtomicU64::new(0));
            let sealed = Arc::new(AtomicU64::new(0));
            let mem = Arc::new(AtomicU64::new(TOTAL));

            let writer = {
                let epoch = Arc::clone(&epoch);
                let sealed = Arc::clone(&sealed);
                let mem = Arc::clone(&mem);
                loom::thread::spawn(move || {
                    let staged = mem.load(Ordering::Acquire);
                    // Bug: the swap's first half leaks out of the
                    // critical section.
                    sealed.store(staged, Ordering::Release);
                    epoch.fetch_add(1, Ordering::Release);
                    mem.store(0, Ordering::Release);
                    epoch.fetch_add(1, Ordering::Release);
                })
            };
            let reader = {
                let epoch = Arc::clone(&epoch);
                let sealed = Arc::clone(&sealed);
                let mem = Arc::clone(&mem);
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        if let Some((s, m)) = sample(&epoch, &sealed, &mem) {
                            assert_eq!(s + m, TOTAL, "torn seal handoff");
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
        "the model failed to catch the early-publish bug"
    );
}
