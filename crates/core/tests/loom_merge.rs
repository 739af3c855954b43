//! Loom model of the segmented-scan merge handoff in
//! `crates/core/src/parallel.rs` (`IvaIndex::query_carry_opts`).
//!
//! The production code hands each worker a disjoint `&mut` slot
//! (`bounds.iter().zip(slots.iter_mut())` under a crossbeam scope), the
//! scope join is the only synchronization edge, and the merge loop then
//! reads every slot in segment order. This model re-states that protocol
//! with loom primitives and asserts the two properties the merge relies
//! on, under every explored interleaving:
//!
//! 1. **No lost publication** — after join, every slot holds its worker's
//!    result (the production merge turns an unfilled slot into
//!    `IvaError::Corrupt("worker slot unfilled")`; here it would be a
//!    plain assertion failure).
//! 2. **Deterministic merge** — the pool union and the accumulated stats
//!    are identical regardless of how the workers interleaved, because
//!    the merge happens strictly after the barrier and walks slots in
//!    segment order. (The union itself would tolerate any order — the
//!    pool's content does not depend on insertion order — but the stats
//!    sums and error precedence are defined by segment order.)
//!
//! Run with the vendored bounded checker (see TESTING.md):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p iva-core --test loom_merge --release
//! ```
#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;

const WORKERS: usize = 2;

/// Stand-in for `SegmentScan`: the private top-k pool and counters each
/// worker publishes into its slot. Slots are modeled as atomics because
/// the vendored checker has no `UnsafeCell` tracking; a slot value of 0
/// means "unfilled", mirroring `Option::None` in production.
fn segment_result(w: usize) -> u64 {
    // Distinct non-zero payload per segment so a swapped or clobbered
    // slot is detectable, not just a missing one.
    100 + w as u64
}

#[test]
fn merge_sees_every_slot_after_join() {
    loom::model(|| {
        let slots: Arc<Vec<AtomicU64>> =
            Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let slots = Arc::clone(&slots);
                loom::thread::spawn(move || {
                    // Worker: scan its segment, then publish into its own
                    // slot. Release pairs with the Acquire loads after the
                    // join barrier.
                    slots[w].store(segment_result(w), Ordering::Release);
                })
            })
            .collect();
        // crossbeam::thread::scope's implicit join barrier.
        for h in handles {
            h.join().unwrap();
        }
        // Merge loop: every slot filled, read in segment order.
        for (w, slot) in slots.iter().enumerate() {
            let seg = slot.load(Ordering::Acquire);
            assert_ne!(seg, 0, "worker slot {w} unfilled after join");
            assert_eq!(
                seg,
                segment_result(w),
                "slot {w} holds another segment's result"
            );
        }
    });
}

#[test]
fn merged_stats_are_interleaving_independent() {
    loom::model(|| {
        // Workers also bump a shared scanned-tuples counter (the model
        // analogue of per-segment `tuples_scanned` being summed). The
        // counter uses fetch_add, so the post-join total must be exact
        // under every schedule — a lost update here is precisely the bug
        // the slot-per-worker design avoids for the worker pools.
        let scanned = Arc::new(AtomicUsize::new(0));
        let slots: Arc<Vec<AtomicU64>> =
            Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let scanned = Arc::clone(&scanned);
                let slots = Arc::clone(&slots);
                loom::thread::spawn(move || {
                    scanned.fetch_add(10 * (w + 1), Ordering::Relaxed);
                    slots[w].store(segment_result(w), Ordering::Release);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Post-barrier merge in segment order: deterministic outcome.
        let mut merged = 0u64;
        for slot in slots.iter() {
            merged = merged * 1000 + slot.load(Ordering::Acquire);
        }
        assert_eq!(
            merged,
            100 * 1000 + 101,
            "merge order must be segment order"
        );
        assert_eq!(scanned.load(Ordering::Relaxed), 10 + 20);
    });
}
