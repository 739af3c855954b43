//! Loom model of the pager's miss protocol in
//! `crates/storage/src/pager.rs` (`Pager::read_page`).
//!
//! The production protocol: a filling thread reads a page image into a
//! fresh buffer (`read_verified`: the positional read under the file lock,
//! verification under none — in any case *outside* the shard lock), wraps
//! it in an `Arc`, and only then takes the shard lock to
//! publish — and if another thread won the race, it adopts the copy
//! already in the cache ("prefer the copy already in the cache") instead
//! of overwriting. Consumers take the same shard lock to pin, so a pin
//! can only ever name a fully-built, never-again-mutated image
//! (`write_page` replaces the `Arc`; nothing mutates a published page in
//! place).
//!
//! The model restates that protocol with the vendored checker's tracked
//! primitives — the page image is a [`loom::cell::UnsafeCell`] (its
//! write/read windows are the model analogue of building/scanning the
//! page bytes) and the cache slot is a [`loom::sync::Mutex`] — and
//! asserts, under every explored interleaving:
//!
//! 1. **Complete handoff** — two demand readers racing on the same cold
//!    page both end up pinning a complete image, with no data race
//!    between the build and the scan.
//! 2. **Publication order matters** (negative control) — publishing the
//!    `Arc` *before* writing the image lets a reader's scan overlap the
//!    build, and the checker must catch that schedule.
//! 3. **Published pages are immutable** (negative control) — mutating an
//!    already-published image in place (instead of replacing the `Arc`)
//!    races a pinned reader, and the checker must catch that too.
//! 4. **No stale publication** — a filler racing a writer *and* an
//!    eviction of the writer's fresh entry never leaves the pre-write image
//!    in the pool: the writer bumps the shard's write generation under the
//!    shard lock and the filler publishes only against the generation it
//!    noted at miss time. Negative control: publishing on "the slot is
//!    empty" alone is caught.
//!
//! Run with the vendored bounded checker (see TESTING.md):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p iva-storage --test loom_pager --release
//! ```
#![cfg(loom)]

use loom::cell::UnsafeCell;
use loom::sync::{Arc, Mutex};

/// The model page image: one tracked word stands for the page bytes.
type Page = Arc<UnsafeCell<u64>>;

/// The model shard: one cache slot behind the shard mutex.
type Slot = Arc<Mutex<Option<Page>>>;

/// Distinct-from-zero payload so a torn or missing build is detectable.
const IMAGE: u64 = 0xA11_F17;

/// The `read_page` miss path: build the image outside the lock, publish
/// under it, adopting the cached copy if another filler won. Returns the
/// pin the caller scans through.
fn fill_and_pin(slot: &Slot) -> Page {
    let page: Page = Arc::new(UnsafeCell::new(0));
    // `read_verified` into the private buffer: no lock held, no sharing.
    page.with_mut(|p| unsafe { *p = IMAGE });
    let mut guard = slot.lock().unwrap();
    match guard.as_ref() {
        Some(fresh) => Arc::clone(fresh),
        None => {
            *guard = Some(Arc::clone(&page));
            page
        }
    }
}

/// Scan a pinned page (the refine phase reading record bytes).
fn scan(pin: &Page) -> u64 {
    pin.with(|p| unsafe { *p })
}

#[test]
fn racing_fillers_hand_off_complete_pages() {
    loom::model(|| {
        let slot: Slot = Arc::new(Mutex::new(None));
        // Two demand readers missing the same cold page.
        let s2 = Arc::clone(&slot);
        let other = loom::thread::spawn(move || {
            let pin = fill_and_pin(&s2);
            scan(&pin)
        });
        let pin = fill_and_pin(&slot);
        let seen = scan(&pin);
        let theirs = other.join().unwrap();
        assert_eq!(seen, IMAGE, "reader pinned a torn page");
        assert_eq!(theirs, IMAGE, "racing reader pinned a torn page");
        // Whoever lost the publication race adopted the winner's Arc, so
        // the slot holds a complete image for every later hit.
        let guard = slot.lock().unwrap();
        let resident = guard.as_ref().expect("page vanished from the pool");
        assert_eq!(scan(resident), IMAGE, "pool holds a torn page");
    });
}

#[test]
fn publish_before_fill_is_caught() {
    // The tempting-but-wrong variant: insert the Arc under the lock
    // first, write the bytes after. A reader that pins between the two
    // scans mid-build — the checker must find that schedule.
    let found = std::panic::catch_unwind(|| {
        loom::model(|| {
            let slot: Slot = Arc::new(Mutex::new(None));
            let s2 = Arc::clone(&slot);
            let broken_filler = loom::thread::spawn(move || {
                let page: Page = Arc::new(UnsafeCell::new(0));
                *s2.lock().unwrap() = Some(Arc::clone(&page));
                page.with_mut(|p| unsafe { *p = IMAGE });
            });
            let pinned = slot.lock().unwrap().as_ref().map(Arc::clone);
            if let Some(pin) = pinned {
                scan(&pin);
            }
            broken_filler.join().unwrap();
        });
    });
    assert!(
        found.is_err(),
        "checker missed the publish-before-fill race"
    );
}

#[test]
fn mutating_a_published_page_is_caught() {
    // Production replaces the Arc on write (`write_page` publishes a new
    // page); mutating the published image in place races every held pin.
    let found = std::panic::catch_unwind(|| {
        loom::model(|| {
            let slot: Slot = Arc::new(Mutex::new(None));
            let pin = fill_and_pin(&slot);
            let s2 = Arc::clone(&slot);
            let in_place_writer = loom::thread::spawn(move || {
                let resident = s2.lock().unwrap().as_ref().map(Arc::clone);
                if let Some(page) = resident {
                    page.with_mut(|p| unsafe { *p = IMAGE + 1 });
                }
            });
            scan(&pin);
            in_place_writer.join().unwrap();
        });
    });
    assert!(
        found.is_err(),
        "checker missed the in-place mutation race against a held pin"
    );
}

/// The model shard of case 4: the cache slot plus the shard's write
/// generation, both behind the shard mutex. Torn images are cases 1–3's
/// concern; here a page is just the value it was read or written with,
/// which keeps the three-thread schedule tree small enough to exhaust.
struct Shard {
    resident: Option<u64>,
    write_gen: u64,
}

/// The page image on disk before and after the racing write.
const OLD: u64 = 0x01D;
const NEW: u64 = 0x2E3;

/// `Pager::read_page`'s miss protocol: look up and note the generation
/// under the shard lock, read under the file lock alone, publish under
/// the shard lock — against the noted generation iff `check_gen`.
fn read_through(shard: &Mutex<Shard>, file: &Mutex<u64>, check_gen: bool) -> u64 {
    let gen = {
        let guard = shard.lock().unwrap();
        if let Some(hit) = guard.resident {
            return hit;
        }
        guard.write_gen
    };
    let page = *file.lock().unwrap();
    let mut guard = shard.lock().unwrap();
    if let Some(fresh) = guard.resident {
        return fresh;
    }
    if !check_gen || guard.write_gen == gen {
        guard.resident = Some(page);
    }
    page
}

/// Filler ∥ writer ∥ eviction over one page; afterwards the pool must hold
/// nothing or the image the file holds.
fn stale_publication_model(check_gen: bool) {
    let shard = Arc::new(Mutex::new(Shard {
        resident: None,
        write_gen: 0,
    }));
    let file = Arc::new(Mutex::new(OLD));
    // `Pager::write_page` — file write and pool update under the shard
    // lock, generation bumped after the file write — and then another
    // page's publish pushing the fresh entry out of a small pool. The two
    // share a thread because only an eviction *after* the write matters
    // (before it the slot is empty or agrees with the file), and a third
    // thread puts the schedule tree (555,550 schedules, all passing when
    // run to the end) far past the checker's 10,000-schedule bound.
    let (s2, f2) = (Arc::clone(&shard), Arc::clone(&file));
    let writer_then_eviction = loom::thread::spawn(move || {
        {
            let mut guard = s2.lock().unwrap();
            *f2.lock().unwrap() = NEW;
            guard.resident = Some(NEW);
            guard.write_gen += 1;
        }
        s2.lock().unwrap().resident = None;
    });
    // The reader began before or after the write, so either image is a
    // correct pin for it; the pool is what must not go back in time.
    let pin = read_through(&shard, &file, check_gen);
    assert!(pin == OLD || pin == NEW);
    writer_then_eviction.join().unwrap();
    let resident = shard.lock().unwrap().resident;
    assert!(
        resident.is_none() || resident == Some(NEW),
        "pool serves the pre-write image"
    );
}

#[test]
fn stale_read_is_never_published() {
    loom::model(|| stale_publication_model(true));
}

#[test]
fn publishing_without_the_generation_check_is_caught() {
    // Read OLD, the write lands, its entry is evicted, the slot is empty:
    // "publish only if the slot is empty" installs the stale image.
    let found = std::panic::catch_unwind(|| {
        loom::model(|| stale_publication_model(false));
    });
    assert!(
        found.is_err(),
        "checker missed the stale publication after write + eviction"
    );
}
