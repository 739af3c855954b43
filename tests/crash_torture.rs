//! Full-stack crash torture: `IvaDb` (table + catalog + iVA-file) under
//! deterministic power cuts.
//!
//! The workload materializes all four vector-list organizations (the
//! density split from the core property tests), commits in batches, and
//! is replayed once per sampled operation index with a power cut at that
//! op. After every crash the durable image is reopened and must present a
//! *committed* database state: the last acked flush, or the one in flight
//! when the cut landed. Every tuple of the matched state must read back
//! exactly, top-k answers must be the model's over that state
//! (`common/model.rs`), and the recovered database must accept new
//! commits. A second sweep cuts power at every op of a workload that
//! defines an attribute between two flushes.
//!
//! Failures print `(seed, crash_at)`; see TESTING.md for how to replay
//! one crash point under a debugger.

#[path = "common/model.rs"]
mod model;

use std::path::Path;
use std::sync::Arc;

use iva_core::ListType;
use iva_file::vfs::{FaultVfs, MemVfs, Vfs};
use iva_file::{
    AttrId, IvaDb, IvaDbOptions, LsmDb, LsmOptions, MetricKind, PagerOptions, Query, Result,
    SearchOutcome, SearchRequest, Tid, Tuple, Value, WeightScheme,
};
use model::Model;

const DIR: &str = "torture-db";
const ROWS: u32 = 150;
const BATCH: u32 = 30;
const PAGE: usize = 256;

/// Byte offset inside the checksummed data region of frame
/// `num/den × frame_count` of a block file (skipping the superblock and
/// each frame's trailer, where a flip is legitimately undetectable).
fn frame_data_offset(file_len: usize, num: usize, den: usize) -> usize {
    let superblock = iva_storage::SUPERBLOCK_LEN as usize;
    let frame = PAGE + iva_storage::FRAME_TRAILER;
    let frames = (file_len - superblock) / frame;
    let idx = (frames * num / den).min(frames - 1);
    superblock + idx * frame + PAGE / 3
}

fn opts() -> IvaDbOptions {
    IvaDbOptions {
        pager: PagerOptions {
            page_size: 256,
            cache_bytes: 256 * 32,
        },
        // Automatic cleaning rebuilds swap multiple files non-atomically
        // (see DESIGN.md §10); keep the crash workload on the committed
        // insert/delete path.
        cleaning_threshold: 1.0,
        ..Default::default()
    }
}

/// The tuple for row `i` under the four-attribute density split that
/// forces list organizations III, I/II, IV and I respectively.
fn row(i: u32) -> Tuple {
    let mut tup = Tuple::new();
    if !i.is_multiple_of(7) {
        tup.set(AttrId(0), Value::text(format!("product listing {i:04}")));
    }
    if i.is_multiple_of(11) {
        tup.set(
            AttrId(1),
            Value::texts([format!("note {i}"), "extra".to_string()]),
        );
    }
    if i % 10 != 9 {
        tup.set(AttrId(2), Value::num(f64::from(i % 89)));
    }
    if i.is_multiple_of(13) {
        tup.set(AttrId(3), Value::num(f64::from(i)));
    }
    tup
}

/// Live tuples at some commit point.
type Shadow = Vec<(Tid, Tuple)>;

/// States a crashed run may legitimately recover to.
struct Outcome {
    acked: Option<Shadow>,
    pending: Option<Shadow>,
}

/// Replay the batched insert/delete workload, stopping at the first
/// failed operation.
fn run_workload(vfs: Arc<dyn Vfs>) -> Outcome {
    let mut db = match IvaDb::create_with_vfs(vfs, Path::new(DIR), opts()) {
        Ok(db) => db,
        Err(_) => {
            return Outcome {
                acked: None,
                pending: None,
            }
        }
    };
    let nothing = Outcome {
        acked: None,
        pending: None,
    };
    for name in ["dense_txt", "sparse_txt"] {
        if db.define_text(name).is_err() {
            return nothing;
        }
    }
    for name in ["dense_num", "sparse_num"] {
        if db.define_numeric(name).is_err() {
            return nothing;
        }
    }
    // The schema commits before any data, but nothing rests on that order:
    // the catalog commits with the rows in the table's one commit record
    // (see `define_between_flushes_power_cut_sweep_keeps_acked_rows`).
    let mut live: Shadow = Vec::new();
    if db.flush().is_err() {
        return Outcome {
            acked: None,
            pending: Some(live),
        };
    }
    let mut acked = Some(live.clone());

    let mut batch_start = 0u32;
    while batch_start < ROWS {
        for i in batch_start..(batch_start + BATCH).min(ROWS) {
            let tup = row(i);
            match db.insert(&tup) {
                Ok(tid) => live.push((tid, tup)),
                Err(_) => {
                    return Outcome {
                        acked,
                        pending: None,
                    }
                }
            }
        }
        // Retire a couple of earlier tuples each batch.
        for _ in 0..2 {
            if live.len() > 4 {
                let (tid, _) = live.remove(live.len() / 3);
                if db.delete(tid).is_err() {
                    return Outcome {
                        acked,
                        pending: None,
                    };
                }
            }
        }
        let pending = live.clone();
        match db.flush() {
            Ok(()) => acked = Some(pending),
            Err(_) => {
                return Outcome {
                    acked,
                    pending: Some(pending),
                }
            }
        }
        batch_start += BATCH;
    }
    Outcome {
        acked,
        pending: None,
    }
}

/// Does the reopened database hold exactly this shadow state?
fn state_matches(db: &IvaDb, shadow: &Shadow) -> bool {
    if db.len() != shadow.len() as u64 {
        return false;
    }
    shadow
        .iter()
        .all(|(tid, tup)| matches!(db.get(*tid), Ok(Some(got)) if got == *tup))
}

/// The query every verification runs; touches all four organizations.
fn probe_query() -> Query {
    Query::new()
        .text(AttrId(0), "product listing 0042")
        .text(AttrId(1), "note 33")
        .num(AttrId(2), 42.0)
        .num(AttrId(3), 26.0)
}

/// The recovered store's top 10 for the probe query (L2, EQU: the
/// defaults) against the model of `shadow` under the store's `lambda`, by
/// `(tid, distance bits)`.
fn assert_topk(out: Result<SearchOutcome>, lambda: &[f64], shadow: &Shadow, ctx: &str) {
    assert_topk_of(&probe_query(), out, lambda, shadow, ctx);
}

/// [`assert_topk`] for query `q`.
fn assert_topk_of(
    q: &Query,
    out: Result<SearchOutcome>,
    lambda: &[f64],
    shadow: &Shadow,
    ctx: &str,
) {
    let out = out.unwrap_or_else(|e| panic!("{ctx}: search after recovery failed: {e}"));
    let got: Vec<_> = out.hits.iter().map(|h| (h.tid, h.dist.to_bits())).collect();
    let model = Model {
        live: shadow.iter().cloned().collect(),
    };
    let want = model.topk(q, lambda, &MetricKind::L2, 10);
    assert_eq!(got, want, "{ctx}: top-k after recovery");
}

fn verify_recovery(disk: Arc<dyn Vfs>, outcome: &Outcome, ctx: &str) {
    let reopened = IvaDb::open_with_vfs(disk, Path::new(DIR), opts());
    let Some(acked) = &outcome.acked else {
        // Nothing ever committed: any error is acceptable, only a panic
        // (never observed here, by construction) would be a failure.
        return;
    };
    let mut db = match reopened {
        Ok(db) => db,
        Err(e) => panic!("{ctx}: acked state exists but reopen failed: {e}"),
    };

    let matched = if state_matches(&db, acked) {
        acked
    } else if let Some(p) = outcome.pending.as_ref().filter(|p| state_matches(&db, p)) {
        p
    } else {
        panic!(
            "{ctx}: recovered db (len {}) matches neither the acked state (len {}) nor the \
             in-flight one (len {:?})",
            db.len(),
            acked.len(),
            outcome.pending.as_ref().map(Vec::len),
        );
    };

    let (q, equ) = (probe_query(), WeightScheme::Equal);
    let out = db.execute(&q, &SearchRequest::new(10));
    assert_topk(out, &db.resolve_weights(&q, equ), matched, ctx);

    // The recovered database must accept and commit new work.
    let tid = db
        .insert(&Tuple::new().with(AttrId(0), Value::text("post recovery tuple")))
        .unwrap_or_else(|e| panic!("{ctx}: insert after recovery failed: {e}"));
    db.flush()
        .unwrap_or_else(|e| panic!("{ctx}: flush after recovery failed: {e}"));
    let hits = db
        .execute(
            &Query::new().text(AttrId(0), "post recovery tuple"),
            &SearchRequest::new(1),
        )
        .unwrap_or_else(|e| panic!("{ctx}: search after reinsert failed: {e}"))
        .hits;
    assert_eq!(hits[0].tid, tid, "{ctx}");
    assert_eq!(hits[0].dist, 0.0, "{ctx}");
}

#[test]
fn full_stack_power_cut_sweep_recovers_committed_state() {
    let seed = 0x1D_B0_57_EEu64;

    // Dry run: the workload must complete cleanly and must exercise all
    // four list organizations, or the sweep silently weakens.
    let dry = FaultVfs::passthrough(seed);
    let outcome = run_workload(Arc::new(dry.clone()));
    assert!(outcome.acked.is_some() && outcome.pending.is_none());
    {
        let mut db =
            IvaDb::open_with_vfs(Arc::new(dry.volatile_snapshot()), Path::new(DIR), opts())
                .unwrap();
        // The incrementally-maintained index keeps the organizations
        // chosen at creation (empty table); a rebuild re-picks them from
        // the live data, which is what the density split above targets —
        // and it is the same choice every crash-triggered rebuild makes.
        db.rebuild().unwrap();
        let types: Vec<ListType> = (0..4u32)
            .map(|a| db.index().attr_entry(AttrId(a)).unwrap().list_type)
            .collect();
        assert_eq!(types[0], ListType::III);
        assert!(matches!(types[1], ListType::I | ListType::II));
        assert_eq!(types[2], ListType::IV);
        assert_eq!(types[3], ListType::I);
    }
    let total_ops = dry.op_count();

    // Sample ≥200 crash points spread over the whole op sequence (the
    // storage-level sweep in iva-storage covers every single op index).
    let points = 220.min(total_ops);
    assert!(points >= 200, "workload too small: {total_ops} ops");
    for p in 0..points {
        let crash_at = p * total_ops / points;
        let fv = FaultVfs::power_cut_at(seed, crash_at);
        let outcome = run_workload(Arc::new(fv.clone()));
        assert!(
            fv.crashed(),
            "seed={seed:#x} crash_at={crash_at}: cut never fired"
        );
        let ctx = format!("seed={seed:#x} crash_at={crash_at}");
        verify_recovery(Arc::new(fv.durable_snapshot()), &outcome, &ctx);
    }
}

// ---------------------------------------------------------------------
// An attribute defined between two flushes.
// ---------------------------------------------------------------------

const LATE_DIR: &str = "late-define-db";

/// Flush `db`: `live` is in flight while the flush runs and acked once it
/// returns.
fn commit(db: &mut IvaDb, live: &Shadow, out: &mut Outcome) -> Result<()> {
    out.pending = Some(live.clone());
    db.flush()?;
    out.acked = out.pending.take();
    Ok(())
}

/// Define a text attribute and flush; insert 20 rows and flush; then
/// define a numeric attribute, insert 5 rows that use it and flush — that
/// last flush commits a grown catalog together with rows that need it.
/// Stops at the first failed operation.
fn late_define_steps(vfs: Arc<dyn Vfs>, out: &mut Outcome) -> Result<()> {
    let mut db = IvaDb::create_with_vfs(vfs, Path::new(LATE_DIR), opts())?;
    let name = db.define_text("name")?;
    let mut live: Shadow = Vec::new();
    commit(&mut db, &live, out)?;
    for i in 0..20 {
        let tup = Tuple::new().with(name, Value::text(format!("early row {i}")));
        live.push((db.insert(&tup)?, tup));
    }
    commit(&mut db, &live, out)?;
    let price = db.define_numeric("price")?;
    for i in 0..5 {
        let tup = Tuple::new()
            .with(name, Value::text(format!("late row {i}")))
            .with(price, Value::num(f64::from(i) * 10.0));
        live.push((db.insert(&tup)?, tup));
    }
    commit(&mut db, &live, out)
}

/// The late attribute's query.
fn late_query() -> Query {
    Query::new().num(AttrId(1), 25.0)
}

/// Reopen after a cut: the store must open whenever a flush was acked and
/// hold the acked or the in-flight state; a query on the late attribute,
/// where the recovered catalog has it, is the model's. Returns whether it
/// had it.
fn verify_late_define(disk: Arc<dyn Vfs>, out: &Outcome, ctx: &str) -> bool {
    let reopened = IvaDb::open_with_vfs(disk, Path::new(LATE_DIR), opts());
    let Some(acked) = &out.acked else {
        return false;
    };
    let mut db =
        reopened.unwrap_or_else(|e| panic!("{ctx}: acked state exists but reopen failed: {e}"));
    let matched = [Some(acked), out.pending.as_ref()]
        .into_iter()
        .flatten()
        .find(|s| state_matches(&db, s))
        .unwrap_or_else(|| {
            panic!(
                "{ctx}: recovered db (len {}) matches neither state",
                db.len()
            )
        });
    let late = db.table().catalog().id_of("price").is_some();
    if late {
        let q = late_query();
        let out = db.execute(&q, &SearchRequest::new(10));
        let lambda = db.resolve_weights(&q, WeightScheme::Equal);
        assert_topk_of(&q, out, &lambda, matched, ctx);
    } else {
        assert!(
            matched.iter().all(|(_, t)| t.get(AttrId(1)).is_none()),
            "{ctx}: rows use an attribute the recovered catalog lacks"
        );
    }
    db.insert(&Tuple::new().with(AttrId(0), Value::text("post recovery tuple")))
        .unwrap_or_else(|e| panic!("{ctx}: insert after recovery failed: {e}"));
    db.flush()
        .unwrap_or_else(|e| panic!("{ctx}: flush after recovery failed: {e}"));
    late
}

/// A cut at every op of a workload that defines an attribute between two
/// flushes. With the catalog in a second commit record, written after the
/// table's, the cuts between the two left rows that use the new attribute
/// beside the old catalog, and the store could not reopen at all (`tuple
/// 20 references attribute A1 beyond catalog`): the 20 acked rows were
/// lost with it.
#[test]
fn define_between_flushes_power_cut_sweep_keeps_acked_rows() {
    let seed = 0x1A7E_DEF5_u64;
    let run = |vfs: Arc<dyn Vfs>| {
        let mut out = Outcome {
            acked: None,
            pending: None,
        };
        let _ = late_define_steps(vfs, &mut out);
        out
    };
    let dry = FaultVfs::passthrough(seed);
    let outcome = run(Arc::new(dry.clone()));
    assert!(outcome.acked.is_some() && outcome.pending.is_none());
    let total_ops = dry.op_count();
    assert!(total_ops >= 100, "workload too small: {total_ops} ops");

    let mut late_seen = 0;
    for crash_at in 0..total_ops {
        let fv = FaultVfs::power_cut_at(seed, crash_at);
        let outcome = run(Arc::new(fv.clone()));
        assert!(fv.crashed(), "crash_at={crash_at}: cut never fired");
        let ctx = format!("seed={seed:#x} crash_at={crash_at}");
        late_seen += usize::from(verify_late_define(
            Arc::new(fv.durable_snapshot()),
            &outcome,
            &ctx,
        ));
    }
    assert!(late_seen > 0, "no cut recovered the late attribute");
}

// ---------------------------------------------------------------------
// Segmented (LSM-style) write path under the same power-cut discipline.
// ---------------------------------------------------------------------

const LSM_DIR: &str = "torture-lsm";

fn lsm_opts() -> LsmOptions {
    LsmOptions {
        pager: PagerOptions {
            page_size: 256,
            cache_bytes: 256 * 32,
        },
        // Maintenance is driven explicitly by the workload.
        memtable_limit: 0,
        compact_fanout: 0,
        ..Default::default()
    }
}

/// Replay the segmented workload: batches of inserts and cross-tier
/// deletes, with mid-batch seals and compactions, acknowledged by a
/// store-level flush per batch. Returns the last acked live map and (if
/// the run died mid-batch) the in-flight one.
fn run_lsm_workload(vfs: Arc<dyn Vfs>) -> Outcome {
    let nothing = Outcome {
        acked: None,
        pending: None,
    };
    let mut db = match LsmDb::create_with_vfs(vfs, Path::new(LSM_DIR), lsm_opts()) {
        Ok(db) => db,
        Err(_) => return nothing,
    };
    for name in ["dense_txt", "sparse_txt"] {
        if db.define_text(name).is_err() {
            return nothing;
        }
    }
    for name in ["dense_num", "sparse_num"] {
        if db.define_numeric(name).is_err() {
            return nothing;
        }
    }
    let mut live: Shadow = Vec::new();
    if db.flush().is_err() {
        return Outcome {
            acked: None,
            pending: Some(live),
        };
    }
    let mut acked = Some(live.clone());

    for batch in 0u32..5 {
        let batch_start = batch * BATCH;
        for i in batch_start..batch_start + BATCH {
            let tup = row(i);
            match db.insert(&tup) {
                Ok(tid) => live.push((tid, tup)),
                Err(_) => {
                    return Outcome {
                        acked,
                        pending: Some(live),
                    }
                }
            }
        }
        // A mid-batch seal moves the young inserts to disk before the
        // deletes below, so the deletes tombstone a *sealed segment* —
        // the cross-tier arm of the delete path: the segment table's
        // tombstone set, committed by the flush below.
        if batch == 1 && db.seal().is_err() {
            return Outcome {
                acked,
                pending: Some(live),
            };
        }
        for _ in 0..2 {
            if live.len() > 4 {
                let (tid, _) = live.remove(live.len() / 3);
                if db.delete(tid).is_err() {
                    return Outcome {
                        acked,
                        pending: Some(live),
                    };
                }
            }
        }
        // A mid-batch compaction (once several segments exist) exercises
        // the merge commit protocol under the sweep.
        if batch == 3 && db.compact().is_err() {
            return Outcome {
                acked,
                pending: Some(live),
            };
        }
        let pending = live.clone();
        match db.flush() {
            Ok(()) => acked = Some(pending),
            Err(_) => {
                return Outcome {
                    acked,
                    pending: Some(pending),
                }
            }
        }
    }
    Outcome {
        acked,
        pending: None,
    }
}

/// Per-tuple acked-or-pending acceptance. The segmented store has one
/// commit point per segment plus the manifest, so a crash mid-batch can
/// durably capture *some* of the in-flight mutations (a sealed insert, a
/// flushed segment tombstone) without the others — each tuple must
/// individually read back as its acked or its pending version, tuples
/// the two states agree on must match exactly, and nothing else may be
/// live. Returns the recovered live map for the model check.
fn lsm_recovered_state(db: &LsmDb, acked: &Shadow, pending: Option<&Shadow>, ctx: &str) -> Shadow {
    let pending = pending.unwrap_or(acked);
    // Per tuple: its acked and its pending version.
    type Versions<'a> = (Option<&'a Tuple>, Option<&'a Tuple>);
    let mut union: Vec<(Tid, Versions<'_>)> = Vec::new();
    fn lookup(s: &Shadow, tid: Tid) -> Option<&Tuple> {
        s.iter().find(|(t, _)| *t == tid).map(|(_, tup)| tup)
    }
    for (tid, _) in acked.iter().chain(pending) {
        if union.iter().any(|(t, _)| t == tid) {
            continue;
        }
        union.push((*tid, (lookup(acked, *tid), lookup(pending, *tid))));
    }
    let mut recovered: Shadow = Vec::new();
    for (tid, (a, p)) in union {
        let got = db
            .get(tid)
            .unwrap_or_else(|e| panic!("{ctx}: get({tid}) failed after recovery: {e}"));
        let ok = match (a, p) {
            (Some(a), Some(p)) if a == p => got.as_ref() == Some(a),
            (Some(a), Some(p)) => got.as_ref() == Some(a) || got.as_ref() == Some(p),
            (Some(a), None) => got.as_ref() == Some(a) || got.is_none(),
            (None, Some(p)) => got.as_ref() == Some(p) || got.is_none(),
            (None, None) => unreachable!("tid came from one of the shadows"),
        };
        assert!(
            ok,
            "{ctx}: tuple {tid} recovered to {:?}, acked {:?}, pending {:?}",
            got.is_some(),
            a.is_some(),
            p.is_some()
        );
        if let Some(tup) = got {
            recovered.push((tid, tup));
        }
    }
    assert_eq!(
        db.len(),
        recovered.len() as u64,
        "{ctx}: live count disagrees with the per-tuple probe — a tuple outside the \
         acked/pending union is live"
    );
    recovered
}

fn verify_lsm_recovery(disk: Arc<dyn Vfs>, outcome: &Outcome, ctx: &str) {
    let reopened = LsmDb::open_with_vfs(disk, Path::new(LSM_DIR), lsm_opts());
    let Some(acked) = &outcome.acked else {
        return;
    };
    let mut db = match reopened {
        Ok(db) => db,
        Err(e) => panic!("{ctx}: acked state exists but reopen failed: {e}"),
    };

    // Segment membership is atomic regardless of where the cut landed:
    // whatever tier set the manifest committed must be internally
    // consistent — disjoint ascending tid ranges, every range non-empty.
    let mut prev_hi: Option<Tid> = None;
    for seg in db.segments() {
        assert!(
            seg.lo_tid() <= seg.hi_tid(),
            "{ctx}: segment {} has inverted range",
            seg.id()
        );
        if let Some(hi) = prev_hi {
            assert!(
                seg.lo_tid() > hi,
                "{ctx}: segment {} overlaps its predecessor",
                seg.id()
            );
        }
        prev_hi = Some(seg.hi_tid());
    }

    let recovered = lsm_recovered_state(&db, acked, outcome.pending.as_ref(), ctx);

    let (q, equ) = (probe_query(), WeightScheme::Equal);
    let out = db.execute(&q, &SearchRequest::new(10));
    assert_topk(out, &db.resolve_weights(&q, equ), &recovered, ctx);

    // The recovered store must accept and commit new work.
    let tid = db
        .insert(&Tuple::new().with(AttrId(0), Value::text("post recovery tuple")))
        .unwrap_or_else(|e| panic!("{ctx}: insert after recovery failed: {e}"));
    db.flush()
        .unwrap_or_else(|e| panic!("{ctx}: flush after recovery failed: {e}"));
    let hits = db
        .execute(
            &Query::new().text(AttrId(0), "post recovery tuple"),
            &SearchRequest::new(1),
        )
        .unwrap_or_else(|e| panic!("{ctx}: search after reinsert failed: {e}"))
        .hits;
    assert_eq!(hits[0].tid, tid, "{ctx}");
    assert_eq!(hits[0].dist, 0.0, "{ctx}");
}

#[test]
fn lsm_power_cut_sweep_recovers_committed_state() {
    let seed = 0x15E6_0DB0_u64;

    let dry = FaultVfs::passthrough(seed);
    let outcome = run_lsm_workload(Arc::new(dry.clone()));
    assert!(outcome.acked.is_some() && outcome.pending.is_none());
    let total_ops = dry.op_count();

    let points = 220.min(total_ops);
    assert!(points >= 200, "workload too small: {total_ops} ops");
    for p in 0..points {
        let crash_at = p * total_ops / points;
        let fv = FaultVfs::power_cut_at(seed, crash_at);
        let outcome = run_lsm_workload(Arc::new(fv.clone()));
        assert!(
            fv.crashed(),
            "seed={seed:#x} crash_at={crash_at}: cut never fired"
        );
        let ctx = format!("lsm seed={seed:#x} crash_at={crash_at}");
        verify_lsm_recovery(Arc::new(fv.durable_snapshot()), &outcome, &ctx);
    }
}

/// A delete committed by a flush survives a reopen on both engines: the
/// tuple stays gone, deleting it again returns `false`, and the live count
/// holds — on the monolith, and on an `LsmDb` whose victim sits in a
/// sealed segment.
#[test]
fn a_committed_delete_is_still_a_delete_after_reopen() {
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let named = |i: u32| Tuple::new().with(AttrId(0), Value::text(format!("row {i}")));
    let mut db = IvaDb::create_with_vfs(Arc::clone(&vfs), Path::new(DIR), opts()).unwrap();
    db.define_text("dense_txt").unwrap();
    let rows: Vec<Tid> = (0..20).map(|i| db.insert(&named(i)).unwrap()).collect();
    assert!(db.delete(rows[7]).unwrap());
    db.flush().unwrap();
    drop(db);
    let mut db = IvaDb::open_with_vfs(Arc::clone(&vfs), Path::new(DIR), opts()).unwrap();
    assert_eq!(db.len(), 19);
    assert!(db.get(rows[7]).unwrap().is_none());
    assert!(
        !db.delete(rows[7]).unwrap(),
        "IvaDb: a committed delete came back"
    );
    assert_eq!((db.len(), db.deleted()), (19, 1));

    let mut lsm = LsmDb::create_with_vfs(Arc::clone(&vfs), Path::new(LSM_DIR), lsm_opts()).unwrap();
    lsm.define_text("dense_txt").unwrap();
    let rows: Vec<Tid> = (0..20).map(|i| lsm.insert(&named(i)).unwrap()).collect();
    lsm.flush().unwrap(); // seals every row into a segment
    assert!(lsm.delete(rows[7]).unwrap());
    lsm.flush().unwrap();
    drop(lsm);
    let mut lsm = LsmDb::open_with_vfs(vfs, Path::new(LSM_DIR), lsm_opts()).unwrap();
    assert_eq!(lsm.len(), 19);
    assert!(lsm.get(rows[7]).unwrap().is_none());
    assert!(
        !lsm.delete(rows[7]).unwrap(),
        "LsmDb: a committed delete came back"
    );
    assert_eq!((lsm.len(), lsm.deleted()), (19, 1));
}

/// What the commit-point sweep's deterministic replay reports back when
/// it survives to the end (the dry run; crashed replays are ignored).
struct CompactRun {
    /// `[window_start, window_end)`: the compaction's VFS op indices.
    window: (u64, u64),
    source_ids: Vec<u64>,
    live: Shadow,
}

/// Build three sealed segments, then compact, measuring the compaction's
/// op window on the fault layer itself (so every replay shares one op
/// numbering). Used by the commit-point sweep.
fn build_and_compact(fv: &FaultVfs) -> Result<CompactRun> {
    let vfs: Arc<dyn Vfs> = Arc::new(fv.clone());
    let mut db = LsmDb::create_with_vfs(vfs, Path::new(LSM_DIR), lsm_opts())?;
    for name in ["dense_txt", "sparse_txt"] {
        db.define_text(name)?;
    }
    for name in ["dense_num", "sparse_num"] {
        db.define_numeric(name)?;
    }
    let mut live: Shadow = Vec::new();
    for batch in 0u32..3 {
        for i in batch * 20..(batch + 1) * 20 {
            let tup = row(i);
            let tid = db.insert(&tup)?;
            live.push((tid, tup));
        }
        // One cross-segment delete per sealed batch keeps tombstones in
        // the merge's way.
        if live.len() > 6 {
            let (tid, _) = live.remove(live.len() / 2);
            db.delete(tid)?;
        }
        db.flush()?;
    }
    let source_ids: Vec<u64> = db.segments().iter().map(|s| s.id()).collect();
    let window_start = fv.op_count();
    db.compact()?;
    let window_end = fv.op_count();
    Ok(CompactRun {
        window: (window_start, window_end),
        source_ids,
        live,
    })
}

/// Crash at *every* VFS operation of the compaction window — staging
/// writes, the manifest commit, source-file garbage collection — and
/// require the reopened store to hold either exactly the source segments
/// or exactly the merged one, never a mix, with the full live state
/// intact either way (compaction is pure reorganization).
#[test]
fn compactor_commit_point_sweep_leaves_segments_merged_or_intact() {
    let seed = 0xC0_4A_C7u64;

    // Dry run: find the compaction's op window.
    let dry = FaultVfs::passthrough(seed);
    let run = build_and_compact(&dry).unwrap();
    let (window_start, window_end) = run.window;
    let sources = run.source_ids;
    let live = run.live;
    assert!(sources.len() >= 2, "workload sealed too few segments");
    let merged_id = *sources.iter().max().unwrap() + 1;
    assert!(
        window_end - window_start >= 20,
        "compaction window implausibly small: {} ops",
        window_end - window_start
    );

    for crash_at in window_start..window_end {
        let fv = FaultVfs::power_cut_at(seed, crash_at);
        let _ = build_and_compact(&fv);
        assert!(
            fv.crashed(),
            "seed={seed:#x} crash_at={crash_at}: cut never fired"
        );
        let ctx = format!("compact seed={seed:#x} crash_at={crash_at}");
        let db = LsmDb::open_with_vfs(
            Arc::new(fv.durable_snapshot()),
            Path::new(LSM_DIR),
            lsm_opts(),
        )
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
        let ids: Vec<u64> = db.segments().iter().map(|s| s.id()).collect();
        assert!(
            ids == sources || ids == [merged_id],
            "{ctx}: half-visible merge: segments {ids:?} (sources {sources:?}, merged {merged_id})"
        );
        // Compaction changes no logical state: every live tuple must read
        // back exactly on both sides of the commit point. (The deletes
        // were all acked by the pre-compaction flushes.)
        assert_eq!(db.len(), live.len() as u64, "{ctx}: live count changed");
        for (tid, tup) in &live {
            assert_eq!(
                db.get(*tid).unwrap().as_ref(),
                Some(tup),
                "{ctx}: tuple {tid} damaged by the cut"
            );
        }
    }
}

/// A bit-flipped or truncated manifest must surface as a typed error at
/// open — never a panic, never a silently empty store. (The manifest
/// payload decoder is additionally fuzzed byte-by-byte in
/// `iva-storage`'s unit tests; this covers the full open path through
/// the commit record.)
#[test]
fn damaged_manifest_is_rejected_typed() {
    let mem = MemVfs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(mem.clone());
    {
        let mut db =
            LsmDb::create_with_vfs(Arc::clone(&vfs), Path::new(LSM_DIR), lsm_opts()).unwrap();
        db.define_text("dense_txt").unwrap();
        for i in 0..30 {
            db.insert(&Tuple::new().with(AttrId(0), Value::text(format!("tuple {i}"))))
                .unwrap();
        }
        db.flush().unwrap();
    }
    let path = Path::new(LSM_DIR).join("manifest.ivls");
    let clean = mem.contents(&path).unwrap();

    // Every single-bit flip and every truncation must be caught by the
    // commit record's CRC (or the manifest decoder behind it).
    for at in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x01;
        mem.set_contents(&path, bytes);
        match LsmDb::open_with_vfs(Arc::clone(&vfs), Path::new(LSM_DIR), lsm_opts()) {
            Err(_) => {}
            Ok(_) => panic!("flip at byte {at} opened as a valid store"),
        }
    }
    for len in 0..clean.len() {
        mem.set_contents(&path, clean[..len].to_vec());
        match LsmDb::open_with_vfs(Arc::clone(&vfs), Path::new(LSM_DIR), lsm_opts()) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} bytes opened as a valid store"),
        }
    }

    // Restore and prove the sweep damaged nothing else.
    mem.set_contents(&path, clean);
    let db = LsmDb::open_with_vfs(vfs, Path::new(LSM_DIR), lsm_opts()).unwrap();
    assert_eq!(db.len(), 30);
}

/// A deliberately bit-flipped table page must surface as a corruption
/// error on access — never a panic, never a silently wrong tuple.
#[test]
fn bit_flipped_table_page_is_detected() {
    let mem = MemVfs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(mem.clone());
    let shadow: Shadow = {
        let mut db = IvaDb::create_with_vfs(Arc::clone(&vfs), Path::new(DIR), opts()).unwrap();
        db.define_text("dense_txt").unwrap();
        db.define_text("sparse_txt").unwrap();
        db.define_numeric("dense_num").unwrap();
        db.define_numeric("sparse_num").unwrap();
        let mut live = Vec::new();
        for i in 0..ROWS {
            let tup = row(i);
            let tid = db.insert(&tup).unwrap();
            live.push((tid, tup));
        }
        db.flush().unwrap();
        live
    };

    // Flip one bit in a mid-file page frame, inside the checksummed data
    // region (not the frame trailer or the superblock).
    let tbl = Path::new(DIR).join("data.tbl");
    let mut bytes = mem.contents(&tbl).unwrap();
    let at = frame_data_offset(bytes.len(), 1, 2);
    bytes[at] ^= 0x10;
    mem.set_contents(&tbl, bytes);

    // The index is clean, so the open itself may succeed; the damage must
    // then surface as a typed corruption error when the page is read.
    match IvaDb::open_with_vfs(vfs, Path::new(DIR), opts()) {
        Err(e) => assert!(e.is_corruption(), "open: unexpected error class: {e}"),
        Ok(db) => {
            let mut corruption_seen = false;
            for (tid, tup) in &shadow {
                match db.get(*tid) {
                    Ok(Some(got)) => assert_eq!(&got, tup, "bit flip returned a wrong tuple"),
                    Ok(None) => panic!("bit flip silently dropped tuple {tid}"),
                    Err(e) => {
                        assert!(e.is_corruption(), "get({tid}): unexpected error class: {e}");
                        corruption_seen = true;
                    }
                }
            }
            assert!(corruption_seen, "bit flip was never detected");
        }
    }
}

/// A bit flip inside the index file must likewise be caught by the page
/// checksums (at open, or at the first filter scan) — or repaired by the
/// stale-index rebuild — never returned as wrong answers.
#[test]
fn bit_flipped_index_page_is_detected_or_rebuilt() {
    let mem = MemVfs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(mem.clone());
    {
        let mut db = IvaDb::create_with_vfs(Arc::clone(&vfs), Path::new(DIR), opts()).unwrap();
        db.define_text("dense_txt").unwrap();
        db.define_text("sparse_txt").unwrap();
        db.define_numeric("dense_num").unwrap();
        db.define_numeric("sparse_num").unwrap();
        for i in 0..ROWS {
            db.insert(&row(i)).unwrap();
        }
        db.flush().unwrap();
    }

    let idx = Path::new(DIR).join("index.iva");
    let clean = mem.contents(&idx).unwrap();
    // Sweep flip positions: header frame, early/middle/late list frames.
    for (num, den) in [(0, 1), (1, 4), (1, 2), (3, 4)] {
        let at = frame_data_offset(clean.len(), num, den);
        let mut bytes = clean.clone();
        bytes[at] ^= 0x04;
        mem.set_contents(&idx, bytes);
        match IvaDb::open_with_vfs(Arc::clone(&vfs), Path::new(DIR), opts()) {
            // A damaged header frame fails validation at open and routes
            // through the rebuild, which must leave a working database; a
            // damaged list frame surfaces at the first scan over it.
            Ok(db) => match db.execute(
                &Query::new().text(AttrId(0), "product listing 0041"),
                &SearchRequest::new(1),
            ) {
                Ok(out) => assert_eq!(out.hits[0].dist, 0.0, "flip at {at}: wrong answer"),
                Err(e) => {
                    assert!(
                        e.is_corruption(),
                        "flip at {at}: unexpected error class: {e}"
                    )
                }
            },
            Err(e) => assert!(
                e.is_corruption(),
                "flip at {at}: unexpected error class: {e}"
            ),
        }
    }
    // Restore the clean image and prove the sweep damaged nothing else.
    mem.set_contents(&idx, clean);
    let db = IvaDb::open_with_vfs(vfs, Path::new(DIR), opts()).unwrap();
    assert_eq!(db.len(), u64::from(ROWS));
}
