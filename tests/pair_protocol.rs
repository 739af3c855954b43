//! The engines hold one table + iVA-file pair protocol between them
//! (`iva_core::IndexedTable`); these tests pin the two places where three
//! copies of it used to be able to drift apart.
//!
//! * A seal, a merge and the monolith's periodic cleanup are one staging
//!   operation: the same live records through each give the same bytes.
//! * An insert whose index half fails after its table half succeeded must
//!   not leave a tuple the live count includes and nothing can find — not
//!   now, not after the next flush, not after the next open.
//! * A delete writes nothing: its tid joins the table's tombstone set, and
//!   the flush after it commits the set in the table's commit record.

use std::path::Path;
use std::sync::Arc;

use iva_file::vfs::{FaultKind, FaultVfs, MemVfs, PlannedFault, Vfs};
use iva_file::{
    AttrId, EngineWriter, IvaDb, IvaDbOptions, IvaError, LsmDb, LsmOptions, PagerOptions, Query,
    SearchRequest, Tid, Tuple, Value,
};
use iva_storage::sidecar_path;

fn pager() -> PagerOptions {
    PagerOptions {
        page_size: 4096,
        cache_bytes: 4096 * 64,
    }
}

fn mono_opts() -> IvaDbOptions {
    IvaDbOptions {
        pager: pager(),
        // Cleanup runs only where a test asks for it.
        cleaning_threshold: 2.0,
        ..Default::default()
    }
}

fn lsm_opts() -> LsmOptions {
    LsmOptions {
        pager: pager(),
        // Maintenance is driven explicitly.
        memtable_limit: 0,
        compact_fanout: 0,
        ..Default::default()
    }
}

/// Row `i`: a unique dense text, a fairly dense number, a sparse text.
fn row(i: u32) -> Tuple {
    let mut tup = Tuple::new().with(AttrId(0), Value::text(format!("item number {i:03}")));
    if i % 5 != 4 {
        tup.set(AttrId(1), Value::num(f64::from(i % 13)));
    }
    if i.is_multiple_of(6) {
        tup.set(
            AttrId(2),
            Value::texts([format!("note {i}"), "extra".into()]),
        );
    }
    tup
}

/// Define the three attributes of [`row`].
fn define_schema<E: EngineWriter>(db: &mut E) {
    db.define_text("name").unwrap();
    db.define_numeric("grade").unwrap();
    db.define_text("notes").unwrap();
}

// ---------------------------------------------------------------------
// One stage, three callers.
// ---------------------------------------------------------------------

const ROWS: u32 = 90;
/// Rows deleted before the records are staged, wherever they live then.
const DELETED: [u32; 5] = [3, 17, 40, 41, 77];

/// The three files of the pair at `base` (no extension) + `index`: the
/// table's commit record (which carries the catalog), the table, the
/// index.
fn pair_files(mem: &MemVfs, base: &Path, index: &Path) -> [Vec<u8>; 3] {
    let tbl = base.with_extension("tbl");
    [
        mem.contents(&sidecar_path(&tbl)).unwrap(),
        mem.contents(&tbl).unwrap(),
        mem.contents(index).unwrap(),
    ]
}

#[test]
fn seal_merge_and_rebuild_stage_the_same_bytes() {
    // Sealed in one go from a memtable that held everything.
    let mem_a = MemVfs::new();
    let dir = Path::new("store");
    let mut a = LsmDb::create_with_vfs(Arc::new(mem_a.clone()), dir, lsm_opts()).unwrap();
    define_schema(&mut a);
    for i in 0..ROWS {
        assert_eq!(a.insert(&row(i)).unwrap(), Tid::from(i));
    }
    for i in DELETED {
        assert!(a.delete(Tid::from(i)).unwrap());
    }
    assert!(a.seal().unwrap());
    let sealed = pair_files(
        &mem_a,
        &dir.join("seg-00000000"),
        &dir.join("seg-00000000.iva"),
    );

    // Merged from two segments that split the same records — with the
    // deletes spread over a memtable, a sealed segment and a second
    // memtable.
    let mem_b = MemVfs::new();
    let mut b = LsmDb::create_with_vfs(Arc::new(mem_b.clone()), dir, lsm_opts()).unwrap();
    define_schema(&mut b);
    for i in 0..ROWS / 2 {
        b.insert(&row(i)).unwrap();
    }
    assert!(b.delete(3).unwrap() && b.delete(17).unwrap());
    assert!(b.seal().unwrap());
    for i in ROWS / 2..ROWS {
        b.insert(&row(i)).unwrap();
    }
    assert!(b.delete(40).unwrap() && b.delete(41).unwrap() && b.delete(77).unwrap());
    assert!(b.seal().unwrap());
    assert!(b.compact().unwrap());
    let merged = pair_files(
        &mem_b,
        &dir.join("seg-00000002"),
        &dir.join("seg-00000002.iva"),
    );
    for (what, (s, m)) in ["table commit record", "table", "index"]
        .iter()
        .zip(sealed.iter().zip(&merged))
    {
        assert!(s == m, "sealed and merged {what} files differ");
    }
    assert_eq!(a.len(), b.len());

    // Rebuilt by the monolith's cleanup: every build quantises on the
    // live values' own domain, so all three files are the seal's.
    let mem_c = MemVfs::new();
    let mut c = IvaDb::create_with_vfs(Arc::new(mem_c.clone()), dir, mono_opts()).unwrap();
    define_schema(&mut c);
    for i in 0..ROWS {
        c.insert(&row(i)).unwrap();
    }
    for i in DELETED {
        assert!(c.delete(Tid::from(i)).unwrap());
    }
    c.rebuild().unwrap();
    let rebuilt = pair_files(&mem_c, &dir.join("data"), &dir.join("index.iva"));
    for (what, (s, r)) in ["table commit record", "table", "index"]
        .iter()
        .zip(sealed.iter().zip(&rebuilt))
    {
        assert!(s == r, "sealed and rebuilt {what} files differ");
    }
    for staged in [
        "data.rebuild.tbl",
        "data.rebuild.tbl.meta",
        "index.rebuild.iva",
    ] {
        assert!(!mem_c.exists(&dir.join(staged)), "{staged} left behind");
    }
}

// ---------------------------------------------------------------------
// An insert that fails half-way.
// ---------------------------------------------------------------------

const DIR: &str = "faulted-db";
/// Row 42 defines all three attributes, so the swept insert appends to
/// three vector lists.
const BASE_ROWS: u32 = 42;

/// A flushed database of [`BASE_ROWS`] rows, and what it holds.
fn base_db(vfs: Arc<dyn Vfs>) -> (IvaDb, Vec<(Tid, Tuple)>) {
    let mut db = IvaDb::create_with_vfs(vfs, Path::new(DIR), mono_opts()).unwrap();
    define_schema(&mut db);
    let mut model = Vec::new();
    for i in 0..BASE_ROWS {
        let tuple = row(i);
        model.push((db.insert(&tuple).unwrap(), tuple));
    }
    db.flush().unwrap();
    (db, model)
}

/// Every tuple the live count includes is returned by `get` and is the
/// exact match of a query for it. With `may_be_torn`, the one accepted
/// alternative to an answer is the typed refusal.
fn check(db: &IvaDb, model: &[(Tid, Tuple)], may_be_torn: bool, ctx: &str) {
    assert_eq!(db.len(), model.len() as u64, "{ctx}: live count");
    for (tid, tuple) in model {
        match db.get(*tid) {
            Ok(got) => assert_eq!(got.as_ref(), Some(tuple), "{ctx}: get({tid})"),
            Err(IvaError::IndexTorn) if may_be_torn => {}
            Err(e) => panic!("{ctx}: get({tid}): {e}"),
        }
        let Some(Value::Text(name)) = tuple.get(AttrId(0)) else {
            panic!("every row has a name");
        };
        let query = Query::new().text(AttrId(0), &name[0]);
        match db.execute(&query, &SearchRequest::new(1)) {
            Ok(out) => {
                assert_eq!(out.hits[0].tid, *tid, "{ctx}: search for {tid}");
                assert_eq!(out.hits[0].dist, 0.0, "{ctx}: search for {tid}");
            }
            Err(IvaError::IndexTorn) if may_be_torn => {}
            Err(e) => panic!("{ctx}: search for {tid}: {e}"),
        }
    }
}

#[test]
fn insert_failing_at_any_op_never_leaves_a_counted_but_invisible_tuple() {
    // The record fits the table's tail page, so every op of the insert
    // belongs to the index half: the dirty-flag write and sync, then the
    // list appends — and every failure tears the index.
    assert_eq!(
        sweep_one_insert(0x7E_A2_00_01, row(BASE_ROWS)),
        0,
        "a small insert failed in the table half"
    );
}

#[test]
fn insert_whose_record_fills_the_tail_page_fails_cleanly_at_any_op() {
    // A record longer than a page fills the table's tail page and the
    // next, so the sweep reaches the table half too: its page writes and
    // allocations. A failure there must count no record and leave the
    // log's tail where it was.
    let mut tuple = row(BASE_ROWS);
    tuple.set(AttrId(2), Value::text("long note ".repeat(500)));
    let table_failures = sweep_one_insert(0x7E_A2_00_03, tuple);
    assert!(table_failures > 0, "no swept op failed the table half");
}

/// Fail `tuple`'s insert into [`base_db`] with an `EIO` at each of its
/// filesystem ops in turn, and check after each that the live count, `get`
/// and search agree — now, after more inserts, after a flush and after a
/// reopen. Returns how many ops failed the insert in its table half (the
/// index stayed intact, so later inserts go in).
fn sweep_one_insert(seed: u64, tuple: Tuple) -> u32 {
    // Dry run: which filesystem ops does the one insert perform?
    let dry = FaultVfs::passthrough(seed);
    let (mut db, _) = base_db(Arc::new(dry.clone()));
    let first = dry.op_count();
    db.insert(&tuple).unwrap();
    let last = dry.op_count();
    assert!(last - first >= 4, "insert did {} ops", last - first);
    drop(db);

    let (mut torn_points, mut table_failures) = (0, 0);
    for at in first..last {
        let ctx = format!("seed={seed:#x} eio_at={at}");
        let fault = PlannedFault {
            at,
            kind: FaultKind::Eio,
        };
        let fv = FaultVfs::with_faults(seed, vec![fault]);
        let (mut db, mut model) = base_db(Arc::new(fv.clone()));
        assert_eq!(fv.op_count(), first, "{ctx}: setup is not deterministic");

        // The faulted insert, then — without reopening — more of them.
        // After a failure, the next insert tells which half failed: a torn
        // index refuses it, an intact one takes it.
        let (mut failed, mut torn) = (false, false);
        for i in BASE_ROWS..BASE_ROWS + 6 {
            let next = if i == BASE_ROWS {
                tuple.clone()
            } else {
                row(i)
            };
            match db.insert(&next) {
                Ok(tid) => {
                    assert!(!torn, "{ctx}: insert {i} went into a torn index");
                    model.push((tid, next));
                }
                Err(IvaError::IndexTorn) if failed => torn = true,
                Err(_) if i == BASE_ROWS => failed = true,
                Err(e) => panic!("{ctx}: insert {i}: {e}"),
            }
        }
        assert!(fv.op_count() > at, "{ctx}: fault never fired");
        torn_points += u32::from(torn);
        table_failures += u32::from(failed && !torn);
        check(&db, &model, torn, &ctx);

        // A flush commits the table — a record whose index half failed
        // went in as a tombstone — and never a clean index over a torn
        // one.
        db.flush().unwrap_or_else(|e| panic!("{ctx}: flush: {e}"));
        check(&db, &model, torn, &ctx);
        drop(db);

        // The next open finds the index dirty or stale and rebuilds it.
        let mut db = IvaDb::open_with_vfs(Arc::new(fv.clone()), Path::new(DIR), mono_opts())
            .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
        check(&db, &model, false, &ctx);
        let tuple = row(BASE_ROWS + 6);
        model.push((db.insert(&tuple).unwrap(), tuple));
        db.flush().unwrap();
        check(&db, &model, false, &ctx);
    }
    assert!(torn_points > 0, "no swept op made the index half fail");
    table_failures
}

/// Every file's bytes as the process sees them.
fn image(fv: &FaultVfs) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mem = fv.volatile_snapshot();
    let mut paths = mem.paths();
    paths.sort();
    paths
        .into_iter()
        .map(|p| (p.clone(), mem.contents(&p).unwrap()))
        .collect()
}

/// A delete writes neither file, on either engine: one `IvaDb::delete`,
/// and one `LsmDb::delete` of a tuple in a sealed segment, leave every
/// file's bytes as they were and, with the directory's pages cached (a
/// `get` of the victim reads them), make no filesystem op at all.
#[test]
fn a_delete_writes_nothing() {
    let fv = FaultVfs::passthrough(0x7E_A2_00_04);
    let (mut db, _) = base_db(Arc::new(fv.clone()));
    let (before, ops) = (image(&fv), fv.op_count());
    assert!(db.delete(Tid::from(BASE_ROWS / 2)).unwrap());
    assert_eq!(fv.op_count(), ops, "IvaDb::delete made a filesystem op");
    assert!(image(&fv) == before, "IvaDb::delete changed a file");

    let fv = FaultVfs::passthrough(0x7E_A2_00_05);
    let mut lsm = LsmDb::create_with_vfs(Arc::new(fv.clone()), Path::new(DIR), lsm_opts()).unwrap();
    define_schema(&mut lsm);
    for i in 0..BASE_ROWS {
        lsm.insert(&row(i)).unwrap();
    }
    assert!(lsm.seal().unwrap());
    assert!(lsm.get(Tid::from(BASE_ROWS / 2)).unwrap().is_some());
    let (before, ops) = (image(&fv), fv.op_count());
    assert!(lsm.delete(Tid::from(BASE_ROWS / 2)).unwrap());
    assert_eq!(fv.op_count(), ops, "LsmDb::delete made a filesystem op");
    assert!(image(&fv) == before, "LsmDb::delete changed a file");
}

/// The sweep over one delete and the flush that commits it. The delete
/// itself does no I/O, so every swept op is the flush's: whichever one
/// fails, the live count, `get` and search keep telling one story about
/// the victim, and the reopen shows the delete acked (the flush returned
/// `Ok`) or, after a failed flush, either the previous commit or the one
/// it was writing.
#[test]
fn delete_failing_at_any_op_leaves_table_and_index_agreeing() {
    let seed = 0x7E_A2_00_02u64;
    let victim = Tid::from(BASE_ROWS / 2);

    let dry = FaultVfs::passthrough(seed);
    let (mut db, _) = base_db(Arc::new(dry.clone()));
    let first = dry.op_count();
    assert!(db.delete(victim).unwrap());
    assert_eq!(dry.op_count(), first, "the delete did I/O");
    db.flush().unwrap();
    let last = dry.op_count();
    assert!(last - first >= 4, "the flush did {} ops", last - first);
    drop(db);

    let (mut kept, mut lost) = (0, 0);
    for at in first..last {
        let ctx = format!("seed={seed:#x} eio_at={at}");
        let fault = PlannedFault {
            at,
            kind: FaultKind::Eio,
        };
        let fv = FaultVfs::with_faults(seed, vec![fault]);
        let (mut db, mut model) = base_db(Arc::new(fv.clone()));
        assert!(db.delete(victim).unwrap(), "{ctx}");
        model.retain(|(tid, _)| *tid != victim);
        check(&db, &model, false, &ctx);
        let acked = db.flush().is_ok();
        assert!(fv.op_count() > at, "{ctx}: fault never fired");
        check(&db, &model, false, &ctx);
        assert_eq!(db.get(victim).unwrap(), None, "{ctx}: get(victim)");
        drop(db);

        let db = IvaDb::open_with_vfs(Arc::new(fv.clone()), Path::new(DIR), mono_opts())
            .unwrap_or_else(|e| panic!("{ctx}: reopen: {e}"));
        let gone = db.get(victim).unwrap().is_none();
        assert!(gone || !acked, "{ctx}: an acked delete came back");
        if !gone {
            model.push((victim, row(BASE_ROWS / 2)));
        }
        (kept, lost) = (kept + u32::from(gone), lost + u32::from(!gone));
        check(&db, &model, false, &ctx);
    }
    assert!(
        kept > 0 && lost > 0,
        "{kept} cuts kept the delete, {lost} lost it"
    );
}
