//! End-to-end tests of the iVA-file: build, query, update, reopen.
//!
//! The reference is the model of `tests/oracle.rs`: the index's top-k is
//! the brute-force one, `(tid, distance bits)` for `(tid, distance bits)`.

#[path = "../../../tests/common/model.rs"]
mod model;

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex};

use iva_core::{
    build_index, IndexHeader, IndexTarget, IvaConfig, IvaIndex, Metric, MetricKind, Query,
    QueryValue, WeightScheme,
};
use iva_storage::{
    IoStats, MemVfs, PageId, Pager, PagerOptions, RealVfs, Vfs, VfsFile, FRAME_TRAILER,
    SUPERBLOCK_LEN,
};
use iva_swt::{AttrId, SwtTable, Tuple, Value};
use model::Model;

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 512,
        cache_bytes: 64 * 1024,
    }
}

/// A small electronics-flavoured dataset exercising text (single- and
/// multi-string), numeric, and heavy sparsity.
fn sample_table() -> SwtTable {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let ty = t.define_text("Type").unwrap();
    let price = t.define_numeric("Price").unwrap();
    let company = t.define_text("Company").unwrap();
    let pixel = t.define_numeric("Pixel").unwrap();
    let lens = t.define_text("Lens").unwrap();
    let _unused = t.define_text("NeverDefined").unwrap();

    let rows: Vec<Tuple> = vec![
        Tuple::new()
            .with(ty, Value::text("Digital Camera"))
            .with(price, Value::num(230.0))
            .with(company, Value::text("Canon"))
            .with(pixel, Value::num(10_000_000.0)),
        Tuple::new()
            .with(ty, Value::text("Digital Camera"))
            .with(price, Value::num(240.0))
            .with(company, Value::text("Sony")),
        Tuple::new()
            .with(ty, Value::text("Digital Camera"))
            .with(price, Value::num(230.0))
            .with(company, Value::text("Cannon")), // the paper's typo tuple
        Tuple::new()
            .with(ty, Value::text("Music Album"))
            .with(price, Value::num(20.0)),
        Tuple::new()
            .with(ty, Value::text("Job Position"))
            .with(company, Value::text("Google")),
        Tuple::new()
            .with(lens, Value::texts(["Telephoto", "Wide-angle"]))
            .with(company, Value::text("Canon")),
        Tuple::new()
            .with(lens, Value::text("Wide-angle"))
            .with(company, Value::text("Nikon")),
        Tuple::new().with(price, Value::num(500.0)),
    ];
    for r in &rows {
        t.insert(r).unwrap();
    }
    t
}

/// The index's top-k against the model of `table`'s live records.
fn assert_matches_brute_force<M: Metric>(
    table: &SwtTable,
    index: &IvaIndex,
    query: &Query,
    k: usize,
    metric: &M,
    weights: WeightScheme,
) {
    let records = table.scan().map(|r| r.unwrap().1).filter(|r| !r.deleted);
    let model = Model {
        live: records.map(|r| (r.tid, r.tuple)).collect(),
    };
    let lambda = index.resolve_weights(table, query, weights);
    let want = model.topk(query, &lambda, metric, k);
    let got = index.query(table, query, k, metric, weights).unwrap();
    let got: Vec<_> = got
        .results
        .iter()
        .map(|e| (e.tid, e.dist.to_bits()))
        .collect();
    assert_eq!(got, want);
}

fn build(table: &SwtTable, config: IvaConfig) -> IvaIndex {
    build_index(table, IndexTarget::Mem, &opts(), IoStats::new(), config).unwrap()
}

#[test]
fn exact_results_default_config() {
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    let ty = AttrId(0);
    let price = AttrId(1);
    let company = AttrId(2);

    let q = Query::new()
        .text(ty, "Digital Camera")
        .num(price, 200.0)
        .text(company, "Canon");
    for k in [1, 2, 3, 5, 100] {
        assert_matches_brute_force(&table, &index, &q, k, &MetricKind::L2, WeightScheme::Equal);
    }
}

#[test]
fn typo_tolerant_ranking() {
    // The paper's Fig. 2: "Cannon" (typo) must rank close behind "Canon".
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    let q = Query::new()
        .text(AttrId(0), "Digital Camera")
        .num(AttrId(1), 230.0)
        .text(AttrId(2), "Canon");
    let out = index
        .query(&table, &q, 2, &MetricKind::L1, WeightScheme::Equal)
        .unwrap();
    assert_eq!(out.results[0].tid, 0); // exact match on all three
    assert_eq!(out.results[1].tid, 2); // the "Cannon" typo tuple
    assert!((out.results[1].dist - 1.0).abs() < 1e-9);
}

#[test]
fn all_metrics_and_weights_are_exact() {
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    let q = Query::new()
        .text(AttrId(4), "Wide-angle")
        .text(AttrId(2), "Canon");
    for metric in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
        for weights in [WeightScheme::Equal, WeightScheme::Itf] {
            assert_matches_brute_force(&table, &index, &q, 3, &metric, weights);
        }
    }
}

#[test]
fn custom_monotone_metric_is_supported() {
    // Metric-obliviousness: any monotone f works. Use a weighted power
    // mean not shipped with the crate.
    struct PowerMean;
    impl Metric for PowerMean {
        fn combine(&self, d: &[f64]) -> f64 {
            (d.iter().map(|x| x.powf(3.0)).sum::<f64>()).powf(1.0 / 3.0)
        }
    }
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    let q = Query::new()
        .text(AttrId(0), "Music Album")
        .num(AttrId(1), 25.0);
    assert_matches_brute_force(&table, &index, &q, 4, &PowerMean, WeightScheme::Equal);
}

#[test]
fn single_attribute_queries() {
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    assert_matches_brute_force(
        &table,
        &index,
        &Query::new().num(AttrId(1), 230.0),
        3,
        &MetricKind::L2,
        WeightScheme::Equal,
    );
    assert_matches_brute_force(
        &table,
        &index,
        &Query::new().text(AttrId(2), "Sony"),
        3,
        &MetricKind::L2,
        WeightScheme::Equal,
    );
}

#[test]
fn query_on_never_defined_attribute() {
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    // Attribute 5 exists in the catalog but no tuple defines it: every
    // tuple is at the ndf penalty.
    let q = Query::new().text(AttrId(5), "anything");
    let out = index
        .query(&table, &q, 3, &MetricKind::L1, WeightScheme::Equal)
        .unwrap();
    assert_eq!(out.results.len(), 3);
    for e in &out.results {
        assert!((e.dist - 20.0).abs() < 1e-9);
    }
}

#[test]
fn alpha_and_n_sweeps_stay_exact() {
    let table = sample_table();
    let q = Query::new()
        .text(AttrId(0), "Digital Camera")
        .text(AttrId(2), "Canon");
    for alpha in [0.10, 0.15, 0.20, 0.25, 0.30] {
        for n in [2usize, 3, 4, 5] {
            let cfg = IvaConfig {
                alpha,
                n,
                ..Default::default()
            };
            let index = build(&table, cfg);
            assert_matches_brute_force(&table, &index, &q, 3, &MetricKind::L2, WeightScheme::Equal);
        }
    }
}

#[test]
fn query_type_mismatch_is_rejected() {
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    let bad = Query::new().num(AttrId(0), 1.0); // Type is a text attribute
    assert!(index
        .query(&table, &bad, 2, &MetricKind::L2, WeightScheme::Equal)
        .is_err());
    let bad = Query::new().text(AttrId(1), "x"); // Price is numeric
    assert!(index
        .query(&table, &bad, 2, &MetricKind::L2, WeightScheme::Equal)
        .is_err());
    // An attribute beyond the indexed catalog is not an error: it is
    // simply ndf everywhere (it may have been defined after the build).
    let post_build = Query::new().text(AttrId(99), "x");
    let out = index
        .query(&table, &post_build, 2, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert!(out.results.iter().all(|e| (e.dist - 20.0).abs() < 1e-9));
}

#[test]
fn filter_prunes_table_accesses() {
    // Content-consciousness: with a selective query, the index must fetch
    // far fewer tuples than a full scan would.
    let mut table = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let name = table.define_text("Name").unwrap();
    let value = table.define_numeric("Value").unwrap();
    for i in 0..500u32 {
        table
            .insert(
                &Tuple::new()
                    .with(name, Value::text(format!("distinct item label {i:04}")))
                    .with(value, Value::num(f64::from(i))),
            )
            .unwrap();
    }
    let index = build(&table, IvaConfig::default());
    let q = Query::new()
        .text(name, "distinct item label 0007")
        .num(value, 7.0);
    let out = index
        .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert_eq!(out.results[0].tid, 7);
    assert_eq!(out.stats.tuples_scanned, 500);
    assert!(
        // The probe fetches the k = 5 best estimates and finds the answer
        // among them; the sweep then has nothing left to fetch (5 here).
        out.stats.table_accesses <= 15,
        "expected pruning, got {} accesses",
        out.stats.table_accesses
    );
}

#[test]
fn insert_then_query_finds_new_tuple() {
    let mut table = sample_table();
    let mut index = build(&table, IvaConfig::default());
    let ty = AttrId(0);
    let company = AttrId(2);

    let new = Tuple::new()
        .with(ty, Value::text("Digital Camera"))
        .with(company, Value::text("Panasonic"));
    let (tid, ptr) = table.insert(&new).unwrap();
    index.insert(tid, ptr, &new, table.catalog()).unwrap();

    let q = Query::new().text(company, "Panasonic");
    let out = index
        .query(&table, &q, 1, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert_eq!(out.results[0].tid, tid);
    assert_eq!(out.results[0].dist, 0.0);
    assert_matches_brute_force(&table, &index, &q, 3, &MetricKind::L2, WeightScheme::Equal);
}

#[test]
fn insert_on_new_catalog_attribute() {
    let mut table = sample_table();
    let mut index = build(&table, IvaConfig::default());
    let color = table.define_text("Color").unwrap();
    let weight = table.define_numeric("Weight").unwrap();

    let new = Tuple::new()
        .with(color, Value::text("Red"))
        .with(weight, Value::num(1.5));
    let (tid, ptr) = table.insert(&new).unwrap();
    index.insert(tid, ptr, &new, table.catalog()).unwrap();

    let q = Query::new().text(color, "Red").num(weight, 1.5);
    let out = index
        .query(&table, &q, 2, &MetricKind::L1, WeightScheme::Equal)
        .unwrap();
    assert_eq!(out.results[0].tid, tid);
    assert_eq!(out.results[0].dist, 0.0);
    assert_matches_brute_force(&table, &index, &q, 4, &MetricKind::L1, WeightScheme::Equal);
}

#[test]
fn many_inserts_stay_exact() {
    let mut table = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let a = table.define_text("A").unwrap();
    let b = table.define_numeric("B").unwrap();
    // Build over an initial chunk...
    for i in 0..30u32 {
        table
            .insert(
                &Tuple::new()
                    .with(a, Value::text(format!("base{i}")))
                    .with(b, Value::num(f64::from(i))),
            )
            .unwrap();
    }
    let mut index = build(&table, IvaConfig::default());
    // ...then insert more incrementally, alternating sparse patterns.
    for i in 30..80u32 {
        let mut t = Tuple::new();
        if i % 2 == 0 {
            t.set(a, Value::text(format!("inc{i}")));
        }
        if i % 3 == 0 {
            t.set(b, Value::num(f64::from(i) * 2.0));
        }
        let (tid, ptr) = table.insert(&t).unwrap();
        index.insert(tid, ptr, &t, table.catalog()).unwrap();
    }
    for q in [
        Query::new().text(a, "inc42"),
        Query::new().num(b, 100.0),
        Query::new().text(a, "base7").num(b, 7.0),
    ] {
        assert_matches_brute_force(&table, &index, &q, 5, &MetricKind::L2, WeightScheme::Equal);
    }
}

#[test]
fn delete_removes_from_results() {
    let mut table = sample_table();
    let index = build(&table, IvaConfig::default());
    let q = Query::new().text(AttrId(2), "Canon");
    let before = index
        .query(&table, &q, 1, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    let victim = before.results[0].tid;

    // The table's set is the only tombstone: the index is not written.
    let size = index.size_bytes();
    assert!(index
        .lookup_ptr(victim, table.file().deleted())
        .unwrap()
        .is_some());
    assert!(table.delete(victim).unwrap());
    assert!(!table.delete(victim).unwrap()); // idempotent
    assert_eq!(table.file().deleted_records(), 1);
    assert!(table.file().deleted_fraction() > 0.0);
    assert_eq!(
        index.lookup_ptr(victim, table.file().deleted()).unwrap(),
        None
    );
    assert_eq!(index.size_bytes(), size);

    let after = index
        .query(&table, &q, 10, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert!(after.results.iter().all(|e| e.tid != victim));
    assert_matches_brute_force(&table, &index, &q, 5, &MetricKind::L2, WeightScheme::Equal);
}

#[test]
fn delete_unknown_tid_is_refused() {
    let mut table = sample_table();
    let index = build(&table, IvaConfig::default());
    assert!(table.delete(9999).is_err());
    assert_eq!(table.file().deleted_records(), 0);
    assert_eq!(
        index.lookup_ptr(9999, table.file().deleted()).unwrap(),
        None
    );
}

#[test]
fn rebuild_after_deletes_matches() {
    let mut table = sample_table();
    for tid in [1u64, 3, 5] {
        assert!(table.delete(tid).unwrap());
    }
    // Periodic cleanup: compact the table, rebuild the index.
    let mut fresh_table = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    fresh_table.adopt_catalog(table.catalog().clone());
    fresh_table.copy_live_from(&[&table]).unwrap();
    let fresh_index = build(&fresh_table, IvaConfig::default());
    assert_eq!(fresh_index.n_tuples(), 5);
    assert_eq!(fresh_table.file().deleted_records(), 0);

    let q = Query::new().text(AttrId(2), "Canon").num(AttrId(1), 230.0);
    assert_matches_brute_force(
        &fresh_table,
        &fresh_index,
        &q,
        4,
        &MetricKind::L2,
        WeightScheme::Equal,
    );
    // Deleted tids must not resurface.
    let out = fresh_index
        .query(&fresh_table, &q, 10, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert!(out.results.iter().all(|e| ![1u64, 3, 5].contains(&e.tid)));
}

#[test]
fn persistence_roundtrip_on_disk() {
    let dir = std::env::temp_dir().join(format!("iva-idx-{}", std::process::id()));
    RealVfs.create_dir_all(&dir).unwrap();
    let table = sample_table();
    let idx_path = dir.join("test.iva");
    let q = Query::new()
        .text(AttrId(0), "Digital Camera")
        .text(AttrId(2), "Canon");
    let expect: Vec<f64>;
    {
        let mut index = build_index(
            &table,
            IndexTarget::Disk(&idx_path),
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        expect = index
            .query(&table, &q, 3, &MetricKind::L2, WeightScheme::Equal)
            .unwrap()
            .results
            .iter()
            .map(|e| e.dist)
            .collect();
        index.flush().unwrap();
    }
    let index = IvaIndex::open(&idx_path, &opts(), IoStats::new()).unwrap();
    assert_eq!(index.n_tuples(), 8);
    let got: Vec<f64> = index
        .query(&table, &q, 3, &MetricKind::L2, WeightScheme::Equal)
        .unwrap()
        .results
        .iter()
        .map(|e| e.dist)
        .collect();
    assert_eq!(got, expect);
    RealVfs.remove_dir_all(&dir).unwrap();
}

#[test]
fn k_larger_than_table_returns_all_live() {
    let table = sample_table();
    let index = build(&table, IvaConfig::default());
    let q = Query::new().num(AttrId(1), 0.0);
    let out = index
        .query(&table, &q, 100, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert_eq!(out.results.len(), 8);
    // Sorted ascending.
    for w in out.results.windows(2) {
        assert!(w[0].dist <= w[1].dist);
    }
}

#[test]
fn empty_table_build_and_query() {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let a = t.define_text("A").unwrap();
    let index = build(&t, IvaConfig::default());
    let out = index
        .query(
            &t,
            &Query::new().text(a, "x"),
            5,
            &MetricKind::L2,
            WeightScheme::Equal,
        )
        .unwrap();
    assert!(out.results.is_empty());
}

#[test]
fn query_value_accessors() {
    let q = Query::new().text(AttrId(1), "abc").num(AttrId(0), 2.0);
    let vals: Vec<_> = q.iter().collect();
    assert_eq!(vals[0].1, &QueryValue::Num(2.0));
    assert_eq!(vals[1].1, &QueryValue::Text("abc".into()));
}

/// A [`Vfs`] over a [`MemVfs`] that logs the offset of every write.
struct LoggedVfs {
    mem: MemVfs,
    writes: Arc<Mutex<Vec<u64>>>,
}

struct LoggedFile {
    inner: Box<dyn VfsFile>,
    writes: Arc<Mutex<Vec<u64>>>,
}

impl VfsFile for LoggedFile {
    fn read_at(&self, buf: &mut [u8], off: u64) -> std::io::Result<usize> {
        self.inner.read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> std::io::Result<usize> {
        self.writes.lock().unwrap().push(off);
        self.inner.write_at(buf, off)
    }
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

impl Vfs for LoggedVfs {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let inner = self.mem.create(path)?;
        let writes = Arc::clone(&self.writes);
        Ok(Box::new(LoggedFile { inner, writes }))
    }
    fn open(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let inner = self.mem.open(path)?;
        let writes = Arc::clone(&self.writes);
        Ok(Box::new(LoggedFile { inner, writes }))
    }
    fn exists(&self, path: &Path) -> bool {
        self.mem.exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.mem.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.mem.remove(path)
    }
}

/// One insert into lists that span many pages writes each list once: the
/// index file's page writes are the touched lists' tail pages (and any
/// page they grow into), the attribute list's pages, which hold the
/// catalog entries, the directory's tail and the header — never the head
/// page of a list, which is where a list's logical length lived while it
/// was the list's prologue.
#[test]
fn an_insert_writes_each_list_once() {
    let opts = PagerOptions {
        page_size: 256,
        cache_bytes: 1 << 20,
    };
    let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
    let name = table.define_text("name").unwrap();
    let price = table.define_numeric("price").unwrap();
    let note = table.define_text("note").unwrap();
    let row = |i: u32| {
        let mut t = Tuple::new()
            .with(name, Value::text(format!("listing {i}")))
            .with(price, Value::num(f64::from(i % 97)));
        if i.is_multiple_of(10) {
            t.set(note, Value::text(format!("note {i}")));
        }
        t
    };
    for i in 0..3000 {
        table.insert(&row(i)).unwrap();
    }
    let writes = Arc::new(Mutex::new(Vec::new()));
    let mem = MemVfs::new();
    let vfs = Arc::new(LoggedVfs {
        mem: mem.clone(),
        writes: Arc::clone(&writes),
    });
    let path = Path::new("index.iva");
    let config = IvaConfig::default();
    let target = IndexTarget::Vfs(vfs, path);
    let mut index = build_index(&table, target, &opts, IoStats::new(), config).unwrap();
    index.commit(table.file().data_len()).unwrap();

    // The layout before the insert: the header's lists and every vector
    // list's first and last page.
    let frame = (opts.page_size + FRAME_TRAILER) as u64;
    let pages = (mem.contents(path).unwrap().len() as u64 - SUPERBLOCK_LEN) / frame;
    let page0 = Pager::open_with_vfs(&mem, path, &opts, IoStats::new())
        .unwrap()
        .read_page(PageId(0))
        .unwrap();
    let header = IndexHeader::decode(&page0).unwrap();
    let lists: Vec<_> = [name, price, note]
        .map(|a| index.attr_entry(a).unwrap().vlist)
        .to_vec();
    assert!(
        lists.iter().all(|l| l.head != l.tail),
        "every list spans pages: {lists:?}"
    );
    let mut allowed: Vec<u64> = vec![0, header.tuple_list.tail.0];
    allowed.extend((header.attr_list.head.0)..=(header.attr_list.tail.0));
    allowed.extend(lists.iter().map(|l| l.tail.0));

    writes.lock().unwrap().clear();
    let tuple = row(3000);
    let (tid, ptr) = table.insert(&tuple).unwrap();
    index.insert(tid, ptr, &tuple, table.catalog()).unwrap();
    let written: BTreeSet<u64> = (writes.lock().unwrap().iter())
        .filter(|&&off| off >= SUPERBLOCK_LEN)
        .map(|&off| (off - SUPERBLOCK_LEN) / frame)
        .collect();
    for list in &lists {
        assert!(!written.contains(&list.head.0), "{list:?}: {written:?}");
    }
    let stray: Vec<_> = (written.iter())
        .filter(|&&p| p < pages && !allowed.contains(&p))
        .collect();
    assert!(stray.is_empty(), "pages {stray:?} of {written:?}");
    // The tuple reads back.
    let q = Query::new().text(name, "listing 3000");
    let out = index
        .query(&table, &q, 1, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    assert_eq!(out.results[0].tid, tid);
}
