//! The table + iVA-file pair's one protocol: the open-or-rebuild verdict
//! under every file naming that reaches it, and the insert that must not
//! leave the two halves disagreeing.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::{all_list_types_table, small_pages};
use iva_core::{
    build_index, encode_num_list, encode_packed_num_list, encode_packed_text_list,
    encode_text_list, export_index, segment_base, segment_index_path, IndexTarget, IndexedTable,
    IvaConfig, IvaError, ListType, MetricKind, NumericCodec, Query, WeightScheme,
};
use iva_storage::{
    write_contiguous_list, IoStats, MemVfs, PageId, Pager, Vfs, FRAME_TRAILER, SUPERBLOCK_LEN,
};
use iva_swt::{AttrId, AttrType, Catalog, SwtTable, Tuple, Value};

const ROWS: u32 = 120;

/// What a crash, a cut or a damaged disk can leave the pair's files in.
#[derive(Debug, Clone, Copy)]
enum State {
    /// Both files flushed in step.
    Clean,
    /// An update epoch was open: the index header carries the dirty flag.
    DirtyFlag,
    /// The table committed a record the index never saw.
    WatermarkBehind,
    /// No index file at all.
    IndexMissing,
    /// One bit of the index's header page flipped.
    HeaderBitFlipped,
    /// A cut mid-rebuild: no index yet, and a half-written temporary.
    CutMidRebuild,
    /// A temporary nobody cleaned up, beside a perfectly good index.
    StaleTemporary,
    /// A v4 index holding packed text lists: a format from before their
    /// dictionaries, which is stale.
    PackedTextV4,
    /// A v5 index holding packed text lists: a format from before their
    /// dictionaries' strings, which is stale.
    PackedTextV5,
    /// A v6 index holding packed text lists: a format from before their
    /// postings, which is stale.
    PackedTextV6,
    /// A v4 index whose lists and directory are all raw: a format with a
    /// second list encoding, which is stale.
    RawOnlyV4,
    /// A v7 index whose lists and directory are all raw.
    RawV7,
    /// A v7 index whose lists are packed, each with its logical length in
    /// an 8-byte prologue: a format whose inserts rewrite a list's head.
    PackedV7,
    /// A v8 index — its directory frames carry a liveness bitmap and its
    /// header a tombstone count — beside a table whose commit record
    /// keeps the tombstone set (`IVBLOGv3`).
    LivenessV8,
}

impl State {
    fn wants_rebuild(self) -> bool {
        !matches!(self, State::Clean | State::StaleTemporary)
    }
}

/// The three paths of one pair, in the monolith's naming or a segment's.
struct Names {
    base: PathBuf,
    index: PathBuf,
    rebuild_tmp: PathBuf,
}

fn names(segment: bool) -> Names {
    let dir = Path::new("store");
    if segment {
        Names {
            base: segment_base(dir, 7),
            index: segment_index_path(dir, 7),
            rebuild_tmp: dir.join("seg-00000007.rebuild.iva"),
        }
    } else {
        Names {
            base: dir.join("data"),
            index: dir.join("index.iva"),
            rebuild_tmp: dir.join("index.rebuild.iva"),
        }
    }
}

fn extra_row() -> Tuple {
    Tuple::new()
        .with(AttrId(0), Value::text("product listing late"))
        .with(AttrId(2), Value::num(41.5))
}

fn queries() -> Vec<Query> {
    vec![
        Query::new()
            .text(AttrId(0), "product listing 0042")
            .num(AttrId(2), 42.0),
        Query::new()
            .text(AttrId(0), "product listing late")
            .num(AttrId(2), 41.0),
        Query::new().text(AttrId(1), "note 33").num(AttrId(3), 26.0),
    ]
}

/// Per query: the ranked `(tid, distance bits)` and the number of records
/// fetched to find them.
fn answers(pair: &IndexedTable) -> Vec<(Vec<(u64, u64)>, u64)> {
    let (index, table) = pair.searchable().unwrap();
    queries()
        .iter()
        .map(|q| {
            let out = index
                .query(table, q, 10, &MetricKind::L2, WeightScheme::Equal)
                .unwrap();
            let hits = out
                .results
                .iter()
                .map(|e| (e.tid, e.dist.to_bits()))
                .collect();
            (hits, out.stats.table_accesses)
        })
        .collect()
}

/// The quantisation domain of every attribute.
fn domains_of(pair: &IndexedTable) -> Vec<(f64, f64)> {
    (0..4)
        .map(|a| {
            let e = pair.index().attr_entry(AttrId(a)).unwrap();
            (e.min, e.max)
        })
        .collect()
}

fn open(vfs: &Arc<dyn Vfs>, n: &Names) -> IndexedTable {
    IndexedTable::open(
        (vfs, &n.base, &n.index),
        &n.rebuild_tmp,
        &small_pages(),
        IvaConfig::default(),
        IoStats::new(),
        IoStats::new(),
    )
    .unwrap()
}

/// Stage a clean pair at `n`, then bring its files into `state`.
fn arrange(mem: &MemVfs, n: &Names, state: State) {
    let vfs: Arc<dyn Vfs> = Arc::new(mem.clone());
    let source = all_list_types_table(ROWS);
    IndexedTable::stage(
        &[&source],
        Some((&vfs, &n.base, &n.index)),
        source.catalog(),
        &small_pages(),
        IvaConfig::default(),
        IoStats::new(),
        IoStats::new(),
    )
    .unwrap();
    let garbage = vec![0xA5u8; 700];
    match state {
        State::Clean => {}
        State::DirtyFlag => {
            // The dirty flag is synced before an insert's first write;
            // the table's unflushed tail rolls back at the next open.
            let mut pair = open(&vfs, n);
            pair.insert(&extra_row()).unwrap();
            assert!(pair.is_dirty());
        }
        State::WatermarkBehind => {
            let mut table =
                SwtTable::open_with_vfs(Arc::clone(&vfs), &n.base, &small_pages(), IoStats::new())
                    .unwrap();
            table.insert(&extra_row()).unwrap();
            table.flush().unwrap();
        }
        State::IndexMissing => vfs.remove(&n.index).unwrap(),
        State::HeaderBitFlipped => {
            let mut bytes = mem.contents(&n.index).unwrap();
            assert!(bytes.len() > SUPERBLOCK_LEN as usize + 256 + FRAME_TRAILER);
            bytes[SUPERBLOCK_LEN as usize + 256 / 3] ^= 0x04;
            mem.set_contents(&n.index, bytes);
        }
        State::CutMidRebuild => {
            vfs.remove(&n.index).unwrap();
            mem.set_contents(&n.rebuild_tmp, garbage);
        }
        State::StaleTemporary => mem.set_contents(&n.rebuild_tmp, garbage),
        State::PackedTextV4 => relabel(mem, &n.index, 4),
        State::PackedTextV5 => relabel(mem, &n.index, 5),
        State::PackedTextV6 => relabel(mem, &n.index, 6),
        State::RawOnlyV4 => write_old_format(mem, &n.index, 4, false),
        State::RawV7 => write_old_format(mem, &n.index, 7, false),
        State::PackedV7 => write_old_format(mem, &n.index, 7, true),
        State::LivenessV8 => relabel(mem, &n.index, 8),
    }
}

/// Rewrite the index at `path` in the layout the v4–v7 formats shared,
/// holding what it holds: 74-byte catalog entries whose flags byte tags
/// each list raw (0) or packed (2, beside the text bit); every vector list
/// in the raw element layout, or as a packed image whose 8-byte prologue
/// is its logical length; the tuple directory as raw 12-byte elements, or
/// as raw frames of them (a packed directory may hold those); and a header
/// whose byte 109 tags the directory.
fn write_old_format(mem: &MemVfs, path: &Path, version: u32, packed: bool) {
    let content = {
        let index = iva_core::IvaIndex::open_with_vfs(
            Arc::new(mem.clone()),
            path,
            &small_pages(),
            IoStats::new(),
        )
        .unwrap();
        export_index(&index).unwrap()
    };
    let config = content.config;
    let tids: Vec<u32> = content.tuple_entries.iter().map(|(t, _)| *t).collect();
    let pager = Pager::create_with_vfs(mem, path, &small_pages(), IoStats::new()).unwrap();
    assert_eq!(pager.allocate_page().unwrap(), PageId(0));
    let mut entries = Vec::new();
    for a in &content.attrs {
        let ty = a.list_type;
        let (list, df, strings) = if a.is_text {
            let items = &a.text_postings;
            let list = match packed {
                true => encode_packed_text_list(ty, items, &tids),
                false => encode_text_list(ty, items, &tids).unwrap(),
            };
            let strings = items.iter().map(|(_, s)| s.len() as u64).sum();
            (list, items.len() as u64, strings)
        } else {
            let (items, cb) = (&a.num_postings, config.numeric_code_bytes());
            let codec = NumericCodec::new(a.min, a.max, cb);
            let list = match packed {
                true => encode_packed_num_list(ty, items, &tids, &codec),
                false => encode_num_list(ty, items, &tids, &codec).unwrap(),
            };
            (list, items.len() as u64, 0)
        };
        let elems = match ty {
            ListType::III | ListType::IV => tids.len() as u64,
            ListType::I if a.is_text => strings,
            _ => df,
        };
        write_contiguous_list(&pager, &list)
            .unwrap()
            .encode(&mut entries);
        for field in [df, strings, elems] {
            entries.extend_from_slice(&field.to_le_bytes());
        }
        entries.push(ty.code());
        entries.push(u8::from(a.is_text) | u8::from(packed) << 1);
        for field in [config.alpha, a.min, a.max] {
            entries.extend_from_slice(&field.to_bits().to_le_bytes());
        }
    }
    let attr_list = write_contiguous_list(&pager, &entries).unwrap();
    let mut dir = Vec::new();
    for chunk in content.tuple_entries.chunks(1024) {
        if packed {
            dir.push(0); // a DIR_RAW frame
            dir.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            dir.extend_from_slice(&(chunk.len() as u32 * 12).to_le_bytes());
        }
        for (tid, ptr) in chunk {
            dir.extend_from_slice(&tid.to_le_bytes());
            dir.extend_from_slice(&ptr.to_le_bytes());
        }
    }
    let tuple_list = write_contiguous_list(&pager, &dir).unwrap();
    let mut header = 0x6956_4146u32.to_le_bytes().to_vec();
    header.extend_from_slice(&version.to_le_bytes());
    header.extend_from_slice(&config.alpha.to_bits().to_le_bytes());
    header.extend_from_slice(&(config.n as u32).to_le_bytes());
    header.extend_from_slice(&config.ndf_penalty.to_bits().to_le_bytes());
    header.extend_from_slice(&(config.numeric_width as u32).to_le_bytes());
    header.extend_from_slice(&(content.attrs.len() as u32).to_le_bytes());
    header.extend_from_slice(&(tids.len() as u64).to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes()); // no tombstones
    for list in [attr_list, tuple_list] {
        list.encode(&mut header);
    }
    header.extend_from_slice(&content.table_watermark.to_le_bytes());
    header.extend_from_slice(&[0, u8::from(packed)]); // clean; directory tag
    pager
        .update_page(PageId(0), |p| p[..header.len()].copy_from_slice(&header))
        .unwrap();
    pager.sync().unwrap();
}

/// Rewrite the format version in the header of the index at `path`.
fn relabel(mem: &MemVfs, path: &Path, version: u32) {
    let pager = Pager::open_with_vfs(mem, path, &small_pages(), IoStats::new()).unwrap();
    // The header's version field follows its 4-byte magic.
    pager
        .update_page(PageId(0), |p| {
            p[4..8].copy_from_slice(&version.to_le_bytes())
        })
        .unwrap();
    pager.sync().unwrap();
}

#[test]
fn open_reuses_a_matching_index_and_rebuilds_any_other() {
    let states = [
        State::Clean,
        State::DirtyFlag,
        State::WatermarkBehind,
        State::IndexMissing,
        State::HeaderBitFlipped,
        State::CutMidRebuild,
        State::StaleTemporary,
        State::PackedTextV4,
        State::PackedTextV5,
        State::PackedTextV6,
        State::RawOnlyV4,
        State::RawV7,
        State::PackedV7,
        State::LivenessV8,
    ];
    for state in states {
        for segment in [false, true] {
            let ctx = format!("{state:?}, segment names: {segment}");
            let mem = MemVfs::new();
            let vfs: Arc<dyn Vfs> = Arc::new(mem.clone());
            let n = names(segment);
            arrange(&mem, &n, state);

            let pair = open(&vfs, &n);
            let rebuilt = pair.index_io().snapshot().bytes_written > 0;
            assert_eq!(rebuilt, state.wants_rebuild(), "{ctx}");
            assert!(!pair.is_dirty(), "{ctx}");
            assert_eq!(
                pair.index().table_watermark(),
                pair.table().file().data_len(),
                "{ctx}"
            );
            let rows = u64::from(ROWS) + u64::from(matches!(state, State::WatermarkBehind));
            assert_eq!(pair.live_records(), rows, "{ctx}");
            if state.wants_rebuild() {
                assert!(!vfs.exists(&n.rebuild_tmp), "{ctx}: temporary not renamed");
            }

            // Whatever the verdict, the answers are a fresh build's.
            let (fresh, _) = IndexedTable::stage(
                &[pair.table()],
                None,
                pair.table().catalog(),
                &small_pages(),
                IvaConfig::default(),
                IoStats::new(),
                IoStats::new(),
            )
            .unwrap();
            assert_eq!(answers(&pair), answers(&fresh), "{ctx}");
            assert_eq!(domains_of(&pair), domains_of(&fresh), "{ctx}");

            // A repaired pair is a clean pair: the next open reuses it.
            drop(pair);
            let again = open(&vfs, &n);
            assert_eq!(again.index_io().snapshot().bytes_written, 0, "{ctx}");
            assert_eq!(answers(&again), answers(&fresh), "{ctx}");
        }
    }
}

/// A v6 store whose dense text list has string sections — so a v7 build
/// gives it postings, and a 1-value query on it leaps — opens once as
/// stale and rebuilds; the rebuilt pair answers as the store did before,
/// by tid and distance bits, leaping; and the next open reuses it.
#[test]
fn a_v6_store_with_a_string_section_list_rebuilds_once() {
    let (mem, n) = (MemVfs::new(), names(false));
    let vfs: Arc<dyn Vfs> = Arc::new(mem.clone());
    let mut source = SwtTable::create_mem(&small_pages(), IoStats::new()).unwrap();
    let brand = source.define_text("brand").unwrap();
    for i in 0..1500u32 {
        let value = format!("{} {}", ["canon", "nikon", "sony"][i as usize % 3], i % 40);
        source
            .insert(&Tuple::new().with(brand, Value::text(value)))
            .unwrap();
    }
    let config = IvaConfig::default();
    let stage = Some((&vfs, n.base.as_path(), n.index.as_path()));
    let (pages, io) = (small_pages(), IoStats::new);
    IndexedTable::stage(
        &[&source],
        stage,
        source.catalog(),
        &pages,
        config,
        io(),
        io(),
    )
    .unwrap();
    let q = Query::new().text(brand, "nikon 7");
    let search = |pair: &IndexedTable| {
        let (index, table) = pair.searchable().unwrap();
        let out = index
            .query(table, &q, 10, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        let hits: Vec<_> = out
            .results
            .iter()
            .map(|e| (e.tid, e.dist.to_bits()))
            .collect();
        (hits, out.stats)
    };
    let (want, stats) = search(&open(&vfs, &n));
    assert!(
        stats.dict_distances > 0 && stats.tuples_scanned < 1500,
        "{stats:?}"
    );
    relabel(&mem, &n.index, 6);
    let pair = open(&vfs, &n);
    assert!(
        pair.index_io().snapshot().bytes_written > 0,
        "a v6 store is rebuilt"
    );
    let (got, stats) = search(&pair);
    assert_eq!(got, want);
    assert!(stats.tuples_scanned < 1500, "{stats:?}");
    drop(pair);
    let again = open(&vfs, &n);
    assert_eq!(again.index_io().snapshot().bytes_written, 0, "rebuilt once");
    assert_eq!(search(&again).0, want);
}

/// The index's tid space ends below `u32::MAX`. The bound is checked
/// before the table append, so a refused insert leaves no record behind —
/// and the table stays one an index can be built over.
#[test]
fn insert_past_the_tid_space_is_refused_before_the_table_append() {
    let mut pair = IndexedTable::create(
        None,
        &Catalog::new(),
        u64::from(u32::MAX),
        &small_pages(),
        IvaConfig::default(),
    )
    .unwrap();
    let name = pair.define("name", AttrType::Text).unwrap();
    let tuple = Tuple::new().with(name, Value::text("one too many"));
    for _ in 0..2 {
        assert!(matches!(
            pair.insert(&tuple),
            Err(IvaError::TidOverflow(t)) if t == u64::from(u32::MAX)
        ));
        assert_eq!(pair.live_records(), 0);
        assert_eq!(pair.total_records(), 0);
    }
    build_index(
        pair.table(),
        IndexTarget::Mem,
        &small_pages(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();

    // One below the bound is the last tid there is.
    let mut pair = IndexedTable::create(
        None,
        &Catalog::new(),
        u64::from(u32::MAX) - 1,
        &small_pages(),
        IvaConfig::default(),
    )
    .unwrap();
    let name = pair.define("name", AttrType::Text).unwrap();
    let tuple = Tuple::new().with(name, Value::text("the last one"));
    let tid = pair.insert(&tuple).unwrap();
    assert_eq!(tid, u64::from(u32::MAX) - 1);
    assert_eq!(pair.get(tid).unwrap(), Some(tuple.clone()));
    assert!(matches!(pair.insert(&tuple), Err(IvaError::TidOverflow(_))));
    assert_eq!(pair.live_records(), 1);
}
