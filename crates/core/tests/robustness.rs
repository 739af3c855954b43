//! Robustness and operational-surface tests: the explain API, concurrent
//! readers, and graceful failure on corrupted index files.

use iva_storage::{read_to_vec, write_vec, RealVfs, Vfs};
use std::sync::Arc;

use iva_core::{
    build_index, AttrEntry, IndexHeader, IndexTarget, IvaConfig, IvaError, IvaIndex, ListType,
    MetricKind, Query, WeightScheme,
};
use iva_storage::{overwrite_in_list, IoStats, PageId, Pager, PagerOptions};
use iva_swt::{AttrId, SwtTable, Tuple, Value};

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 512,
        cache_bytes: 64 * 1024,
    }
}

fn sample() -> (SwtTable, IvaIndex) {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let name = t.define_text("name").unwrap();
    let price = t.define_numeric("price").unwrap();
    for i in 0..300u32 {
        let mut tup = Tuple::new();
        tup.set(name, Value::text(format!("listing number {i:04}")));
        if i % 2 == 0 {
            tup.set(price, Value::num(f64::from(i)));
        }
        t.insert(&tup).unwrap();
    }
    let idx = build_index(
        &t,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    (t, idx)
}

#[test]
fn explain_reports_plan_shape() {
    let (_t, idx) = sample();
    let q = Query::new()
        .text(AttrId(0), "listing number 0001")
        .num(AttrId(1), 10.0);
    let ex = idx.explain(&q, WeightScheme::Itf);
    assert_eq!(ex.attrs.len(), 2);
    assert_eq!(ex.tuples_to_scan, 300);
    assert_eq!(ex.tombstones, 0);

    let text_attr = &ex.attrs[0];
    assert!(text_attr.is_text);
    assert_eq!(text_attr.df, 300);
    assert!((text_attr.definedness - 1.0).abs() < 1e-9);
    // Defined everywhere => ITF weight ~ 0.
    assert!(text_attr.weight.abs() < 1e-6);

    let num_attr = &ex.attrs[1];
    assert!(!num_attr.is_text);
    assert_eq!(num_attr.df, 150);
    assert!(num_attr.weight > 0.0);
    assert!(num_attr.list_type.is_some());
    // Dense text attribute gets a positional list; check consistency.
    assert_eq!(text_attr.list_type, Some(ListType::III));

    assert!(ex.index_bytes() > ex.tuple_list_bytes);
    let rendered = ex.to_string();
    assert!(rendered.contains("scan 300 tuples"));
    assert!(rendered.contains("df 150"));
}

#[test]
fn explain_handles_unknown_attribute() {
    let (_t, idx) = sample();
    let q = Query::new().text(AttrId(99), "whatever");
    let ex = idx.explain(&q, WeightScheme::Equal);
    assert_eq!(ex.attrs[0].list_type, None);
    assert_eq!(ex.attrs[0].df, 0);
}

#[test]
fn concurrent_readers_agree() {
    // IvaIndex::query takes &self; many threads must be able to share one
    // index and get identical answers.
    let (t, idx) = sample();
    let t = Arc::new(t);
    let idx = Arc::new(idx);
    let q = Query::new()
        .text(AttrId(0), "listing number 0123")
        .num(AttrId(1), 122.0);
    let baseline: Vec<f64> = idx
        .query(&t, &q, 5, &MetricKind::L2, WeightScheme::Equal)
        .unwrap()
        .results
        .iter()
        .map(|e| e.dist)
        .collect();
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (t, idx, q, baseline) = (
                Arc::clone(&t),
                Arc::clone(&idx),
                q.clone(),
                baseline.clone(),
            );
            s.spawn(move || {
                for _ in 0..5 {
                    let got: Vec<f64> = idx
                        .query(&t, &q, 5, &MetricKind::L2, WeightScheme::Equal)
                        .unwrap()
                        .results
                        .iter()
                        .map(|e| e.dist)
                        .collect();
                    assert_eq!(got, baseline);
                }
            });
        }
    });
}

#[test]
fn corrupted_index_file_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("iva-corrupt-{}", std::process::id()));
    RealVfs.create_dir_all(&dir).unwrap();
    let path = dir.join("x.iva");
    {
        let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        let a = t.define_text("a").unwrap();
        t.insert(&Tuple::new().with(a, Value::text("v"))).unwrap();
        let mut idx = build_index(
            &t,
            IndexTarget::Disk(&path),
            &opts(),
            IoStats::new(),
            IvaConfig::default(),
        )
        .unwrap();
        idx.flush().unwrap();
    }
    // Flip header magic.
    let mut bytes = read_to_vec(&RealVfs, &path).unwrap();
    bytes[0] ^= 0xFF;
    write_vec(&RealVfs, &path, &bytes).unwrap();
    assert!(IvaIndex::open(&path, &opts(), IoStats::new()).is_err());

    // Truncated file (not a whole number of pages).
    write_vec(&RealVfs, &path, &bytes[..100]).unwrap();
    assert!(IvaIndex::open(&path, &opts(), IoStats::new()).is_err());

    // Empty file.
    write_vec(&RealVfs, &path, b"").unwrap();
    assert!(IvaIndex::open(&path, &opts(), IoStats::new()).is_err());
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// A dense table (positional Type III text and Type IV numeric lists)
/// indexed on disk at `path`, flushed and closed.
fn dense_index_on_disk(path: &std::path::Path) -> SwtTable {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let name = t.define_text("name").unwrap();
    let price = t.define_numeric("price").unwrap();
    for i in 0..40u32 {
        let tup = Tuple::new()
            .with(name, Value::text(format!("listing {i:03}")))
            .with(price, Value::num(f64::from(i)));
        t.insert(&tup).unwrap();
    }
    let cfg = IvaConfig::default();
    let mut idx = build_index(&t, IndexTarget::Disk(path), &opts(), IoStats::new(), cfg).unwrap();
    assert_eq!(idx.attr_entry(name).unwrap().list_type, ListType::III);
    assert_eq!(idx.attr_entry(price).unwrap().list_type, ListType::IV);
    idx.flush().unwrap();
    t
}

/// Rewrite the page-0 header of the index at `path` through the pager, so
/// the page is re-framed under a valid checksum.
fn rewrite_header(path: &std::path::Path, edit: impl FnOnce(&mut IndexHeader)) {
    let pager = Pager::open(path, &opts(), IoStats::new()).unwrap();
    let mut header = IndexHeader::decode(&pager.read_page(PageId(0)).unwrap()).unwrap();
    edit(&mut header);
    let bytes = header.encode();
    pager
        .update_page(PageId(0), |p| p[..bytes.len()].copy_from_slice(&bytes))
        .unwrap();
    pager.sync().unwrap();
}

/// A header count is a number off disk under a checksum, not a fact: one
/// that its own lists cannot hold must be `Corrupt` at open — it used to
/// size a `Vec::with_capacity` (an allocator abort, not an error).
#[test]
fn lying_header_counts_are_corrupt_at_open() {
    let dir = std::env::temp_dir().join(format!("iva-counts-{}", std::process::id()));
    RealVfs.create_dir_all(&dir).unwrap();
    let path = dir.join("x.iva");
    type Edit = fn(&mut IndexHeader);
    let edits: [(&str, Edit); 6] = [
        ("n_attrs", |h| h.n_attrs = u32::MAX),
        ("n_attrs + 1", |h| h.n_attrs += 1),
        ("n_tuples", |h| h.n_tuples = u64::MAX),
        ("n_tuples beyond the list", |h| {
            h.n_tuples = 8 * h.tuple_list.len + 8
        }),
        ("n_deleted", |h| h.n_deleted = h.n_tuples + 1),
        ("tuple_list.len", |h| h.tuple_list.len = u64::MAX / 2),
    ];
    for (what, edit) in edits {
        dense_index_on_disk(&path);
        assert!(IvaIndex::open(&path, &opts(), IoStats::new()).is_ok());
        rewrite_header(&path, edit);
        match IvaIndex::open(&path, &opts(), IoStats::new()) {
            Err(e) => assert!(e.is_corruption(), "{what}: {e}"),
            Ok(_) => panic!("{what}: a lying header opened"),
        }
    }
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// `insert` pads a positional list with `tuple_index - elem_count` ndf
/// elements, both numbers off disk: an entry claiming more elements than
/// the tuple list has must be `Corrupt`, not a debug-build panic or a
/// release-build loop that fills the disk.
#[test]
fn insert_rejects_positional_entry_longer_than_tuple_list() {
    let dir = std::env::temp_dir().join(format!("iva-gap-{}", std::process::id()));
    RealVfs.create_dir_all(&dir).unwrap();
    let path = dir.join("x.iva");
    for attr in 0..2usize {
        let mut table = dense_index_on_disk(&path);
        {
            let pager = Pager::open(&path, &opts(), IoStats::new()).unwrap();
            let header = IndexHeader::decode(&pager.read_page(PageId(0)).unwrap()).unwrap();
            // `elem_count` sits 40 bytes into the attribute's entry.
            let at = (attr * AttrEntry::ENCODED_LEN + 40) as u64;
            let claimed = header.n_tuples + 5;
            overwrite_in_list(&pager, header.attr_list, at, &claimed.to_le_bytes()).unwrap();
            pager.sync().unwrap();
        }
        let mut idx = IvaIndex::open(&path, &opts(), IoStats::new()).unwrap();
        let tup = Tuple::new()
            .with(AttrId(0), Value::text("one more"))
            .with(AttrId(1), Value::num(7.0));
        let (tid, ptr) = table.insert(&tup).unwrap();
        let err = idx.insert(tid, ptr, &tup, table.catalog()).unwrap_err();
        assert!(matches!(err, IvaError::Corrupt(_)), "attr {attr}: {err}");
    }
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// The tuple list is tid-ascending by construction, and both the pool's
/// tie rule (lowest tid wins) and the keyed lists' frozen pointer rest on
/// it. A directory whose RAW tail frame repeats a tid — here one appended
/// by an insert under a tid already listed, with more tuples after it —
/// is `Corrupt` to every execution shape, never an answer: serial, batch
/// and the sequential plan.
#[test]
fn repeated_tid_in_the_directory_is_corrupt_to_every_shape() {
    use iva_core::BatchItem;
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let name = t.define_text("name").unwrap();
    let row = |i: u32| Tuple::new().with(name, Value::text(format!("listing {i:04}")));
    for i in 0..600 {
        t.insert(&row(i)).unwrap();
    }
    let cfg = IvaConfig::default();
    let mut idx = build_index(&t, IndexTarget::Mem, &opts(), IoStats::new(), cfg).unwrap();
    for i in 600..1201 {
        let (tid, ptr) = t.insert(&row(i)).unwrap();
        // Position 600 of the directory lists tid 599 a second time.
        let listed = if i == 600 { 599 } else { tid };
        idx.insert(listed, ptr, &row(i), t.catalog()).unwrap();
    }
    let q = Query::new().text(name, "listing 0599");
    let (l2, equ) = (MetricKind::L2, WeightScheme::Equal);
    let corrupt = |what: &str, r: Result<Vec<_>, IvaError>| match r {
        Err(e) => assert!(e.is_corruption(), "{what}: {e}"),
        Ok(hits) => panic!("{what}: answered {hits:?}"),
    };
    let results = |o: iva_core::QueryOutcome| o.results;
    corrupt("serial", idx.query(&t, &q, 5, &l2, equ).map(results));
    let item = BatchItem {
        query: &q,
        k: 5,
        weights: equ,
    };
    let batch = idx.query_batch(&t, &[item, item], &l2);
    let batch = batch.map(|outs| outs.into_iter().flat_map(results).collect());
    corrupt("batch", batch);
    let seq = idx.query_sequential_plan(&t, &q, 5, &l2, equ).map(results);
    corrupt("sequential", seq);
}

#[test]
fn zero_length_query_is_benign() {
    let (t, idx) = sample();
    let q = Query::new();
    let out = idx
        .query(&t, &q, 3, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    // No constraints: every tuple is at distance 0; any 3 are returned.
    assert_eq!(out.results.len(), 3);
    assert!(out.results.iter().all(|e| e.dist == 0.0));
}

mod fuzz_decode {
    //! Fuzz-style hardening of the index-layout decoders: arbitrary and
    //! mutated header/entry bytes must produce typed errors, never panics.

    use iva_core::{AttrEntry, IndexHeader, IvaConfig, ListType, INDEX_VERSION};
    use iva_storage::{ListHandle, PageId};
    use proptest::prelude::*;

    fn sample_header() -> IndexHeader {
        IndexHeader {
            version: INDEX_VERSION,
            config: IvaConfig::default(),
            n_attrs: 4,
            n_tuples: 1_000,
            n_deleted: 3,
            attr_list: ListHandle {
                head: PageId(1),
                tail: PageId(2),
                len: 400,
            },
            tuple_list: ListHandle {
                head: PageId(3),
                tail: PageId(9),
                len: 12_000,
            },
            table_watermark: 77_777,
            dirty: false,
        }
    }

    fn sample_entry_bytes() -> Vec<u8> {
        let entry = AttrEntry {
            vlist: ListHandle {
                head: PageId(4),
                tail: PageId(7),
                len: 900,
            },
            df: 120,
            str_count: 140,
            elem_count: 140,
            list_type: ListType::I,
            is_text: true,
            alpha: 0.25,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            logical_len: 1_500,
        };
        let mut out = Vec::new();
        entry.encode(&mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let _ = IndexHeader::decode(&bytes);
            let _ = AttrEntry::decode(&bytes);
            let _ = ListHandle::decode(&bytes);
        }

        #[test]
        fn mutated_layout_bytes_never_panic(
            at in any::<prop::sample::Index>(),
            xor in 1u8..255,
            cut in any::<prop::sample::Index>(),
        ) {
            let header = sample_header().encode();
            let mut mutated = header.clone();
            let h_at = at.index(mutated.len());
            mutated[h_at] ^= xor;
            let _ = IndexHeader::decode(&mutated);
            let _ = IndexHeader::decode(&header[..cut.index(header.len())]);

            let entry = sample_entry_bytes();
            let mut mutated = entry.clone();
            let e_at = at.index(mutated.len());
            mutated[e_at] ^= xor;
            let _ = AttrEntry::decode(&mutated);
            let _ = AttrEntry::decode(&entry[..cut.index(entry.len())]);
        }
    }
}

mod fuzz_packed {
    //! Fuzz-style hardening of the compressed vector-list decoders: a
    //! packed list whose bytes are flipped, truncated, or replaced
    //! wholesale must decode to `IvaError::Corrupt` (or, rarely, a
    //! still-valid image) — never panic, never allocate unboundedly.
    //! Every image goes through the list cursors' walk as well as the
    //! whole-image decode: the walk is the one reader the scan and the
    //! export share, so both are fuzzed at once.

    use std::sync::{Arc, OnceLock};

    use iva_core::{
        encode_num_list, encode_packed_num_list, encode_packed_text_list, encode_text_list,
        ListType, NumListCursor, NumericCodec, PackedReader, TextListCursor,
    };
    use iva_storage::{write_contiguous_list, IoStats, ListReader, Pager, PagerOptions};
    use iva_text::{PreparedMatcher, SigCodec};
    use proptest::prelude::*;

    fn opts() -> PagerOptions {
        PagerOptions {
            page_size: 512,
            cache_bytes: 64 * 1024,
        }
    }

    fn sig_codec() -> SigCodec {
        SigCodec::new(0.25, 64)
    }

    fn num_codec() -> NumericCodec {
        NumericCodec::new(0.0, 1000.0, 2)
    }

    /// A small but structurally rich corpus: every organization, with
    /// multi-string tuples, ndf gaps, and enough elements for several
    /// packed sections.
    fn corpus(n: u32) -> Vec<(Vec<u8>, Vec<u8>, bool, ListType)> {
        let sc = sig_codec();
        let nc = num_codec();
        let all_tids = tids(n);
        let text_items: Vec<(u32, Vec<Vec<u8>>)> = all_tids
            .iter()
            .filter(|t| *t % 15 != 0)
            .map(|&t| {
                let strings: Vec<Vec<u8>> = (0..1 + (t as usize % 3))
                    .map(|j| sc.encode_to_vec(format!("value {t} {j}").as_bytes()))
                    .collect();
                (t, strings)
            })
            .collect();
        let num_items: Vec<(u32, u64)> = all_tids
            .iter()
            .filter(|t| *t % 9 != 0)
            .map(|&t| (t, nc.encode(f64::from(t))))
            .collect();
        let mut out = Vec::new();
        for ty in [ListType::I, ListType::II, ListType::III] {
            out.push((
                encode_packed_text_list(ty, &text_items, &all_tids),
                encode_text_list(ty, &text_items, &all_tids).unwrap(),
                true,
                ty,
            ));
        }
        for ty in [ListType::I, ListType::IV] {
            out.push((
                encode_packed_num_list(ty, &num_items, &all_tids, &nc),
                encode_num_list(ty, &num_items, &all_tids, &nc).unwrap(),
                false,
                ty,
            ));
        }
        out
    }

    /// Tuple-list tids of a corpus of `n` tuples.
    fn tids(n: u32) -> Vec<u32> {
        (0..n).map(|i| i * 3).collect()
    }

    /// Tuples in the sampled corpus, and in the small one swept whole.
    const N: u32 = 120;
    const N_SMALL: u32 = 20;

    fn open_packed(stored: &[u8], is_text: bool, ty: ListType) -> Option<PackedReader> {
        let pager = Pager::create_mem(&opts(), IoStats::new());
        let _header = pager.allocate_page().unwrap();
        let handle = write_contiguous_list(&pager, stored).unwrap();
        let reader = ListReader::open(Arc::clone(&pager), handle).unwrap();
        if is_text {
            PackedReader::new_text(reader, ty, &sig_codec()).ok()
        } else {
            PackedReader::new_num(reader, ty, &num_codec()).ok()
        }
    }

    /// Walk `stored` the way a scan and an export both do — the one
    /// cursor, one move per tuple-list tid, in blocks of 1, 2, …, 7 tids:
    /// a block of one by `advance` (the export's move), the others by
    /// `fill_block` (the scan's) — and
    /// return the tids it found defined, or `None` at the first error.
    /// Must return, not panic.
    fn walk(stored: &[u8], is_text: bool, ty: ListType, n: u32) -> Option<Vec<u32>> {
        let packed = open_packed(stored, is_text, ty)?;
        let all = tids(n);
        let (mut at, mut lbs, mut defined) = (0, [0.0f64; 7], Vec::new());
        // Built once: preparing a matcher costs more than a walk.
        static MATCHER: OnceLock<PreparedMatcher> = OnceLock::new();
        let (sc, nc) = (sig_codec(), num_codec());
        let matcher = MATCHER.get_or_init(|| PreparedMatcher::new(&sc, b"value 33 1"));
        let (mut text, mut num) = match is_text {
            true => (Some(TextListCursor::new(packed, ty)), None),
            false => (None, Some(NumListCursor::new(packed, ty))),
        };
        for len in (1..=7usize).cycle() {
            let block = &all[at..(at + len).min(all.len())];
            let out = &mut lbs[..block.len()];
            match (&mut text, &mut num, block) {
                (_, _, []) => break,
                (Some(cur), _, &[tid]) => out[0] = lb(cur.advance(tid, &sc, matcher).ok()?),
                (Some(cur), ..) => cur.fill_block(block, &sc, matcher, out).ok()?,
                (_, Some(cur), &[tid]) => {
                    out[0] = lb(cur.advance(tid, &nc).ok()?.map(|c| c as f64))
                }
                (_, Some(cur), _) => cur.fill_block(block, &nc, 0.0, out).ok()?,
                (None, None, _) => unreachable!(),
            }
            let found = block.iter().zip(out.iter()).filter(|(_, lb)| !lb.is_nan());
            defined.extend(found.map(|(tid, _)| *tid));
            at += block.len();
        }
        Some(defined)
    }

    /// A walked value as a block slot: `NaN` for *ndf*.
    fn lb(v: Option<f64>) -> f64 {
        v.unwrap_or(f64::NAN)
    }

    /// Store `stored` (prologue + frames) in a fresh in-memory list file
    /// and read it both ways: walked by the cursor, then decoded whole as
    /// a packed list. Must return, not panic; the caller decides whether
    /// success is acceptable.
    fn drive(stored: &[u8], is_text: bool, ty: ListType) -> Option<Vec<u8>> {
        let _ = walk(stored, is_text, ty, N);
        open_packed(stored, is_text, ty).and_then(|p| p.decode_to_vec().ok())
    }

    #[test]
    fn intact_corpus_decodes_exactly() {
        for (stored, raw, is_text, ty) in corpus(N) {
            let got = drive(&stored, is_text, ty)
                .unwrap_or_else(|| panic!("intact {ty:?} failed to decode"));
            assert_eq!(got, raw, "{ty:?} round-trip mismatch");
            // The walk finds exactly the tuples the corpus defined.
            let undefined = if is_text { 15 } else { 9 };
            let want: Vec<u32> = tids(N).into_iter().filter(|t| t % undefined != 0).collect();
            assert_eq!(walk(&stored, is_text, ty, N), Some(want), "{ty:?} walk");
        }
    }

    /// Exhaustive where the property below samples: every truncation and
    /// every single-bit flip of every corpus image, through the walk.
    #[test]
    fn every_truncation_and_bit_flip_walks_without_panic() {
        for (stored, _, is_text, ty) in corpus(N_SMALL) {
            for cut in 0..stored.len() {
                let _ = walk(&stored[..cut], is_text, ty, N_SMALL);
            }
            let mut mutated = stored.clone();
            for at in 0..stored.len() {
                for bit in 0..8 {
                    mutated[at] ^= 1 << bit;
                    let _ = walk(&mutated, is_text, ty, N_SMALL);
                    mutated[at] ^= 1 << bit;
                }
            }
        }
    }

    /// A packed list of the given `(kind, header count, payload)` frames,
    /// under a prologue that promises 2^40 raw bytes (the prologue is a
    /// disk field too: it must not be what bounds a frame).
    fn frames_list(frames: &[(u8, u32, &[u8])]) -> Vec<u8> {
        let mut list = (1u64 << 40).to_le_bytes().to_vec();
        for &(kind, elems, payload) in frames {
            list.push(kind);
            list.extend_from_slice(&elems.to_le_bytes());
            list.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            list.extend_from_slice(payload);
        }
        list
    }

    /// [`frames_list`] of one PACKED frame.
    fn one_frame_list(elems: u32, payload: &[u8]) -> Vec<u8> {
        frames_list(&[(PACKED, elems, payload)])
    }

    /// Frame kinds: PACKED, and DICT (a text list's dictionary).
    const PACKED: u8 = 1;
    const DICT: u8 = 3;

    /// Decode amplification: a bit-packed section costs far less than a
    /// payload byte per value it claims, so a frame's claims must be
    /// bounded by its own payload before they size anything. A 64 KiB
    /// Text III frame of 65,536 string counts of 255 and a zero-width `cL`
    /// section claims 16.7 M strings (the parent built 150 MB of arrays
    /// and spun 16.7 M unpack steps before noticing the `cH` section was
    /// missing); its Text II twin; and header counts / code widths on the
    /// other organizations that the payload cannot back. Then dictionaries
    /// that lie: one claiming more entries than its payload has bytes, a
    /// string coded past the dictionary's end, a coded frame with no
    /// dictionary before it, a second dictionary, and a dictionary on a
    /// numeric list. Each is `Corrupt`, to the walk and to the whole-image
    /// decode alike — what was *not* allocated on the way is pinned by
    /// `packed::tests::lying_frames_size_nothing_by_their_claims`.
    #[test]
    fn frames_claiming_more_than_their_payload_are_corrupt() {
        use iva_core::IvaError;
        let counts = |keyed: bool| {
            let mut p = Vec::new();
            if keyed {
                p.extend_from_slice(&[0, 0, 0, 0, 0]); // first tid 0, Δtid width 0
            }
            p.push(8); // num width
            p.extend_from_slice(&[0xFF; 65_536]);
            p.push(0); // cL width 0: no cL bytes, no cH bytes
            p
        };
        let max_elems = 1u32 << 20;
        let mut narrow_codes = vec![60u8]; // claims 60-bit codes...
        narrow_codes.extend_from_slice(&[0xAB; 750]); // ...backs 6-bit ones
                                                      // Two entries of `cL` 0 (a zero-width `cL` section) and their `cH`s.
        let mut two = vec![0u8];
        two.resize(1 + 2 * sig_codec().ch_bytes(0), 0xA5);
        // One Type I string of tid 0: no deltas, `cbw` 2, the code.
        let coded = |code: u8| vec![0, 0, 0, 0, 0, 2, code];
        let (past_end, first) = (coded(2), coded(1));
        let lies: Vec<(&str, bool, ListType, Vec<u8>)> = vec![
            (
                "text III counts",
                true,
                ListType::III,
                one_frame_list(65_536, &counts(false)),
            ),
            (
                "text II counts",
                true,
                ListType::II,
                one_frame_list(65_536, &counts(true)),
            ),
            (
                "text I elems",
                true,
                ListType::I,
                one_frame_list(max_elems, &[0, 0, 0, 0, 0, 0]),
            ),
            (
                "num I elems",
                false,
                ListType::I,
                one_frame_list(max_elems, &[0, 0, 0, 0, 0, 64]),
            ),
            (
                "num IV elems",
                false,
                ListType::IV,
                one_frame_list(max_elems, &[64]),
            ),
            (
                "num IV code width",
                false,
                ListType::IV,
                one_frame_list(1000, &narrow_codes),
            ),
            (
                "dictionary entries",
                true,
                ListType::I,
                frames_list(&[(DICT, 65_536, &[0, 0xA5, 0xA5])]),
            ),
            (
                "code past the dictionary",
                true,
                ListType::I,
                frames_list(&[(DICT, 2, &two), (PACKED, 1, &past_end)]),
            ),
            (
                "code without a dictionary",
                true,
                ListType::I,
                frames_list(&[(PACKED, 1, &first)]),
            ),
            (
                "second dictionary",
                true,
                ListType::I,
                frames_list(&[(DICT, 2, &two), (DICT, 2, &two), (PACKED, 1, &first)]),
            ),
            (
                "dictionary on a numeric list",
                false,
                ListType::I,
                frames_list(&[(DICT, 2, &two), (PACKED, 1, &[0, 0, 0, 0, 0, 1, 1])]),
            ),
        ];
        let corrupt = IvaError::is_corruption;
        for (what, is_text, ty, stored) in lies {
            let whole = open_packed(&stored, is_text, ty).unwrap().decode_to_vec();
            assert!(
                whole.as_ref().is_err_and(corrupt),
                "{what}: decode {whole:?}"
            );
            let packed = open_packed(&stored, is_text, ty).unwrap();
            let walked = if is_text {
                let codec = sig_codec();
                let matcher = PreparedMatcher::new(&codec, b"value");
                TextListCursor::new(packed, ty)
                    .advance(0, &codec, &matcher)
                    .map(drop)
            } else {
                NumListCursor::new(packed, ty)
                    .advance(0, &num_codec())
                    .map(drop)
            };
            assert!(
                walked.as_ref().is_err_and(corrupt),
                "{what}: walk {walked:?}"
            );
        }
    }

    /// A DICT frame's string and count sections, in each lie a disk can
    /// tell: a string running past the payload, a section of other than
    /// one entry per dictionary string, counts of more values than the
    /// list holds, and strings on a numeric list. Each is `Corrupt` to
    /// the whole-image decode, the one reader that sees every value; the
    /// walk loads the dictionary, so it refuses all but the counts, which
    /// only the probe reads (held there to the catalog's `df`). The honest
    /// frame decodes. What the lies do not allocate is pinned by
    /// `packed::tests::lying_frames_size_nothing_by_their_claims`.
    #[test]
    fn lying_dictionary_sections_are_corrupt() {
        use iva_core::IvaError;
        let ch = sig_codec().ch_bytes(0);
        // Two entries of `cL` 0, then `sections`.
        let dict = |sections: Vec<Vec<u8>>| {
            let mut d = vec![0u8];
            d.resize(1 + 2 * ch, 0xA5);
            d.extend(sections.concat());
            d
        };
        // `[n u32][width 8][a byte per value]`, and the bytes after it.
        let section = |n: u32, vals: &[u8], then: &[u8]| {
            let mut s = n.to_le_bytes().to_vec();
            s.push(8);
            s.extend_from_slice(vals);
            s.extend_from_slice(then);
            s
        };
        let strings = section(2, &[1, 1], b"ab");
        // One Type I value at tid 0, coded 0: `[tid][Δ width 0][cbw 1][0]`.
        let value: &[u8] = &[0, 0, 0, 0, 0, 1, 0];
        // Its raw layout is `[tid u32][cL][cH]`.
        let logical = (4 + 1 + ch) as u64;
        let list = |dict: &[u8], payload: &[u8]| {
            let mut l = frames_list(&[(DICT, 2, dict), (PACKED, 1, payload)]);
            l[..8].copy_from_slice(&logical.to_le_bytes());
            l
        };
        let honest = list(
            &dict(vec![strings.clone(), section(2, &[1, 0], &[])]),
            value,
        );
        let got = open_packed(&honest, true, ListType::I)
            .unwrap()
            .decode_to_vec();
        assert!(got.is_ok(), "honest: {got:?}");
        let lies = [
            (
                "string past the payload",
                true,
                dict(vec![section(2, &[1, 200], b"ab"), section(2, &[1, 0], &[])]),
            ),
            (
                "string section of three",
                true,
                dict(vec![
                    section(3, &[1, 1, 1], b"abc"),
                    section(2, &[1, 0], &[]),
                ]),
            ),
            (
                "count section of one",
                true,
                dict(vec![strings.clone(), section(1, &[1], &[])]),
            ),
            (
                "counts past the values",
                false,
                dict(vec![strings.clone(), section(2, &[1, 1], &[])]),
            ),
        ];
        let corrupt = IvaError::is_corruption;
        for (what, walk_refuses, dict) in lies {
            let stored = list(&dict, value);
            let whole = open_packed(&stored, true, ListType::I)
                .unwrap()
                .decode_to_vec();
            assert!(
                whole.as_ref().is_err_and(corrupt),
                "{what}: decode {whole:?}"
            );
            let codec = sig_codec();
            let matcher = PreparedMatcher::new(&codec, b"ab");
            let walked = TextListCursor::new(
                open_packed(&stored, true, ListType::I).unwrap(),
                ListType::I,
            )
            .advance(0, &codec, &matcher);
            assert_eq!(
                walked.as_ref().is_err_and(corrupt),
                walk_refuses,
                "{what}: walk {walked:?}"
            );
        }
        // The honest dictionary on a numeric list.
        let numeric = frames_list(&[(DICT, 2, &dict(vec![strings, section(2, &[1, 0], &[])]))]);
        let whole = open_packed(&numeric, false, ListType::I)
            .unwrap()
            .decode_to_vec();
        assert!(
            whole.as_ref().is_err_and(corrupt),
            "numeric: decode {whole:?}"
        );
        let walked = NumListCursor::new(
            open_packed(&numeric, false, ListType::I).unwrap(),
            ListType::I,
        )
        .advance(0, &num_codec());
        assert!(
            walked.as_ref().is_err_and(corrupt),
            "numeric: walk {walked:?}"
        );
    }

    /// A Type III DICT frame's postings section (format v7), in each lie a
    /// disk can tell: truncated, counts one off either way, a position at
    /// or past `covered`, a run that descends, a cover wider than the
    /// tuple-id space, and postings on a Type I list. Each is `Corrupt` to
    /// the whole-image decode and to the walk, which loads the dictionary
    /// whole — never a panic. The honest frame decodes and walks.
    #[test]
    fn lying_postings_are_corrupt() {
        use iva_core::IvaError;
        let ch = sig_codec().ch_bytes(0);
        // `[n u32][width 8][a byte per value]`, and the bytes after it.
        let section = |n: u32, vals: &[u8], then: &[u8]| {
            let mut s = n.to_le_bytes().to_vec();
            s.push(8);
            s.extend_from_slice(vals);
            s.extend_from_slice(then);
            s
        };
        // 200 positions: "a" at 0, "b" then "a" at 5, the rest undefined.
        let logical = 200 + 3 * (1 + ch) as u64;
        // `[covered][raw]`, the runs' lengths, then positions at 8 bits.
        let postings = |covered: u64, lens: &[u8], posts: &[u8]| {
            let mut p = covered.to_le_bytes().to_vec();
            p.extend_from_slice(&logical.to_le_bytes());
            p.extend(section(2, lens, posts));
            p
        };
        let dict = |postings: Vec<u8>| {
            let mut d = vec![0u8];
            d.resize(1 + 2 * ch, 0xA5);
            d.extend(section(2, &[1, 1], b"ab"));
            d.extend(section(2, &[1, 1], &postings));
            d
        };
        // Six Type III elements — string counts 1, 0, 0, 0, 0, 2 at two
        // bits, codes 0, 1, 0 at one — then 194 undefined.
        let value: &[u8] = &[2, 1, 8, 1, 2];
        let list = |dict: &[u8], ty: ListType| {
            let mut l = frames_list(&[(DICT, 2, dict), (PACKED, 6, value), (2, 194, &[])]);
            if ty == ListType::I {
                l = frames_list(&[(DICT, 2, dict)]);
            }
            l[..8].copy_from_slice(&logical.to_le_bytes());
            l
        };
        let honest = dict(postings(200, &[2, 1], &[0, 5, 5]));
        let whole = open_packed(&list(&honest, ListType::III), true, ListType::III)
            .unwrap()
            .decode_to_vec();
        assert!(whole.is_ok(), "honest: {whole:?}");
        let all: Vec<u32> = (0..200).collect();
        let walk = |stored: &[u8], ty: ListType| {
            let (codec, mut out) = (sig_codec(), [0.0; 200]);
            let matcher = PreparedMatcher::new(&codec, b"ab");
            let mut cur = TextListCursor::new(open_packed(stored, true, ty).unwrap(), ty);
            cur.fill_block(&all, &codec, &matcher, &mut out)
        };
        walk(&list(&honest, ListType::III), ListType::III).unwrap();
        let lies = [
            ("truncated", postings(200, &[2, 1], &[0, 5]), ListType::III),
            (
                "a count one short",
                postings(200, &[2, 0], &[0, 5, 5]),
                ListType::III,
            ),
            (
                "a count one long",
                postings(200, &[2, 2], &[0, 5, 5]),
                ListType::III,
            ),
            (
                "a position at the cover",
                postings(200, &[2, 1], &[0, 200, 5]),
                ListType::III,
            ),
            (
                "a descending run",
                postings(200, &[2, 1], &[5, 0, 5]),
                ListType::III,
            ),
            (
                "a repeated position",
                postings(200, &[2, 1], &[5, 5, 5]),
                ListType::III,
            ),
            (
                "a cover past the tids",
                postings(1 << 33, &[2, 1], &[0, 5, 5]),
                ListType::III,
            ),
            (
                "postings on Type I",
                postings(200, &[2, 1], &[0, 5, 5]),
                ListType::I,
            ),
        ];
        let corrupt = IvaError::is_corruption;
        for (what, postings, ty) in lies {
            let stored = list(&dict(postings), ty);
            let whole = open_packed(&stored, true, ty).unwrap().decode_to_vec();
            assert!(
                whole.as_ref().is_err_and(corrupt),
                "{what}: decode {whole:?}"
            );
            let walked = walk(&stored, ty);
            assert!(
                walked.as_ref().is_err_and(corrupt),
                "{what}: walk {walked:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn mutated_packed_lists_never_panic(
            pick in any::<prop::sample::Index>(),
            at in any::<prop::sample::Index>(),
            xor in 1u8..255,
            cut in any::<prop::sample::Index>(),
        ) {
            let corpus = corpus(N);
            let (stored, raw, is_text, ty) = &corpus[pick.index(corpus.len())];
            let logical = raw.len() as u64;

            // Single-byte corruption anywhere in the stored image:
            // prologue, frame kinds, element counts, payload lengths,
            // delta widths, first tuple-ids — all reachable.
            let mut mutated = stored.clone();
            let m_at = at.index(mutated.len());
            mutated[m_at] ^= xor;
            if let Some(got) = drive(&mutated, *is_text, *ty) {
                // A surviving decode must still honor the length contract
                // its (possibly mutated) prologue declares.
                let declared = u64::from_le_bytes(mutated[..8].try_into().unwrap());
                prop_assert_eq!(got.len() as u64, declared);
            }

            // Truncation at every prefix: partial prologues, partial
            // headers, partial payloads, missing tail frames.
            let _ = drive(&stored[..cut.index(stored.len())], *is_text, *ty);

            // Lying prologue: a logical length off by the mutation byte
            // in either direction must be caught, not trusted.
            let mut lying = stored.clone();
            lying[..8].copy_from_slice(&(logical + u64::from(xor)).to_le_bytes());
            prop_assert!(drive(&lying, *is_text, *ty).is_none());
            if logical >= u64::from(xor) {
                lying[..8].copy_from_slice(&(logical - u64::from(xor)).to_le_bytes());
                prop_assert!(drive(&lying, *is_text, *ty).is_none());
            }
        }

        #[test]
        fn arbitrary_bytes_as_packed_lists_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            for ty in [ListType::I, ListType::II, ListType::III] {
                let _ = drive(&bytes, true, ty);
            }
            for ty in [ListType::I, ListType::IV] {
                let _ = drive(&bytes, false, ty);
            }
        }
    }
}
