//! Differential update-torture: the segmented (LSM-style) engine against
//! a shadow monolithic `IvaDb` under randomized interleavings of inserts,
//! deletes, updates, seals, compactions, and flushes.
//!
//! Every interleaving drives both engines with the *same* operation
//! sequence (maintenance ops are no-ops on the monolith, which has no
//! tiers) and checks, at interleaved probe points:
//!
//! * tuple ids assigned by the two engines are identical;
//! * top-k hits are bit-identical — same tids, same `f64::to_bits`
//!   distances, same order (each tier drains on its own, so the two
//!   engines fetch different numbers of records: `table_accesses` is not
//!   compared);
//! * the segmented engine never scans more tuple-list entries than the
//!   monolith (sealing drops tombstones; the monolith keeps them).
//!
//! The workload's four-attribute density split materializes all four
//! vector-list organizations (Types I–IV), so every probe crosses every
//! organization. Failures print the interleaving's seed.

use std::collections::HashMap;

use iva_core::ListType;
use iva_file::{
    AttrId, IvaDb, IvaDbOptions, LsmDb, LsmOptions, PagerOptions, Query, SearchRequest, Tid, Tuple,
    Value, WeightScheme,
};

const INTERLEAVINGS: u64 = 200;
const OPS_PER_RUN: u32 = 48;

fn pager() -> PagerOptions {
    PagerOptions {
        page_size: 256,
        cache_bytes: 256 * 32,
    }
}

fn mono_opts() -> IvaDbOptions {
    IvaDbOptions {
        pager: pager(),
        // The shadow must never rebuild: a rebuild re-picks organizations
        // and re-quantises numeric domains, while the segmented engine
        // pins both — the equivalence target is the *incrementally
        // maintained* monolith. 1.0 is not enough: a run that deletes
        // every tuple reaches deleted_fraction == 1.0 and still triggers.
        cleaning_threshold: 2.0,
        weights: WeightScheme::Equal,
        ..Default::default()
    }
}

fn lsm_opts() -> LsmOptions {
    LsmOptions {
        pager: pager(),
        weights: WeightScheme::Equal,
        // Maintenance is driven explicitly by the op stream.
        memtable_limit: 0,
        compact_fanout: 0,
        ..Default::default()
    }
}

/// xorshift64*: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The tuple for row `i` under the four-attribute density split that
/// forces list organizations III, I/II, IV and I respectively.
fn row(i: u64) -> Tuple {
    let mut tup = Tuple::new();
    if !i.is_multiple_of(7) {
        tup.set(
            AttrId(0),
            Value::text(format!("product listing {:04}", i % 97)),
        );
    }
    if i.is_multiple_of(11) {
        tup.set(
            AttrId(1),
            Value::texts([format!("note {}", i % 37), "extra".to_string()]),
        );
    }
    if i % 10 != 9 {
        tup.set(AttrId(2), Value::num((i % 89) as f64));
    }
    if i.is_multiple_of(13) {
        tup.set(AttrId(3), Value::num(i as f64));
    }
    tup
}

fn define_schema(mono: &mut IvaDb, lsm: &mut LsmDb) {
    for name in ["dense_txt", "sparse_txt"] {
        mono.define_text(name).unwrap();
        lsm.define_text(name).unwrap();
    }
    for name in ["dense_num", "sparse_num"] {
        mono.define_numeric(name).unwrap();
        lsm.define_numeric(name).unwrap();
    }
}

/// Probe queries crossing all four organizations plus single-attribute
/// corner cases.
fn probes(rng: &mut Rng) -> Vec<Query> {
    vec![
        Query::new()
            .text(AttrId(0), format!("product listing {:04}", rng.below(97)))
            .text(AttrId(1), format!("note {}", rng.below(37)))
            .num(AttrId(2), rng.below(89) as f64)
            .num(AttrId(3), rng.below(500) as f64),
        Query::new()
            .text(AttrId(0), format!("product listing {:04}", rng.below(97)))
            .num(AttrId(2), rng.below(89) as f64),
        Query::new().num(AttrId(3), rng.below(500) as f64),
    ]
}

fn keys(hits: &[iva_file::SearchHit]) -> Vec<(u64, u64)> {
    hits.iter().map(|h| (h.dist.to_bits(), h.tid)).collect()
}

/// Compare every plan's answer on one query. `k` varies per call site.
fn check_query(mono: &IvaDb, lsm: &LsmDb, query: &Query, k: usize, ctx: &str) {
    let req = SearchRequest::new(k);
    let want = mono.execute(query, &req).unwrap();
    let got = lsm.execute(query, &req).unwrap();
    assert_eq!(keys(&got.hits), keys(&want.hits), "{ctx}: hits diverge");
    for (g, w) in got.hits.iter().zip(&want.hits) {
        assert_eq!(g.tuple, w.tuple, "{ctx}: tuple materialization diverges");
    }
    assert!(
        got.stats.tuples_scanned <= want.stats.tuples_scanned,
        "{ctx}: segmented scan visited more directory entries ({}) than the monolith ({})",
        got.stats.tuples_scanned,
        want.stats.tuples_scanned
    );
}

fn check_state(mono: &IvaDb, lsm: &LsmDb, live: &HashMap<Tid, Tuple>, ctx: &str) {
    assert_eq!(lsm.len(), mono.len(), "{ctx}: live count diverges");
    assert_eq!(
        lsm.len(),
        live.len() as u64,
        "{ctx}: live count vs shadow map"
    );
    for (tid, tup) in live {
        let got = lsm.get(*tid).unwrap();
        assert_eq!(got.as_ref(), Some(tup), "{ctx}: get({tid}) diverges");
    }
}

/// One full interleaving under `seed`.
fn run_interleaving(seed: u64) {
    let ctx = |op: u32| format!("seed={seed:#x} op={op}");
    let mut rng = Rng::new(seed);
    let mut mono = IvaDb::create_mem(mono_opts()).unwrap();
    let mut lsm = LsmDb::create_mem(lsm_opts()).unwrap();
    define_schema(&mut mono, &mut lsm);

    let mut live: HashMap<Tid, Tuple> = HashMap::new();
    let mut next_row = seed % 1000;

    for op in 0..OPS_PER_RUN {
        match rng.below(100) {
            // Inserts dominate so tiers actually fill.
            0..=44 => {
                let tup = row(next_row);
                next_row += 1;
                let want_tid = mono.insert(&tup).unwrap();
                let got_tid = lsm.insert(&tup).unwrap();
                assert_eq!(got_tid, want_tid, "{}: tid assignment diverges", ctx(op));
                live.insert(got_tid, tup);
            }
            45..=59 => {
                // Delete a random live tuple (or a bogus tid).
                let tid = pick(&mut rng, &live).unwrap_or(9999);
                let want = mono.delete(tid).unwrap();
                let got = lsm.delete(tid).unwrap();
                assert_eq!(got, want, "{}: delete({tid}) verdict diverges", ctx(op));
                live.remove(&tid);
            }
            60..=74 => {
                if let Some(tid) = pick(&mut rng, &live) {
                    let tup = row(next_row);
                    next_row += 1;
                    let want_tid = mono.update(tid, &tup).unwrap();
                    let got_tid = lsm.update(tid, &tup).unwrap();
                    assert_eq!(got_tid, want_tid, "{}: update tid diverges", ctx(op));
                    live.remove(&tid);
                    live.insert(got_tid, tup);
                }
            }
            75..=84 => {
                lsm.seal().unwrap();
            }
            85..=92 => {
                lsm.compact().unwrap();
            }
            _ => {
                lsm.flush().unwrap();
            }
        }
        if op % 8 == 7 {
            check_state(&mono, &lsm, &live, &ctx(op));
            for (qi, q) in probes(&mut rng).into_iter().enumerate() {
                check_query(&mono, &lsm, &q, 5, &format!("{} probe={qi}", ctx(op)));
            }
        }
    }
    // Final deep check with a couple of k values (k=1 corner, k larger
    // than the live set).
    check_state(&mono, &lsm, &live, &ctx(OPS_PER_RUN));
    for (qi, q) in probes(&mut rng).into_iter().enumerate() {
        for k in [1usize, 5, 64] {
            check_query(
                &mono,
                &lsm,
                &q,
                k,
                &format!("{} final probe={qi} k={k}", ctx(OPS_PER_RUN)),
            );
        }
    }
}

fn pick(rng: &mut Rng, live: &HashMap<Tid, Tuple>) -> Option<Tid> {
    if live.is_empty() {
        return None;
    }
    let mut tids: Vec<Tid> = live.keys().copied().collect();
    tids.sort_unstable();
    Some(tids[rng.below(tids.len() as u64) as usize])
}

#[test]
fn randomized_interleavings_match_monolith_bit_for_bit() {
    for seed in 0..INTERLEAVINGS {
        run_interleaving(0x5EED_0000 + seed);
    }
}

/// The tids of an index's tuple list, tombstones included.
fn tuple_list_tids(index: &iva_core::IvaIndex) -> Vec<u32> {
    let exported = iva_core::export_index(index).unwrap();
    exported.tuple_entries.iter().map(|&(tid, _)| tid).collect()
}

/// The pool's tie rule (lowest tid wins) is Algorithm 1's "first arrival
/// wins" only because every tuple list is tid-ascending — within an
/// index, and across an LSM's tiers in scan order. No write path may
/// break that: insert, update, delete, rebuild, seal, compact, flush.
#[test]
fn tuple_lists_stay_tid_ascending() {
    for seed in 0..4u64 {
        let mut rng = Rng::new(0xA5CE_0000 + seed);
        let mut mono = IvaDb::create_mem(mono_opts()).unwrap();
        let mut lsm = LsmDb::create_mem(lsm_opts()).unwrap();
        define_schema(&mut mono, &mut lsm);
        let mut live: Vec<Tid> = Vec::new();
        for op in 0..160u64 {
            match rng.below(100) {
                0..=49 => {
                    let tid = mono.insert(&row(op)).unwrap();
                    assert_eq!(lsm.insert(&row(op)).unwrap(), tid);
                    live.push(tid);
                }
                50..=64 if !live.is_empty() => {
                    let tid = live.swap_remove(rng.below(live.len() as u64) as usize);
                    mono.delete(tid).unwrap();
                    lsm.delete(tid).unwrap();
                }
                65..=79 if !live.is_empty() => {
                    let at = rng.below(live.len() as u64) as usize;
                    let tid = mono.update(live[at], &row(op)).unwrap();
                    assert_eq!(lsm.update(live[at], &row(op)).unwrap(), tid);
                    live[at] = tid;
                }
                80..=84 => mono.rebuild().unwrap(),
                85..=89 => {
                    lsm.seal().unwrap();
                }
                90..=94 => {
                    lsm.compact().unwrap();
                }
                _ => lsm.flush().unwrap(),
            }
            let ctx = format!("seed={seed} op={op}");
            let mono_tids = tuple_list_tids(mono.index());
            assert!(mono_tids.windows(2).all(|w| w[0] < w[1]), "{ctx}: monolith");
            let mut lsm_tids = Vec::new();
            for seg in lsm.segments() {
                lsm_tids.extend(tuple_list_tids(seg.index()));
            }
            lsm_tids.extend(tuple_list_tids(lsm.memtable().index()));
            assert!(lsm_tids.windows(2).all(|w| w[0] < w[1]), "{ctx}: lsm tiers");
        }
    }
}

/// The workload must genuinely materialize all four organizations, or
/// the differential sweep silently weakens: sealing re-picks each
/// attribute's organization from the sealed data by the paper's size
/// formulas, and the density split above must hit I, II-or-I, III and IV
/// across the attributes of some sealed segment.
#[test]
fn interleavings_cover_all_four_list_organizations() {
    let mut lsm = LsmDb::create_mem(lsm_opts()).unwrap();
    let mut mono = IvaDb::create_mem(mono_opts()).unwrap();
    define_schema(&mut mono, &mut lsm);
    for i in 0..150 {
        lsm.insert(&row(i)).unwrap();
    }
    lsm.seal().unwrap();
    let seg = &lsm.segments()[0];
    let types: Vec<ListType> = (0..4u32)
        .map(|a| seg.index().attr_entry(AttrId(a)).unwrap().list_type)
        .collect();
    assert_eq!(types[0], ListType::III);
    assert!(matches!(types[1], ListType::I | ListType::II));
    assert_eq!(types[2], ListType::IV);
    assert_eq!(types[3], ListType::I);
}

/// Epoch parity through the serving layer: a served `LsmDb` and a served
/// monolithic shadow, driven by the same mutation stream (maintenance =
/// `Writer::maintain` on the segmented side, a published no-op on the
/// shadow), publish the same epoch sequence and answer every probe
/// bit-identically at every epoch.
#[test]
fn served_epoch_stream_matches_monolith() {
    use iva_file::serve::Writer;

    let mut rng = Rng::new(0xEAC5);
    let mut lsm = Writer::new(
        LsmDb::create_mem(LsmOptions {
            memtable_limit: 8,
            compact_fanout: 3,
            ..lsm_opts()
        })
        .unwrap(),
    );
    let mut mono = Writer::new(IvaDb::create_mem(mono_opts()).unwrap());
    {
        // Writers only expose the trait surface; define through apply.
        lsm.apply(|db| {
            db.define_text("dense_txt")?;
            db.define_text("sparse_txt")?;
            db.define_numeric("dense_num")?;
            db.define_numeric("sparse_num")?;
            Ok(())
        })
        .unwrap();
        mono.apply(|db| {
            db.define_text("dense_txt")?;
            db.define_text("sparse_txt")?;
            db.define_numeric("dense_num")?;
            db.define_numeric("sparse_num")?;
            Ok(())
        })
        .unwrap();
    }
    let lsm_reader = lsm.reader();
    let mono_reader = mono.reader();
    for i in 0..80u64 {
        let tup = row(i);
        let a = lsm.insert(&tup).unwrap();
        let b = mono.insert(&tup).unwrap();
        assert_eq!(a, b, "op {i}: served tid diverges");
        if i % 9 == 8 {
            let tid = i - rng.below(6);
            assert_eq!(
                lsm.delete(tid).unwrap(),
                mono.delete(tid).unwrap(),
                "op {i}: served delete verdict diverges"
            );
        }
        // Threshold-driven background maintenance; the shadow publishes a
        // no-op so the epoch streams stay in step.
        if lsm.maintain().unwrap() {
            mono.apply(|_| Ok(())).unwrap();
        }
        assert_eq!(lsm.epoch(), mono.epoch(), "op {i}: epoch streams diverge");
        let lsnap = lsm_reader.snapshot();
        let msnap = mono_reader.snapshot();
        assert_eq!(
            lsnap.epoch(),
            msnap.epoch(),
            "op {i}: snapshot epochs diverge"
        );
        let q = Query::new()
            .text(AttrId(0), format!("product listing {:04}", rng.below(97)))
            .num(AttrId(2), rng.below(89) as f64);
        let got = lsnap.execute(&q, &SearchRequest::new(5)).unwrap();
        let want = msnap.execute(&q, &SearchRequest::new(5)).unwrap();
        assert_eq!(
            keys(&got.hits),
            keys(&want.hits),
            "op {i}: served hits diverge at epoch {}",
            lsnap.epoch()
        );
    }
    // The maintenance actually ran: segments were sealed and merged.
    let snap = lsm_reader.snapshot();
    assert!(!snap.segments().is_empty(), "no segment was ever sealed");
}
