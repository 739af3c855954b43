//! Property tests of the pieces under the scan: the refine step's bounded
//! distance, the one list walk every reader shares, and the block fill.
//! Whether whole queries return the brute-force top-k under every metric,
//! weight scheme, shape and update history is `tests/oracle.rs`'s.

use proptest::prelude::*;

mod common;
#[path = "../../../tests/common/model.rs"]
mod model;

use common::{assert_same_plan, small_pages as opts};
use iva_core::{
    bounded_distance, build_index, encode_num_list, encode_packed_num_list,
    encode_packed_text_list, encode_text_list, exact_distance, export_index, import_index,
    IndexTarget, IvaConfig, IvaIndex, ListType, Metric, MetricKind, NumListCursor, NumericCodec,
    PackedReader, Query, QueryOutcome, QueryStats, QueryValue, ResultPool, ScanCarry,
    TextListCursor, WeightScheme, TOMBSTONE_PTR,
};
use iva_storage::{write_contiguous_list, IoStats, ListReader, Pager};
use iva_swt::{encode_record, AttrId, RecordView, SwtTable, Tuple, Value};
use iva_text::{PreparedMatcher, PreparedPattern};
use model::Model;

const N_TEXT_ATTRS: u32 = 4;
const N_NUM_ATTRS: u32 = 3;

/// A random sparse tuple over a small attribute universe with a shared
/// vocabulary (so queries have near-matches).
fn arb_tuple() -> impl Strategy<Value = Vec<(u32, FieldVal)>> {
    let text_field = (0..N_TEXT_ATTRS, arb_text_value()).prop_map(|(a, v)| (a, FieldVal::T(v)));
    let num_field =
        (0..N_NUM_ATTRS, -50.0f64..50.0).prop_map(|(a, v)| (N_TEXT_ATTRS + a, FieldVal::N(v)));
    proptest::collection::vec(prop_oneof![text_field, num_field], 0..5)
}

#[derive(Debug, Clone)]
enum FieldVal {
    T(Vec<String>),
    N(f64),
}

fn arb_word() -> impl Strategy<Value = String> {
    proptest::sample::select(vec![
        "canon",
        "cannon",
        "sony",
        "nikon",
        "camera",
        "digital camera",
        "music album",
        "wide-angle",
        "telephoto",
        "google",
        "red",
        "white",
        "job position",
    ])
    .prop_map(str::to_string)
}

fn arb_text_value() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_word(), 1..3)
}

fn build_tuple(row: &[(u32, FieldVal)]) -> Tuple {
    let mut tuple = Tuple::new();
    for (attr, v) in row {
        match v {
            FieldVal::T(strings) => tuple.set(AttrId(*attr), Value::texts(strings.clone())),
            FieldVal::N(x) => tuple.set(AttrId(*attr), Value::num(*x)),
        };
    }
    tuple
}

/// A monotone metric that is none of the built-in three: a superlinear
/// sum plus the maximum. Knows nothing about thresholds — the refine
/// step's caps must come from `combine` alone.
struct SumPlusMax;

impl Metric for SumPlusMax {
    fn combine(&self, d: &[f64]) -> f64 {
        d.iter().map(|x| x.powf(1.5)).sum::<f64>() + d.iter().copied().fold(0.0, f64::max)
    }
}

/// `bounded_distance` on the tuple's encoded bytes against
/// `exact_distance` on the tuple, for thresholds around and away from the
/// true distance; with the query's prepared patterns and without them, the
/// same bits.
fn check_bounded<M: Metric>(
    tuple: &Tuple,
    query: &Query,
    weights: &[f64],
    metric: &M,
    thresholds: &[f64],
) -> Result<(), TestCaseError> {
    let ndf = 20.0;
    let exact = exact_distance(tuple, query, weights, metric, ndf);
    let mut buf = Vec::new();
    encode_record(tuple, &mut buf).unwrap();
    let view = RecordView::new(&buf);
    let (mut diffs, mut locs) = (vec![0.0; query.len()], Vec::new());
    let prepared: Vec<_> = (query.iter())
        .map(|(_, qv)| match qv {
            QueryValue::Text(s) => Some(PreparedPattern::new(s.as_bytes())),
            QueryValue::Num(_) => None,
        })
        .collect();
    let patterns: Vec<_> = prepared.iter().map(Option::as_ref).collect();
    let around = [
        exact,
        exact * (1.0 - 1e-12),
        exact * (1.0 + 1e-12),
        f64::INFINITY,
        0.0,
    ];
    for &t in thresholds.iter().chain(&around) {
        let mut bounded = |patterns: &[Option<&PreparedPattern>]| {
            let (d, l) = (&mut diffs, &mut locs);
            bounded_distance(&view, query, patterns, weights, metric, ndf, t, d, l).unwrap()
        };
        let got = bounded(&patterns);
        prop_assert_eq!(got.to_bits(), bounded(&[]).to_bits(), "t={}", t);
        prop_assert_eq!(got < t, exact < t, "t={} exact={} got={}", t, exact, got);
        if exact < t {
            prop_assert_eq!(
                got.to_bits(),
                exact.to_bits(),
                "t={} exact={} got={}",
                t,
                exact,
                got
            );
        }
    }
    // The inclusive cap: against a full pool whose worst entry sits
    // exactly at this tuple's distance, a lower tid wins the tie and must
    // get its exact distance; a higher tid loses whatever it is told.
    for (tid, wins) in [(3u64, true), (7, false)] {
        let mut pool = ResultPool::new(1);
        pool.insert(5, exact);
        let cap = pool.refine_cap(tid);
        let got = bounded_distance(
            &view, query, &patterns, weights, metric, ndf, cap, &mut diffs, &mut locs,
        )
        .unwrap();
        prop_assert_eq!(
            pool.insert(tid, got),
            wins,
            "tid={} exact={} got={}",
            tid,
            exact,
            got
        );
        if wins {
            prop_assert_eq!(got.to_bits(), exact.to_bits(), "tie at {}", exact);
        }
    }
    Ok(())
}

fn build_query(fields: &[(u32, FieldVal)]) -> Query {
    let mut q = Query::new();
    for (attr, v) in fields {
        match v {
            FieldVal::T(strings) => q = q.text(AttrId(*attr), strings[0].clone()),
            FieldVal::N(x) => q = q.num(AttrId(*attr), *x),
        }
    }
    q
}

/// The index's top-k against the model of `table`'s live records.
fn check_equivalence(table: &SwtTable, index: &IvaIndex, query: &Query, k: usize) {
    let records = table.scan().map(|r| r.unwrap().1).filter(|r| !r.deleted);
    let model = Model {
        live: records.map(|r| (r.tid, r.tuple)).collect(),
    };
    let lambda = index.resolve_weights(query, WeightScheme::Equal);
    let want = model.topk(query, &lambda, &MetricKind::L2, k);
    let got = index.query(table, query, k, &MetricKind::L2, WeightScheme::Equal);
    let got = got.unwrap().results;
    let got: Vec<_> = got.iter().map(|e| (e.tid, e.dist.to_bits())).collect();
    assert_eq!(got, want, "{query:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The refine step's distance may stop early, but never in a way the
    /// pool can see: below the threshold it is the exact distance to the
    /// bit, at or above it it stays at or above — for the three built-in
    /// metrics and for one the crate has never heard of.
    #[test]
    fn bounded_distance_is_exact_below_threshold(
        row in arb_tuple(),
        qfields in proptest::collection::vec(
            prop_oneof![
                (0..N_TEXT_ATTRS, arb_text_value()).prop_map(|(a, v)| (a, FieldVal::T(v))),
                (0..N_NUM_ATTRS, -60.0f64..60.0).prop_map(|(a, v)| (N_TEXT_ATTRS + a, FieldVal::N(v))),
            ],
            1..5,
        ),
        raw_weights in proptest::collection::vec(0.05f64..4.0, 8),
        thresholds in proptest::collection::vec(0.0f64..60.0, 6),
    ) {
        let tuple = build_tuple(&row);
        let query = build_query(&qfields);
        let weights = &raw_weights[..query.len()];
        check_bounded(&tuple, &query, weights, &MetricKind::L1, &thresholds)?;
        check_bounded(&tuple, &query, weights, &MetricKind::L2, &thresholds)?;
        check_bounded(&tuple, &query, weights, &MetricKind::LInf, &thresholds)?;
        check_bounded(&tuple, &query, weights, &SumPlusMax, &thresholds)?;
    }
}

/// A dictionary string's exact distance is `attr_difference`'s: over a
/// text attribute whose values repeat enough that its packed list carries
/// string sections, every 1-value query at k = 1, 10 and 25 is answered
/// from the dictionary — no fetch — with the brute-force top-k by tid and
/// distance bits. The vocabularies cover multi-string values (a value's
/// distance is its nearest string's, whichever is first); two strings
/// with one signature (a code names a string, not a signature); non-ASCII
/// bytes, queried by the empty string among others (a value holds none);
/// and dictionaries of 1, 2, 256 and 257
/// strings, whose codes are 1, 1, 8 and 9 bits wide. Every seventh row
/// leaves the attribute undefined.
#[test]
fn dictionary_distances_are_attr_difference() {
    let config = IvaConfig::default();
    let codec = config.sig_codec();
    // The first two strings of the form `s<i>` that share a signature.
    let mut seen = std::collections::HashMap::new();
    let shared = (0..10_000)
        .map(|i| format!("s{i}"))
        .find_map(|s| {
            let sig = codec.encode_to_vec(s.as_bytes());
            seen.insert(sig, s.clone()).map(|other| (other, s))
        })
        .expect("two strings with one signature");
    let shared = (shared.0.as_str(), shared.1.as_str());
    let texts = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
    let numbered = |d: usize| (0..d).map(|i| vec![format!("w{i:03}")]).collect::<Vec<_>>();
    let vocabularies: Vec<(&str, Vec<Vec<String>>)> = vec![
        (
            "multi-string",
            vec![
                texts(&["canon", "eos"]),
                texts(&["nikon", "canon"]),
                texts(&["sony"]),
                texts(&["cannon", "nikkon", "sony"]),
            ],
        ),
        (
            "one signature",
            vec![texts(&[shared.0]), texts(&[shared.1]), texts(&["abc"])],
        ),
        (
            "non-ASCII",
            vec![texts(&["é"]), texts(&["café"]), texts(&["日本語", "cafe"])],
        ),
        ("1 string", numbered(1)),
        ("2 strings", numbered(2)),
        ("256 strings", numbered(256)),
        ("257 strings", numbered(257)),
    ];
    for (what, vocab) in vocabularies {
        let mut table = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        let a = table.define_text("a").unwrap();
        // Enough rows that the distinct strings take fewer bytes than the codes.
        for i in 0..(8 * vocab.len()).max(200) {
            let mut tuple = Tuple::new();
            if i % 7 != 6 {
                tuple.set(a, Value::texts(vocab[i % vocab.len()].clone()));
            }
            table.insert(&tuple).unwrap();
        }
        let index = build_index(&table, IndexTarget::Mem, &opts(), IoStats::new(), config).unwrap();
        let mut probes: Vec<String> = vocab.iter().flatten().take(40).cloned().collect();
        probes.extend(["", "canno", "w12", "cafè", shared.0, "zzz"].map(String::from));
        for q in probes.iter().map(|s| Query::new().text(a, s.clone())) {
            for k in [1, 10, 25] {
                check_equivalence(&table, &index, &q, k);
                let out = index.query(&table, &q, k, &MetricKind::L2, WeightScheme::Equal);
                let stats = out.unwrap().stats;
                let ctx = format!("{what}, k = {k}, {q:?}: {stats:?}");
                assert!(
                    stats.dict_distances > 0 && stats.table_accesses == 0,
                    "{ctx}"
                );
            }
        }
    }
}

/// Row `i`'s value on the one attribute of [`seeded_pair`]'s table.
type Row<'a> = dyn Fn(usize) -> Option<Vec<&'static str>> + 'a;

/// A one-attribute table over `rows` (`None`: undefined) and its index
/// under `config`; then `tail` inserted into both (RAW tail frames on the
/// packed list) and the tuples `deleted` tombstoned.
fn seeded_pair(
    config: IvaConfig,
    rows: impl Iterator<Item = Option<Vec<&'static str>>>,
    tail: &[Option<Vec<&'static str>>],
    deleted: &[u64],
) -> (SwtTable, IvaIndex) {
    let mut table = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let a = table.define_text("a").unwrap();
    let tuple = |v: &Option<Vec<&str>>| {
        let mut t = Tuple::new();
        if let Some(v) = v {
            t.set(a, Value::texts(v.iter().map(|s| s.to_string())));
        }
        t
    };
    for v in rows {
        table.insert(&tuple(&v)).unwrap();
    }
    let mut index = build_index(&table, IndexTarget::Mem, &opts(), IoStats::new(), config).unwrap();
    for v in tail {
        let t = tuple(v);
        let (tid, ptr) = table.insert(&t).unwrap();
        index.insert(tid, ptr, &t, table.catalog()).unwrap();
    }
    for &tid in deleted {
        table
            .delete(index.lookup_ptr(tid).unwrap().unwrap())
            .unwrap();
        assert!(index.delete(tid).unwrap());
    }
    (table, index)
}

/// `q` on attribute 0 at weight `lambda` under `metric`: seeded, and the
/// top-k is the brute force's at the index's *ndf* penalty, by tid and
/// distance bits. The run's counters.
fn check_seeded<M: Metric>(
    (table, index): (&SwtTable, &IvaIndex),
    q: &str,
    (lambda, metric): (f64, &M),
    k: usize,
) -> QueryStats {
    let query = Query::new().text(AttrId(0), q);
    let ndf = index.config().ndf_penalty;
    let mut pool = ResultPool::new(k);
    for r in table.scan().map(|r| r.unwrap().1).filter(|r| !r.deleted) {
        pool.insert(
            r.tid,
            exact_distance(&r.tuple, &query, &[lambda], metric, ndf),
        );
    }
    let want: Vec<_> = pool
        .into_sorted()
        .iter()
        .map(|e| (e.tid, e.dist.to_bits()))
        .collect();
    let (matchers, mut carry, lambda) = (index.query_matchers(&query), ScanCarry::new(k), [lambda]);
    index
        .query_carry(table, &query, &matchers, metric, &lambda, &mut carry)
        .unwrap();
    let stats = carry.stats;
    let got = carry.finish().results;
    let got: Vec<_> = got.iter().map(|e| (e.tid, e.dist.to_bits())).collect();
    let ctx = format!("{q:?}, λ = {lambda:?}: {stats:?}");
    assert_eq!(got, want, "{ctx}");
    assert!(stats.dict_distances > 0, "not seeded: {ctx}");
    stats
}

/// A seeded walk weighs only the positions whose value can pass its
/// limit — a code of the value admitted, or *ndf* where the *ndf* penalty
/// passes — and every position that could be an answer is among them. On
/// Type III (NDF_RUN frames between PACKED ones), II and I lists coded by
/// strings, each with a RAW tail and tombstones, against brute force:
/// * a value admitted by its second string alone;
/// * a query 30 edits from every string, so *ndf* (20) beats the limit;
/// * an *ndf* penalty equal to the limit, which ties and passes;
/// * λ = 0, under which every position passes, and λ = 1e-300, whose
///   squares underflow under L2 and whose products do not under L1.
///
/// On Type III the mask is exact: the PACKED frames' positions weighed
/// are those holding the query string's code, and the tail's are walked.
#[test]
fn seeded_walks_weigh_only_what_can_pass() {
    let far = "qqqqqqqqqqqqqqqqqqqqqqqqqqqqqq";
    let vocab: [&[&str]; 6] = [
        &["canon"],
        &["nikon"],
        &["sony"],
        &["zzzzzzzz", "canon"],
        &["pentax", "leica"],
        &["canon eos"],
    ];
    let value = |i: usize| Some(vocab[i % 6].to_vec());
    let tail = [value(0), None, value(3)];
    let (l1, l2) = (&MetricKind::L1, &MetricKind::L2);
    // Type III: 70 of every 100 rows defined, the rest in NDF_RUN frames,
    // and every ninth row undefined inside PACKED frames.
    let dense = |i: usize| (i % 100 < 70 && i % 9 != 4).then(|| value(i)).flatten();
    // Types II and I: every sixth row, with two strings and with one.
    let two: [[&str; 2]; 4] = [
        ["canon", "eos"],
        ["nikon", "d50"],
        ["zzzzzzzz", "canon"],
        ["pentax", "leica"],
    ];
    let pairs = |i: usize| i.is_multiple_of(6).then(|| two[i / 6 % 4].to_vec());
    let ones = |i: usize| i.is_multiple_of(6).then(|| vec![two[i / 6 % 4][0]]);
    let cases: [(ListType, &Row<'_>); 3] = [
        (ListType::III, &dense),
        (ListType::II, &pairs),
        (ListType::I, &ones),
    ];
    for (ty, row) in cases {
        let rows = || (0..1200).map(row);
        let deleted = [0, 3, 6, 9, 12];
        let pair = seeded_pair(IvaConfig::default(), rows(), &tail, &deleted);
        assert_eq!(pair.1.attr_entry(AttrId(0)).unwrap().list_type, ty);
        let pair = (&pair.0, &pair.1);
        let canon = check_seeded(pair, "canon", (1.0, l2), 10);
        let with_canon = rows()
            .filter(|v| v.as_ref().is_some_and(|v| v.contains(&"canon")))
            .count() as u64;
        if ty == ListType::III {
            let range = with_canon..=with_canon + tail.len() as u64;
            assert!(range.contains(&canon.positions_weighed), "{ty}: {canon:?}");
        }
        assert!(
            canon.positions_weighed < canon.tuples_scanned / 4,
            "{ty}: {canon:?}"
        );
        let ndf = check_seeded(pair, far, (1.0, l2), 10);
        assert_eq!(ndf.positions_weighed, ndf.tuples_scanned, "{ty}: {ndf:?}");
        let all = check_seeded(pair, "canon", (0.0, l2), 10);
        assert_eq!(all.positions_weighed, all.tuples_scanned, "{ty}: {all:?}");
        check_seeded(pair, "canon", (1e-300, l2), 10);
        check_seeded(pair, "nikon", (1e-300, l1), 10);

        // "canonx" is 1 edit from "canon": at an ndf penalty of 1, ndf
        // ties the limit, and the k-th answer is an ndf tuple.
        let config = IvaConfig {
            ndf_penalty: 1.0,
            ..IvaConfig::default()
        };
        let pair = seeded_pair(config, rows(), &tail, &deleted);
        let tie = check_seeded((&pair.0, &pair.1), "canonx", (1.0, l1), 40);
        assert!(tie.positions_weighed > with_canon, "{ty}: {tie:?}");
    }
}

/// One walker, one writer, every reader: each list organization over
/// lists with tid gaps, tombstones, a lazy positional tail
/// that a later insert pads out, multi-string values and no values at
/// all. Every index is written by the builder's one writer (through
/// `import_index`, which lets the table force an organization the size
/// formulas would not pick) plus `IvaIndex::insert`'s appends, and read
/// two ways by the one walk: exported (the postings must be exactly the
/// values encoded) and scanned (which must match the reference index's
/// plan and brute force).
#[test]
fn one_walk_serves_scan_and_export() {
    const TEXT: [u32; 3] = [0, 1, 2]; // dense multi-string, sparse, never defined
    const NUM: [u32; 3] = [3, 4, 5]; // dense, sparse, never defined
    let row = |i: u32| {
        let mut t = Tuple::new();
        if !i.is_multiple_of(5) {
            let strings = (0..1 + i % 3).map(|j| format!("listing {i:04} part {j}"));
            t.set(AttrId(0), Value::texts(strings));
        }
        if i.is_multiple_of(9) {
            t.set(AttrId(1), Value::text(format!("note {i}")));
        }
        // Undefined in runs of 30: long enough for NDF_RUN frames.
        if i % 80 < 50 {
            t.set(AttrId(3), Value::num(f64::from(i % 89)));
        }
        if i.is_multiple_of(13) {
            t.set(AttrId(4), Value::num(f64::from(i)));
        }
        t
    };
    let mut table = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    for a in TEXT {
        table.define_text(&format!("t{a}")).unwrap();
    }
    for a in NUM {
        table.define_numeric(&format!("n{a}")).unwrap();
    }
    // Tid gaps: tuples deleted before the build never reach the tuple list.
    let mut rows: Vec<(u64, Tuple)> = Vec::new();
    for i in 0..300u32 {
        let (tid, ptr) = table.insert(&row(i)).unwrap();
        if i % 17 == 3 {
            table.delete(ptr).unwrap();
        } else {
            rows.push((tid, row(i)));
        }
    }
    let cfg = IvaConfig::default();
    let base = build_index(&table, IndexTarget::Mem, &opts(), IoStats::new(), cfg).unwrap();
    let built = export_index(&base).unwrap();

    // After the build: tombstones, then a tail of tuples that leave the
    // dense attributes undefined (the lazy positional tail), one that
    // defines them again (the gap is padded with ndf elements), and a
    // last undefined one so every positional list still ends early.
    let deleted: Vec<u64> = rows
        .iter()
        .map(|(tid, _)| *tid)
        .filter(|t| t % 7 == 1)
        .collect();
    for &tid in &deleted {
        table
            .delete(base.lookup_ptr(tid).unwrap().unwrap())
            .unwrap();
    }
    let sparse_only = |i: u32| Tuple::new().with(AttrId(1), Value::text(format!("late {i}")));
    let mut inserted = Vec::new();
    for i in 0..8u32 {
        let tup = if i == 6 { row(301) } else { sparse_only(i) };
        let (tid, ptr) = table.insert(&tup).unwrap();
        rows.push((tid, tup.clone()));
        inserted.push((tid, ptr, tup));
    }
    let mutate = |index: &mut IvaIndex| {
        for &tid in &deleted {
            assert!(index.delete(tid).unwrap());
        }
        for (tid, ptr, tup) in &inserted {
            index.insert(*tid, *ptr, tup, table.catalog()).unwrap();
        }
    };

    let queries = [
        Query::new().text(AttrId(0), "listing 0042 part 1"),
        Query::new()
            .text(AttrId(1), "note 99")
            .num(AttrId(4), 130.0),
        Query::new().text(AttrId(2), "nothing").num(AttrId(3), 42.0),
        Query::new()
            .num(AttrId(5), 1.0)
            .text(AttrId(0), "listing 0301 part 0"),
    ];
    let run = |index: &IvaIndex, q: &Query| {
        index
            .query(&table, q, 7, &MetricKind::L2, WeightScheme::Equal)
            .unwrap()
    };
    // The reference: the organizations the size formulas chose, same
    // mutations.
    let mut reference = base;
    mutate(&mut reference);
    let want: Vec<QueryOutcome> = queries.iter().map(|q| run(&reference, q)).collect();
    for q in &queries {
        check_equivalence(&table, &reference, q, 7);
    }

    // What every export must hold: the values as the writers encoded them.
    let sig_codec = cfg.sig_codec();
    let text_items = |a: u32| -> Vec<(u32, Vec<Vec<u8>>)> {
        let sigs = |v: &Value| match v {
            Value::Text(ss) => ss
                .iter()
                .map(|s| sig_codec.encode_to_vec(s.as_bytes()))
                .collect(),
            Value::Num(_) => unreachable!("numeric value on a text attribute"),
        };
        rows.iter()
            .filter_map(|(tid, t)| Some((*tid as u32, sigs(t.get(AttrId(a))?))))
            .collect()
    };
    let num_items = |a: u32| -> Vec<(u32, u64)> {
        let part = &built.attrs[a as usize];
        let codec = NumericCodec::new(part.min, part.max, cfg.numeric_code_bytes());
        let code = |v: &Value| match v {
            Value::Num(x) => codec.encode(*x),
            Value::Text(_) => unreachable!("text value on a numeric attribute"),
        };
        rows.iter()
            .filter_map(|(tid, t)| Some((*tid as u32, code(t.get(AttrId(a))?))))
            .collect()
    };
    let tuple_entries: Vec<(u32, bool)> = rows
        .iter()
        .map(|(tid, _)| (*tid as u32, deleted.contains(tid)))
        .collect();

    let organizations = [
        (ListType::I, ListType::I),
        (ListType::II, ListType::IV),
        (ListType::III, ListType::IV),
    ];
    for (text_ty, num_ty) in organizations {
        let label = format!("text {text_ty} / num {num_ty}");
        let mut parts = built.clone();
        for attr in &mut parts.attrs {
            attr.list_type = if attr.is_text { text_ty } else { num_ty };
        }
        let mut index = import_index(IndexTarget::Mem, &opts(), IoStats::new(), &parts).unwrap();
        let entry = |a: u32| index.attr_entry(AttrId(a)).unwrap().clone();
        for a in TEXT.iter().chain(&NUM) {
            let want_ty = if TEXT.contains(a) { text_ty } else { num_ty };
            assert_eq!(entry(*a).list_type, want_ty, "{label}");
        }
        // A list with no values is one NDF_RUN frame when positional,
        // and no frame at all when keyed.
        let stored = |a: u32| entry(a).vlist.len;
        assert_eq!(stored(2) > 0, text_ty == ListType::III, "{label}");
        assert_eq!(stored(5) > 0, num_ty == ListType::IV, "{label}");
        mutate(&mut index);

        // Export: the walk's postings are the items encoded.
        let got = export_index(&index).unwrap();
        let entries: Vec<(u32, bool)> = got
            .tuple_entries
            .iter()
            .map(|&(tid, ptr)| (tid, ptr == TOMBSTONE_PTR))
            .collect();
        assert_eq!(entries, tuple_entries, "{label}");
        for a in TEXT {
            assert_eq!(
                got.attrs[a as usize].text_postings,
                text_items(a),
                "{label} attr {a}"
            );
        }
        for a in NUM {
            assert_eq!(
                got.attrs[a as usize].num_postings,
                num_items(a),
                "{label} attr {a}"
            );
        }
        assert!(text_items(0).iter().any(|(_, sigs)| sigs.len() == 3));
        assert!(text_items(2).is_empty() && num_items(5).is_empty());

        // Scan: the reference's plan.
        for (q, w) in queries.iter().zip(&want) {
            assert_same_plan(w, &run(&index, q), &label);
        }
    }
}

/// A list as a walk sees it: `(value of tid)` per tuple-list tid.
type Walked<T> = Vec<Option<T>>;

/// One frame as [`IvaIndex::insert`] appends it: `[kind][elems][len]`
/// and the payload (kind 0 = RAW raw-layout elements, 2 = NDF_RUN).
fn frame(kind: u8, elems: usize, payload: &[u8]) -> Vec<u8> {
    let mut f = vec![kind];
    f.extend_from_slice(&(elems as u32).to_le_bytes());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn list_reader(bytes: &[u8]) -> ListReader {
    let pager = Pager::create_mem(&opts(), IoStats::new());
    let handle = write_contiguous_list(&pager, bytes).unwrap();
    ListReader::open(pager, handle).unwrap()
}

/// A packed list the way an index comes to hold one: the first `head`
/// tuple-list positions bulk-encoded (PACKED frames, NDF_RUN frames for
/// the long undefined stretches), every later value appended as a
/// one-element RAW frame with — on a positional list — an NDF_RUN frame
/// for the undefined stretch before it, and nothing stored after the last
/// value (the lazy positional tail). `encode(items, tids)` is
/// `(packed, raw)` for one run of the list. Returns the stored bytes and
/// the raw-layout image they stand for.
fn compose<T: Clone>(
    positional: bool,
    items: &[(u32, T)],
    tids: &[u32],
    head: usize,
    encode: impl Fn(&[(u32, T)], &[u32]) -> (Vec<u8>, Vec<u8>),
) -> (Vec<u8>, Vec<u8>) {
    let head_tid = tids.get(head).copied().unwrap_or(u32::MAX);
    let split = items.partition_point(|(t, _)| *t < head_tid);
    let (mut stored, mut raw) = encode(&items[..split], &tids[..head]);
    let mut gap = 0usize;
    let mut tail_items = items[split..].iter().peekable();
    for &tid in &tids[head..] {
        match tail_items.next_if(|(t, _)| *t == tid) {
            Some(item) => {
                if positional && gap > 0 {
                    // No item on one position is that list's ndf element.
                    let (_, ndf) = encode(&[], &[tid]);
                    stored.extend(frame(2, gap, &[]));
                    raw.extend(ndf.iter().cycle().take(gap * ndf.len()));
                    gap = 0;
                }
                let (_, elem) = encode(std::slice::from_ref(item), &[tid]);
                stored.extend(frame(0, 1, &elem));
                raw.extend_from_slice(&elem);
            }
            None => gap += 1,
        }
    }
    stored[..8].copy_from_slice(&(raw.len() as u64).to_le_bytes());
    (stored, raw)
}

/// One tuple list and the values of the tuples a frame mixture defines:
/// the first `n` tuples (tids with gaps) may hold values, the first `head`
/// of them bulk-encoded, the rest appended one insert at a time
/// ([`compose`]); 40 more tuples follow past the last one any list stores.
struct Mixture {
    name: &'static str,
    n: usize,
    head: usize,
    tids: Vec<u32>,
    text_items: Vec<(u32, Vec<Vec<u8>>)>,
    num_items: Vec<(u32, u64)>,
}

impl Mixture {
    /// The stored packed list and its raw-layout image for text type `ty`.
    fn text_lists(&self, ty: ListType) -> (Vec<u8>, Vec<u8>) {
        let listed = &self.tids[..self.n];
        compose(
            ty == ListType::III,
            &self.text_items,
            listed,
            self.head,
            |i, t| {
                (
                    encode_packed_text_list(ty, i, t),
                    encode_text_list(ty, i, t).unwrap(),
                )
            },
        )
    }

    /// [`Mixture::text_lists`] for numeric type `ty`.
    fn num_lists(&self, ty: ListType, nc: &NumericCodec) -> (Vec<u8>, Vec<u8>) {
        let listed = &self.tids[..self.n];
        compose(
            ty == ListType::IV,
            &self.num_items,
            listed,
            self.head,
            |i, t| {
                (
                    encode_packed_num_list(ty, i, t, nc),
                    encode_num_list(ty, i, t, nc).unwrap(),
                )
            },
        )
    }
}

/// Every frame mixture a list can hold: PACKED frames alone, NDF_RUN runs
/// between them, RAW tail frames alone, all three, and a list that ends
/// undefined before its tuple list does (the lazy positional tail). The
/// first five give every value its own strings, so a text list's
/// dictionary holds every signature; the rest size the dictionary — one
/// entry; 2^8 and 2^8 + 1 entries, whose codes are 8 and 9 bits wide — or
/// repeat a string inside a value, so two strings of one value share a
/// code. Each of those has RAW tail frames after its coded frames.
fn frame_mixtures(sc: &iva_text::SigCodec, nc: &NumericCodec) -> Vec<Mixture> {
    type Defined = fn(u32) -> bool;
    type Strings = fn(u32) -> Vec<String>;
    let distinct: Strings = |i| (0..1 + i % 3).map(|j| format!("value {i} {j}")).collect();
    let shapes: [(&str, u32, usize, Defined, Strings); 9] = [
        ("packed frames", 2300, 2300, |i| i % 7 != 0, distinct),
        ("ndf runs", 2300, 2300, |i| (i / 40) % 2 == 0, distinct),
        (
            "raw tail frames",
            260,
            0,
            |i| i % 3 != 0 && (i / 25) % 3 != 1,
            distinct,
        ),
        (
            "all three",
            2300,
            2100,
            |i| i % 7 != 0 && (i / 40) % 3 != 1,
            distinct,
        ),
        (
            "ends undefined",
            2300,
            2250,
            |i| i % 7 != 0 && i < 2270,
            distinct,
        ),
        (
            "one signature",
            2300,
            2100,
            |i| i % 7 != 0,
            |_| vec!["the one value".into()],
        ),
        (
            "2^8 signatures",
            2300,
            2100,
            |i| i % 5 != 0,
            |i| vec![format!("value {}", i % 256)],
        ),
        (
            "2^8 + 1 signatures",
            2300,
            2100,
            |i| i % 5 != 0,
            |i| vec![format!("value {}", i % 257)],
        ),
        (
            "shared codes",
            2300,
            2100,
            |i| i % 7 != 0,
            |i| {
                let words = [i % 5, (i / 5) % 5, i % 5].map(|w| format!("word {w}"));
                words[..1 + i as usize % 3].to_vec()
            },
        ),
    ];
    let shapes = shapes
        .into_iter()
        .map(|(name, n, head, defined, strings)| Mixture {
            name,
            n: n as usize,
            head,
            tids: (0..n + 40).map(|i| i * 3 + 1).collect(),
            text_items: (0..n)
                .filter(|&i| defined(i))
                .map(|i| {
                    let sigs = strings(i)
                        .into_iter()
                        .map(|s| sc.encode_to_vec(s.as_bytes()));
                    (i * 3 + 1, sigs.collect())
                })
                .collect(),
            num_items: (0..n)
                .filter(|&i| defined(i))
                .map(|i| (i * 3 + 1, nc.encode(f64::from(i))))
                .collect(),
        });
    shapes.collect()
}

/// The frame-direct walk against the values that were encoded, on every
/// list organization and every frame mixture a list can hold: the cursor
/// over the packed list (PACKED frames served from their sections and the
/// list's dictionary, RAW tail frames and NDF_RUN runs as they come) must
/// give each tuple its value's bound — the min estimate over its strings,
/// its code — under `advance`, and end holding exactly the values encoded
/// (`postings` ends with `finish`, which refuses leftovers) — with the
/// tuple list running on past the list's last element (the lazy positional
/// tail) throughout. `decode_to_vec` rebuilds the image the raw element
/// encoders write.
#[test]
fn frame_direct_walk_matches_the_encoded_values() {
    let cfg = IvaConfig::default();
    let sc = cfg.sig_codec();
    let nc = NumericCodec::new(0.0, 5000.0, cfg.numeric_code_bytes());
    let matcher = PreparedMatcher::new(&sc, b"value 33 1");
    for m in frame_mixtures(&sc, &nc) {
        let (shape, tids, text_items, num_items) = (m.name, &m.tids, &m.text_items, &m.num_items);
        // What each tuple of `tids` holds, by `value`.
        fn values<T, V>(tids: &[u32], items: &[(u32, T)], value: impl Fn(&T) -> V) -> Walked<V> {
            let at = |t: &u32| items.binary_search_by_key(t, |(tid, _)| *tid).ok();
            let of = |t| at(t).map(|i| value(&items[i].1));
            tids.iter().map(of).collect()
        }

        for ty in [ListType::I, ListType::II, ListType::III] {
            let label = format!("text {ty}, {shape}");
            let (stored, raw) = m.text_lists(ty);
            let packed = || PackedReader::new_text(list_reader(&stored), ty, &sc).unwrap();
            assert_eq!(packed().decode_to_vec().unwrap(), raw, "{label}: image");
            let cursor = || TextListCursor::new(packed(), ty);
            assert_eq!(
                cursor().postings(&sc, tids).unwrap(),
                *text_items,
                "{label}: postings"
            );
            let estimate = |sigs: &Vec<Vec<u8>>| {
                let est = sigs.iter().map(|sig| matcher.estimate(sig).unwrap());
                est.fold(f64::INFINITY, f64::min).to_bits()
            };
            let mut cur = cursor();
            let walked: Walked<u64> = tids
                .iter()
                .map(|&tid| cur.advance(tid, &sc, &matcher).unwrap().map(f64::to_bits))
                .collect();
            assert_eq!(walked, values(tids, text_items, estimate), "{label}: walk");
        }

        for ty in [ListType::I, ListType::IV] {
            let label = format!("num {ty}, {shape}");
            let (stored, raw) = m.num_lists(ty, &nc);
            let packed = || PackedReader::new_num(list_reader(&stored), ty, &nc).unwrap();
            assert_eq!(packed().decode_to_vec().unwrap(), raw, "{label}: image");
            let cursor = || NumListCursor::new(packed(), ty);
            assert_eq!(
                cursor().postings(&nc, tids).unwrap(),
                *num_items,
                "{label}: postings"
            );
            let mut cur = cursor();
            let walked: Walked<u64> = tids
                .iter()
                .map(|&tid| cur.advance(tid, &nc).unwrap())
                .collect();
            assert_eq!(
                walked,
                values(tids, num_items, |&code| code),
                "{label}: codes"
            );
        }
    }
}

/// `(start, len)` of consecutive blocks covering `tids[..end]`, their
/// sizes taken from `sizes` in turn.
fn blocks(end: usize, sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    for &size in sizes.iter().cycle() {
        if at >= end {
            break;
        }
        out.push((at, size.min(end - at)));
        at += size;
    }
    out
}

/// A walk's value as the block fill writes it: `NaN` for *ndf*.
fn slot_bits(lb: Option<f64>) -> u64 {
    lb.unwrap_or(f64::NAN).to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// The block fill against its oracle, the per-element walk: on every
    /// organization (Text I/II/III, Num I/IV), over every frame mixture (PACKED frames, RAW tail frames appended by inserts,
    /// NDF_RUN runs, the lazy positional tail, signature dictionaries of
    /// every shape [`frame_mixtures`] names), in blocks of 1 to 300
    /// elements — so block edges fall inside
    /// list frames, on them, and inside a Type I value split across two
    /// frames — `fill_block` writes, bit for bit, what `advance` returns
    /// element by element (`NaN` for *ndf*). Tombstones are no list's
    /// business — a delete rewrites the directory alone, and a tombstoned
    /// position is filled like any other — so what they demand of the
    /// spine (filled, never admitted) is pinned by `tests/oracle.rs`.
    #[test]
    fn fill_blocks_match_the_element_walk(
        pick in any::<prop::sample::Index>(),
        sizes in proptest::collection::vec(1usize..301, 1..10),
        q in 0.0f64..3000.0,
    ) {
        let cfg = IvaConfig::default();
        let sc = cfg.sig_codec();
        let nc = NumericCodec::new(0.0, 5000.0, cfg.numeric_code_bytes());
        let matcher = PreparedMatcher::new(&sc, b"value 33 1");
        let mixtures = frame_mixtures(&sc, &nc);
        let m = &mixtures[pick.index(mixtures.len())];
        let tids = &m.tids;
        let plan = blocks(tids.len(), &sizes);
        let mut out = vec![0.0f64; 300];
        for ty in [ListType::I, ListType::II, ListType::III] {
            let (stored, _) = m.text_lists(ty);
            let open = || {
                let r = PackedReader::new_text(list_reader(&stored), ty, &sc).unwrap();
                TextListCursor::new(r, ty)
            };
            let (mut oracle, mut filled) = (open(), open());
            let want: Vec<u64> = tids
                .iter()
                .map(|&t| slot_bits(oracle.advance(t, &sc, &matcher).unwrap()))
                .collect();
            let mut got = Vec::new();
            for &(at, len) in &plan {
                let slots = &mut out[..len];
                filled.fill_block(&tids[at..at + len], &sc, &matcher, slots).unwrap();
                got.extend(slots.iter().map(|v| v.to_bits()));
            }
            prop_assert_eq!(got, want, "text {} {}", ty, m.name);
        }
        for ty in [ListType::I, ListType::IV] {
            let (stored, _) = m.num_lists(ty, &nc);
            let open = || {
                let r = PackedReader::new_num(list_reader(&stored), ty, &nc).unwrap();
                NumListCursor::new(r, ty)
            };
            let (mut oracle, mut filled) = (open(), open());
            let want: Vec<u64> = tids
                .iter()
                .map(|&t| {
                    let code = oracle.advance(t, &nc).unwrap();
                    slot_bits(code.map(|c| nc.lower_bound_dist(c, q)))
                })
                .collect();
            let mut got = Vec::new();
            for &(at, len) in &plan {
                let slots = &mut out[..len];
                filled.fill_block(&tids[at..at + len], &nc, q, slots).unwrap();
                got.extend(slots.iter().map(|v| v.to_bits()));
            }
            prop_assert_eq!(got, want, "num {} {}", ty, m.name);
        }
    }
}
