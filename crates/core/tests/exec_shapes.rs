//! The execution shapes of the scan spine against the serial scan on one
//! fixed table: segmented-parallel (`query_opts` at 2+ threads) and batch
//! (`query_batch`); and the spine's drain — probe, sweep, window — against
//! a brute-force k-smallest-`(dist, tid)`. The randomized sweep over list
//! organizations, encodings and tier states lives in `properties.rs`.

mod common;

use common::{assert_bit_identical, assert_same_plan};
use iva_core::{
    build_index, exact_distance, BatchItem, IndexTarget, IvaConfig, IvaIndex, Metric, MetricKind,
    Query, QueryOptions, QueryOutcome, ScanCarry, WeightScheme,
};
use iva_storage::{IoStats, PagerOptions};
use iva_swt::{AttrId, SwtTable, Tuple, Value};
use iva_text::PreparedMatcher;

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 512,
        cache_bytes: 256 * 1024,
    }
}

/// A table wide enough to exercise every list type: a dense text
/// attribute (Type III), a sparse one (I or II), a dense numeric
/// (Type IV) and a sparse numeric (Type I).
fn table(n: u32) -> SwtTable {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let dense_txt = t.define_text("title").unwrap();
    let sparse_txt = t.define_text("note").unwrap();
    let dense_num = t.define_numeric("price").unwrap();
    let sparse_num = t.define_numeric("stock").unwrap();
    for i in 0..n {
        let mut tup = Tuple::new();
        if i % 5 != 0 {
            tup.set(dense_txt, Value::text(format!("product listing {i:04}")));
        }
        if i % 13 == 0 {
            tup.set(sparse_txt, Value::text(format!("note {i}")));
        }
        if i % 2 == 0 {
            tup.set(dense_num, Value::num(f64::from(i % 97)));
        }
        if i % 11 == 0 {
            tup.set(sparse_num, Value::num(f64::from(i)));
        }
        t.insert(&tup).unwrap();
    }
    t
}

fn probe() -> Query {
    Query::new()
        .text(AttrId(0), "product listing 0042")
        .text(AttrId(1), "note 39")
        .num(AttrId(2), 42.0)
        .num(AttrId(3), 33.0)
}

/// L1, except that an exact match has no distance at all: a caller's
/// metric, not the engine, makes the NaN.
struct NanAtZero;

impl Metric for NanAtZero {
    fn combine(&self, weighted_diffs: &[f64]) -> f64 {
        let sum: f64 = weighted_diffs.iter().sum();
        if sum == 0.0 {
            f64::NAN
        } else {
            sum
        }
    }
}

/// The serial answer against `threads` contiguous partitions with private
/// pools, bit for bit; returns the serial answer.
fn assert_parallel_matches_serial<M: Metric + Sync>(
    index: &IvaIndex,
    table: &SwtTable,
    q: &Query,
    k: usize,
    metric: &M,
    threads: &[usize],
) -> QueryOutcome {
    let serial = index
        .query(table, q, k, metric, WeightScheme::Equal)
        .unwrap();
    for &threads in threads {
        let o = QueryOptions {
            threads: Some(threads),
            measured: true,
        };
        let par = index
            .query_opts(table, q, k, metric, WeightScheme::Equal, &o)
            .unwrap();
        let label = format!("{} k={k} threads={threads}", metric.name());
        assert_bit_identical(&serial, &par, &label);
    }
    serial
}

#[test]
fn parallel_matches_serial_bit_for_bit() {
    let table = table(600);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = probe();
    for k in [1usize, 5, 20] {
        assert_parallel_matches_serial(&index, &table, &q, k, &MetricKind::L2, &[2, 4, 8]);
    }
    // Under a metric that answers NaN, those hits rank last, by tid, in
    // every partition's pool, in their union and in a batch lane. Tuples
    // 42, 236 and 430 hold exactly 42.
    let exact = Query::new().num(AttrId(2), 42.0);
    for k in [5usize, 20, 600] {
        let serial =
            assert_parallel_matches_serial(&index, &table, &exact, k, &NanAtZero, &[1, 2, 3]);
        let nan_tail: Vec<u64> = serial
            .results
            .iter()
            .skip_while(|e| !e.dist.is_nan())
            .map(|e| e.tid)
            .collect();
        let want: &[u64] = if k == 600 { &[42, 236, 430] } else { &[] };
        assert_eq!(nan_tail, want, "k={k}");
        let nans = serial.results.iter().filter(|e| e.dist.is_nan()).count();
        assert_eq!(nans, want.len(), "k={k}: a NaN ranked before a distance");

        let items = [
            BatchItem {
                query: &exact,
                k,
                weights: WeightScheme::Equal,
            },
            BatchItem {
                query: &q,
                k: 10,
                weights: WeightScheme::Equal,
            },
        ];
        let o = QueryOptions {
            threads: Some(1),
            measured: true,
        };
        let batch = index.query_batch(&table, &items, &NanAtZero, &o).unwrap();
        assert_same_plan(&serial, &batch[0], &format!("batch lane k={k}"));
    }
}

#[test]
fn parallel_matches_serial_with_tombstones_and_appends() {
    let table = table(400);
    let mut index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    // Tombstone a spread of tuples, including segment-boundary areas.
    for tid in [0u64, 99, 100, 101, 199, 200, 350, 399] {
        assert!(index.delete(tid).unwrap());
    }
    let q = probe();
    let serial = index
        .query(&table, &q, 10, &MetricKind::L1, WeightScheme::Equal)
        .unwrap();
    for threads in [2usize, 3, 7] {
        let o = QueryOptions {
            threads: Some(threads),
            measured: false,
        };
        let par = index
            .query_opts(&table, &q, 10, &MetricKind::L1, WeightScheme::Equal, &o)
            .unwrap();
        assert_bit_identical(&serial, &par, &format!("threads={threads}"));
        assert_eq!(par.stats.filter_nanos, 0, "unmeasured run read the clock");
        assert_eq!(par.stats.refine_nanos, 0);
    }
}

#[test]
fn thread_count_clamps_to_segment_floor() {
    let table = table(100); // ⌈100/64⌉ = 2 useful segments
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = probe();
    let serial = index
        .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    let run = |threads: usize| {
        let o = QueryOptions {
            threads: Some(threads),
            measured: true,
        };
        index
            .query_opts(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal, &o)
            .unwrap()
    };
    assert_bit_identical(&serial, &run(64), "clamped");
    // `0` is "one worker per CPU", as in `IvaConfig::search_threads` — not
    // serial: the lanes that ran are those of asking for the CPU count.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let auto = run(0);
    assert_bit_identical(&serial, &auto, "threads=0");
    assert_eq!(
        auto.stats.table_accesses,
        run(cpus).stats.table_accesses,
        "threads=0 vs threads={cpus}"
    );
}

/// A spread of distinct probes so batch members chase different
/// candidates and flush on different schedules.
fn probes() -> Vec<Query> {
    vec![
        Query::new()
            .text(AttrId(0), "product listing 0042")
            .num(AttrId(2), 42.0),
        Query::new().text(AttrId(1), "note 39").num(AttrId(3), 33.0),
        Query::new()
            .text(AttrId(0), "product listing 0511")
            .text(AttrId(1), "note 13")
            .num(AttrId(2), 7.0),
        Query::new().num(AttrId(2), 90.0).num(AttrId(3), 121.0),
    ]
}

#[test]
fn batch_matches_solo_bit_for_bit() {
    let table = table(600);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let qs = probes();
    let ks = [3usize, 10, 1, 5];
    let solo: Vec<QueryOutcome> = qs
        .iter()
        .zip(ks)
        .map(|(q, k)| {
            index
                .query(&table, q, k, &MetricKind::L2, WeightScheme::Equal)
                .unwrap()
        })
        .collect();
    let o = QueryOptions {
        threads: Some(1),
        measured: true,
    };
    let items: Vec<BatchItem<'_>> = qs
        .iter()
        .zip(ks)
        .map(|(query, k)| BatchItem {
            query,
            k,
            weights: WeightScheme::Equal,
        })
        .collect();
    let batch = index
        .query_batch(&table, &items, &MetricKind::L2, &o)
        .unwrap();
    assert_eq!(batch.len(), solo.len());
    for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
        assert_same_plan(s, b, &format!("item={i}"));
    }
}

#[test]
fn batch_matches_solo_with_tombstones() {
    let table = table(400);
    let mut index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    for tid in [0u64, 99, 100, 101, 199, 200, 350, 399] {
        assert!(index.delete(tid).unwrap());
    }
    let qs = probes();
    let solo: Vec<QueryOutcome> = qs
        .iter()
        .map(|q| {
            index
                .query(&table, q, 10, &MetricKind::L1, WeightScheme::Equal)
                .unwrap()
        })
        .collect();
    let o = QueryOptions {
        threads: Some(1),
        measured: false,
    };
    let items: Vec<BatchItem<'_>> = qs
        .iter()
        .map(|query| BatchItem {
            query,
            k: 10,
            weights: WeightScheme::Equal,
        })
        .collect();
    let batch = index
        .query_batch(&table, &items, &MetricKind::L1, &o)
        .unwrap();
    for (i, (b, s)) in batch.iter().zip(&solo).enumerate() {
        assert_same_plan(s, b, &format!("item={i}"));
        assert_eq!(b.stats.filter_nanos, 0, "unmeasured run read the clock");
        assert_eq!(b.stats.refine_nanos, 0);
    }
}

#[test]
fn empty_and_singleton_batches() {
    let table = table(200);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let o = QueryOptions::default();
    assert!(index
        .query_batch(&table, &[], &MetricKind::L2, &o)
        .unwrap()
        .is_empty());
    let q = Query::new().text(AttrId(0), "product listing 0042");
    let solo = index
        .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    let batch = index
        .query_batch(
            &table,
            &[BatchItem {
                query: &q,
                k: 5,
                weights: WeightScheme::Equal,
            }],
            &MetricKind::L2,
            &o,
        )
        .unwrap();
    assert_bit_identical(&solo, &batch[0], "singleton");
}

#[test]
fn identical_members_get_identical_answers() {
    let table = table(300);
    let index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let q = Query::new()
        .text(AttrId(0), "product listing 0123")
        .num(AttrId(2), 23.0);
    let items = vec![
        BatchItem {
            query: &q,
            k: 7,
            weights: WeightScheme::Equal,
        };
        3
    ];
    let o = QueryOptions {
        threads: Some(1),
        measured: true,
    };
    let batch = index
        .query_batch(&table, &items, &MetricKind::L2, &o)
        .unwrap();
    let solo = index
        .query(&table, &q, 7, &MetricKind::L2, WeightScheme::Equal)
        .unwrap();
    for b in &batch {
        assert_same_plan(&solo, b, "identical member");
    }
}

/// Text-only table for the drain tests: `attr 0` is drawn from a handful
/// of near-identical titles, so far more than k tuples tie at every
/// distance — across any window or segment boundary — and `attr 1` is
/// defined by three tuples only.
fn tie_table(n: u32) -> (SwtTable, Vec<Tuple>) {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let title = t.define_text("title").unwrap();
    let rare = t.define_text("rare").unwrap();
    let mut tuples = Vec::new();
    for i in 0..n {
        let mut tup = Tuple::new();
        if i % 3 != 1 {
            tup.set(title, Value::text(format!("listing {:02}", (i * 7) % 5)));
        }
        if [n / 2, n / 2 + 1, n - 1].contains(&i) {
            tup.set(rare, Value::text(format!("rare {i}")));
        }
        t.insert(&tup).unwrap();
        tuples.push(tup);
    }
    (t, tuples)
}

/// Every live tuple's `(dist, tid)`, ascending.
fn ranked(tuples: &[Tuple], dead: &[u64], q: &Query, lambda: &[f64], ndf: f64) -> Vec<(f64, u64)> {
    let mut all: Vec<(f64, u64)> = tuples
        .iter()
        .enumerate()
        .filter(|(tid, _)| !dead.contains(&(*tid as u64)))
        .map(|(tid, tup)| {
            let d = exact_distance(tup, q, lambda, &MetricKind::L2, ndf);
            (d, tid as u64)
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all
}

fn windowed(
    index: &IvaIndex,
    table: &SwtTable,
    q: &Query,
    k: usize,
    threads: usize,
    window: usize,
) -> QueryOutcome {
    let lambda = index.resolve_weights(q, WeightScheme::Equal);
    let o = QueryOptions {
        threads: Some(threads),
        measured: false,
    };
    let mut carry = ScanCarry::new(k);
    index
        .query_carry_windowed(table, q, &MetricKind::L2, &lambda, &o, window, &mut carry)
        .unwrap();
    carry.finish()
}

/// Any window and segment count returns the k smallest
/// `(dist, tid)`: with ties at D_k straddling every boundary, and with
/// fewer than k tuples defining any query attribute (the all-*ndf* level
/// then decides by tid alone).
#[test]
fn every_window_returns_the_k_smallest_dist_tid() {
    let n = 400u32;
    let (table, tuples) = tie_table(n);
    let mut index = build_index(
        &table,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let dead = [3u64, 64, 65, 200, 399];
    for &tid in &dead {
        assert!(index.delete(tid).unwrap());
    }
    let ndf = index.config().ndf_penalty;
    let queries = [
        Query::new().text(AttrId(0), "listing 03"),
        Query::new().text(AttrId(1), "rare 20"),
        Query::new()
            .text(AttrId(0), "listing 01")
            .text(AttrId(1), "rare 200"),
    ];
    for (qi, q) in queries.iter().enumerate() {
        let lambda = index.resolve_weights(q, WeightScheme::Equal);
        let all = ranked(&tuples, &dead, q, &lambda, ndf);
        for k in [1usize, 10, 50] {
            let want: Vec<(u64, u64)> =
                all.iter().take(k).map(|&(d, t)| (t, d.to_bits())).collect();
            // The interesting case is real: the k-th distance is shared
            // by tuples on both sides of the cut.
            if let (0, Some(kth), Some(next)) = (qi, all.get(k - 1), all.get(k)) {
                assert_eq!(kth.0, next.0, "k={k}: no tie at D_k");
            }
            for window in [1usize, 7, 64, n as usize] {
                for threads in [1usize, 3, 4] {
                    let got = windowed(&index, &table, q, k, threads, window);
                    let got: Vec<(u64, u64)> = got
                        .results
                        .iter()
                        .map(|e| (e.tid, e.dist.to_bits()))
                        .collect();
                    assert_eq!(got, want, "q{qi} k={k} window={window} threads={threads}");
                }
            }
        }
    }
}

/// The walk steps a block at a time (256 elements, never past the end of a
/// 1,024-element directory frame) and admits per element, so a block edge
/// may fall anywhere: inside a drain window (drains at 100, 300 and 1,000
/// pending), at or inside a parallel worker's first block (3 and 7 workers
/// start mid-block and mid-frame), and at the end of a table of 2,600
/// tuples, no multiple of either. Tombstones sit on block and frame edges.
/// Every shape returns the serial answer, over raw and packed lists.
#[test]
fn block_edges_inside_windows_workers_and_the_table_end() {
    let table = table(2_600);
    for compress_lists in [true, false] {
        let cfg = IvaConfig {
            compress_lists,
            ..IvaConfig::default()
        };
        let mut index =
            build_index(&table, IndexTarget::Mem, &opts(), IoStats::new(), cfg).unwrap();
        for tid in [0u64, 255, 256, 1023, 1024, 1733, 2599] {
            assert!(index.delete(tid).unwrap());
        }
        let q = probe();
        let serial = index
            .query(&table, &q, 10, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        for window in [100usize, 300, 1_000] {
            for threads in [1usize, 3, 7] {
                let got = windowed(&index, &table, &q, 10, threads, window);
                let label = format!("packed {compress_lists} window {window} threads {threads}");
                assert_bit_identical(&serial, &got, &label);
            }
        }
    }
}

/// With the whole scan in one window the drain fetches by need: at most
/// the k probes plus every tuple whose estimate reaches the threshold T₁
/// the probe left, and at least every tuple whose estimate is below the
/// final D_k (no correct plan can skip those).
#[test]
fn one_window_fetches_within_the_probe_bound() {
    let n = 500u32;
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let title = t.define_text("title").unwrap();
    let mut tuples = Vec::new();
    for i in 0..n {
        let mut tup = Tuple::new();
        if i % 4 != 0 {
            let words = ["camera", "lens", "tripod", "battery", "charger", "strap"];
            tup.set(
                title,
                Value::text(format!(
                    "{} model {:03}",
                    words[(i % 6) as usize],
                    (i * 37) % 500
                )),
            );
        }
        t.insert(&tup).unwrap();
        tuples.push(tup);
    }
    let index = build_index(
        &t,
        IndexTarget::Mem,
        &opts(),
        IoStats::new(),
        IvaConfig::default(),
    )
    .unwrap();
    let (cfg, metric) = (index.config(), MetricKind::L2);
    let codec = cfg.sig_codec();
    // Exact, misspelt and hopeless needles: the bound holds whether the
    // probe finds the answer at once or not at all.
    for (needle, k) in [
        ("camera model 111", 10usize),
        ("lens modle 07", 3),
        ("zzz", 5),
    ] {
        let q = Query::new().text(AttrId(0), needle);
        let lambda = index.resolve_weights(&q, WeightScheme::Equal);
        let matcher = PreparedMatcher::new(&codec, needle.as_bytes());
        // (est, dist, tid) of every tuple, as the walk and the refine
        // step compute them.
        let rows: Vec<(f64, f64, u64)> = tuples
            .iter()
            .enumerate()
            .map(|(tid, tup)| {
                let lb = tup.get(title).map_or(cfg.ndf_penalty, |v| {
                    let Value::Text(strings) = v else {
                        unreachable!()
                    };
                    strings
                        .iter()
                        .map(|s| {
                            matcher
                                .estimate(&codec.encode_to_vec(s.as_bytes()))
                                .unwrap()
                        })
                        .fold(f64::INFINITY, f64::min)
                });
                let est = metric.combine(&[lambda[0] * lb]);
                let dist = exact_distance(tup, &q, &lambda, &metric, cfg.ndf_penalty);
                assert!(est <= dist);
                (est, dist, tid as u64)
            })
            .collect();
        let by = |key: fn(&(f64, f64, u64)) -> f64| {
            let mut v = rows.clone();
            v.sort_by(|a, b| key(a).total_cmp(&key(b)).then(a.2.cmp(&b.2)));
            v
        };
        let probe = &by(|r| r.0)[..k];
        let t1 = probe.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
        let d_k = by(|r| r.1)[k - 1].1;
        let at_most = k + rows.iter().filter(|r| r.0 <= t1).count();
        let at_least = rows.iter().filter(|r| r.0 < d_k).count();
        let got = windowed(&index, &t, &q, k, 1, n as usize);
        let fetched = got.stats.table_accesses as usize;
        assert!(
            (at_least..=at_most).contains(&fetched),
            "{needle:?} k={k}: {fetched} not in {at_least}..={at_most}"
        );
    }
}
