//! What the model-based oracle (`tests/oracle.rs`) does not check of the
//! execution shapes: how many records one drain window fetches, and that
//! every shape counts what it scans and weighs alike. Whether every shape returns the brute-force
//! top-k is the oracle's.

mod common;

use common::{assert_bit_identical, small_pages as opts};
use iva_core::{
    build_index, exact_distance, CarriedQuery, IndexTarget, IvaConfig, Metric, MetricKind, Query,
    WeightScheme,
};
use iva_storage::IoStats;
use iva_swt::{AttrId, SwtTable, Tuple, Value};
use iva_text::PreparedMatcher;

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
        let lambda = index.resolve_weights(&t, &q, WeightScheme::Equal);
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
        let mut got = CarriedQuery::new(&index, &q, k, lambda);
        index
            .walk_tier_windowed(&t, &mut got, &metric, n as usize)
            .unwrap();
        let fetched = got.carry.stats.table_accesses as usize;
        assert!(
            (at_least..=at_most).contains(&fetched),
            "{needle:?} k={k}: {fetched} not in {at_least}..={at_most}"
        );
    }
}

/// On a seeded query — a dense attribute whose packed list's dictionary
/// holds strings and postings — the whole-table walk and walks that drain
/// every 1 and 7 pending candidates weigh the same few positions. Each
/// leaps from candidate to candidate, so it scans far fewer than the 3,000
/// positions — the windowed walks exactly what the whole-table walk
/// scans.
#[test]
fn every_shape_counts_the_positions_it_weighs() {
    let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
    let brand = t.define_text("brand").unwrap();
    let words = [
        "canon", "nikon", "sony", "pentax", "leica", "ricoh", "sigma", "zeiss",
    ];
    for i in 0..3000usize {
        let mut tup = Tuple::new();
        if i % 9 != 4 {
            tup.set(brand, Value::text(format!("{} {}", words[i % 8], i % 50)));
        }
        t.insert(&tup).unwrap();
    }
    let config = IvaConfig::default();
    let index = build_index(&t, IndexTarget::Mem, &opts(), IoStats::new(), config).unwrap();
    let q = Query::new().text(brand, "nikon 17");
    let (metric, w) = (MetricKind::L2, WeightScheme::Equal);
    let serial = index.query(&t, &q, 10, &metric, w).unwrap();
    let windowed = |window| {
        let mut carried = CarriedQuery::new(&index, &q, 10, index.resolve_weights(&t, &q, w));
        (index.walk_tier_windowed(&t, &mut carried, &metric, window)).unwrap();
        carried.carry.finish()
    };
    let s = serial.stats;
    assert!(s.dict_distances > 0, "not seeded: {s:?}");
    // The values at distance 0: i ≡ 17 (mod 200), less every ninth row.
    assert!((10..=15).contains(&s.positions_weighed), "{s:?}");
    // A block of at most 256 positions from each candidate.
    assert!(s.tuples_scanned <= 15 * 256, "{s:?}");
    for (shape, out) in [("window 1", &windowed(1)), ("window 7", &windowed(7))] {
        assert_bit_identical(&serial, out, shape);
        assert_eq!(out.stats.positions_weighed, s.positions_weighed, "{shape}");
        assert_eq!(out.stats.tuples_scanned, s.tuples_scanned, "{shape}");
    }
}
