//! The configuration-layering contract of `IvaDbOptions` (see its
//! rustdoc): structural parameters persist, runtime knobs (the default
//! metric and weights) follow the options of the opening process, per-request
//! overrides never write through to either, and the inert fields change
//! nothing.

use iva_file::vfs::{RealVfs, Vfs};
use iva_file::{
    IvaConfig, IvaDb, IvaDbOptions, IvaError, LsmDb, LsmOptions, MetricKind, Query, QueryStats,
    SearchRequest, Tuple, Value, WeightScheme,
};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("iva-knobs-{tag}-{}", std::process::id()));
    let _ = RealVfs.remove_dir_all(&dir);
    dir
}

fn knobbed_opts() -> IvaDbOptions {
    IvaDbOptions {
        metric: MetricKind::L1,
        weights: WeightScheme::Itf,
        ..Default::default()
    }
}

/// The options' runtime knobs, and the library defaults, spelt out as a
/// request's overrides.
fn knobbed() -> SearchRequest {
    SearchRequest::new(5)
        .metric(MetricKind::L1)
        .weights(WeightScheme::Itf)
}

fn plain() -> SearchRequest {
    SearchRequest::new(5)
        .metric(MetricKind::L2)
        .weights(WeightScheme::Equal)
}

/// 40 rows: a name on each, a price on every other one.
fn populate(db: &mut IvaDb) {
    let name = db.define_text("name").unwrap();
    let price = db.define_numeric("price").unwrap();
    for i in 0..40 {
        let mut t = Tuple::new().with(name, Value::text(format!("widget {i}")));
        if i % 2 == 0 {
            t.set(price, Value::num(f64::from(i % 7)));
        }
        db.insert(&t).unwrap();
    }
    db.flush().unwrap();
}

/// `request`'s hits on a two-value query, by tid and distance bits.
fn answer(db: &IvaDb, request: &SearchRequest) -> Vec<(u64, u64)> {
    let q = Query::new()
        .text(db.attr("name").unwrap(), "widget 7")
        .num(db.attr("price").unwrap(), 3.0);
    let hits = db.execute(&q, request).unwrap().hits;
    hits.iter().map(|h| (h.tid, h.dist.to_bits())).collect()
}

/// A request that names no metric or weights runs under the options'
/// runtime knobs, and under the library defaults only where they are.
fn runs_under(db: &IvaDb, knobs: fn() -> SearchRequest, metric: MetricKind) {
    assert_eq!(db.default_metric(), metric);
    let got = answer(db, &SearchRequest::new(5));
    assert_eq!(got, answer(db, &knobs()));
    assert_eq!(got == answer(db, &plain()), metric == MetricKind::L2);
}

/// Regression: runtime knobs used to be silently dropped on open because
/// the index header round-trip resets them. The opening process's
/// options must win.
#[test]
fn runtime_knobs_survive_reopen() {
    let dir = scratch_dir("survive");
    {
        let mut db = IvaDb::create(&dir, knobbed_opts()).unwrap();
        populate(&mut db);
        runs_under(&db, knobbed, MetricKind::L1);
    }
    let db = IvaDb::open(&dir, knobbed_opts()).unwrap();
    runs_under(&db, knobbed, MetricKind::L1);
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// Runtime knobs belong to the opening process, not the file: a reopen
/// with default options gets the defaults back, no matter what the
/// writing process used.
#[test]
fn runtime_knobs_are_not_persisted() {
    let dir = scratch_dir("notpersisted");
    {
        let mut db = IvaDb::create(&dir, knobbed_opts()).unwrap();
        populate(&mut db);
    }
    let db = IvaDb::open(&dir, IvaDbOptions::default()).unwrap();
    runs_under(&db, plain, MetricKind::L2);
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// Per-request overrides are scoped to one `execute` call: they must
/// not leak into the live defaults, nor into the persisted image.
#[test]
fn search_request_overrides_never_leak() {
    let dir = scratch_dir("noleak");
    {
        let mut db = IvaDb::create(&dir, IvaDbOptions::default()).unwrap();
        populate(&mut db);
        let (overridden, defaults) = (answer(&db, &knobbed()), answer(&db, &plain()));
        assert_ne!(overridden, defaults);
        // The live defaults still hold the options' knobs.
        runs_under(&db, plain, MetricKind::L2);
        db.flush().unwrap();
    }
    // ... and the durable image never saw the override either: a reopen
    // with default options shows pure defaults.
    let db = IvaDb::open(&dir, IvaDbOptions::default()).unwrap();
    runs_under(&db, plain, MetricKind::L2);
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// Structural parameters go the other way: the stored values win over
/// whatever the opening options carry (the index bytes were shaped by
/// them), while the opener's runtime knobs still apply.
#[test]
fn structural_params_from_disk_win_over_options() {
    let dir = scratch_dir("structural");
    {
        let mut db = IvaDb::create(
            &dir,
            IvaDbOptions {
                config: IvaConfig {
                    alpha: 0.30,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        populate(&mut db);
    }
    // Open asking for a different alpha AND a custom runtime knob.
    let db = IvaDb::open(
        &dir,
        IvaDbOptions {
            config: IvaConfig {
                alpha: 0.10,
                ..Default::default()
            },
            ..knobbed_opts()
        },
    )
    .unwrap();
    let cfg = db.index().config();
    assert_eq!(cfg.alpha, 0.30, "stored structural parameter must win");
    runs_under(&db, knobbed, MetricKind::L1);
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// An out-of-range option is refused at open whether the store's index
/// is reused or rebuilt. A clean store used to reuse its index without
/// looking at the options, so `search_threads: 2000` opened and applied
/// there, and was `InvalidArgument` only on a dirty or stale one.
#[test]
fn out_of_range_options_are_refused_on_a_clean_store() {
    let dir = scratch_dir("invalid");
    let (mono, lsm) = (dir.join("mono"), dir.join("lsm"));
    {
        let mut db = IvaDb::create(&mono, IvaDbOptions::default()).unwrap();
        populate(&mut db);
        let mut db = LsmDb::create(&lsm, LsmOptions::default()).unwrap();
        let name = db.define_text("name").unwrap();
        db.insert(&Tuple::new().with(name, Value::text("widget")))
            .unwrap();
        db.flush().unwrap();
        assert_eq!(db.segments().len(), 1);
    }
    let config = IvaConfig {
        search_threads: 2000,
        ..Default::default()
    };
    let refused = |r: Result<(), IvaError>| matches!(r, Err(IvaError::InvalidArgument(_)));
    let mono_opts = IvaDbOptions {
        config,
        ..Default::default()
    };
    assert!(refused(IvaDb::open(&mono, mono_opts).map(drop)), "IvaDb");
    let lsm_opts = LsmOptions {
        config,
        ..Default::default()
    };
    assert!(refused(LsmDb::open(&lsm, lsm_opts).map(drop)), "LsmDb");
    // The stores themselves are fine: valid options open them.
    IvaDb::open(&mono, IvaDbOptions::default()).unwrap();
    LsmDb::open(&lsm, LsmOptions::default()).unwrap();
    RealVfs.remove_dir_all(&dir).unwrap();
}

/// `hot_tier_bytes` and `search_threads` are inert: the same query, run
/// repeatedly, gives the same answers and the same counts (all but the
/// nanos) whatever budget and thread count the store was opened with.
#[test]
fn hot_tier_budget_is_inert() {
    let counts = |s: QueryStats| QueryStats {
        filter_nanos: 0,
        refine_nanos: 0,
        ..s
    };
    let run = |hot_tier_bytes: usize, search_threads: usize| {
        let config = IvaConfig {
            search_threads,
            hot_tier_bytes,
            ..Default::default()
        };
        let mut db = IvaDb::create_mem(IvaDbOptions {
            config,
            ..Default::default()
        })
        .unwrap();
        let name = db.define_text("name").unwrap();
        let price = db.define_numeric("price").unwrap();
        for i in 0..400 {
            let t = Tuple::new()
                .with(name, Value::text(format!("widget {}", i % 37)))
                .with(price, Value::num(f64::from(i % 53)));
            db.insert(&t).unwrap();
        }
        // Packed lists and pinned domains: the walk admits by need.
        db.rebuild().unwrap();
        let q = Query::new().text(name, "widget 7").num(price, 20.0);
        let req = SearchRequest::new(10);
        let runs = (0..5).map(|_| {
            let out = db.execute(&q, &req).unwrap();
            let hits: Vec<_> = out.hits.iter().map(|h| (h.tid, h.dist.to_bits())).collect();
            (hits, counts(out.stats))
        });
        runs.collect::<Vec<_>>()
    };
    let want = run(0, 1);
    for budget in [0, 64 << 20] {
        for threads in [0, 1, 4] {
            assert_eq!(run(budget, threads), want, "{budget} B, {threads} threads");
        }
    }
}

/// An `LsmDb` reopened under another α keeps its sealed segments' α (the
/// memtable takes the opener's). A query's text kernels are built once,
/// under the memtable's codec, and lent only to tiers of that codec; the
/// segment builds its own. Answers stay those of an `IvaDb` over the same
/// rows, by tid and distance bits.
#[test]
fn lsm_tiers_under_two_codecs_answer_exactly() {
    let dir = scratch_dir("lsm-codecs");
    let opts = |alpha| LsmOptions {
        config: IvaConfig {
            alpha,
            ..Default::default()
        },
        ..Default::default()
    };
    let row = |i: u32| {
        Value::text(format!(
            "{} model {i}",
            ["widget", "gadget"][i as usize % 2]
        ))
    };
    let mut mono = IvaDb::create_mem(IvaDbOptions::default()).unwrap();
    let name = mono.define_text("name").unwrap();
    {
        let mut lsm = LsmDb::create(&dir, opts(0.30)).unwrap();
        lsm.define_text("name").unwrap();
        for i in 0..40 {
            let t = Tuple::new().with(name, row(i));
            assert_eq!(lsm.insert(&t).unwrap(), mono.insert(&t).unwrap());
        }
        lsm.flush().unwrap(); // seals the memtable into a segment
    }
    let mut lsm = LsmDb::open(&dir, opts(0.10)).unwrap();
    assert_eq!(lsm.segments().len(), 1);
    for i in 40..60 {
        let t = Tuple::new().with(name, row(i));
        assert_eq!(lsm.insert(&t).unwrap(), mono.insert(&t).unwrap());
    }
    let keys = |hits: &[iva_file::SearchHit]| -> Vec<(u64, u64)> {
        hits.iter().map(|h| (h.tid, h.dist.to_bits())).collect()
    };
    for q in ["widget model 7", "gadget model 45", "gidget modl 12"] {
        let (query, req) = (Query::new().text(name, q), SearchRequest::new(5));
        let want = keys(&mono.execute(&query, &req).unwrap().hits);
        assert_eq!(keys(&lsm.execute(&query, &req).unwrap().hits), want, "{q}");
    }
    RealVfs.remove_dir_all(&dir).unwrap();
}
