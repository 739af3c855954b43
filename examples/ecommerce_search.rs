//! E-commerce catalog search — the CNET-style scenario of Sec. I-A.
//!
//! Builds a product catalog in the shape Chu et al. measured for CNET
//! (hundreds of attributes, ~11 defined per product), persists it to disk,
//! reopens it, and runs structured similarity searches under different
//! metrics and attribute weights, printing the filtering statistics that
//! make the iVA-file interesting.
//!
//! Run with: `cargo run --release --example ecommerce_search`

use iva_file::vfs::{RealVfs, Vfs};
use iva_file::workload::{Dataset, WorkloadConfig};
use iva_file::{IvaDb, IvaDbOptions, MetricKind, Query, SearchRequest, Tuple, Value, WeightScheme};

fn main() -> iva_file::Result<()> {
    let dir = std::env::temp_dir().join("iva-ecommerce-example");
    let _ = RealVfs.remove_dir_all(&dir);

    // A CNET-ish shape: sparse, wide, mostly text.
    let cfg = WorkloadConfig {
        n_tuples: 8_000,
        n_attrs: 120,
        mean_defined: 11.0,
        ..WorkloadConfig::scaled(8_000)
    };
    println!(
        "generating {} products over {} attributes...",
        cfg.n_tuples, cfg.n_attrs
    );
    let dataset = Dataset::generate(&cfg);

    let mut db = IvaDb::create(&dir, IvaDbOptions::default())?;
    // Register the generated catalog, then a few curated attributes we
    // will search on.
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        match ty {
            iva_file::AttrType::Text => db.define_text(&format!("attr_{i}"))?,
            iva_file::AttrType::Numeric => db.define_numeric(&format!("attr_{i}"))?,
        };
    }
    let brand = db.define_text("brand")?;
    let category = db.define_text("category")?;
    let price = db.define_numeric("price")?;

    let brands = ["Canon", "Nikon", "Sony", "Panasonic", "Olympus"];
    let categories = ["digital camera", "camera lens", "tripod", "memory card"];
    for (i, tuple) in dataset.tuples.iter().enumerate() {
        let mut t = tuple.clone();
        // Only camera-shop listings (a third of the catalog) carry the
        // curated attributes — keeping them sparse keeps ITF informative.
        if i % 3 == 0 {
            t.set(brand, Value::text(brands[i % brands.len()]));
            t.set(category, Value::text(categories[i % categories.len()]));
            t.set(price, Value::num(49.0 + (i % 400) as f64 * 2.5));
        }
        db.insert(&t)?;
    }
    db.flush()?;
    drop(db);

    // Reopen from disk — the index file is used as-is, no rebuild.
    let db = IvaDb::open(&dir, IvaDbOptions::default())?;
    println!(
        "reopened: {} products, table {} KB, index {} KB\n",
        db.len(),
        db.table().file().size_bytes() / 1024,
        db.index().size_bytes() / 1024
    );

    let query = Query::new()
        .text(category, "digital camera")
        .text(brand, "Canon")
        .num(price, 250.0);

    for (metric_name, weights) in [
        ("L2 + equal weights", WeightScheme::Equal),
        ("L2 + ITF weights", WeightScheme::Itf),
    ] {
        let req = SearchRequest::new(5)
            .metric(MetricKind::L2)
            .weights(weights);
        let out = db.execute(&query, &req)?;
        let (hits, stats) = (out.hits, out.stats);
        println!("top-5 under {metric_name}:");
        for hit in &hits {
            let b = text_of(&hit.tuple, brand);
            let c = text_of(&hit.tuple, category);
            let p = num_of(&hit.tuple, price);
            println!(
                "    tid {:>5}  dist {:>7.2}  {b} / {c} / ${p:.0}",
                hit.tid, hit.dist
            );
        }
        println!(
            "    scanned {} tuples, fetched only {} from the table file ({:.1} %)\n",
            stats.tuples_scanned,
            stats.table_accesses,
            100.0 * stats.table_accesses as f64 / stats.tuples_scanned as f64
        );
    }

    let _ = RealVfs.remove_dir_all(&dir);
    Ok(())
}

fn text_of(t: &Tuple, attr: iva_file::AttrId) -> String {
    match t.get(attr) {
        Some(Value::Text(s)) => s[0].clone(),
        _ => "-".into(),
    }
}

fn num_of(t: &Tuple, attr: iva_file::AttrId) -> f64 {
    match t.get(attr) {
        Some(Value::Num(v)) => *v,
        _ => f64::NAN,
    }
}
