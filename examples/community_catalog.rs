//! A living community catalog — the Google-Base scenario of Sec. I-A with
//! the full update lifecycle of Sec. IV-B.
//!
//! Community members continuously publish, revise and retract listings.
//! This example drives inserts, updates (delete + re-insert under a fresh
//! tuple id) and deletions against a live database, and shows the periodic
//! cleanup (β threshold) rebuilding the table file and the iVA-file when
//! enough tombstones accumulate.
//!
//! Run with: `cargo run --release --example community_catalog`

use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{IvaDb, IvaDbOptions, SearchRequest, Tuple, Value};

fn main() -> iva_file::Result<()> {
    let cfg = WorkloadConfig::scaled(5_000);
    let dataset = Dataset::generate(&cfg);
    println!(
        "community dataset: {} items, {} attributes, {:.1} defined/item, {:.1} B strings",
        cfg.n_tuples,
        cfg.n_attrs,
        dataset.mean_defined(),
        dataset.mean_string_len()
    );

    let mut db = IvaDb::create_mem(IvaDbOptions {
        cleaning_threshold: 0.05, // β = 5 %
        ..Default::default()
    })?;
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        match ty {
            iva_file::AttrType::Text => db.define_text(&format!("attr_{i}"))?,
            iva_file::AttrType::Numeric => db.define_numeric(&format!("attr_{i}"))?,
        };
    }
    let mut live: Vec<u64> = Vec::new();
    for t in &dataset.tuples {
        live.push(db.insert(t)?);
    }
    println!(
        "inserted {} items; index {} KB",
        db.len(),
        db.index().size_bytes() / 1024
    );

    // A day in the life: members retract some listings, revise others, and
    // add new ones. Deterministic little LCG for the choreography.
    let mut state = 0xC0FFEEu64;
    let mut rnd = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut deleted = 0u64;
    let mut updated = 0u64;
    for round in 0..6 {
        for _ in 0..80 {
            let pick = live[rnd(live.len() as u64) as usize];
            match rnd(3) {
                0 => {
                    if db.delete(pick)? {
                        deleted += 1;
                    }
                }
                1 => {
                    if db.get(pick)?.is_some() {
                        let new_tuple = Tuple::new()
                            .with(
                                iva_file::AttrId(0),
                                Value::text(format!("revised listing r{round}")),
                            )
                            .with(iva_file::AttrId(cfg.n_attrs as u32 - 1), Value::num(42.0));
                        let new_tid = db.update(pick, &new_tuple)?;
                        live.push(new_tid);
                        updated += 1;
                    }
                }
                _ => {
                    let t = &dataset.tuples[rnd(dataset.tuples.len() as u64) as usize];
                    live.push(db.insert(t)?);
                }
            }
        }
        println!(
            "round {round}: {} live items, deleted fraction {:.2} %",
            db.len(),
            db.deleted_fraction() * 100.0
        );
    }
    println!("\ntotals: {deleted} deletions, {updated} updates");
    println!(
        "tombstones now {:.2} % (β = 5 % rebuilds keep scans tight)",
        db.deleted_fraction() * 100.0
    );

    // Queries still return exact answers mid-churn.
    let qs = generate_query_set(&dataset, 3, 12, 2, 99);
    let mut answered = 0;
    for q in qs.measured() {
        let hits = db.execute(q, &SearchRequest::new(10))?.hits;
        answered += usize::from(!hits.is_empty());
    }
    println!(
        "ran {} post-churn queries, {answered} returned results",
        qs.measured().len()
    );
    Ok(())
}
