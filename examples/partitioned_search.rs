//! Partitioned search — the deployment sketched in the paper's
//! conclusion: "being a non-hierarchical index, the iVA-file is suitable
//! for indexing horizontally or vertically partitioned datasets in a
//! distributed and parallel system architecture".
//!
//! The horizontal partition is an `LsmDb` sealed into four segments: four
//! independent table + iVA-file pairs, scanned one after another under
//! one carried pool, checked against one serial scan of an `IvaDb` over
//! the same rows by `(tid, distance bits)`.
//!
//! Run with: `cargo run --release --example partitioned_search`

use std::time::Instant;

use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{
    AttrType, EngineWriter, IvaDb, IvaDbOptions, LsmDb, LsmOptions, Result, SearchOutcome,
    SearchRequest,
};

const PARTS: usize = 4;

fn define<E: EngineWriter>(db: &mut E, dataset: &Dataset) -> Result<()> {
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        let name = format!("attr_{i}");
        match ty {
            AttrType::Text => db.define_text(&name)?,
            AttrType::Numeric => db.define_numeric(&name)?,
        };
    }
    Ok(())
}

/// Run one search, add its wall time to `secs`, and return its
/// `(tid, distance bits)` per hit.
fn timed(secs: &mut f64, run: impl FnOnce() -> Result<SearchOutcome>) -> Result<Vec<(u64, u64)>> {
    let start = Instant::now();
    let out = run()?;
    *secs += start.elapsed().as_secs_f64();
    Ok(out.hits.iter().map(|h| (h.tid, h.dist.to_bits())).collect())
}

fn main() -> Result<()> {
    let cfg = WorkloadConfig::scaled(48_000);
    let dataset = Dataset::generate(&cfg);
    println!(
        "dataset: {} listings over {} attributes",
        cfg.n_tuples, cfg.n_attrs
    );

    let mut single = IvaDb::create_mem(IvaDbOptions::default())?;
    let mut segmented = LsmDb::create_mem(LsmOptions::default())?;
    define(&mut single, &dataset)?;
    define(&mut segmented, &dataset)?;
    for chunk in dataset.tuples.chunks(dataset.tuples.len().div_ceil(PARTS)) {
        for t in chunk {
            single.insert(t)?;
            segmented.insert(t)?;
        }
        segmented.flush()?; // seals the chunk into a segment of its own
    }
    assert_eq!(segmented.segments().len(), PARTS);
    println!("loaded into one table + iVA-file pair and into {PARTS} sealed segments\n");

    let qs = generate_query_set(&dataset, 3, 25, 5, 4242);
    let request = SearchRequest::new(10);
    let (mut t_serial, mut t_segments) = (0.0f64, 0.0f64);
    for q in qs.measured() {
        let want = timed(&mut t_serial, || single.execute(q, &request))?;
        let segments = timed(&mut t_segments, || segmented.execute(q, &request))?;
        assert_eq!(
            segments, want,
            "{PARTS} segments differ from the serial scan"
        );
    }
    let n = qs.measured().len();
    println!("answers bit-identical to the serial scan on {n}/{n} queries");
    let ms = |secs: f64| secs / n as f64 * 1e3;
    println!(
        "mean latency: one pair {:.1} ms, {PARTS} segments {:.1} ms",
        ms(t_serial),
        ms(t_segments),
    );
    Ok(())
}
