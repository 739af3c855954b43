//! Ablation: the parallel (interleaved) plan of Algorithm 1 vs the
//! VA-file's sequential plan (Sec. IV-A).
//!
//! The paper argues the sequential plan fails on sparse wide tables
//! because "a limited length vector cannot indicate any upper bound for
//! unlimited-and-variable length strings", leaving the candidate set
//! huge. This ablation measures that directly: both plans return the
//! exact same answers, but the sequential plan's candidate set (table
//! accesses) balloons while the parallel plan's does not.
//!
//! The "par" column is the engine's plan — since the probe-then-sweep
//! drain, Algorithm 1's interleaved *collection* with the fetches made by
//! need at the end of the walk (DESIGN.md §15), which fetches less than
//! Algorithm 1's scan-order refinement did. The sequential plan still
//! differs where the paper says it must: it has to bound candidates
//! *before* refining any, and strings give it no upper bound to do so.

use iva_bench::{report, scale_config, TestBed};
use iva_core::{IvaConfig, MetricKind, WeightScheme};

fn main() {
    let workload = scale_config();
    let config = IvaConfig::default();
    report::banner(
        "Ablation",
        "parallel (Algorithm 1) vs sequential (VA-file style) query plan",
        &workload,
        &config,
    );
    let bed = TestBed::new(&workload, config);
    report::header(&[
        "values/query",
        "par accesses",
        "seq accesses",
        "par ms",
        "seq ms",
    ]);
    for values in [1usize, 3, 5] {
        let qs = bed.query_set(values, 30, 5);
        let (mut pa, mut sa, mut pt, mut st) = (0u64, 0u64, 0.0f64, 0.0f64);
        for q in qs.measured() {
            let par = bed
                .iva
                .query(&bed.table, q, 10, &MetricKind::L2, WeightScheme::Equal)
                .expect("par");
            let seq = bed
                .iva
                .query_sequential_plan(&bed.table, q, 10, &MetricKind::L2, WeightScheme::Equal)
                .expect("seq");
            // Exactness cross-check while we are here.
            for (a, b) in par.results.iter().zip(&seq.results) {
                assert!((a.dist - b.dist).abs() < 1e-9, "plans disagree");
            }
            pa += par.stats.table_accesses;
            sa += seq.stats.table_accesses;
            pt += par.stats.total_ms();
            st += seq.stats.total_ms();
        }
        let n = qs.measured().len() as f64;
        report::row(&[
            values.to_string(),
            report::f(pa as f64 / n),
            report::f(sa as f64 / n),
            report::f(pt / n),
            report::f(st / n),
        ]);
    }
    println!("\npaper (Sec. IV-A): without string upper bounds the sequential plan cannot");
    println!("shrink its candidate set; interleaving refinement into the scan can.");
}
