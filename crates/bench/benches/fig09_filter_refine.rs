//! Fig. 9: filtering vs refining time per query, iVA vs SII, across the
//! values-per-query sweep.
//!
//! Paper result: "the iVA-file sacrifices on the filtering time while
//! gains lower refining time."

use iva_bench::{report, run_point, scale_config, System, TestBed};
use iva_core::{IvaConfig, MetricKind, WeightScheme};

fn main() {
    let workload = scale_config();
    let config = IvaConfig::default();
    report::banner(
        "Fig. 9",
        "filtering and refining time per query (ms)",
        &workload,
        &config,
    );
    let bed = TestBed::new(&workload, config);
    report::header(&[
        "values/query",
        "iVA filter",
        "SII filter",
        "iVA refine",
        "SII refine",
    ]);
    for values in [1usize, 3, 5, 7, 9] {
        let iva = run_point(
            &bed,
            System::Iva,
            values,
            10,
            MetricKind::L2,
            WeightScheme::Equal,
        );
        let sii = run_point(
            &bed,
            System::Sii,
            values,
            10,
            MetricKind::L2,
            WeightScheme::Equal,
        );
        report::row(&[
            values.to_string(),
            report::f(iva.filter_ms),
            report::f(sii.filter_ms),
            report::f(iva.refine_ms),
            report::f(sii.refine_ms),
        ]);
    }
    println!("\npaper: iVA pays more filter time (it scans vectors, not bare tids)");
    println!("       but wins it back severalfold in refine time (fewer random fetches)");
}
