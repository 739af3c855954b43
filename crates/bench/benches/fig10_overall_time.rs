//! Fig. 10: overall query time per query vs values per query, iVA vs SII.
//!
//! Paper result: "the iVA-file is usually twice faster than SII" (on a
//! 2009 spinning disk, where random table accesses dominate). We report
//! both measured wall-clock on the current machine and modeled time under
//! the 2009-HDD cost model driven by exact I/O counters — the latter is
//! the apples-to-apples curve.

use iva_bench::{report, run_point, scale_config, System, TestBed};
use iva_core::{IvaConfig, MetricKind, WeightScheme};

fn main() {
    let workload = scale_config();
    let config = IvaConfig::default();
    report::banner(
        "Fig. 10",
        "overall time per query vs values per query",
        &workload,
        &config,
    );
    let bed = TestBed::new(&workload, config);
    report::header(&[
        "values/query",
        "iVA wall ms",
        "SII wall ms",
        "iVA hdd ms",
        "SII hdd ms",
        "SII/iVA hdd",
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
            report::f(iva.mean_ms),
            report::f(sii.mean_ms),
            report::f(iva.modeled_ms),
            report::f(sii.modeled_ms),
            report::ratio(sii.modeled_ms, iva.modeled_ms),
        ]);
    }
    println!("\npaper: iVA overall ~2x faster than SII on the 2009 disk-bound testbed");
}
