//! The metric contract (names, units, directions, bounds) and the output
//! formats: the result line the driver reads and the lines above it.

use crate::json::Json;
use crate::run::{Metric, RunOutput};

/// Definition of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Pure function of seed and op counts: two runs of one seed must
    /// agree to the last digit.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// The end-to-end metrics, printed by every workload's untraced run.
/// `failed_fraction` is the result line's `failed / attempted` (a metric
/// that is always 0 cannot carry a relative bound), and
/// `trace_overhead_fraction` needs both runs, so `all` mode prints it.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("query_p50_ms", "ms", "lower", 0.25, false),
    e2e("query_p95_ms", "ms", "lower", 0.25, false),
    e2e("query_qps", "1/s", "higher", 0.25, false),
    e2e("update_p50_ms", "ms", "lower", 0.25, false),
    e2e("update_p95_ms", "ms", "lower", 0.25, false),
    e2e("update_ops_per_s", "1/s", "higher", 0.25, false),
    e2e("space_amp", "ratio", "lower", 0.05, true),
    e2e("write_amp", "ratio", "lower", 0.1, true),
    e2e("peak_rss_mb", "MiB", "lower", 0.25, false),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

/// The per-layer metrics, printed by every workload's traced run. A
/// metric of a layer the workload does not have (`lsm.*` on the
/// monolith) reads 0.
pub const PER_LAYER: [MetricDef; 36] = [
    layer("trace.query_p50_ms", "ms", "lower"),
    layer("serve.overhead_ms", "ms", "lower"),
    layer("serve.coalesced_fraction", "ratio", "higher"),
    layer("serve.batches", "count", "lower"),
    layer("db.facade_self_ms", "ms", "lower"),
    layer("core.filter_ms_per_query", "ms", "lower"),
    layer("core.refine_ms_per_query", "ms", "lower"),
    layer("core.tuples_scanned_per_query", "count", "lower"),
    layer("core.table_accesses_per_query", "count", "lower"),
    layer("core.speculative_accesses_per_query", "count", "lower"),
    layer("core.hot_attr_fraction", "ratio", "higher"),
    layer("core.list_bytes_physical_per_query", "bytes", "lower"),
    layer("core.list_bytes_logical_per_query", "bytes", "lower"),
    layer("storage.table_cache_hit_rate", "ratio", "higher"),
    layer("storage.index_cache_hit_rate", "ratio", "higher"),
    layer("storage.disk_page_reads_per_query", "count", "lower"),
    layer("storage.random_seeks_per_query", "count", "lower"),
    layer("storage.syncs_in_setup", "count", "lower"),
    layer("storage.syncs_per_update", "count", "lower"),
    layer("lsm.foreground_bytes_per_update", "bytes", "lower"),
    layer("lsm.maintain_busy_fraction", "ratio", "lower"),
    layer("lsm.seal_ms", "ms", "lower"),
    layer("lsm.compact_ms", "ms", "lower"),
    layer("lsm.seals", "count", "lower"),
    layer("lsm.compactions", "count", "lower"),
    layer("lsm.maintenance_bytes_written", "bytes", "lower"),
    layer("lsm.segments_at_end", "count", "lower"),
    layer("lsm.memtable_records_at_end", "count", "lower"),
    layer("workload.gen_s", "s", "lower"),
    layer("core.packed_decode_mb_per_s", "MB/s", "higher"),
    layer("text.estimate_ns_per_sig", "ns", "lower"),
    layer("text.matcher_build_us", "us", "lower"),
    layer("text.edit_distance_ns_per_pair", "ns", "lower"),
    layer("swt.fetch_us_per_record", "us", "lower"),
    layer("swt.decode_ns_per_record", "ns", "lower"),
    layer("storage.unpack_mb_per_s", "MB/s", "higher"),
];

/// The definition of `name` in either list.
pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// The last line of a run's standard output, exactly the contract's
/// keys: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &RunOutput) -> String {
    let metrics = out.metrics.iter().map(|m| {
        let unit = def_of(m.name).map_or("", |d| d.unit);
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// `name = value unit`, one metric per line.
pub fn metric_lines(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let unit = def_of(m.name).map_or("", |d| d.unit);
            format!("{:<40} = {:>16.6} {unit}", m.name, m.value)
        })
        .collect()
}

/// How much worse `worst` is than `best` for a metric of this direction,
/// as a share of `best`.
pub fn relative_range(def: &MetricDef, values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (best, worst) = if def.better == "lower" {
        (lo, hi)
    } else {
        (hi, lo)
    };
    if best == 0.0 || !best.is_finite() {
        return if worst == best { 0.0 } else { f64::INFINITY };
    }
    ((worst - best) / best).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above, which the program prints from.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            );
            assert!(manifest.contains(&entry), "missing or stale: {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(manifest.contains(&entry), "missing or stale: {entry}");
        }
        let listed = manifest.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for spec in crate::workloads::SPECS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
            assert!(manifest.contains(&entry), "missing or stale: {entry}");
        }
        assert_eq!(
            manifest.matches("\"why\"").count(),
            crate::workloads::SPECS.len()
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .chain(crate::workloads::SPECS.iter().map(|s| s.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for spec in crate::workloads::SPECS {
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }

    #[test]
    fn relative_range_follows_direction() {
        let lower = END_TO_END[1];
        assert!((relative_range(&lower, &[10.0, 11.0]) - 0.1).abs() < 1e-12);
        let higher = END_TO_END[3];
        assert!((relative_range(&higher, &[100.0, 90.0]) - 0.1).abs() < 1e-12);
        assert_eq!(relative_range(&lower, &[5.0, 5.0]), 0.0);
    }
}
