//! Calibration: the generated datasets must reproduce the statistics the
//! paper reports for its Google Base subset (Sec. I-A / V-A), since those
//! statistics drive every size formula and filtering trade-off.

use iva_storage::{IoStats, PagerOptions};
use iva_swt::{AttrType, Value};
use iva_workload::{Dataset, WorkloadConfig};

fn opts() -> PagerOptions {
    PagerOptions::default()
}

#[test]
fn sparsity_matches_target() {
    let ds = Dataset::generate(&WorkloadConfig::scaled(20_000));
    let mean = ds.mean_defined();
    assert!(
        (13.0..20.0).contains(&mean),
        "mean defined attrs {mean} should be near the paper's 16.3"
    );
}

#[test]
fn string_length_matches_target() {
    let ds = Dataset::generate(&WorkloadConfig::scaled(5_000));
    let mean = ds.mean_string_len();
    assert!(
        (11.0..23.0).contains(&mean),
        "mean string length {mean} should be near the paper's 16.8"
    );
}

#[test]
fn text_numeric_split_matches() {
    let cfg = WorkloadConfig::scaled(2_000);
    let ds = Dataset::generate(&cfg);
    let text = ds
        .attr_types
        .iter()
        .filter(|t| **t == AttrType::Text)
        .count();
    let expect = cfg.n_text_attrs();
    assert_eq!(text, expect);
    // 94% of attributes are text, as in Google Base.
    let frac = text as f64 / ds.attr_types.len() as f64;
    assert!((0.90..0.98).contains(&frac), "{frac}");
}

#[test]
fn attribute_popularity_is_skewed() {
    // Use a wide catalog: with few attributes, per-tuple distinctness
    // saturates the popular attributes and flattens the skew (which is
    // also what happens in reality on narrow schemas).
    let cfg = WorkloadConfig {
        n_attrs: 400,
        ..WorkloadConfig::scaled(10_000)
    };
    let ds = Dataset::generate(&cfg);
    let mut counts = vec![0u64; ds.attr_types.len()];
    for t in &ds.tuples {
        for (a, _) in t.iter() {
            counts[a.index()] += 1;
        }
    }
    let mut sorted = counts.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    // The head attribute is used vastly more than the median one.
    let median = sorted[sorted.len() / 2];
    assert!(
        sorted[0] > median.max(1) * 10,
        "head {} vs median {median}: popularity should be Zipf-skewed",
        sorted[0]
    );
}

#[test]
fn values_are_shared_across_tuples() {
    // Value sharing is what gives similarity queries non-trivial answers.
    let ds = Dataset::generate(&WorkloadConfig::scaled(5_000));
    let mut seen = std::collections::HashMap::<(u32, &str), u32>::new();
    for t in &ds.tuples {
        for (a, v) in t.iter() {
            if let Value::Text(strings) = v {
                for s in strings {
                    *seen.entry((a.0, s.as_str())).or_default() += 1;
                }
            }
        }
    }
    let repeated = seen.values().filter(|&&c| c >= 2).count();
    assert!(
        repeated * 5 > seen.len(),
        "at least ~20% of (attr, string) pairs should repeat: {repeated}/{}",
        seen.len()
    );
}

#[test]
fn generation_is_deterministic_despite_parallelism() {
    let cfg = WorkloadConfig::scaled(20_000); // > 1 chunk (8192 per chunk)
    let a = Dataset::generate(&cfg);
    let b = Dataset::generate(&cfg);
    assert_eq!(a.tuples.len(), b.tuples.len());
    for (x, y) in a.tuples.iter().zip(&b.tuples) {
        assert_eq!(x, y);
    }
}

#[test]
fn dataset_materializes_into_table() {
    let ds = Dataset::generate(&WorkloadConfig::scaled(1_000));
    let table = ds.build_table(&opts(), IoStats::new()).unwrap();
    assert_eq!(table.file().total_records(), 1_000);
    assert_eq!(table.catalog().len(), ds.attr_types.len());
}
