//! Ablation: the multi-type vector-list selection of Sec. III-D.
//!
//! The paper credits the "intellectual selection between multi-type vector
//! lists" for iVA-files that are sometimes *smaller* than SII. This
//! ablation computes, from the exact size formulas and the real per-
//! attribute signature volume, the total vector-list size under the
//! automatic per-attribute choice vs forcing a single organization —
//! quantifying what the selection buys.

use iva_bench::{bench_pager_options, report, scale_config};
use iva_core::{
    choose_num_type, choose_text_type, num_list_sizes, text_list_sizes, IvaConfig, ListType,
};
use iva_storage::IoStats;
use iva_swt::{AttrType, Value};
use iva_workload::Dataset;

fn main() {
    let workload = scale_config();
    let config = IvaConfig::default();
    report::banner(
        "Ablation",
        "vector-list type selection vs forced single type",
        &workload,
        &config,
    );
    let opts = bench_pager_options();
    let dataset = Dataset::generate(&workload);
    let table = dataset.build_table(&opts, IoStats::new()).expect("table");
    let codec = config.sig_codec();
    let tuples = table.file().total_records();

    // Exact per-attribute `df`, `str` and signature volume L over every
    // tuple the table holds.
    let n_attrs = table.catalog().len();
    let (mut df, mut str_count, mut sig_total) = (
        vec![0u64; n_attrs],
        vec![0u64; n_attrs],
        vec![0u64; n_attrs],
    );
    for t in &dataset.tuples {
        for (attr, v) in t.iter() {
            df[attr.index()] += 1;
            if let Value::Text(strings) = v {
                str_count[attr.index()] += strings.len() as u64;
                for s in strings {
                    let len_byte = s.len().min(255) as u8;
                    sig_total[attr.index()] += codec.encoded_len(len_byte) as u64;
                }
            }
        }
    }

    let code_bytes = config.numeric_code_bytes();
    let mut auto = 0u64;
    let mut forced = [0u64; 4]; // I, II, III(text)/IV(num) as "positional", keyed-per-tuple
    let mut counts = std::collections::HashMap::<ListType, usize>::new();
    for (attr, def) in table.catalog().iter() {
        let (df, str_count) = (df[attr.index()], str_count[attr.index()]);
        if def.ty == AttrType::Text {
            let (l1, l2, l3) = text_list_sizes(str_count, df, tuples, sig_total[attr.index()]);
            let choice = choose_text_type(str_count, df, tuples);
            *counts.entry(choice).or_default() += 1;
            auto += match choice {
                ListType::I => l1,
                ListType::II => l2,
                ListType::III => l3,
                ListType::IV => unreachable!(),
            };
            forced[0] += l1;
            forced[1] += l2;
            forced[2] += l3;
            forced[3] += l3; // positional bucket
        } else {
            let (l1, l4) = num_list_sizes(code_bytes, df, tuples);
            let choice = choose_num_type(code_bytes, df, tuples);
            *counts.entry(choice).or_default() += 1;
            auto += match choice {
                ListType::I => l1,
                _ => l4,
            };
            forced[0] += l1;
            forced[1] += l1; // II not defined for numeric: keyed fallback
            forced[2] += l4;
            forced[3] += l4;
        }
    }

    report::header(&["strategy", "vector lists", "vs auto"]);
    report::row(&["auto (per-attr)".into(), report::mb(auto), "1.00x".into()]);
    report::row(&[
        "force keyed-I".into(),
        report::mb(forced[0]),
        report::ratio(forced[0] as f64, auto as f64),
    ]);
    report::row(&[
        "force keyed-II".into(),
        report::mb(forced[1]),
        report::ratio(forced[1] as f64, auto as f64),
    ]);
    report::row(&[
        "force positional".into(),
        report::mb(forced[2]),
        report::ratio(forced[2] as f64, auto as f64),
    ]);
    println!("\nchosen types across {} attributes:", n_attrs);
    let mut kinds: Vec<_> = counts.into_iter().collect();
    kinds.sort_by_key(|(t, _)| t.code());
    for (t, c) in kinds {
        println!("  Type {t:>3}: {c} attributes");
    }
    println!("\npaper: the per-attribute selection 'contributes well to lower the index size'");
}
