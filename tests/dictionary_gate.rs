//! The dictionary seed on `perf/`'s data, re-derived outside `perf/`: the
//! same 20,000-tuple dataset, and the same 128 one-value Zipf queries as
//! `read_packed` (`perf/src/ops.rs::zipf_queries`: exponent 1.6, pool seed
//! 0x5EED_0F0E), run serially at k = 10 under L2 and equal weights over
//! one bulk build, as `read_packed` and `read_hot` load their store; and
//! `mixed_lsm`'s preload (2,000 tuples through an `LsmDb` with a
//! 256-record memtable and fan-out 4). It prints which text lists got
//! string sections and the bytes those add, then, over the queries on such
//! lists: the edit distances each probe computed, its bound `B` and the
//! values at or below it (by brute force over the first strings and the
//! values, as the probe counts them), the pool entries the walk admitted
//! without a fetch, the positions the walk weighed, the fetches, and the
//! fastest of 7 runs' CPU time — and, per attribute, the share of
//! 256-position blocks and 1,024-position frames that hold no position at
//! or below `B`: what skipping by frame could skip at best.
//!
//! `cargo test --release --offline --test dictionary_gate -- --ignored --nocapture`

use std::collections::{BTreeMap, BTreeSet};

use iva_core::{
    attr_difference, build_index, encode_packed_text_list, export_index, IndexTarget, IvaIndex,
};
use iva_file::workload::{Dataset, WorkloadConfig};
use iva_file::{
    AttrId, AttrType, IoStats, IvaConfig, LsmDb, LsmOptions, MetricKind, PagerOptions, Query,
    QueryValue, SwtTable, Value, WeightScheme,
};
use iva_text::edit_distance;
use iva_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `perf/src/ops.rs::zipf_queries` over `dataset`.
fn zipf_queries(dataset: &Dataset, n: usize) -> Vec<Query> {
    let mut postings = vec![Vec::new(); dataset.attr_types.len()];
    for (row, tuple) in dataset.tuples.iter().enumerate() {
        for (attr, _) in tuple.iter() {
            postings[attr.index()].push(row);
        }
    }
    let mut order: Vec<usize> = (0..postings.len())
        .filter(|&a| !postings[a].is_empty())
        .collect();
    order.sort_by_key(|&a| (std::cmp::Reverse(postings[a].len()), a));
    let zipf = Zipf::new(order.len(), 1.6);
    let mut rng = StdRng::seed_from_u64(0x5EED_0F0E);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let Some(&attr) = order.get(zipf.sample(&mut rng)) else {
            continue;
        };
        let rows = &postings[attr];
        let row = rows[rng.random_range(0..rows.len())];
        match dataset.tuples[row].get(AttrId(attr as u32)) {
            Some(Value::Text(strings)) if !strings.is_empty() => {
                let s = &strings[rng.random_range(0..strings.len())];
                out.push(Query::new().text(AttrId(attr as u32), s.clone()));
            }
            Some(Value::Num(v)) => out.push(Query::new().num(AttrId(attr as u32), *v)),
            _ => {}
        }
    }
    out
}

/// `median / p90 / max`.
fn spread(mut v: Vec<u64>) -> String {
    v.sort_unstable();
    let at = |p: usize| v[(v.len() - 1) * p / 100];
    format!("median {} / p90 {} / max {}", at(50), at(90), at(100))
}

/// The text attributes of `index` whose packed lists carry string
/// sections, with the bytes those add over the signature-only image.
fn sectioned(index: &IvaIndex) -> Vec<(usize, u64)> {
    let exported = export_index(index).unwrap();
    let all_tids: Vec<u32> = exported.tuple_entries.iter().map(|(t, _)| *t).collect();
    let attrs = exported.attrs.iter().enumerate();
    let text = attrs.filter(|(_, a)| a.is_text && !a.text_postings.is_empty());
    text.filter_map(|(a, attr)| {
        let plain = encode_packed_text_list(attr.list_type, &attr.text_postings, &all_tids);
        let stored = index.attr_entry(AttrId(a as u32)).unwrap().vlist.len;
        (stored > plain.len() as u64).then(|| (a, stored - plain.len() as u64))
    })
    .collect()
}

/// `dataset`'s catalog, through `define(name, is_text)`.
fn define(dataset: &Dataset, mut define: impl FnMut(&str, bool)) {
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        define(&format!("attr_{i}"), *ty == AttrType::Text);
    }
}

/// A text value's strings.
fn strings(v: &Value) -> &[String] {
    match v {
        Value::Text(strings) => strings,
        Value::Num(_) => &[],
    }
}

#[test]
#[ignore]
fn dictionary_seed_on_perf_data() {
    let dataset = Dataset::generate(&WorkloadConfig::scaled(20_000));
    let pager = PagerOptions {
        page_size: 4096,
        cache_bytes: 256 << 20,
    };
    let mut table = SwtTable::create_mem(&pager, IoStats::new()).unwrap();
    define(&dataset, |name, text| match text {
        true => drop(table.define_text(name).unwrap()),
        false => drop(table.define_numeric(name).unwrap()),
    });
    for t in &dataset.tuples {
        table.insert(t).unwrap();
    }
    let config = IvaConfig::default();
    let index = build_index(&table, IndexTarget::Mem, &pager, IoStats::new(), config).unwrap();
    let lists = sectioned(&index);
    let text_lists = (0..index.n_attrs())
        .filter_map(|a| index.attr_entry(AttrId(a as u32)))
        .filter(|e| e.is_text && e.df > 0)
        .count();
    for (a, added) in &lists {
        let e = index.attr_entry(AttrId(*a as u32)).unwrap();
        // Entries by string against entries by signature: the estimates a
        // probe makes against those of a signature-keyed dictionary.
        let values = dataset
            .tuples
            .iter()
            .filter_map(|t| t.get(AttrId(*a as u32)));
        let texts: BTreeSet<&String> = values.flat_map(strings).collect();
        let sigs: BTreeSet<Vec<u8>> = texts
            .iter()
            .map(|s| config.sig_codec().encode_to_vec(s.as_bytes()))
            .collect();
        println!(
            "attr_{a}: df {}, list {} B, sections +{added} B, D {} strings / {} signatures",
            e.df,
            e.vlist.len,
            texts.len(),
            sigs.len()
        );
    }
    let added: u64 = lists.iter().map(|(_, b)| b).sum();
    println!(
        "read_packed / read_hot: {} of {text_lists} text lists with string sections, \
         +{added} B on an index of {} B",
        lists.len(),
        index.size_bytes()
    );

    let queries = zipf_queries(&dataset, 128);
    let on_list = |q: &&Query| {
        q.iter()
            .any(|(qa, _)| lists.iter().any(|(a, _)| qa.index() == *a))
    };
    let on_sections: Vec<&Query> = queries.iter().filter(on_list).collect();
    println!(
        "{} of {} queries on lists with string sections",
        on_sections.len(),
        queries.len()
    );
    let (mut probe, mut bound, mut within, mut distinct) = (vec![], vec![], vec![], vec![]);
    let (mut admits, mut fetches, mut micros) = (vec![], vec![], vec![]);
    let mut weighed = vec![];
    // Per attribute: (queries, 256-blocks, 1,024-frames) with no position
    // at or below `B`, summed.
    let mut empty: BTreeMap<usize, (usize, usize, usize)> = BTreeMap::new();
    for q in &on_sections {
        let Some((attr, QueryValue::Text(s))) = q.iter().next() else {
            continue;
        };
        let runs: Vec<_> = (0..7)
            .map(|_| {
                let out = index.query(&table, q, 10, &MetricKind::L2, WeightScheme::Equal);
                out.unwrap().stats
            })
            .collect();
        probe.push(runs[0].dict_distances);
        weighed.push(runs[0].positions_weighed);
        admits.push(runs[0].walk_admits);
        fetches.push(runs[0].table_accesses);
        micros.push(
            runs.iter()
                .map(|r| r.filter_nanos + r.refine_nanos)
                .min()
                .unwrap()
                / 1000,
        );
        // `B`: the 10th smallest first-string distance (nothing is deleted).
        let values: Vec<&Value> = dataset.tuples.iter().filter_map(|t| t.get(attr)).collect();
        let mut first: Vec<usize> = values
            .iter()
            .map(|v| edit_distance(s, &strings(v)[0]))
            .collect();
        first.sort_unstable();
        let b = first[9];
        let qv = QueryValue::Text(s.clone());
        let near: Vec<&&Value> = values
            .iter()
            .filter(|v| attr_difference(Some(v), &qv, 0.0) <= b as f64)
            .collect();
        let kinds: BTreeSet<&[String]> = near.iter().map(|v| strings(v)).collect();
        bound.push(b as u64);
        within.push(near.len() as u64);
        distinct.push(kinds.len() as u64);
        // The ideal candidates: every tuple-list position (a tid, in row
        // order) whose exact distance is at or below `B`.
        let ndf = config.ndf_penalty;
        let cand: Vec<bool> = (dataset.tuples.iter())
            .map(|t| attr_difference(t.get(attr), &qv, ndf) <= b as f64)
            .collect();
        let none_in = |n: usize| cand.chunks(n).filter(|c| !c.contains(&true)).count();
        let e = empty.entry(attr.index()).or_default();
        *e = (e.0 + 1, e.1 + none_in(256), e.2 + none_in(1024));
    }
    println!("probe edit distances: {}", spread(probe));
    println!("B (edits): {}", spread(bound));
    println!("values at or below B: {}", spread(within));
    println!("distinct values at or below B: {}", spread(distinct));
    println!("walk admits: {}", spread(admits));
    println!("positions weighed: {}", spread(weighed));
    let n = dataset.tuples.len();
    for (a, (queries, blocks, frames)) in empty {
        let share =
            |empty: usize, size: usize| 100.0 * empty as f64 / (queries * n.div_ceil(size)) as f64;
        println!(
            "attr_{a} ({queries} queries): no position at or below B in {:.1} % of 256-position \
             blocks, {:.1} % of 1,024-position frames",
            share(blocks, 256),
            share(frames, 1024)
        );
    }
    println!("fetches: {}", spread(fetches));
    println!("filter + refine CPU us (fastest of 7): {}", spread(micros));

    // `mixed_lsm`'s preload: every insert through the write path.
    let mut lsm = LsmDb::create_mem(LsmOptions {
        pager,
        memtable_limit: 256,
        compact_fanout: 4,
        ..LsmOptions::default()
    })
    .unwrap();
    define(&dataset, |name, text| match text {
        true => drop(lsm.define_text(name).unwrap()),
        false => drop(lsm.define_numeric(name).unwrap()),
    });
    for t in dataset.tuples.iter().take(2_000) {
        lsm.insert(t).unwrap();
        lsm.maintain().unwrap();
    }
    let per_segment: Vec<usize> = lsm
        .segments()
        .iter()
        .map(|s| sectioned(s.searchable().unwrap().0).len())
        .collect();
    println!(
        "mixed_lsm after its preload: {} segments; lists with string sections per segment: {per_segment:?}",
        per_segment.len()
    );
}
