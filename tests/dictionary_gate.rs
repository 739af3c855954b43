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
//! Then the postings (format v7): per list, its (string, position) pairs
//! and the bytes its postings section takes by the format's layout, in
//! total against the index's bytes; and per seeded query that leaps, its
//! candidates (the positions holding a value at or below `B`, which it
//! weighs), the tuple-list positions it scans, the directory frames that
//! hold a candidate — the only ones it loads; it loads no vector-list
//! frame, which `scan::tests::a_leaping_query_reads_only_the_frames_its_candidates_need`
//! pins by the list-byte counter — and the list bytes it reads. Last, that
//! no `mixed_lsm` segment list carries string sections, and so postings.
//!
//! A second gate runs `read_cold`'s pool over the same build: 200
//! three-value queries (`generate_query_set`, seed 0x5EED_0F0E), serial,
//! k = 10, L2, equal weights. Per query it prints the fetches, the
//! positions weighed, the pool entries the walk admitted without a fetch,
//! the dictionary edit distances those cost, and the filter and refine CPU
//! of the fastest of 5 runs — the filter CPU also grouped by the query's
//! *ndf* ceiling at its final D_k (the positions whose *ndf* pattern alone
//! passes it: under 2,000, 2,000–10,000, 10,000 or more). It then replays Algorithm 1 as it runs where the walk decides only the
//! positions *ndf* on every query attribute — the estimates and the one
//! drain of a serial lane — and prints which of the records that refines
//! the index could decide: every query attribute they define is on a list
//! whose dictionary holds strings (DESIGN.md §13).
//!
//! `cargo test --release --offline --test dictionary_gate -- --ignored --nocapture`

use std::collections::{BTreeMap, BTreeSet};

use iva_core::{
    attr_difference, build_index, encode_packed_text_list, exact_distance, export_index,
    IndexTarget, IvaIndex, ListType, NumericCodec, ResultPool,
};
use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{
    AttrId, AttrType, IoStats, IvaConfig, LsmDb, LsmOptions, Metric, MetricKind, PagerOptions,
    Query, QueryValue, SwtTable, Tuple, Value, WeightScheme,
};
use iva_storage::compress::{bit_width, packed_len};
use iva_text::{edit_distance, PreparedMatcher};
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

/// `mean / median / p90 / p95 / max`.
fn spread(mut v: Vec<u64>) -> String {
    v.sort_unstable();
    let at = |p: usize| v[(v.len() - 1) * p / 100];
    let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
    format!(
        "mean {mean:.1} / median {} / p90 {} / p95 {} / max {}",
        at(50),
        at(90),
        at(95),
        at(100)
    )
}

/// Pages of 4 KiB and a cache larger than the store.
fn perf_pager() -> PagerOptions {
    PagerOptions {
        page_size: 4096,
        cache_bytes: 256 << 20,
    }
}

/// `perf/`'s 20,000-tuple dataset in a table, and one bulk build of its
/// index, as `read_packed` and `read_cold` load their store.
fn perf_store() -> (Dataset, SwtTable, IvaIndex) {
    let dataset = Dataset::generate(&WorkloadConfig::scaled(20_000));
    let pager = perf_pager();
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
    (dataset, table, index)
}

/// The text attributes of `index` whose lists carry string sections, with
/// the bytes those add over the signature-only frames (the image less its
/// 8-byte logical-length prologue).
fn sectioned(index: &IvaIndex) -> Vec<(usize, u64)> {
    let exported = export_index(index).unwrap();
    let all_tids: Vec<u32> = exported.tuple_entries.iter().map(|(t, _)| *t).collect();
    let attrs = exported.attrs.iter().enumerate();
    let text = attrs.filter(|(_, a)| a.is_text && !a.text_postings.is_empty());
    text.filter_map(|(a, attr)| {
        let image = encode_packed_text_list(attr.list_type, &attr.text_postings, &all_tids);
        let plain = image.len() as u64 - 8;
        let stored = index.attr_entry(AttrId(a as u32)).unwrap().vlist.len;
        (stored > plain).then(|| (a, stored - plain))
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
    let (dataset, table, index) = perf_store();
    let (config, pager) = (IvaConfig::default(), perf_pager());
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
    // The postings section by the format's layout: `[covered][raw]`, the
    // `[D u32][bw u8][n × D]` run lengths, the positions at ⌈log₂ n⌉ bits.
    let n = dataset.tuples.len();
    let mut postings = 0;
    for (a, _) in &lists {
        let values = dataset
            .tuples
            .iter()
            .filter_map(|t| t.get(AttrId(*a as u32)));
        let mut runs: BTreeMap<&String, usize> = BTreeMap::new();
        for v in values {
            let distinct: BTreeSet<&String> = strings(v).iter().collect();
            distinct
                .into_iter()
                .for_each(|s| *runs.entry(s).or_default() += 1);
        }
        let pairs: usize = runs.values().sum();
        let longest = runs.values().max().copied().unwrap_or(0) as u64;
        let width = bit_width(n as u64 - 1);
        let bytes = 16 + 5 + packed_len(runs.len(), bit_width(longest)) + packed_len(pairs, width);
        postings += bytes;
        println!("attr_{a}: {pairs} (string, position) pairs, postings {bytes} B at {width} bits");
    }
    println!(
        "postings: {postings} B in all, {:.2} % of the index's {} B",
        100.0 * postings as f64 / index.size_bytes() as f64,
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
    let (mut cands, mut scanned, mut dir_frames, mut list_bytes) = (vec![], vec![], vec![], vec![]);
    // Per attribute: (queries, 256-blocks, 1,024-frames) with no position
    // at or below `B`, summed.
    let mut empty: BTreeMap<usize, (usize, usize, usize)> = BTreeMap::new();
    for q in &on_sections {
        let Some((attr, QueryValue::Text(s))) = q.iter().next() else {
            continue;
        };
        let before = index.io_stats().snapshot();
        let runs: Vec<_> = (0..7)
            .map(|_| {
                let out = index.query(&table, q, 10, &MetricKind::L2, WeightScheme::Equal);
                out.unwrap().stats
            })
            .collect();
        let read = index
            .io_stats()
            .snapshot()
            .since(&before)
            .logical_list_bytes
            / 7;
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
        if runs[0].tuples_scanned < n as u64 {
            cands.push(cand.iter().filter(|&&c| c).count() as u64);
            scanned.push(runs[0].tuples_scanned);
            dir_frames.push((n.div_ceil(1024) - none_in(1024)) as u64);
            list_bytes.push(read);
        }
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
    println!(
        "{} of {} seeded queries leap:",
        cands.len(),
        on_sections.len()
    );
    println!("  candidates: {}", spread(cands));
    println!("  tuple-list positions scanned: {}", spread(scanned));
    println!(
        "  directory frames loaded (of {}): {}; vector-list frames loaded: 0",
        n.div_ceil(1024),
        spread(dir_frames)
    );
    println!(
        "  list bytes read (dictionary + directory): {}",
        spread(list_bytes)
    );

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
        "mixed_lsm after its preload: {} segments; lists with string sections, \
         and so postings, per segment: {per_segment:?}",
        per_segment.len()
    );
    assert!(per_segment.iter().all(|&lists| lists == 0));
}

/// How the filter bounds one query value's difference, for the replay.
enum Estimate {
    /// The value's matcher, and whether its list is Type II (where no
    /// finite estimate reads as *ndf*).
    Text(PreparedMatcher, bool),
    Num(NumericCodec, f64),
}

/// The records Algorithm 1 refines for `q` over `index`'s bulk build of
/// `dataset` where the walk decides only positions *ndf* on every query
/// attribute: each position's estimate from its signatures and its
/// relative-domain codes; the live pool admitting at the estimate; and
/// one drain, as a serial lane runs it — the k smallest `(est, tid)`
/// pending refined first, then the rest in scan order, each only while
/// the pool still admits it and above that cut. By row, in refine order.
fn refined_deciding_ndf_only(
    dataset: &Dataset,
    index: &IvaIndex,
    q: &Query,
    lambda: &[f64],
    k: usize,
) -> Vec<usize> {
    let config = index.config();
    let (codec, ndf, metric) = (config.sig_codec(), config.ndf_penalty, MetricKind::L2);
    let estimates: Vec<Estimate> = q
        .iter()
        .map(|(attr, qv)| {
            let e = index.attr_entry(attr).unwrap();
            match qv {
                QueryValue::Text(s) => Estimate::Text(
                    PreparedMatcher::new(&codec, s.as_bytes()),
                    e.list_type == ListType::II,
                ),
                QueryValue::Num(x) => {
                    let bytes = config.numeric_code_bytes();
                    Estimate::Num(NumericCodec::new(e.min, e.max, bytes), *x)
                }
            }
        })
        .collect();
    let bound = |t: &Tuple, (attr, est): (AttrId, &Estimate)| match (t.get(attr), est) {
        (Some(Value::Text(strings)), Estimate::Text(m, type_ii)) => {
            let sig = |s: &String| m.estimate(&codec.encode_to_vec(s.as_bytes())).unwrap();
            let best = strings.iter().map(sig).fold(f64::INFINITY, f64::min);
            (!strings.is_empty() && (!*type_ii || best.is_finite())).then_some(best)
        }
        (Some(Value::Num(v)), Estimate::Num(c, x)) => Some(c.lower_bound_dist(c.encode(*v), *x)),
        _ => None,
    };
    let mut pool = ResultPool::new(k);
    let mut pending: Vec<(f64, u64)> = Vec::new();
    let mut diffs = vec![0.0; q.len()];
    for (row, t) in dataset.tuples.iter().enumerate() {
        let tid = row as u64;
        let mut exact = true;
        let attrs = q.iter().map(|(a, _)| a).zip(&estimates);
        for ((d, &lam), b) in diffs
            .iter_mut()
            .zip(lambda)
            .zip(attrs.map(|ae| bound(t, ae)))
        {
            exact &= b.is_none();
            *d = lam * b.unwrap_or(ndf);
        }
        let est = metric.combine(&diffs);
        if exact {
            pool.insert(tid, est);
        } else if pool.admits_at(est, tid) {
            pending.push((est, tid));
        }
    }
    let mut refined = Vec::new();
    let mut refine = |pool: &mut ResultPool, (est, tid): (f64, u64)| {
        if pool.admits_at(est, tid) {
            let t = &dataset.tuples[tid as usize];
            pool.insert(tid, exact_distance(t, q, lambda, &metric, ndf));
            refined.push(tid as usize);
        }
    };
    let mut best = ResultPool::new(k);
    for &(est, tid) in &pending {
        best.insert(tid, est);
    }
    let mut probe: Vec<(f64, u64)> = best.into_sorted().iter().map(|e| (e.dist, e.tid)).collect();
    let cut = (pending.len() >= k)
        .then(|| probe.last().copied())
        .flatten();
    probe.sort_by_key(|&(_, tid)| tid);
    probe.into_iter().for_each(|c| refine(&mut pool, c));
    if let Some(cut) = cut {
        let above =
            |&&(est, tid): &&(f64, u64)| est.total_cmp(&cut.0).then(tid.cmp(&cut.1)).is_gt();
        pending
            .iter()
            .filter(above)
            .for_each(|&c| refine(&mut pool, c));
    }
    refined
}

#[test]
#[ignore]
fn exact_from_the_dictionary_on_read_cold() {
    let (dataset, table, index) = perf_store();
    let coded: BTreeSet<usize> = sectioned(&index).into_iter().map(|(a, _)| a).collect();
    let queries = generate_query_set(&dataset, 3, 200, 0, 0x5EED_0F0E).queries;
    let (k, runs, ndf) = (10, 5, index.config().ndf_penalty);
    let (mut fetches, mut admits, mut distances) = (vec![], vec![], vec![]);
    let (mut filter, mut refine, mut cpu) = (vec![], vec![], vec![]);
    let (mut replayed, mut decidable) = (vec![], vec![]);
    let (mut weighed, mut ceilings) = (vec![], vec![]);
    for q in &queries {
        let outs: Vec<_> = (0..runs)
            .map(|_| {
                let out = index.query(&table, q, k, &MetricKind::L2, WeightScheme::Equal);
                out.unwrap()
            })
            .collect();
        let fastest = (outs.iter().map(|o| &o.stats))
            .min_by_key(|s| s.filter_nanos + s.refine_nanos)
            .unwrap();
        let stats = &outs[0].stats;
        fetches.push(stats.table_accesses);
        admits.push(stats.walk_admits);
        distances.push(stats.dict_distances);
        weighed.push(stats.positions_weighed);
        filter.push(fastest.filter_nanos / 1000);
        refine.push(fastest.refine_nanos / 1000);
        cpu.push((fastest.filter_nanos + fastest.refine_nanos) / 1000);
        let lambda = index.resolve_weights(&table, q, WeightScheme::Equal);
        // The ndf ceiling at the final D_k: the positions whose *ndf*
        // pattern alone — λ·ndf where undefined, 0 elsewhere — passes it.
        let d_k = outs[0].results.last().map_or(f64::INFINITY, |e| e.dist);
        let pattern = |t: &Tuple| {
            let terms = q.iter().zip(&lambda);
            let diffs: Vec<f64> = terms
                .map(|((a, _), lam)| if t.get(a).is_some() { 0.0 } else { lam * ndf })
                .collect();
            MetricKind::L2.combine(&diffs)
        };
        ceilings.push(dataset.tuples.iter().filter(|t| pattern(t) <= d_k).count());
        let rows = refined_deciding_ndf_only(&dataset, &index, q, &lambda, k);
        // Every query attribute the record defines holds strings.
        let known = |&&row: &&usize| {
            let t = &dataset.tuples[row];
            q.iter()
                .all(|(a, _)| t.get(a).is_none() || coded.contains(&a.index()))
        };
        replayed.push(rows.len() as u64);
        decidable.push(rows.iter().filter(known).count() as u64);
    }
    let all_values = queries.len() * 3;
    let on_coded: usize = (queries.iter())
        .map(|q| q.iter().filter(|(a, _)| coded.contains(&a.index())).count())
        .sum();
    println!(
        "read_cold pool: {} queries, {on_coded} of {all_values} values on the {} lists \
         whose dictionaries hold strings",
        queries.len(),
        coded.len()
    );
    println!("fetches: {}", spread(fetches.clone()));
    println!("positions weighed: {}", spread(weighed));
    println!("walk admits: {}", spread(admits));
    println!("dictionary edit distances: {}", spread(distances.clone()));
    let total: u64 = filter.iter().sum();
    for (name, range) in [
        ("< 2,000", 0..2_000),
        ("2,000-10,000", 2_000..10_000),
        (">= 10,000", 10_000..usize::MAX),
    ] {
        let group: Vec<u64> = (filter.iter().zip(&ceilings))
            .filter(|(_, c)| range.contains(c))
            .map(|(&f, _)| f)
            .collect();
        let sum: u64 = group.iter().sum();
        println!(
            "filter CPU us, ndf ceiling at the final D_k {name} positions: {} queries, \
             mean {:.0}, {:.1} % of the pool's",
            group.len(),
            sum as f64 / group.len().max(1) as f64,
            100.0 * sum as f64 / total.max(1) as f64
        );
    }
    println!("filter CPU us (fastest of {runs}): {}", spread(filter));
    println!("refine CPU us (fastest of {runs}): {}", spread(refine));
    println!(
        "filter + refine CPU us (fastest of {runs}): {}",
        spread(cpu)
    );
    let (all, known): (u64, u64) = (replayed.iter().sum(), decidable.iter().sum());
    println!(
        "deciding only ndf positions, Algorithm 1 refines {}; of those records the index \
         decides {known} of {all} ({:.1} %)",
        spread(replayed.clone()),
        100.0 * known as f64 / all.max(1) as f64
    );
    let saved: u64 = replayed.iter().sum::<u64>() - fetches.iter().sum::<u64>().min(all);
    println!(
        "dictionary edit distances {} against {saved} fetches saved",
        distances.iter().sum::<u64>()
    );
}
