//! The generated inputs: query lists and the write-op stream. Everything
//! here is a pure function of the dataset and a seed, so one seed gives
//! one byte-identical op sequence on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iva_core::Query;
use iva_swt::{encode_record, AttrId, Tuple, Value};
use iva_workload::{apply_typo, generate_query_set, Dataset, Zipf};

/// Rows of the dataset that define each attribute, ascending.
pub fn postings(dataset: &Dataset) -> Vec<Vec<u32>> {
    let mut by_attr = vec![Vec::new(); dataset.attr_types.len()];
    for (row, tuple) in dataset.tuples.iter().enumerate() {
        for (attr, _) in tuple.iter() {
            if let Some(rows) = by_attr.get_mut(attr.index()) {
                rows.push(row as u32);
            }
        }
    }
    by_attr
}

/// Attribute ids by descending document frequency (ties by id), without
/// the attributes no tuple defines.
pub fn popularity_order(postings: &[Vec<u32>]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..postings.len() as u32)
        .filter(|&a| postings.get(a as usize).is_some_and(|p| !p.is_empty()))
        .collect();
    order.sort_by_key(|&a| {
        let df = postings.get(a as usize).map_or(0, Vec::len);
        (std::cmp::Reverse(df), a)
    });
    order
}

/// `n` distinct-by-position queries of three values each, sampled from
/// the data distribution (the paper's Sec. V-A query set).
pub fn cold_queries(dataset: &Dataset, n: usize, seed: u64) -> Vec<Query> {
    generate_query_set(dataset, 3, n, 0, seed).queries
}

/// `n` single-value queries whose attribute is drawn Zipf(`s`) over the
/// popularity ranking and whose value is copied from a random tuple that
/// defines it: dense lists, tight thresholds.
pub fn zipf_queries(
    dataset: &Dataset,
    postings: &[Vec<u32>],
    n: usize,
    s: f64,
    seed: u64,
) -> Vec<Query> {
    let order = popularity_order(postings);
    let zipf = Zipf::new(order.len().max(1), s);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n && !order.is_empty() {
        let Some(&attr) = order.get(zipf.sample(&mut rng)) else {
            continue;
        };
        let Some(rows) = postings.get(attr as usize).filter(|r| !r.is_empty()) else {
            continue;
        };
        let row = rows.get(rng.random_range(0..rows.len())).copied();
        let value = row
            .and_then(|r| dataset.tuples.get(r as usize))
            .and_then(|t| t.get(AttrId(attr)));
        match value {
            Some(Value::Text(strings)) if !strings.is_empty() => {
                let s = strings.get(rng.random_range(0..strings.len()));
                if let Some(s) = s {
                    out.push(Query::new().text(AttrId(attr), s.clone()));
                }
            }
            Some(Value::Num(v)) => out.push(Query::new().num(AttrId(attr), *v)),
            _ => {}
        }
    }
    out
}

/// A seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// One mutation of the write stream. Victims are named by their slot in
/// the harness's live list, so the stream does not depend on the tuple
/// ids the engine hands out.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert a tuple.
    Insert(Tuple),
    /// Replace the tuple in live slot `.0` (delete + insert, Sec. IV-B).
    Update(usize, Tuple),
    /// Delete the tuple in live slot `.0` (the last slot moves into it).
    Delete(usize),
}

/// A repost of `tuple` with one value changed the way a person would:
/// a typo in a string, a nudged number.
fn perturbed(rng: &mut StdRng, tuple: &Tuple) -> Tuple {
    let mut out = tuple.clone();
    let attrs: Vec<AttrId> = tuple.iter().map(|(a, _)| a).collect();
    if attrs.is_empty() {
        return out;
    }
    let Some(&attr) = attrs.get(rng.random_range(0..attrs.len())) else {
        return out;
    };
    match tuple.get(attr) {
        Some(Value::Text(strings)) if !strings.is_empty() => {
            let mut strings = strings.clone();
            let i = rng.random_range(0..strings.len());
            if let Some(s) = strings.get_mut(i) {
                *s = apply_typo(rng, s);
            }
            out.set(attr, Value::Text(strings));
        }
        Some(Value::Num(v)) => {
            out.set(attr, Value::Num(v + 1.0));
        }
        _ => {}
    }
    out
}

/// Seed of the write stream's shape: which op is an insert, which an
/// update, which a delete.
const SHAPE_SEED: u64 = 0x5712_EA4D;

/// The write stream: 70 % inserts (first the dataset rows from `fresh`
/// on, which the preload left out, then perturbed reposts), 15 %
/// updates, 15 % deletes, over a live list that starts `live_len` long.
///
/// The sequence of op kinds and the rows reposts are made from are the
/// same for every seed, so the record count at each position — and with
/// it every seal and merge of an LSM store — falls on the same op in
/// every run, and an insert is as wide under one seed as under another.
/// `seed` picks the victims of updates and deletes and what the reposts
/// change.
pub fn write_stream(
    dataset: &Dataset,
    mut fresh: usize,
    mut live_len: usize,
    n_ops: usize,
    seed: u64,
) -> Vec<WriteOp> {
    let mut shape = StdRng::seed_from_u64(SHAPE_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    let repost = |shape: &mut StdRng, rng: &mut StdRng| {
        let row = shape.random_range(0..dataset.tuples.len().max(1));
        dataset
            .tuples
            .get(row)
            .map_or_else(Tuple::new, |t| perturbed(rng, t))
    };
    let mut out = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let kind = shape.random_range(0..100u32);
        if kind < 70 || live_len == 0 {
            let tuple = match dataset.tuples.get(fresh) {
                Some(t) => {
                    fresh += 1;
                    t.clone()
                }
                None => repost(&mut shape, &mut rng),
            };
            out.push(WriteOp::Insert(tuple));
            live_len += 1;
        } else if kind < 85 {
            let slot = rng.random_range(0..live_len);
            out.push(WriteOp::Update(slot, repost(&mut shape, &mut rng)));
        } else {
            out.push(WriteOp::Delete(rng.random_range(0..live_len)));
            live_len -= 1;
        }
    }
    out
}

/// The stream as bytes (tag, slot, record), for comparing two streams.
pub fn encode_stream(ops: &[WriteOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        let (tag, slot, tuple) = match op {
            WriteOp::Insert(t) => (0u8, 0usize, Some(t)),
            WriteOp::Update(s, t) => (1, *s, Some(t)),
            WriteOp::Delete(s) => (2, *s, None),
        };
        out.push(tag);
        out.extend_from_slice(&(slot as u64).to_le_bytes());
        if let Some(t) = tuple {
            // Generated tuples always encode; an oversized one would have
            // failed the insert it was cloned from.
            let _ = encode_record(t, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iva_workload::WorkloadConfig;

    fn dataset(seed: u64) -> Dataset {
        let mut cfg = WorkloadConfig::scaled(400);
        cfg.seed = seed;
        Dataset::generate(&cfg)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let ds = dataset(1);
        let a = write_stream(&ds, 300, 300, 500, 42);
        let b = write_stream(&ds, 300, 300, 500, 42);
        assert_eq!(encode_stream(&a), encode_stream(&b));
        let c = write_stream(&ds, 300, 300, 500, 43);
        assert_ne!(encode_stream(&a), encode_stream(&c));
        // Another seed moves victims and payloads, not the op kinds.
        let kinds = |ops: &[WriteOp]| -> Vec<u8> {
            ops.iter()
                .map(|op| match op {
                    WriteOp::Insert(_) => 0,
                    WriteOp::Update(..) => 1,
                    WriteOp::Delete(_) => 2,
                })
                .collect()
        };
        assert_eq!(kinds(&a), kinds(&c));
    }

    #[test]
    fn stream_slots_stay_inside_the_live_list() {
        let ds = dataset(2);
        let mut live = 5usize;
        let mut kinds = [0usize; 3];
        for op in write_stream(&ds, 400, live, 2_000, 7) {
            match op {
                WriteOp::Insert(_) => {
                    live += 1;
                    kinds[0] += 1;
                }
                WriteOp::Update(slot, _) => {
                    assert!(slot < live);
                    kinds[1] += 1;
                }
                WriteOp::Delete(slot) => {
                    assert!(slot < live);
                    live -= 1;
                    kinds[2] += 1;
                }
            }
        }
        // 70 / 15 / 15 within sampling noise.
        assert!((1_300..1_500).contains(&kinds[0]), "{kinds:?}");
        assert!((230..370).contains(&kinds[1]), "{kinds:?}");
        assert!((230..370).contains(&kinds[2]), "{kinds:?}");
    }

    #[test]
    fn fresh_rows_come_first_then_reposts() {
        let ds = dataset(3);
        let ops = write_stream(&ds, 398, 398, 50, 9);
        let inserts: Vec<&Tuple> = ops
            .iter()
            .filter_map(|op| match op {
                WriteOp::Insert(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(inserts[0], &ds.tuples[398]);
        assert_eq!(inserts[1], &ds.tuples[399]);
        assert!(inserts.len() > 2);
    }

    #[test]
    fn query_lists_are_deterministic_and_shaped() {
        let ds = dataset(4);
        let post = postings(&ds);
        let a = zipf_queries(&ds, &post, 64, 1.2, 5);
        assert_eq!(a, zipf_queries(&ds, &post, 64, 1.2, 5));
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|q| q.len() == 1));
        let order = popularity_order(&post);
        assert!(post[order[0] as usize].len() >= post[order[1] as usize].len());
        let c = cold_queries(&ds, 16, 5);
        assert_eq!(c, cold_queries(&ds, 16, 5));
        assert!(c.iter().all(|q| q.len() == 3));

        let mut x: Vec<u32> = (0..50).collect();
        let mut y = x.clone();
        shuffle(&mut x, 9);
        shuffle(&mut y, 9);
        assert_eq!(x, y);
        assert_ne!(x, (0..50).collect::<Vec<u32>>());
        x.sort_unstable();
        assert_eq!(x, (0..50).collect::<Vec<u32>>());
    }
}
