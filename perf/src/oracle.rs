//! The correctness gate: brute-force top-k over the harness's own list of
//! live tuples, compared with the engine's answers by tuple id and
//! distance bits.

use iva_core::{exact_distance, MetricKind, Query, ResultPool};
use iva_file::{EngineOutcome, SearchOutcome};
use iva_swt::{Tid, Tuple};
use iva_text::fnv1a64;

/// Results per query.
pub const K: usize = 10;

/// One ranked answer as `(tid, distance bits)` pairs.
pub type Answer = Vec<(u64, u64)>;

/// The `(tid, distance bits)` pairs of an engine outcome, rank order.
pub fn answer_of(outcome: &SearchOutcome) -> Answer {
    outcome
        .hit_keys()
        .into_iter()
        .map(|(dist, tid, _)| (tid, dist))
        .collect()
}

/// The live list in scan (tid) order, as [`brute_force`] needs it.
pub fn in_tid_order(live: &[(Tid, Tuple)]) -> Vec<&(Tid, Tuple)> {
    let mut ordered: Vec<&(Tid, Tuple)> = live.iter().collect();
    ordered.sort_by_key(|(tid, _)| *tid);
    ordered
}

/// Exact top-`K` of `query` over `live` under L2 with equal weights.
///
/// `live` must be in ascending tid order: the engine's pool admits on
/// strictly smaller distance, so ties at the k-th place go to whichever
/// tuple the scan met first, and the scan runs in tid order.
pub fn brute_force(live: &[&(Tid, Tuple)], query: &Query, ndf_penalty: f64) -> Answer {
    let weights = vec![1.0; query.len()];
    let distance =
        |tuple: &Tuple| exact_distance(tuple, query, &weights, &MetricKind::L2, ndf_penalty);
    // Most tuples define none of the query's attributes and all sit at
    // one distance; taking it from the same function keeps its bits.
    let all_ndf = distance(&Tuple::new());
    let mut pool = ResultPool::new(K);
    for (tid, tuple) in live {
        let defines_any = query.iter().any(|(attr, _)| tuple.get(attr).is_some());
        pool.insert(
            *tid,
            if defines_any {
                distance(tuple)
            } else {
                all_ndf
            },
        );
    }
    pool.into_sorted()
        .into_iter()
        .map(|e| (e.tid, e.dist.to_bits()))
        .collect()
}

/// Order-sensitive hash of a sequence of answers (`answers_digest`):
/// two commits that print the same digest gave bit-identical answers to
/// every measured read.
pub fn digest<'a>(answers: impl IntoIterator<Item = &'a Answer>) -> u64 {
    let mut bytes = Vec::new();
    for answer in answers {
        bytes.extend_from_slice(&(answer.len() as u64).to_le_bytes());
        for (tid, dist) in answer {
            bytes.extend_from_slice(&tid.to_le_bytes());
            bytes.extend_from_slice(&dist.to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iva_swt::{AttrId, Value};

    #[test]
    fn ties_at_the_kth_place_go_to_the_lowest_tids() {
        let a = AttrId(0);
        // Listed newest first; every third tuple lacks the attribute.
        let live: Vec<(Tid, Tuple)> = (0..30)
            .rev()
            .map(|tid| match tid % 3 {
                2 => (tid, Tuple::new()),
                _ => (tid, Tuple::new().with(a, Value::num(5.0))),
            })
            .collect();
        let got = brute_force(&in_tid_order(&live), &Query::new().num(a, 5.0), 20.0);
        let tids: Vec<u64> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(tids, vec![0, 1, 3, 4, 6, 7, 9, 10, 12, 13]);
        assert!(got.iter().all(|(_, d)| *d == 0f64.to_bits()));
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let x: Answer = vec![(1, 2), (3, 4)];
        let y: Answer = vec![(3, 4), (1, 2)];
        assert_eq!(digest([&x, &y]), digest([&x, &y]));
        assert_ne!(digest([&x, &y]), digest([&y, &x]));
        assert_ne!(digest([&x]), digest([&x, &Vec::new()]));
    }
}
