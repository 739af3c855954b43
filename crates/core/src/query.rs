//! Structured similarity queries (Sec. III-A).
//!
//! A query defines values on a small subset of attributes — a string on a
//! text attribute or a number on a numerical one — and asks for the top-k
//! tuples under `D(T,Q) = f(λ₁d₁, …, λ_qd_q)`.
//!
//! Two routines compute `D(T,Q)`:
//!
//! * [`bounded_distance`] is what query execution runs (Algorithm 1 lines
//!   13–16). It reads the query's attributes straight out of the stored
//!   record's bytes ([`RecordView`]) and is told the result pool's
//!   admission bound for the tuple ([`crate::ResultPool::refine_cap`]),
//!   so it can stop as soon as the tuple provably cannot enter the pool.
//!   It returns the exact distance when that is below the bound and
//!   otherwise *some* value at or above it — which the pool rejects
//!   either way (DESIGN.md §15, "Refine on bytes").
//! * [`exact_distance`] is the reference oracle over a materialized
//!   [`Tuple`]: baselines, brute-force checks and tests.

use iva_swt::{AttrId, FieldLoc, RecordView, Tuple, Value, ValueRef};
use iva_text::{edit_distance_bytes, edit_distance_capped, PreparedPattern};

use crate::metric::Metric;

/// The value a query defines on one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A number on a numerical attribute.
    Num(f64),
    /// A single string on a text attribute.
    Text(String),
}

/// A structured similarity query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    values: Vec<(AttrId, QueryValue)>,
}

impl Query {
    /// Empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a string value (builder style).
    pub fn text(mut self, attr: AttrId, s: impl Into<String>) -> Self {
        self.set(attr, QueryValue::Text(s.into()));
        self
    }

    /// Define a numerical value (builder style).
    pub fn num(mut self, attr: AttrId, v: f64) -> Self {
        self.set(attr, QueryValue::Num(v));
        self
    }

    /// Define or replace a value.
    pub fn set(&mut self, attr: AttrId, value: QueryValue) {
        match self.values.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => self.values[i].1 = value,
            Err(i) => self.values.insert(i, (attr, value)),
        }
    }

    /// Number of defined values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no values are defined.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(attr, value)` in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &QueryValue)> {
        self.values.iter().map(|(a, v)| (*a, v))
    }
}

/// Exact per-attribute difference `d[A](T,Q)` (Sec. III-A): edit distance
/// minimum over the value's strings for text, absolute difference for
/// numbers, `ndf_penalty` for undefined cells.
pub fn attr_difference(value: Option<&Value>, qv: &QueryValue, ndf_penalty: f64) -> f64 {
    match (value, qv) {
        (None, _) => ndf_penalty,
        (Some(Value::Num(v)), QueryValue::Num(q)) => (q - v).abs(),
        (Some(Value::Text(strings)), QueryValue::Text(q)) => strings
            .iter()
            .map(|s| edit_distance_bytes(q.as_bytes(), s.as_bytes()) as f64)
            .fold(f64::INFINITY, f64::min),
        // Type mismatches cannot happen through the typed build/query APIs;
        // treat defensively as ndf.
        _ => ndf_penalty,
    }
}

/// Exact distance `D(T,Q)` given resolved weights (one `λ` per query value,
/// in query iteration order).
pub fn exact_distance<M: Metric>(
    tuple: &Tuple,
    query: &Query,
    weights: &[f64],
    metric: &M,
    ndf_penalty: f64,
) -> f64 {
    debug_assert_eq!(weights.len(), query.len());
    let mut diffs = Vec::with_capacity(query.len());
    for ((attr, qv), &w) in query.iter().zip(weights) {
        diffs.push(w * attr_difference(tuple.get(attr), qv, ndf_penalty));
    }
    metric.combine(&diffs)
}

/// The smallest whole number of edits `e ≤ max_edits` on query attribute
/// `slot` for which the tuple can no longer beat `threshold`:
/// `combine(diffs with diffs[slot] = λ·e) ≥ threshold`, every other entry
/// of `diffs` being either exact or a lower bound (0 for text attributes
/// not yet evaluated). `None` if even `max_edits` leaves it admissible.
///
/// Property 3.1 is all this uses: `combine` is monotone in each argument,
/// so the predicate is monotone in `e` and bisection finds its boundary;
/// a metric needs no method beyond `combine` to get threshold-aware
/// refinement.
fn edit_cap<M: Metric>(
    diffs: &mut [f64],
    slot: usize,
    lambda: f64,
    max_edits: usize,
    metric: &M,
    threshold: f64,
) -> Option<usize> {
    let mut hopeless = |e: usize| {
        if let Some(d) = diffs.get_mut(slot) {
            *d = lambda * e as f64;
        }
        metric.combine(diffs) >= threshold
    };
    if !hopeless(max_edits) {
        return None;
    }
    // Invariant: hopeless(hi), and lo == 0 or !hopeless(lo - 1).
    let (mut lo, mut hi) = (0, max_edits);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if hopeless(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// The smallest whole number of edits `e ≤ max_edits` on attribute `slot`
/// of a `scratch.len()`-value query at which, every other attribute at 0,
/// a tuple is past `threshold` — `combine ≥ threshold.next_up()` — or
/// `usize::MAX` if none is, and while `threshold` is `+∞` (a pool with room
/// admits any distance). An edit distance capped there is exact wherever
/// the tuple can still be admitted or tie. `scratch` is the caller's to
/// lend; its contents are overwritten.
pub(crate) fn edits_beyond<M: Metric>(
    scratch: &mut [f64],
    slot: usize,
    lambda: f64,
    max_edits: usize,
    metric: &M,
    threshold: f64,
) -> usize {
    if threshold == f64::INFINITY {
        return usize::MAX;
    }
    scratch.fill(0.0);
    let past = threshold.next_up();
    edit_cap(scratch, slot, lambda, max_edits, metric, past).unwrap_or(usize::MAX)
}

/// Refine-time distance `D(T,Q)` of the stored record `view`, bounded by
/// the result pool's admission `threshold`: the **exact** distance — bit
/// for bit what [`exact_distance`] returns on the decoded tuple — whenever
/// that is `< threshold`, and otherwise some value `≥ threshold`.
///
/// The query's attributes are found in one pass over the record's field
/// headers; nothing is decoded or allocated (`diffs`, one slot per query
/// value, and `locs` are the caller's reusable buffers). `patterns` holds
/// the query's prepared text values by slot (a slot it does not cover
/// gets the same distances from the query string). *ndf* and numeric
/// attributes are evaluated first. Each text attribute then gets a cap
/// (see `edit_cap`) from what is known so far, shrinking to the best
/// string found as a multi-string value is walked; the moment an
/// attribute's difference reaches its cap the partial combine has reached
/// the threshold, and by monotonicity so has the true distance.
#[allow(clippy::too_many_arguments)]
pub fn bounded_distance<M: Metric>(
    view: &RecordView<'_>,
    query: &Query,
    patterns: &[Option<&PreparedPattern>],
    weights: &[f64],
    metric: &M,
    ndf_penalty: f64,
    threshold: f64,
    diffs: &mut [f64],
    locs: &mut Vec<FieldLoc>,
) -> iva_swt::Result<f64> {
    debug_assert_eq!(weights.len(), query.len());
    debug_assert_eq!(diffs.len(), query.len());
    view.locate(query.iter().map(|(attr, _)| attr), locs)?;
    let located = || query.iter().zip(weights).zip(locs.iter());
    for ((((_, qv), &w), &loc), d) in located().zip(diffs.iter_mut()) {
        *d = match (view.value_at(loc), qv) {
            (Some(ValueRef::Num(v)), QueryValue::Num(q)) => w * (q - v).abs(),
            // Evaluated below; 0 is the lower bound until then.
            (Some(ValueRef::Text(_)), QueryValue::Text(_)) => 0.0,
            // ndf — or a type mismatch, which the typed build/query APIs
            // rule out; treated as ndf like `attr_difference` does.
            _ => w * ndf_penalty,
        };
    }
    for (slot, (((_, qv), &w), &loc)) in located().enumerate() {
        let (Some(ValueRef::Text(text)), QueryValue::Text(q)) = (view.value_at(loc), qv) else {
            continue;
        };
        let max_edits = q.len().max(text.max_len_bound());
        let cap = edit_cap(diffs, slot, w, max_edits, metric, threshold);
        let mut best = cap.unwrap_or(usize::MAX);
        let pattern = patterns.get(slot).copied().flatten();
        for s in text.strings() {
            best = match pattern {
                Some(p) => p.distance(s, best),
                None => edit_distance_capped(q.as_bytes(), s, best),
            };
        }
        if let Some(d) = diffs.get_mut(slot) {
            *d = w * best as f64;
        }
        if cap.is_some_and(|cap| best >= cap) {
            break;
        }
    }
    Ok(metric.combine(diffs))
}

/// Per-query measurement counters, used by the experiment harness to split
/// filtering from refinement as in Fig. 9/15 of the paper.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Tuple-list positions the walk handed to its lanes, a block at a
    /// time — every one, but for those a seeded walk leaps over (no
    /// candidate of its query's postings lies there); summed like
    /// `table_accesses`. A lane in a batch counts every block the batch
    /// walks.
    pub tuples_scanned: u64,
    /// Records fetched from the table file and refined (the paper's
    /// "table file accesses", Fig. 8), summed over the tiers of a
    /// segmented store. A property of the plan, not of the answer: a
    /// smaller drain window, or a store split into more tiers, fetches
    /// more; a batch member fetches what its solo run fetches.
    pub table_accesses: u64,
    /// Entries the walk put into the pool at a distance it knew exactly,
    /// with no fetch — a tuple *ndf* on every query attribute, or an
    /// admitted one whose every other value its lane's per-code tables
    /// decide from dictionary strings, in a 1-value or a multi-value
    /// query alike; summed like `table_accesses`.
    pub walk_admits: u64,
    /// Tuple-list positions the walk weighed: all but those a seeded
    /// lane's fill rejects — every code's bound in its table, or *ndf*,
    /// past the seed's cut — and those a leaping walk passes over; summed
    /// like `table_accesses`.
    pub positions_weighed: u64,
    /// Edit distances computed from dictionary strings: a 1-value text
    /// query's probe for its threshold before the walk, and the walk's
    /// per-code distances that decide an admitted position without a
    /// fetch; summed like `table_accesses`.
    pub dict_distances: u64,
    /// Always 0 — every plan fetches one admitted candidate at a time;
    /// retained until the benchmark drops
    /// `core.speculative_accesses_per_query`.
    pub speculative_accesses: u64,
    /// CPU time the issuing thread spent preparing the query, scanning the
    /// index and estimating distances, in nanos. A batch member reports
    /// every member's preparation plus the shared walk.
    pub filter_nanos: u64,
    /// CPU time the issuing thread spent on random table accesses and
    /// exact distances, in nanos; a batch member reports the batch's.
    pub refine_nanos: u64,
    /// *Logical* (raw-layout-equivalent) bytes of the lists behind this
    /// query's filter phase: the tuple list plus every query attribute's
    /// vector list at its uncompressed size, whatever encoding actually
    /// stores it. The denominator of the compression ratio.
    pub list_bytes_logical: u64,
    /// *Physical* page-padded bytes of the same lists as stored: each
    /// list's on-disk (possibly packed) size rounded up to whole pager
    /// pages. `list_bytes_logical / list_bytes_physical` > 1 means the
    /// packed encodings shrank this query's filter working set.
    pub list_bytes_physical: u64,
}

impl QueryStats {
    /// Filter time in milliseconds.
    pub fn filter_ms(&self) -> f64 {
        self.filter_nanos as f64 / 1e6
    }

    /// Refine time in milliseconds.
    pub fn refine_ms(&self) -> f64 {
        self.refine_nanos as f64 / 1e6
    }

    /// Total query time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        (self.filter_nanos + self.refine_nanos) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricKind;

    #[test]
    fn builder_sorts_and_replaces() {
        let q = Query::new()
            .num(AttrId(5), 1.0)
            .text(AttrId(1), "x")
            .num(AttrId(5), 2.0);
        assert_eq!(q.len(), 2);
        let attrs: Vec<u32> = q.iter().map(|(a, _)| a.0).collect();
        assert_eq!(attrs, vec![1, 5]);
        assert_eq!(q.iter().nth(1).unwrap().1, &QueryValue::Num(2.0));
    }

    #[test]
    fn attr_difference_cases() {
        assert_eq!(attr_difference(None, &QueryValue::Num(5.0), 20.0), 20.0);
        assert_eq!(
            attr_difference(Some(&Value::num(3.0)), &QueryValue::Num(5.0), 20.0),
            2.0
        );
        let v = Value::texts(["Canon", "Cannon"]);
        assert_eq!(
            attr_difference(Some(&v), &QueryValue::Text("Canon".into()), 20.0),
            0.0
        );
        let v = Value::text("Cannon");
        assert_eq!(
            attr_difference(Some(&v), &QueryValue::Text("Canon".into()), 20.0),
            1.0
        );
    }

    #[test]
    fn mismatched_types_fall_back_to_penalty() {
        let v = Value::num(3.0);
        assert_eq!(
            attr_difference(Some(&v), &QueryValue::Text("x".into()), 20.0),
            20.0
        );
    }

    #[test]
    fn exact_distance_example_4_1_style() {
        // f = d_Lens + d_Brand with ndf penalty 20 (the paper's Ex. 4.1).
        let lens = AttrId(0);
        let brand = AttrId(1);
        let q = Query::new().text(lens, "Wide-angle").text(brand, "Canon");
        let weights = [1.0, 1.0];
        // Tuple 0: Lens = "Wide-angle", Brand ndf -> distance 0 + 20... but
        // the example's tuple 0 has Brand "Sony" (ed 4 with weight 1: 0+4).
        let t0 = Tuple::new()
            .with(lens, Value::text("Wide-angle"))
            .with(brand, Value::text("Sony"));
        let d0 = exact_distance(&t0, &q, &weights, &MetricKind::L1, 20.0);
        assert_eq!(d0, 4.0);
        // Tuple 5: Lens = {"Telephoto","Wide-angle"}, Brand = "Cannon".
        let t5 = Tuple::new()
            .with(lens, Value::texts(["Telephoto", "Wide-angle"]))
            .with(brand, Value::text("Cannon"));
        let d5 = exact_distance(&t5, &q, &weights, &MetricKind::L1, 20.0);
        assert_eq!(d5, 1.0);
    }

    #[test]
    fn stats_time_conversions() {
        let s = QueryStats {
            filter_nanos: 2_500_000,
            refine_nanos: 500_000,
            ..Default::default()
        };
        assert_eq!(s.filter_ms(), 2.5);
        assert_eq!(s.refine_ms(), 0.5);
        assert_eq!(s.total_ms(), 3.0);
    }
}
