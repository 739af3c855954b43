//! The n-gram inverted index for approximate string search — the related-
//! work baseline of Li, Lu & Lu \[11\] (Sec. II-C of the paper).
//!
//! "The inverted index on n-grams is designed for searching strings on a
//! single attribute that is within an edit distance threshold to a query
//! string." This module implements that design faithfully — a per-
//! attribute map from gram to the sorted list of `(tid, string-index)`
//! postings, the classic count filter (`T = |common grams| ≥
//! max(|sq|,|sd|) + n − 1 − n·τ` matching grams needed for edit distance
//! ≤ τ), and verification by capped edit distance — so the contrast the
//! paper draws is concrete:
//!
//! - it answers *threshold* queries on *one* text attribute very fast;
//! - it cannot rank across attributes, mix in numeric predicates, or
//!   bound a metric-combined distance — which is the iVA-file's job.

use std::collections::HashMap;

use iva_core::{IvaError, Result};
use iva_swt::{AttrId, RecordPtr, SwtTable, Tid, Value};
use iva_text::{edit_distance_within, gram_count, grams_of};

/// One verified match of a threshold string search.
#[derive(Debug, Clone, PartialEq)]
pub struct GramMatch {
    /// Tuple id.
    pub tid: Tid,
    /// Location in the table file.
    pub ptr: RecordPtr,
    /// The matching string (one of the value's strings).
    pub string: String,
    /// Its edit distance to the query (≤ the threshold).
    pub edits: usize,
}

/// Inverted lists from gram → postings for one text attribute.
pub struct GramIndex {
    attr: AttrId,
    n: usize,
    /// gram → sorted (tid, ptr, string) posting keys; postings store an
    /// index into `strings`.
    postings: HashMap<Vec<u8>, Vec<u32>>,
    /// All indexed strings with their origin.
    strings: Vec<(Tid, RecordPtr, String)>,
}

impl GramIndex {
    /// Build over all live tuples' strings on `attr` (must be a text
    /// attribute).
    pub fn build(table: &SwtTable, attr: AttrId, n: usize) -> Result<Self> {
        if n < 2 {
            return Err(IvaError::InvalidArgument("gram length must be >= 2".into()));
        }
        match table.catalog().attr_type(attr) {
            Some(iva_swt::AttrType::Text) => {}
            _ => {
                return Err(IvaError::InvalidArgument(format!(
                    "attribute {attr} is not a text attribute"
                )))
            }
        }
        let mut postings: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
        let mut strings = Vec::new();
        for item in table.scan() {
            let (ptr, rec) = item?;
            if rec.deleted {
                continue;
            }
            if let Some(Value::Text(ss)) = rec.tuple.get(attr) {
                for s in ss {
                    let sid = strings.len() as u32;
                    strings.push((rec.tid, ptr, s.clone()));
                    // Duplicates kept: merge-counting then yields
                    // sum(q_count x s_count) >= |multiset intersection|,
                    // an overcount, so the count filter stays sound (no
                    // false negatives; extras are killed at verification).
                    for g in grams_of(s.as_bytes(), n) {
                        postings.entry(g).or_default().push(sid);
                    }
                }
            }
        }
        Ok(Self {
            attr,
            n,
            postings,
            strings,
        })
    }

    /// The indexed attribute.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Number of indexed strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if no strings are indexed.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Number of distinct grams.
    pub fn distinct_grams(&self) -> usize {
        self.postings.len()
    }

    fn merge_count(&self, query: &str) -> HashMap<u32, u32> {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for g in grams_of(query.as_bytes(), self.n) {
            if let Some(list) = self.postings.get(&g) {
                for &sid in list {
                    *counts.entry(sid).or_default() += 1;
                }
            }
        }
        counts
    }

    /// All strings within edit distance `max_edits` of `query`, verified.
    ///
    /// Uses the count filter: a string within `τ` edits of the query must
    /// share at least `max(|sq|,|sd|) + n − 1 − n·τ` grams with it; merge-
    /// counting the query grams' postings finds every string that can
    /// possibly qualify, and capped edit distance verifies the survivors.
    pub fn search(&self, query: &str, max_edits: usize) -> Vec<GramMatch> {
        let qlen = query.len();
        let counts = self.merge_count(query);
        let mut out = Vec::new();
        let mut verified = std::collections::HashSet::new();
        let mut verify = |sid: u32, out: &mut Vec<GramMatch>| {
            if !verified.insert(sid) {
                return;
            }
            let (tid, ptr, s) = &self.strings[sid as usize];
            if let Some(edits) = edit_distance_within(query.as_bytes(), s.as_bytes(), max_edits) {
                out.push(GramMatch {
                    tid: *tid,
                    ptr: *ptr,
                    string: s.clone(),
                    edits,
                });
            }
        };
        for (&sid, &shared) in &counts {
            let s = &self.strings[sid as usize].2;
            // Count-filter threshold for this candidate's length.
            let m = gram_count(qlen.max(s.len()), self.n) as i64;
            let needed = m - (self.n as i64) * max_edits as i64;
            if needed > 0 && i64::from(shared) < needed {
                continue;
            }
            verify(sid, &mut out);
        }
        // When the threshold degenerates (needed <= 0 is possible), tiny
        // strings sharing zero grams with the query can still match; they
        // never appear in `counts`, so verify them directly.
        if gram_count(qlen, self.n) <= self.n * max_edits {
            let tiny_cap = (self.n * max_edits + 1).saturating_sub(self.n);
            for sid in 0..self.strings.len() as u32 {
                if self.strings[sid as usize].2.len() <= tiny_cap {
                    verify(sid, &mut out);
                }
            }
        }
        out.sort_by(|a, b| a.edits.cmp(&b.edits).then(a.tid.cmp(&b.tid)));
        out
    }

    /// Candidates that survive the count filter, before verification —
    /// exposed so tests and benches can measure the filter's power.
    pub fn count_filter_candidates(&self, query: &str, max_edits: usize) -> usize {
        let qlen = query.len();
        self.merge_count(query)
            .into_iter()
            .filter(|&(sid, shared)| {
                let (_, _, s) = &self.strings[sid as usize];
                let m = gram_count(qlen.max(s.len()), self.n) as i64;
                let needed = m - (self.n as i64) * max_edits as i64;
                needed <= 0 || i64::from(shared) >= needed
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iva_storage::{IoStats, PagerOptions};
    use iva_swt::Tuple;
    use iva_text::edit_distance;

    fn opts() -> PagerOptions {
        PagerOptions {
            page_size: 512,
            cache_bytes: 16 * 1024,
        }
    }

    fn table() -> (SwtTable, AttrId) {
        let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        let brand = t.define_text("brand").unwrap();
        let price = t.define_numeric("price").unwrap();
        let data = [
            "canon",
            "cannon",
            "canyon",
            "sony",
            "nikon",
            "nikkon",
            "olympus",
            "panasonic",
            "kodak",
            "casio",
            "canonical",
        ];
        for (i, b) in data.iter().enumerate() {
            t.insert(
                &Tuple::new()
                    .with(brand, Value::text(*b))
                    .with(price, Value::num(i as f64)),
            )
            .unwrap();
        }
        (t, brand)
    }

    #[test]
    fn finds_all_within_threshold() {
        let (t, brand) = table();
        let idx = GramIndex::build(&t, brand, 2).unwrap();
        assert_eq!(idx.len(), 11);

        let hits = idx.search("canon", 1);
        let strings: Vec<&str> = hits.iter().map(|m| m.string.as_str()).collect();
        assert_eq!(strings, vec!["canon", "cannon", "canyon"]);
        assert_eq!(hits[0].edits, 0);
        assert_eq!(hits[1].edits, 1);

        // Larger threshold pulls in more.
        let hits2 = idx.search("canon", 4);
        assert!(hits2.iter().any(|m| m.string == "canonical"));
    }

    #[test]
    fn exhaustive_no_false_negatives() {
        // Every string within the threshold must be found — compare with
        // brute force over all indexed strings.
        let (t, brand) = table();
        let idx = GramIndex::build(&t, brand, 2).unwrap();
        for q in ["canon", "sonny", "kodiak", "olympus", "x"] {
            for tau in 0..4usize {
                let got: Vec<String> = idx.search(q, tau).into_iter().map(|m| m.string).collect();
                let mut expect: Vec<String> = [
                    "canon",
                    "cannon",
                    "canyon",
                    "sony",
                    "nikon",
                    "nikkon",
                    "olympus",
                    "panasonic",
                    "kodak",
                    "casio",
                    "canonical",
                ]
                .iter()
                .filter(|s| edit_distance(q, s) <= tau)
                .map(|s| s.to_string())
                .collect();
                let mut got_sorted = got.clone();
                got_sorted.sort();
                expect.sort();
                assert_eq!(got_sorted, expect, "q={q} tau={tau}");
            }
        }
    }

    #[test]
    fn count_filter_prunes() {
        let (t, brand) = table();
        let idx = GramIndex::build(&t, brand, 2).unwrap();
        // At a tight threshold the filter should examine far fewer than
        // all strings.
        let candidates = idx.count_filter_candidates("canon", 1);
        assert!(candidates < idx.len(), "{candidates} of {}", idx.len());
        // The filter is sound: every true match is among the candidates.
        assert!(candidates >= idx.search("canon", 1).len());
    }

    #[test]
    fn multi_string_values_and_deletes() {
        let mut t = SwtTable::create_mem(&opts(), IoStats::new()).unwrap();
        let a = t.define_text("a").unwrap();
        let (t1, _) = t
            .insert(&Tuple::new().with(a, Value::texts(["wide-angle", "telephoto"])))
            .unwrap();
        t.insert(&Tuple::new().with(a, Value::text("wide angle")))
            .unwrap();
        // Tombstoned tuples are not indexed.
        t.delete(t1).unwrap();
        let idx = GramIndex::build(&t, a, 2).unwrap();
        let hits = idx.search("wide-angle", 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].string, "wide angle");
    }

    #[test]
    fn tiny_strings_with_zero_shared_grams_still_found() {
        // needed <= 0 degenerate case: "x" vs "y" share no grams but are
        // within edit distance 1 < 2.
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 16 * 1024,
        };
        let mut t = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let a = t.define_text("a").unwrap();
        for s in ["y", "z", "ab", "longer string"] {
            t.insert(&Tuple::new().with(a, Value::text(s))).unwrap();
        }
        let idx = GramIndex::build(&t, a, 2).unwrap();
        let hits = idx.search("x", 2);
        let strings: Vec<&str> = hits.iter().map(|m| m.string.as_str()).collect();
        assert!(strings.contains(&"y"), "{strings:?}");
        assert!(strings.contains(&"z"));
        assert!(strings.contains(&"ab")); // ed("x","ab") = 2
        assert!(!strings.contains(&"longer string"));
    }

    #[test]
    fn rejects_numeric_attribute_and_bad_n() {
        let (t, _) = table();
        assert!(GramIndex::build(&t, AttrId(1), 2).is_err()); // price
        assert!(GramIndex::build(&t, AttrId(0), 1).is_err());
        assert!(GramIndex::build(&t, AttrId(99), 2).is_err());
    }
}
