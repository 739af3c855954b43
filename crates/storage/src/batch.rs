//! Pinned results of a coalesced batch read.
//!
//! [`Pager::read_batch`](crate::Pager::read_batch) turns an arbitrary set of
//! page ids into page-ordered, run-coalesced disk I/O and hands back a
//! [`PinnedPages`]: an id-sorted set of page snapshots that stay resident
//! for as long as the value lives, independent of buffer-pool evictions.
//! Multiple decodes touching the same page therefore cost one read, which
//! is exactly what the batched refinement phase of the query plan needs.

use crate::cache::PageRef;
use crate::page::PageId;

/// An id-sorted set of pinned page snapshots returned by a batch read.
///
/// Pins are plain `Arc` clones of the cached page contents: holding them
/// keeps the bytes alive (a later eviction or overwrite cannot invalidate
/// them) but does not block writers — the pager's pages are immutable
/// snapshots, so a pinned page simply reflects the file at read time.
#[derive(Debug, Default)]
pub struct PinnedPages {
    /// Sorted by page id, deduplicated.
    pages: Vec<(PageId, PageRef)>,
}

impl PinnedPages {
    /// An empty pin set (nothing resident).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from an id-sorted, deduplicated vector.
    pub(crate) fn from_sorted(pages: Vec<(PageId, PageRef)>) -> Self {
        debug_assert!(pages.windows(2).all(|w| w[0].0 < w[1].0));
        Self { pages }
    }

    /// Add `other`'s pins to this set. A page pinned by both keeps the
    /// snapshot this set already holds.
    pub fn merge(&mut self, other: PinnedPages) {
        self.pages.extend(other.pages);
        // Stable: on equal ids the earlier (own) snapshot sorts first and
        // survives the dedup.
        self.pages.sort_by_key(|&(id, _)| id);
        self.pages.dedup_by_key(|&mut (id, _)| id);
    }

    /// Number of pinned pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if no pages are pinned.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Look up a pinned page by id.
    pub fn get(&self, id: PageId) -> Option<&PageRef> {
        self.pages
            .binary_search_by_key(&id, |&(pid, _)| pid)
            .ok()
            .and_then(|i| self.pages.get(i))
            .map(|(_, page)| page)
    }

    /// True if `id` is pinned.
    pub fn contains(&self, id: PageId) -> bool {
        self.get(id).is_some()
    }

    /// Iterate over the pinned `(id, page)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &PageRef)> {
        self.pages.iter().map(|(id, p)| (*id, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lookup_by_binary_search() {
        let mk = |b: u8| Arc::new(vec![b; 4]);
        let p = PinnedPages::from_sorted(vec![
            (PageId(2), mk(2)),
            (PageId(5), mk(5)),
            (PageId(9), mk(9)),
        ]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.get(PageId(5)).unwrap()[0], 5);
        assert!(p.get(PageId(4)).is_none());
        assert!(p.contains(PageId(9)));
        assert_eq!(p.iter().count(), 3);
        assert!(PinnedPages::empty().is_empty());
    }

    #[test]
    fn merge_keeps_order_and_own_snapshot() {
        let mk = |b: u8| Arc::new(vec![b; 4]);
        let mut p = PinnedPages::from_sorted(vec![(PageId(2), mk(2)), (PageId(9), mk(9))]);
        p.merge(PinnedPages::from_sorted(vec![
            (PageId(1), mk(1)),
            (PageId(9), mk(0)),
        ]));
        let ids: Vec<u64> = p.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 9]);
        assert_eq!(p.get(PageId(9)).unwrap()[0], 9);
    }
}
