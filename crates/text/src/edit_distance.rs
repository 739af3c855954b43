//! Levenshtein edit distance.
//!
//! The paper adopts edit distance as the typo-tolerant string metric
//! (Sec. I-B): "the minimum number of edit operations (insertions,
//! deletions, and substitutions) of single characters needed to transform
//! the first string into the second". All string lengths in this
//! reproduction are measured in bytes, consistently across grams,
//! signatures and distances, so the Gravano n-gram lower bound holds.
//!
//! There is one dynamic program, [`edit_distance_capped`]: a single-row,
//! Ukkonen-banded Levenshtein that is told the value `cap` from which on
//! the caller no longer cares. It returns the exact distance when that is
//! `< cap` and otherwise *some* value `≥ cap`. The refine step passes the
//! result pool's admission threshold (translated into edits) as the cap,
//! so a candidate that cannot enter the pool costs `O(cap · n)` cells —
//! usually far fewer, because the scan abandons at the first row whose
//! minimum reaches the cap — instead of `n · m`. [`edit_distance_bytes`]
//! is the same kernel with no cap and [`edit_distance_within`] a thin
//! wrapper. The row lives on the stack when the shorter string has at most
//! [`STACK_ROW`] bytes, so the common case allocates nothing.

/// Longest shorter-side length whose DP row is kept on the stack.
const STACK_ROW: usize = 64;

/// Edit distance between two byte strings, capped: the exact distance if
/// it is `< cap`, otherwise some value `≥ cap` (never an underestimate of
/// `min(distance, cap)`). `usize::MAX` means "no cap".
///
/// Only cells with `|i − j| < cap` can hold a value below the cap, so
/// each row visits a band of at most `2·cap − 1` cells; everything outside
/// the band reads as `≥ cap`. The single row doubles as the previous row:
/// a cell entering the band on the right still holds its row-0 value `j`,
/// which is `≥ cap` exactly when it is out of band, and the cell leaving
/// on the left is read once more as the diagonal and never again.
pub fn edit_distance_capped(a: &[u8], b: &[u8], cap: usize) -> usize {
    // Rows walk the longer string, the row buffer spans the shorter one.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let (n, m) = (a.len(), b.len());
    // The distance never exceeds `n`, so a larger cap is no cap at all;
    // clamping keeps every `+ 1` below far from overflow.
    let cap = cap.min(n + 1);
    if m == 0 || n - m >= cap {
        return n - m;
    }
    let band = cap - 1;

    let mut stack = [0usize; STACK_ROW];
    let mut heap = Vec::new();
    let row: &mut [usize] = match stack.get_mut(..m) {
        Some(r) => r,
        None => {
            heap.resize(m, 0);
            &mut heap
        }
    };
    // `row[c]` is column `c + 1`; column 0 (`= i`) is carried in `left`.
    for (c, cell) in row.iter_mut().enumerate() {
        *cell = c + 1;
    }

    for (i, &ca) in a.iter().enumerate() {
        let i = i + 1;
        let end = m.min(i + band);
        // First in-band column is `max(1, i − band)`; `lo` is its slot.
        let lo = (i - 1).saturating_sub(band);
        // `diag` = cell (i−1, first−1), `left` = cell (i, first−1): column
        // 0 while the band still touches it, afterwards the slot that just
        // left the band (valid as a diagonal, `≥ cap` as a left neighbor).
        let (mut diag, mut left, cells) = if lo == 0 {
            (i - 1, i, row.get_mut(..end))
        } else {
            match row
                .get_mut(lo - 1..end)
                .and_then(<[usize]>::split_first_mut)
            {
                Some((gone, cells)) => (*gone, cap, Some(cells)),
                None => (cap, cap, None),
            }
        };
        let (Some(cells), Some(chars)) = (cells, b.get(lo..end)) else {
            return cap; // unreachable: `lo < end ≤ m` by the length check
        };
        let mut row_min = left;
        for (cell, &cb) in cells.iter_mut().zip(chars) {
            let up = *cell;
            let v = (diag + usize::from(ca != cb)).min(up + 1).min(left + 1);
            *cell = v;
            diag = up;
            left = v;
            row_min = row_min.min(v);
        }
        if row_min >= cap {
            return row_min;
        }
    }
    row.last().copied().unwrap_or(n)
}

/// Edit distance between two byte strings.
pub fn edit_distance_bytes(a: &[u8], b: &[u8]) -> usize {
    edit_distance_capped(a, b, usize::MAX)
}

/// Edit distance between two UTF-8 strings, computed over bytes.
pub fn edit_distance(a: &str, b: &str) -> usize {
    edit_distance_bytes(a.as_bytes(), b.as_bytes())
}

/// Banded edit distance: returns `Some(d)` if `d <= bound`, `None`
/// otherwise. Used where only a threshold check is needed;
/// `O(bound · n)`.
pub fn edit_distance_within(a: &[u8], b: &[u8], bound: usize) -> Option<usize> {
    let d = edit_distance_capped(a, b, bound.saturating_add(1));
    (d <= bound).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
        // The paper's running typo: "Cannon" vs "Canon".
        assert_eq!(edit_distance("Cannon", "Canon"), 1);
    }

    #[test]
    fn single_ops() {
        assert_eq!(edit_distance("canon", "canons"), 1); // insertion
        assert_eq!(edit_distance("canon", "cann"), 1); // deletion of 'o'
        assert_eq!(edit_distance("canon", "caxon"), 1); // substitution
        assert_eq!(edit_distance("canon", "cano"), 1); // deletion
    }

    #[test]
    fn banded_agrees_with_full() {
        let pairs = [
            ("google", "googel"),
            ("digital camera", "digtal camera"),
            ("a", "zzzzzz"),
            ("same", "same"),
            ("", "xy"),
        ];
        for (a, b) in pairs {
            let full = edit_distance(a, b);
            for bound in 0..8 {
                let banded = edit_distance_within(a.as_bytes(), b.as_bytes(), bound);
                if full <= bound {
                    assert_eq!(banded, Some(full), "{a} {b} bound={bound}");
                } else {
                    assert_eq!(banded, None, "{a} {b} bound={bound}");
                }
            }
        }
    }

    #[test]
    fn length_difference_lower_bounds() {
        assert!(edit_distance("ab", "abcdef") >= 4);
        assert_eq!(edit_distance_within(b"ab", b"abcdef", 3), None);
    }
}
