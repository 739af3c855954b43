//! lint:scope(panic-reachability)
//! Levenshtein edit distance.
//!
//! The paper adopts edit distance as the typo-tolerant string metric
//! (Sec. I-B): "the minimum number of edit operations (insertions,
//! deletions, and substitutions) of single characters needed to transform
//! the first string into the second". All string lengths in this
//! reproduction are measured in bytes, consistently across grams,
//! signatures and distances, so the Gravano n-gram lower bound holds.
//!
//! Every distance is capped: the caller names the value `cap` from which
//! on it no longer cares, and gets `min(distance, cap)` — the exact
//! distance below the cap, the cap itself at or past it. The refine step
//! passes the result pool's admission threshold (translated into edits).
//!
//! The kernel is Myers' bit-vector algorithm (JACM 1999) in Hyyrö's
//! Levenshtein form (2001): a pattern of at most 64 bytes is one `u64`
//! column of vertical deltas, and each text byte advances it with ~15
//! word operations whatever the cap, where a dynamic program fills a row
//! of cells. The pattern's match masks (one word per byte value) are the
//! only setup: [`PreparedPattern`] builds them once per query string, and
//! [`edit_distance_capped`] builds them per call on the stack. Only when
//! both strings are longer than 64 bytes does it fall back to a single-row,
//! Ukkonen-banded dynamic program of `O(cap · n)` cells.
//! [`edit_distance_bytes`] is the same function with no cap and
//! [`edit_distance_within`] a thin wrapper.

/// Longest pattern the bit-parallel kernel takes: one bit per byte.
const WORD: usize = u64::BITS as usize;

/// The match masks of a pattern of 1 to 64 bytes: bit `i` of `peq[c]` is
/// set where the pattern's byte `i` is `c`.
#[derive(Debug, Clone)]
struct Masks {
    peq: [u64; 256],
    /// The pattern's last bit, `len − 1`: the last DP row's.
    last: u32,
}

impl Masks {
    /// `None` for an empty pattern or one longer than [`WORD`].
    fn new(p: &[u8]) -> Option<Self> {
        let last = p.len().checked_sub(1).filter(|&l| l < WORD)?;
        let mut peq = [0u64; 256];
        for (i, &c) in p.iter().enumerate() {
            if let Some(w) = peq.get_mut(usize::from(c)) {
                *w |= 1 << i;
            }
        }
        Some(Self {
            peq,
            last: last as u32,
        })
    }

    /// `min(ed(pattern, text), cap)`. The column of vertical deltas `vp`
    /// (+1) / `vn` (−1) starts as the DP's column 0 (`D[i][0] = i`, all
    /// +1); each text byte turns it into the next column, and the last
    /// row's score moves by the horizontal delta at the pattern's last
    /// bit. The `| 1` carries row 0's horizontal delta in: `D[0][j] = j`.
    /// Each column moves the last row by at most one, so after byte `j`
    /// the score less the bytes left is a lower bound on the distance;
    /// the walk stops once that reaches the cap.
    fn distance(&self, text: &[u8], cap: usize) -> usize {
        let (m, n) = (self.last as usize + 1, text.len());
        // The distance never exceeds `max(m, n)`: a larger cap is no cap,
        // and clamping keeps `cap + left` below far from overflow.
        let cap = cap.min(m.max(n) + 1);
        if m.abs_diff(n) >= cap {
            return cap;
        }
        let (mut vp, mut vn, mut score, mut left) = (!0u64, 0u64, m, n);
        for &c in text {
            let eq = self.peq.get(usize::from(c)).copied().unwrap_or(0);
            let xv = eq | vn;
            let xh = ((eq & vp).wrapping_add(vp) ^ vp) | eq;
            let ph = vn | !(xh | vp);
            let mh = vp & xh;
            score = score + ((ph >> self.last) & 1) as usize - ((mh >> self.last) & 1) as usize;
            let ph = (ph << 1) | 1;
            vp = (mh << 1) | !(xv | ph);
            vn = ph & xv;
            left -= 1;
            if score >= cap + left {
                return cap;
            }
        }
        score.min(cap)
    }
}

/// A query string's match masks, built once and reused for every stored
/// string it is compared with: [`PreparedPattern::distance`] is
/// [`edit_distance_capped`] without the per-call setup, and equal to it bit
/// for bit. A string longer than 64 bytes keeps no masks and takes the
/// free function's path.
#[derive(Debug, Clone)]
pub struct PreparedPattern {
    bytes: Box<[u8]>,
    masks: Option<Box<Masks>>,
}

impl PreparedPattern {
    /// Prepare `p`.
    pub fn new(p: &[u8]) -> Self {
        Self {
            bytes: p.into(),
            masks: Masks::new(p).map(Box::new),
        }
    }

    /// The pattern's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// `edit_distance_capped(self.bytes(), text, cap)`.
    pub fn distance(&self, text: &[u8], cap: usize) -> usize {
        match &self.masks {
            Some(masks) => masks.distance(text, cap),
            None => edit_distance_capped(&self.bytes, text, cap),
        }
    }
}

/// Edit distance between two byte strings, capped: `min(distance, cap)` —
/// the exact distance if it is `< cap`, otherwise `cap`. `usize::MAX`
/// means "no cap".
///
/// The longer string is the kernel's pattern where it has at most 64
/// bytes (the walk then covers the shorter one), else the shorter one.
pub fn edit_distance_capped(a: &[u8], b: &[u8], cap: usize) -> usize {
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if let Some(masks) = Masks::new(a) {
        return masks.distance(b, cap);
    }
    match Masks::new(b) {
        Some(masks) => masks.distance(a, cap),
        None if b.is_empty() => a.len().min(cap),
        None => banded(a, b, cap),
    }
}

/// [`edit_distance_capped`] by dynamic program, for `a` at least as long
/// as `b`: the strings past the kernel's 64 bytes.
///
/// Only cells with `|i − j| < cap` can hold a value below the cap, so
/// each row visits a band of at most `2·cap − 1` cells; everything outside
/// the band reads as `≥ cap`. The single row doubles as the previous row:
/// a cell entering the band on the right still holds its row-0 value `j`,
/// which is `≥ cap` exactly when it is out of band, and the cell leaving
/// on the left is read once more as the diagonal and never again.
fn banded(a: &[u8], b: &[u8], cap: usize) -> usize {
    let (n, m) = (a.len(), b.len());
    let cap = cap.min(n + 1);
    if m == 0 || n - m >= cap {
        return (n - m).min(cap);
    }
    let band = cap - 1;
    // `row[c]` is column `c + 1`; column 0 (`= i`) is carried in `left`.
    let mut row: Vec<usize> = (1..=m).collect();

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
            return cap;
        }
    }
    row.last().copied().unwrap_or(n).min(cap)
}

/// Edit distance between two byte strings.
pub fn edit_distance_bytes(a: &[u8], b: &[u8]) -> usize {
    edit_distance_capped(a, b, usize::MAX)
}

/// Edit distance between two UTF-8 strings, computed over bytes.
pub fn edit_distance(a: &str, b: &str) -> usize {
    edit_distance_bytes(a.as_bytes(), b.as_bytes())
}

/// Capped edit distance as a threshold check: `Some(d)` if `d <= bound`,
/// `None` otherwise.
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
