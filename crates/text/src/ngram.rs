//! lint:scope(panic-reachability)
//! Padded n-grams and n-gram multisets (Sec. III-B.1/III-B.2 of the paper).
//!
//! To obtain the n-grams of a string `s`, extend it with `n−1` start pads
//! and `n−1` end pads, then take every window of `n` consecutive bytes
//! (Example 3.1). Identical grams at different positions are *not* merged:
//! the gram set is a multiset of `(count, gram)` pairs (Example 3.3).
//!
//! The paper writes the pads as `#` and `$`, "two symbols out of the text
//! alphabet". Because real community data may contain those ASCII symbols,
//! we use the non-printable bytes `0x01`/`0x02` instead, which cannot occur
//! in the UTF-8 strings this system stores.

/// Start-of-string pad byte (the paper's `#`).
pub const PAD_START: u8 = 0x01;
/// End-of-string pad byte (the paper's `$`).
pub const PAD_END: u8 = 0x02;

/// Number of n-grams of a string of `len` bytes: `len + n − 1`.
pub fn gram_count(len: usize, n: usize) -> usize {
    len + n - 1
}

/// Produce the padded byte sequence of `s` for gram extraction.
pub fn padded(s: &[u8], n: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(s.len() + 2 * (n - 1));
    p.extend(std::iter::repeat_n(PAD_START, n - 1));
    p.extend_from_slice(s);
    p.extend(std::iter::repeat_n(PAD_END, n - 1));
    p
}

/// Iterate over the n-grams of `s` in positional order.
///
/// The returned vector owns the padded buffer; grams are windows into it.
pub fn grams_of(s: &[u8], n: usize) -> Vec<Vec<u8>> {
    assert!(n >= 1, "gram length must be >= 1");
    let p = padded(s, n);
    p.windows(n).map(|w| w.to_vec()).collect()
}

/// A multiset of n-grams: sorted `(gram, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GramMultiset {
    entries: Vec<(Vec<u8>, u32)>,
}

impl GramMultiset {
    /// Build the n-gram multiset `g(s)` of a byte string.
    pub fn new(s: &[u8], n: usize) -> Self {
        let mut grams = grams_of(s, n);
        grams.sort_unstable();
        let mut entries: Vec<(Vec<u8>, u32)> = Vec::new();
        for g in grams {
            match entries.last_mut() {
                Some((last, c)) if *last == g => *c += 1,
                _ => entries.push((g, 1)),
            }
        }
        Self { entries }
    }

    /// The multiset size `|Ω| = Σ aᵢ` (Example 3.3).
    pub fn size(&self) -> u64 {
        self.entries.iter().map(|(_, c)| u64::from(*c)).sum()
    }

    /// Number of distinct grams.
    pub fn distinct(&self) -> usize {
        self.entries.len()
    }

    /// Iterate over `(gram, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], u32)> {
        self.entries.iter().map(|(g, c)| (g.as_slice(), *c))
    }

    /// Size of the common gram multiset `|cg(self, other)| = Σ min(a₁,a₂)`.
    pub fn common_size(&self, other: &GramMultiset) -> u64 {
        let (mut i, mut j) = (0, 0);
        let mut total = 0u64;
        while let (Some(a), Some(b)) = (self.entries.get(i), other.entries.get(j)) {
            match a.0.cmp(&b.0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += u64::from(a.1.min(b.1));
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }
}

/// The reference estimator `est′(sq, sd)` of Eq. 1:
/// `(max(|sq|,|sd|) − |cg(sq,sd)| − 1)/n + 1`, clamped at 0.
///
/// By Gravano et al. (the paper's Eq. 2) this never exceeds the true edit
/// distance.
pub fn est_prime(sq: &[u8], sd: &[u8], n: usize) -> f64 {
    let gq = GramMultiset::new(sq, n);
    let gd = GramMultiset::new(sd, n);
    let cg = gq.common_size(&gd) as f64;
    let m = sq.len().max(sd.len()) as f64;
    ((m - cg - 1.0) / n as f64 + 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance::edit_distance_bytes;

    #[test]
    fn example_3_1_three_grams_of_yes() {
        // "##y", "#ye", "yes", "es$", "s$$" with our pad bytes.
        let grams = grams_of(b"yes", 3);
        assert_eq!(grams.len(), 5);
        assert_eq!(grams[0], vec![PAD_START, PAD_START, b'y']);
        assert_eq!(grams[1], vec![PAD_START, b'y', b'e']);
        assert_eq!(grams[2], b"yes".to_vec());
        assert_eq!(grams[3], vec![b'e', b's', PAD_END]);
        assert_eq!(grams[4], vec![b's', PAD_END, PAD_END]);
    }

    #[test]
    fn example_3_3_gram_set_of_www() {
        // 2-gram set of "www" is {(1,"#w"), (2,"ww"), (1,"w$")}, size 4.
        let g = GramMultiset::new(b"www", 2);
        assert_eq!(g.size(), 4);
        assert_eq!(g.distinct(), 3);
        let entries: Vec<_> = g.iter().collect();
        assert!(entries.contains(&(&[b'w', b'w'][..], 2)));
    }

    #[test]
    fn gram_count_formula() {
        for n in 2..=5 {
            for len in 0..20 {
                let s: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
                assert_eq!(grams_of(&s, n).len(), gram_count(len as usize, n));
            }
        }
    }

    #[test]
    fn common_size_is_intersection() {
        let a = GramMultiset::new(b"canon", 2);
        let b = GramMultiset::new(b"cannon", 2);
        let c = a.common_size(&b);
        assert_eq!(c, b.common_size(&a));
        assert!(c <= a.size().min(b.size()));
        assert_eq!(a.common_size(&a), a.size());
    }

    #[test]
    fn est_prime_lower_bounds_edit_distance() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"canon", b"cannon"),
            (b"digital camera", b"digtal camera"),
            (b"google", b"yahoo"),
            (b"a", b"abcdefgh"),
            (b"same", b"same"),
            (b"x", b"y"),
        ];
        for n in 2..=4 {
            for &(a, b) in pairs {
                let est = est_prime(a, b, n);
                let ed = edit_distance_bytes(a, b) as f64;
                assert!(est <= ed + 1e-9, "est'({a:?},{b:?},n={n})={est} > ed={ed}");
            }
        }
    }

    #[test]
    fn est_prime_zero_for_identical() {
        assert_eq!(est_prime(b"identical", b"identical", 2), 0.0);
    }
}
