//! lint:scope(panic-reachability)
//! nG-signature parameter analysis (Sec. III-B.3 and Appendix A).
//!
//! The probability that a gram which is *not* in the data string is a false
//! hit in an `l`-bit signature built with `t` bits per gram from a string
//! with `g = |sd| + n − 1` grams is (Eq. 6):
//!
//! ```text
//! p = (1 − (1 − t/l)^g)^t
//! ```
//!
//! and the expected relative estimation error is `ē ≈ p` (Eq. 5). The paper
//! picks, for each `l`, the `t` minimizing `ē`; it notes the proper `t` "can
//! be pre-calculated and stored in an in-memory table to save the run-time
//! cpu burden" — [`optimal_t`] with the memoized table in
//! [`SigParams`](crate::signature::SigCodec) does exactly that.

/// False-hit probability `p(l, t, g)` of Eq. 6.
pub fn false_hit_probability(l_bits: u32, t: u32, grams: u32) -> f64 {
    debug_assert!(t >= 1 && t < l_bits);
    let frac = 1.0 - f64::from(t) / f64::from(l_bits);
    (1.0 - frac.powi(grams as i32)).powi(t as i32)
}

/// Expected relative error `ē` of the signature estimator (Eq. 5): equals
/// the false-hit probability.
pub fn expected_relative_error(l_bits: u32, t: u32, grams: u32) -> f64 {
    false_hit_probability(l_bits, t, grams)
}

/// Maximum `t` worth searching; the optimum for realistic `l/g` ratios is
/// tiny (1–4), so 32 is a generous cap.
const T_SEARCH_CAP: u32 = 32;

/// The `t` in `1..l` minimizing the expected error for an `l`-bit signature
/// of a string with `grams` n-grams. Ties break toward smaller `t` (cheaper
/// hashing).
pub fn optimal_t(l_bits: u32, grams: u32) -> u32 {
    debug_assert!(l_bits >= 2);
    let grams = grams.max(1);
    let mut best_t = 1;
    let mut best_p = false_hit_probability(l_bits, 1, grams);
    for t in 2..l_bits.min(T_SEARCH_CAP + 1) {
        let p = false_hit_probability(l_bits, t, grams);
        if p < best_p {
            best_p = p;
            best_t = t;
        }
    }
    best_t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_in_unit_interval() {
        for l in [8u32, 16, 32, 64, 128] {
            for t in 1..l.min(8) {
                for g in [1u32, 3, 10, 50] {
                    let p = false_hit_probability(l, t, g);
                    assert!((0.0..=1.0).contains(&p), "p({l},{t},{g})={p}");
                }
            }
        }
    }

    #[test]
    fn longer_signature_lowers_error() {
        // Eq. 5 discussion: "Larger l will necessarily result in lower ē".
        let g = 18; // ~ mean Google Base string (16.8 B) with n = 2
        let e32 = expected_relative_error(32, optimal_t(32, g), g);
        let e64 = expected_relative_error(64, optimal_t(64, g), g);
        let e128 = expected_relative_error(128, optimal_t(128, g), g);
        assert!(e64 < e32);
        assert!(e128 < e64);
    }

    #[test]
    fn more_grams_raise_error_at_fixed_l() {
        let l = 64;
        let e_small = expected_relative_error(l, optimal_t(l, 5), 5);
        let e_big = expected_relative_error(l, optimal_t(l, 50), 50);
        assert!(e_big > e_small);
    }

    #[test]
    fn optimal_t_is_argmin() {
        for (l, g) in [(16u32, 10u32), (32, 18), (64, 18), (128, 30), (8, 40)] {
            let t_star = optimal_t(l, g);
            let p_star = false_hit_probability(l, t_star, g);
            for t in 1..l.min(T_SEARCH_CAP + 1) {
                assert!(
                    p_star <= false_hit_probability(l, t, g) + 1e-15,
                    "t*={t_star} beaten by t={t} at l={l} g={g}"
                );
            }
        }
    }

    #[test]
    fn optimal_t_small_for_dense_signatures() {
        // l/g ≈ 1.8 bits per gram (the α = 20 % default): t should be 1–2.
        let t = optimal_t(32, 18);
        assert!(t <= 2, "t={t}");
    }

    #[test]
    fn zero_grams_clamped() {
        // Degenerate but must not panic or return t >= l.
        let t = optimal_t(8, 0);
        assert!((1..8).contains(&t));
    }
}
