//! Property tests for the nG-signature machinery.
//!
//! The headline invariant is Proposition 3.3: the signature estimator never
//! exceeds the true edit distance, for any strings and any (α, n)
//! configuration — this is what makes iVA-file filtering exact.

use proptest::prelude::*;

use iva_text::{
    edit_distance_bytes, edit_distance_capped, edit_distance_within, est_prime, GramMultiset,
    PreparedMatcher, PreparedPattern, QueryStringMatcher, SigCodec,
};

/// Textbook full-matrix Levenshtein: the reference the one production
/// kernel is checked against.
fn naive_edit_distance(a: &[u8], b: &[u8]) -> usize {
    let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    d[0] = (0..=b.len()).collect();
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let sub = d[i - 1][j - 1] + usize::from(a[i - 1] != b[j - 1]);
            d[i][j] = sub.min(d[i - 1][j] + 1).min(d[i][j - 1] + 1);
        }
    }
    d[a.len()][b.len()]
}

/// Four indices into a pair's alphabet per side, 0–140 of them, with
/// extra weight just around the kernel's 64-byte pattern limit.
fn alphabet_indices() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        proptest::collection::vec(0usize..4, 0..141),
        proptest::collection::vec(0usize..4, 62..67),
    ]
}

/// Two strings over one four-byte alphabet drawn from all 256 byte values,
/// so a mask table sized for ASCII fails. A small alphabet keeps distances
/// well below the lengths, so every cap sees both outcomes; the lengths
/// cover a shorter side of at most 64 bytes, exactly 64 and 65, and both
/// sides over 64 (the dynamic program's case).
fn byte_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (any::<u32>(), alphabet_indices(), alphabet_indices()).prop_map(|(alphabet, a, b)| {
        let bytes = alphabet.to_le_bytes();
        let spell = |s: Vec<usize>| s.into_iter().map(|i| bytes[i]).collect();
        (spell(a), spell(b))
    })
}

/// The caps worth trying on a pair at distance `exact`: small ones, both
/// sides of the distance itself, and none.
fn caps(exact: usize) -> impl Iterator<Item = usize> {
    (0usize..=12).chain([exact.saturating_sub(1), exact, exact + 1, usize::MAX])
}

fn short_string() -> impl Strategy<Value = Vec<u8>> {
    // Printable-ish bytes incl. spaces; community strings are short.
    proptest::collection::vec(0x20u8..0x7f, 0..40)
}

fn long_string() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0x20u8..0x7f, 200..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edit_distance_symmetric(a in short_string(), b in short_string()) {
        prop_assert_eq!(edit_distance_bytes(&a, &b), edit_distance_bytes(&b, &a));
    }

    #[test]
    fn edit_distance_triangle(a in short_string(), b in short_string(), c in short_string()) {
        let ab = edit_distance_bytes(&a, &b);
        let bc = edit_distance_bytes(&b, &c);
        let ac = edit_distance_bytes(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn edit_distance_identity(a in short_string()) {
        prop_assert_eq!(edit_distance_bytes(&a, &a), 0);
    }

    #[test]
    fn edit_distance_length_bound(a in short_string(), b in short_string()) {
        let d = edit_distance_bytes(&a, &b);
        prop_assert!(d >= a.len().abs_diff(b.len()));
        prop_assert!(d <= a.len().max(b.len()));
    }

    #[test]
    fn banded_matches_full(a in short_string(), b in short_string(), bound in 0usize..12) {
        let full = edit_distance_bytes(&a, &b);
        let banded = edit_distance_within(&a, &b, bound);
        if full <= bound {
            prop_assert_eq!(banded, Some(full));
        } else {
            prop_assert_eq!(banded, None);
        }
    }

    #[test]
    fn est_prime_is_lower_bound(a in short_string(), b in short_string(), n in 2usize..5) {
        let est = est_prime(&a, &b, n);
        let ed = edit_distance_bytes(&a, &b) as f64;
        prop_assert!(est <= ed + 1e-9, "est'={est} ed={ed}");
    }

    #[test]
    fn signature_estimate_is_lower_bound(
        a in short_string(),
        b in short_string(),
        alpha in 0.05f64..0.9,
        n in 2usize..5,
    ) {
        let codec = SigCodec::new(alpha, n);
        let sig = codec.encode_to_vec(&b);
        let m = PreparedMatcher::new(&codec, &a);
        let est = m.estimate(&sig).unwrap();
        let ed = edit_distance_bytes(&a, &b) as f64;
        prop_assert!(est <= ed + 1e-9, "est={est} ed={ed} alpha={alpha} n={n}");
    }

    #[test]
    fn signature_estimate_lower_bound_long_strings(
        a in long_string(),
        b in long_string(),
    ) {
        // Length clamping at 255 must preserve the bound.
        let codec = SigCodec::new(0.2, 2);
        let sig = codec.encode_to_vec(&b);
        let m = PreparedMatcher::new(&codec, &a);
        let est = m.estimate(&sig).unwrap();
        let ed = edit_distance_bytes(&a, &b) as f64;
        prop_assert!(est <= ed + 1e-9, "est={est} ed={ed}");
    }

    #[test]
    fn signature_self_estimate_zero(a in short_string(), alpha in 0.05f64..0.9, n in 2usize..5) {
        let codec = SigCodec::new(alpha, n);
        let sig = codec.encode_to_vec(&a);
        let m = PreparedMatcher::new(&codec, &a);
        prop_assert_eq!(m.estimate(&sig).unwrap(), 0.0);
    }

    #[test]
    fn estimate_at_most_est_prime(a in short_string(), b in short_string()) {
        // |hg| >= |cg| implies est <= est' — a statement about Eq. 3
        // itself, before the estimate's rounding and length floor.
        let codec = SigCodec::new(0.2, 2);
        let sig = codec.encode_to_vec(&b);
        let m = PreparedMatcher::new(&codec, &a);
        let est = m.eq3(&sig).unwrap();
        let estp = est_prime(&a, &b, 2);
        prop_assert!(est <= estp + 1e-9);
    }

    #[test]
    fn estimate_sits_between_eq3_and_edit_distance(
        a in proptest::collection::vec(b'a'..b'e', 0..301),
        tail in proptest::collection::vec(b'a'..b'e', 0..301),
        keep in 0usize..301,
        geometry in 0usize..4,
    ) {
        // eq3 ≤ estimate ≤ ed, estimate a whole number, on unrelated pairs
        // and on pairs sharing a prefix (where the bound is nearly tight),
        // lengths through the 255 clamp on both sides.
        let (alpha, n) = [(0.1, 2), (0.2, 2), (0.3, 3), (0.7, 4)][geometry];
        let codec = SigCodec::new(alpha, n);
        let mut shared = a[..keep.min(a.len())].to_vec();
        shared.extend_from_slice(&tail);
        for b in [&tail, &shared] {
            let sig = codec.encode_to_vec(b);
            let m = PreparedMatcher::new(&codec, &a);
            let (eq3, est) = (m.eq3(&sig).unwrap(), m.estimate(&sig).unwrap());
            let ed = edit_distance_bytes(&a, b) as f64;
            prop_assert!(eq3 <= est, "eq3={eq3} est={est} |a|={} |b|={}", a.len(), b.len());
            prop_assert!(est <= ed, "est={est} ed={ed} |a|={} |b|={}", a.len(), b.len());
            prop_assert_eq!(est, est.trunc());
        }
        let own = PreparedMatcher::new(&codec, &a).estimate(&codec.encode_to_vec(&a)).unwrap();
        prop_assert_eq!(own, 0.0);
    }

    #[test]
    fn kernel_bit_identical_to_scalar_reference(
        q in short_string(),
        data in proptest::collection::vec(
            proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..300),
            1..24,
        ),
        alpha in 0.05f64..1.0,
        n in 2usize..6,
    ) {
        // The packed-mask word kernel must reproduce the retained scalar
        // reference bit for bit: arbitrary bytes (not just printable),
        // lengths through the 255 clamp, randomized (α, n) geometry.
        let codec = SigCodec::new(alpha, n);
        let builder = QueryStringMatcher::new(&codec, &q);
        let prepared = builder.prepare(&codec);
        for d in &data {
            let sig = codec.encode_to_vec(d);
            let kernel = prepared.estimate(&sig).unwrap();
            let scalar = builder.estimate_scalar(&codec, &sig).unwrap();
            prop_assert_eq!(
                kernel.to_bits(), scalar.to_bits(),
                "kernel={} scalar={} |d|={} alpha={} n={}",
                kernel, scalar, d.len(), alpha, n
            );
        }
    }

    #[test]
    fn kernel_every_length_byte_matches_scalar(
        q in short_string(),
        alpha in 0.05f64..1.0,
        n in 2usize..5,
        fill in (0u16..256).prop_map(|b| b as u8),
    ) {
        // Sweep every possible length byte 0..=255 so each geometry row of
        // the prepared table is exercised against the reference.
        let codec = SigCodec::new(alpha, n);
        let builder = QueryStringMatcher::new(&codec, &q);
        let prepared = builder.prepare(&codec);
        for len in 0usize..=255 {
            let d = vec![fill; len];
            let sig = codec.encode_to_vec(&d);
            let kernel = prepared.estimate(&sig).unwrap();
            let scalar = builder.estimate_scalar(&codec, &sig).unwrap();
            prop_assert_eq!(kernel.to_bits(), scalar.to_bits(), "len={}", len);
        }
    }

    /// A real column interleaves lengths; a sweep that visits them one
    /// at a time is the shape a branch predictor memorises, and would hide
    /// a kernel whose work depends on the signature it reads. Every `cL`
    /// 0..=255 (and one clamped string) in random order, through every
    /// entry point, against the scalar oracle bit for bit: `estimate`,
    /// `estimate_parts` on the exact `cH` view and on a view that runs on
    /// into the next signatures (as a packed list's dictionary does), and
    /// `estimate_block` over cells whose padding is poison.
    #[test]
    fn kernel_matches_scalar_on_interleaved_length_columns(
        q in prop_oneof![short_string(), long_string()],
        alpha in 0.05f64..1.0,
        n in 2usize..5,
        seed in any::<u64>(),
    ) {
        let codec = SigCodec::new(alpha, n);
        let builder = QueryStringMatcher::new(&codec, &q);
        let m = builder.prepare(&codec);
        // Lengths 0..=256 (256 clamps to cL = 255), Fisher-Yates by an LCG.
        let mut lens: Vec<usize> = (0..=256).collect();
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in (1..lens.len()).rev() {
            lens.swap(i, next() % (i + 1));
        }
        let sigs: Vec<Vec<u8>> = lens
            .iter()
            .map(|&len| {
                let d: Vec<u8> = (0..len).map(|_| 0x20 + (next() % 0x5f) as u8).collect();
                codec.encode_to_vec(&d)
            })
            .collect();
        let want: Vec<u64> = sigs
            .iter()
            .map(|sig| builder.estimate_scalar(&codec, sig).unwrap().to_bits())
            .collect();

        // The grouped section of a packed frame: every cH back to back.
        let mut section: Vec<u8> = sigs.iter().flat_map(|sig| sig[1..].iter().copied()).collect();
        section.extend_from_slice(&[0xA5; 7]);
        let stride = codec.max_encoded_len();
        let mut block = vec![0xA5u8; sigs.len() * stride];
        let mut off = 0;
        for (i, (sig, &want)) in sigs.iter().zip(&want).enumerate() {
            prop_assert_eq!(m.estimate(sig).unwrap().to_bits(), want, "estimate, cL={}", sig[0]);
            let exact = m.estimate_parts(sig[0], &sig[1..]).unwrap();
            prop_assert_eq!(exact.to_bits(), want, "exact view, cL={}", sig[0]);
            let running_on = m.estimate_parts(sig[0], &section[off..]).unwrap();
            prop_assert_eq!(running_on.to_bits(), want, "section view, cL={}", sig[0]);
            off += sig.len() - 1;
            block[i * stride..i * stride + sig.len()].copy_from_slice(sig);
        }
        let mut out = vec![0.0f64; sigs.len()];
        m.estimate_block(&block, stride, &mut out).unwrap();
        for ((got, &want), sig) in out.iter().zip(&want).zip(&sigs) {
            prop_assert_eq!(got.to_bits(), want, "block, cL={}", sig[0]);
        }
    }

    #[test]
    fn block_estimates_match_single_calls(
        q in short_string(),
        data in proptest::collection::vec(proptest::collection::vec(0x20u8..0x7f, 0..64), 1..40),
        alpha in 0.05f64..0.9,
        n in 2usize..5,
    ) {
        let codec = SigCodec::new(alpha, n);
        let m = PreparedMatcher::new(&codec, &q);
        let stride = codec.max_encoded_len();
        let mut block = vec![0u8; data.len() * stride];
        let mut singles = Vec::with_capacity(data.len());
        for (i, d) in data.iter().enumerate() {
            let sig = codec.encode_to_vec(d);
            block[i * stride..i * stride + sig.len()].copy_from_slice(&sig);
            singles.push(m.estimate(&sig).unwrap());
        }
        let mut out = vec![0.0f64; data.len()];
        m.estimate_block(&block, stride, &mut out).unwrap();
        for (got, want) in out.iter().zip(&singles) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn truncated_signatures_error_not_panic(
        q in short_string(),
        d in short_string(),
        alpha in 0.05f64..0.9,
        n in 2usize..5,
    ) {
        let codec = SigCodec::new(alpha, n);
        let builder = QueryStringMatcher::new(&codec, &q);
        let m = builder.prepare(&codec);
        let sig = codec.encode_to_vec(&d);
        for cut in 0..sig.len() {
            prop_assert!(m.estimate(&sig[..cut]).is_err(), "cut={}", cut);
            prop_assert!(builder.estimate_scalar(&codec, &sig[..cut]).is_err());
        }
        prop_assert!(m.estimate(&sig).is_ok());
    }

    #[test]
    fn gram_multiset_size_formula(a in short_string(), n in 2usize..5) {
        let g = GramMultiset::new(&a, n);
        prop_assert_eq!(g.size(), (a.len() + n - 1) as u64);
    }

    #[test]
    fn common_grams_bounded_by_sizes(a in short_string(), b in short_string()) {
        let ga = GramMultiset::new(&a, 2);
        let gb = GramMultiset::new(&b, 2);
        let c = ga.common_size(&gb);
        prop_assert!(c <= ga.size());
        prop_assert!(c <= gb.size());
        prop_assert_eq!(c, gb.common_size(&ga));
    }

    #[test]
    fn signature_encoding_deterministic(a in short_string()) {
        let codec = SigCodec::new(0.2, 2);
        prop_assert_eq!(codec.encode_to_vec(&a), codec.encode_to_vec(&a));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 3 } else { 512 }))]

    #[test]
    fn capped_kernel_matches_naive_reference(pair in byte_pair()) {
        let (a, b) = pair;
        let exact = naive_edit_distance(&a, &b);
        prop_assert_eq!(edit_distance_bytes(&a, &b), exact);
        for cap in caps(exact) {
            let got = edit_distance_capped(&a, &b, cap);
            prop_assert_eq!(got, exact.min(cap), "cap={} |a|={} |b|={}", cap, a.len(), b.len());
        }
    }

    #[test]
    fn capped_kernel_on_near_duplicates(
        pair in byte_pair(),
        edits in 0usize..6,
        salt in any::<u64>(),
    ) {
        let (a, _) = pair;
        // A string and a lightly edited copy: the distances the refine
        // step actually has to get right sit just under small caps.
        let mut b = a.clone();
        let mut s = salt;
        for _ in 0..edits {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = (s >> 33) as usize % (b.len() + 1);
            let byte = (s >> 8) as u8;
            match (s >> 20) % 3 {
                0 => b.insert(at, byte),
                1 if at < b.len() => { b.remove(at); }
                _ if at < b.len() => b[at] = byte,
                _ => {}
            }
        }
        let exact = naive_edit_distance(&a, &b);
        prop_assert!(exact <= edits);
        for cap in caps(exact) {
            let got = edit_distance_capped(&b, &a, cap);
            prop_assert_eq!(got, exact.min(cap), "cap={} |a|={} |b|={}", cap, a.len(), b.len());
        }
    }

    #[test]
    fn prepared_pattern_equals_free_function(pair in byte_pair()) {
        let (a, b) = pair;
        let exact = edit_distance_bytes(&a, &b);
        let (pa, pb) = (PreparedPattern::new(&a), PreparedPattern::new(&b));
        for cap in caps(exact) {
            let free = edit_distance_capped(&a, &b, cap);
            prop_assert_eq!(pa.distance(&b, cap), free, "cap={}", cap);
            prop_assert_eq!(pb.distance(&a, cap), free, "cap={}", cap);
        }
    }
}
