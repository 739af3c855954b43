//! Ablation: how much filtering power do signature false hits cost?
//!
//! Compares four estimators on real dataset string pairs:
//!   1. `est`  — the nG-signature estimator exactly as Eq. 3 writes it
//!      (`PreparedMatcher::eq3`), what the paper analyses;
//!   2. `used` — what the index filters with (`PreparedMatcher::estimate`):
//!      Eq. 3 rounded up to a whole edit, floored by the length difference;
//!   3. `est'` — the exact-gram-set oracle (Eq. 1), what `est` approximates;
//!   4. `ed`   — the true edit distance, the unreachable ideal.
//!
//! The appendix predicts `ē ≈ p` (the false-hit probability of Eq. 6) for
//! `est` against `est'`; this bench reports the measured relative error
//! next to the predicted one for each α. `used` may exceed `est'` — it
//! uses two facts the gram count does not.

use iva_bench::{report, scale_config};
use iva_core::IvaConfig;
use iva_text::{
    edit_distance_bytes, est_prime, expected_relative_error, gram_count, optimal_t,
    PreparedMatcher, SigCodec,
};
use iva_workload::attribute_vocabulary;

fn main() {
    let workload = scale_config();
    report::banner(
        "Ablation",
        "signature estimator vs exact-gram oracle vs true edit distance",
        &workload,
        &IvaConfig::default(),
    );
    let vocab = attribute_vocabulary(workload.seed, 7, 300, workload.mean_string_len);
    report::header(&[
        "alpha",
        "mean est",
        "mean used",
        "mean est'",
        "mean ed",
        "rel err",
        "predicted",
    ]);
    for alpha in [0.10f64, 0.20, 0.30, 0.50] {
        let codec = SigCodec::new(alpha, 2);
        let (mut s_est, mut s_used, mut s_estp, mut s_ed, mut n) = (0.0, 0.0, 0.0, 0.0, 0u64);
        for qi in 0..40 {
            let q = vocab[qi].as_bytes();
            let m = PreparedMatcher::new(&codec, q);
            for dv in &vocab[40..240] {
                let d = dv.as_bytes();
                let sig = codec.encode_to_vec(d);
                s_est += m.eq3(&sig).unwrap();
                s_used += m.estimate(&sig).unwrap();
                s_estp += est_prime(q, d, 2);
                s_ed += edit_distance_bytes(q, d) as f64;
                n += 1;
            }
        }
        let nf = n as f64;
        let rel_err = (s_estp - s_est) / s_estp;
        // Predicted ē at the mean string length.
        let mean_len = workload.mean_string_len as usize;
        let grams = gram_count(mean_len, 2) as u32;
        let l_bits = 8 * ((alpha * grams as f64).ceil() as u32).max(1);
        let t = optimal_t(l_bits, grams);
        let predicted = expected_relative_error(l_bits, t, grams);
        report::row(&[
            format!("{:.0}%", alpha * 100.0),
            report::f(s_est / nf),
            report::f(s_used / nf),
            report::f(s_estp / nf),
            report::f(s_ed / nf),
            format!("{:.2}", rel_err),
            format!("{:.2}", predicted),
        ]);
    }
    println!("\nappendix: measured relative error of est vs est' should track the");
    println!("predicted false-hit probability p(l, t, g) of Eq. 6, shrinking with alpha.");
}
