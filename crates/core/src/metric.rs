//! Similarity metrics and attribute weights (Sec. III-A and V-B.3).
//!
//! The distance between a query and a tuple is
//! `D(T,Q) = f(λ₁·d₁, …, λ_q·d_q)` where `dᵢ` is the per-attribute
//! difference and `λᵢ > 0` the attribute's importance weight. The index is
//! *metric-oblivious*: it works with any `f` satisfying the monotonous
//! property (Property 3.1 — coordinate-wise dominance implies distance
//! dominance). The paper evaluates `L1`, `L2` (Euclidean) and `L∞`
//! combined with equal (EQU) or inverse-tuple-frequency (ITF) weights.

/// A rational similarity metric: combines the weighted per-attribute
/// differences into one distance.
///
/// # Contract
///
/// Implementations must satisfy the monotonous property (Property 3.1):
/// if `a[i] >= b[i]` for all `i` then `combine(a) >= combine(b)`. The
/// query processor relies on this to turn per-attribute lower bounds into a
/// whole-distance lower bound; a non-monotone metric voids the exactness
/// guarantee.
pub trait Metric {
    /// Combine weighted differences (all `>= 0`) into a distance.
    fn combine(&self, weighted_diffs: &[f64]) -> f64;

    /// `out[i] = combine([t₀[i], t₁[i], …])` for each position `i` of a
    /// block, where `terms` holds one column of `out.len()` weighted
    /// differences per attribute, back to back. The default calls
    /// [`Metric::combine`] per position; an override must give its bits.
    fn combine_block(&self, terms: &[f64], out: &mut [f64]) {
        let (n, mut diffs) = (out.len(), Vec::new());
        for (i, o) in out.iter_mut().enumerate() {
            diffs.clear();
            diffs.extend(terms.chunks_exact(n).filter_map(|col| col.get(i)));
            *o = self.combine(&diffs);
        }
    }

    /// Human-readable name (for experiment reports).
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The three metrics evaluated in the paper.
///
/// ```
/// use iva_core::{Metric, MetricKind};
///
/// let diffs = [3.0, 4.0];
/// assert_eq!(MetricKind::L1.combine(&diffs), 7.0);
/// assert_eq!(MetricKind::L2.combine(&diffs), 5.0);
/// assert_eq!(MetricKind::LInf.combine(&diffs), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// `Σ λᵢdᵢ`.
    L1,
    /// `sqrt(Σ (λᵢdᵢ)²)` — the Euclidean default of Table I.
    L2,
    /// `max λᵢdᵢ`.
    LInf,
}

impl Metric for MetricKind {
    fn combine(&self, weighted_diffs: &[f64]) -> f64 {
        match self {
            MetricKind::L1 => weighted_diffs.iter().sum(),
            MetricKind::L2 => weighted_diffs.iter().map(|d| d * d).sum::<f64>().sqrt(),
            MetricKind::LInf => weighted_diffs.iter().copied().fold(0.0, f64::max),
        }
    }

    /// `combine`'s folds a column at a time — the same operations in the
    /// same order, so the same bits: `sum` starts from `-0.0`.
    fn combine_block(&self, terms: &[f64], out: &mut [f64]) {
        out.fill(if *self == MetricKind::LInf { 0.0 } else { -0.0 });
        for col in terms.chunks_exact(out.len().max(1)) {
            let pairs = out.iter_mut().zip(col);
            match self {
                MetricKind::L1 => pairs.for_each(|(o, d)| *o += d),
                MetricKind::L2 => pairs.for_each(|(o, d)| *o += d * d),
                MetricKind::LInf => pairs.for_each(|(o, d)| *o = o.max(*d)),
            }
        }
        if *self == MetricKind::L2 {
            out.iter_mut().for_each(|o| *o = o.sqrt());
        }
    }

    fn name(&self) -> &'static str {
        match self {
            MetricKind::L1 => "L1",
            MetricKind::L2 => "L2",
            MetricKind::LInf => "Linf",
        }
    }
}

/// Attribute weight schemes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightScheme {
    /// All weights 1 (EQU).
    Equal,
    /// Inverse tuple frequency: `λ_A = ln((1+|T|)/(1+|T|_A))` (Sec. V-B.3).
    Itf,
}

impl WeightScheme {
    /// Weight of an attribute defined in `df` of `total` live tuples.
    ///
    /// An index counts `df` over its tuple list, tombstones included, until
    /// a rebuild, seal or merge drops them, so `df` may exceed `total`.
    /// `df` is counted as at most `total`: the weight is never negative (a
    /// negative λ voids the filter's lower bound), and 0 is the exact ITF
    /// weight of an attribute every live tuple defines.
    pub fn weight(&self, total: u64, df: u64) -> f64 {
        match self {
            WeightScheme::Equal => 1.0,
            WeightScheme::Itf => ((1 + total) as f64 / (1 + df.min(total)) as f64).ln(),
        }
    }

    /// Scheme name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            WeightScheme::Equal => "EQU",
            WeightScheme::Itf => "ITF",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_values() {
        let d = [3.0, 4.0];
        assert_eq!(MetricKind::L1.combine(&d), 7.0);
        assert_eq!(MetricKind::L2.combine(&d), 5.0);
        assert_eq!(MetricKind::LInf.combine(&d), 4.0);
    }

    #[test]
    fn empty_diffs_are_zero() {
        for m in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
            assert_eq!(m.combine(&[]), 0.0);
        }
    }

    /// The block combine is `combine` bit for bit, per position, for each
    /// built-in metric and through a caller's metric that takes the
    /// default: at block lengths around a 64-position word, over terms of
    /// 0 and `-0.0`, weights of 0, `1e-300`, the ndf penalty, large values,
    /// their squares' overflow and `0 · ∞`.
    #[test]
    fn combine_block_is_combine_bit_for_bit() {
        struct Caller(MetricKind);
        impl Metric for Caller {
            fn combine(&self, d: &[f64]) -> f64 {
                self.0.combine(d)
            }
        }
        let ndf = crate::IvaConfig::default().ndf_penalty;
        let values = [
            0.0,
            -0.0,
            1e-300,
            ndf,
            3.5,
            1e154,
            1e200,
            f64::MAX,
            f64::INFINITY,
        ];
        let lambdas = [1.0, 0.0, -0.0, 0.37, 2.0];
        for m in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
            for n in [1, 63, 64, 65, 256] {
                for q in 0..4 {
                    let term = |a: usize, i: usize| {
                        let lam = lambdas[(a * 3 + i / 7) % lambdas.len()];
                        lam * values[(i * (a + 2) + a) % values.len()]
                    };
                    let terms: Vec<f64> = (0..q)
                        .flat_map(|a| (0..n).map(move |i| term(a, i)))
                        .collect();
                    let want: Vec<u64> = (0..n)
                        .map(|i| {
                            m.combine(&(0..q).map(|a| term(a, i)).collect::<Vec<_>>())
                                .to_bits()
                        })
                        .collect();
                    for got in [&m as &dyn Metric, &Caller(m)].map(|metric| {
                        let mut out = vec![f64::NAN; n];
                        metric.combine_block(&terms, &mut out);
                        out.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
                    }) {
                        assert_eq!(got, want, "{} n={n} q={q}", m.name());
                    }
                }
            }
        }
    }

    #[test]
    fn monotonous_property_randomized() {
        // Property 3.1 on random dominated pairs.
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for m in [MetricKind::L1, MetricKind::L2, MetricKind::LInf] {
            for _ in 0..500 {
                let dim = 1 + (next() * 6.0) as usize;
                let lo: Vec<f64> = (0..dim).map(|_| next() * 10.0).collect();
                let hi: Vec<f64> = lo.iter().map(|&v| v + next() * 5.0).collect();
                assert!(
                    m.combine(&hi) >= m.combine(&lo) - 1e-12,
                    "{} violated monotonicity",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn itf_weights_favor_rare_attributes() {
        let w = WeightScheme::Itf;
        let rare = w.weight(1000, 10);
        let common = w.weight(1000, 900);
        assert!(rare > common);
        assert!(common > 0.0);
        assert_eq!(WeightScheme::Equal.weight(1000, 10), 1.0);
    }

    #[test]
    fn itf_weight_formula() {
        // ln((1+|T|)/(1+|T|_A))
        let w = WeightScheme::Itf.weight(999, 99);
        assert!((w - (1000.0f64 / 100.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn itf_weight_is_never_negative() {
        // 100 tuples define the attribute, one of them is deleted.
        assert_eq!(WeightScheme::Itf.weight(99, 100), 0.0);
        assert_eq!(WeightScheme::Itf.weight(0, 7), 0.0);
    }
}
