//! Index configuration.

use iva_text::SigCodec;

/// Tunable parameters of an iVA-file (Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvaConfig {
    /// Relative vector length `α ∈ (0, 1]` (Sec. III-D): approximation
    /// vectors take `⌈α · full-width⌉` bytes. Paper default: 20 %.
    pub alpha: f64,
    /// Gram length `n` for nG-signatures. Paper default: 2.
    pub n: usize,
    /// The "predefined constant" difference between any query value and an
    /// *ndf* cell (Sec. III-A). The paper's worked example (Ex. 4.1) uses 20.
    pub ndf_penalty: f64,
    /// Width `r` in bytes of a stored numerical value (f64 ⇒ 8).
    pub numeric_width: usize,
    /// Inert: accepted and ignored, though [`IvaConfig::validate`] still
    /// bounds it. It was the worker count of a segmented-parallel filter
    /// scan, deleted because it no longer beat the serial scan's wall
    /// clock; a query runs on the thread that issued it. The field stays
    /// only until the benchmark stops setting it.
    pub search_threads: usize,
    /// Inert: accepted and ignored. It chose between the packed frames
    /// and a raw layout for a build's lists; packed frames are now the
    /// only list encoding. The field stays only until the benchmark stops
    /// setting it.
    pub compress_lists: bool,
    /// Inert: accepted and ignored. It was the budget of an in-RAM cache
    /// of decoded lists, deleted because the packed lists it mirrored
    /// scan faster; the field stays only until the benchmark stops
    /// setting it.
    pub hot_tier_bytes: usize,
}

impl Default for IvaConfig {
    fn default() -> Self {
        Self {
            alpha: 0.20,
            n: 2,
            ndf_penalty: 20.0,
            numeric_width: 8,
            search_threads: 0,
            compress_lists: true,
            hot_tier_bytes: 0,
        }
    }
}

impl IvaConfig {
    /// Bytes of a numerical approximation code: `⌈α · r⌉` (Sec. III-D).
    pub fn numeric_code_bytes(&self) -> usize {
        ((self.alpha * self.numeric_width as f64).ceil() as usize).clamp(1, 8)
    }

    /// Build the signature codec for this configuration.
    pub fn sig_codec(&self) -> SigCodec {
        SigCodec::new(self.alpha, self.n)
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha must be in (0,1], got {}", self.alpha));
        }
        if self.n < 2 || self.n > 8 {
            return Err(format!("gram length must be in [2,8], got {}", self.n));
        }
        if self.ndf_penalty < 0.0 || !self.ndf_penalty.is_finite() {
            return Err(format!(
                "ndf penalty must be finite and >= 0, got {}",
                self.ndf_penalty
            ));
        }
        if self.numeric_width == 0 || self.numeric_width > 8 {
            return Err(format!(
                "numeric width must be in [1,8], got {}",
                self.numeric_width
            ));
        }
        if self.search_threads > 1024 {
            return Err(format!(
                "search threads must be <= 1024, got {}",
                self.search_threads
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let c = IvaConfig::default();
        assert_eq!(c.alpha, 0.20);
        assert_eq!(c.n, 2);
        assert_eq!(c.ndf_penalty, 20.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn numeric_code_bytes_formula() {
        let c = IvaConfig {
            alpha: 0.20,
            ..Default::default()
        };
        assert_eq!(c.numeric_code_bytes(), 2); // ceil(0.2 * 8)
        let c = IvaConfig {
            alpha: 0.10,
            ..Default::default()
        };
        assert_eq!(c.numeric_code_bytes(), 1);
        let c = IvaConfig {
            alpha: 0.30,
            ..Default::default()
        };
        assert_eq!(c.numeric_code_bytes(), 3);
        let c = IvaConfig {
            alpha: 1.0,
            ..Default::default()
        };
        assert_eq!(c.numeric_code_bytes(), 8);
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(IvaConfig {
            alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(IvaConfig {
            alpha: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(IvaConfig {
            n: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(IvaConfig {
            ndf_penalty: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(IvaConfig {
            numeric_width: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(IvaConfig {
            search_threads: 2000,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
