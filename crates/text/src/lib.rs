//! # iva-text
//!
//! String approximation machinery of the iVA-file (Sec. III-B of the
//! paper): padded n-grams, Levenshtein edit distance, the deterministic
//! signature hash `h[l,t]`, the nG-signature codec, the lower-bound
//! estimator `est(sq, c(sd))`, and the expected-error analysis used to pick
//! the optimal number of hash bits `t`.
//!
//! Central guarantee (Proposition 3.3): for every query string `sq` and
//! data string `sd`, `est(sq, c(sd)) ≤ ed(sq, sd)` — filtering with
//! signatures never produces false negatives. The crate's tests (including
//! property tests) enforce this.

#![warn(missing_docs)]

mod edit_distance;
mod hash;
mod ngram;
mod params;
mod signature;

pub use edit_distance::{
    edit_distance, edit_distance_bytes, edit_distance_capped, edit_distance_within, PreparedPattern,
};
pub use hash::{fnv1a64, gram_bit_positions, or_gram_into, positions_hit, splitmix64};
pub use ngram::{est_prime, gram_count, grams_of, padded, GramMultiset, PAD_END, PAD_START};
pub use params::{expected_relative_error, false_hit_probability, optimal_t};
pub use signature::{PreparedMatcher, QueryStringMatcher, SigCodec, SigError};
