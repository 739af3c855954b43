//! lint:scope(panic-reachability)
//! The nG-signature (Sec. III-B): encoding, hit testing and the lower-bound
//! edit-distance estimator built on `est(sq, c(sd))` of Eq. 3 — reported
//! rounded up to a whole edit and floored by the length difference (see
//! `finish_estimate`); Eq. 3's own value stays reachable as
//! [`PreparedMatcher::eq3`].
//!
//! A signature `c(s)` has two parts: the lower bits `cL(s)` record the
//! string length (one byte here, clamped to 255 — clamping can only shrink
//! the estimate, preserving the no-false-negative guarantee), and the higher
//! bits `cH[l,t](s)` are the OR of `h[l,t](ωᵢ)` over all n-grams `ωᵢ`
//! (Example 3.2).
//!
//! The signature width follows the iVA-file's *relative vector length* `α`
//! (Sec. III-D): `cH` occupies `⌈α·(|s|+n−1)⌉` bytes, so `l = 8·⌈α·(|s|+n−1)⌉`
//! bits, and `t = argmin ē` per the appendix analysis, both precomputed per
//! possible length byte in [`SigCodec`].
//!
//! Estimation runs through two implementations:
//!
//! * [`PreparedMatcher`] — the production kernel. All query-gram hashes are
//!   packed at build time into `u64`-word bitmasks, one mask per distinct
//!   gram per signature geometry, so the per-signature hit test is word
//!   arithmetic (`mask & !sig == 0`) — and, on the one-word geometries a
//!   scan lives in, a loop of fixed shape: same trip count, same loads and
//!   no jump whatever the signature holds. The matcher is immutable after
//!   construction and can be shared by reference across scan worker
//!   threads.
//! * [`QueryStringMatcher::estimate_scalar`] — the retained scalar
//!   reference implementation, which recomputes gram bit positions per call
//!   and tests them byte by byte. Property tests pin the kernel to this
//!   reference bit for bit.

use crate::edit_distance::PreparedPattern;
use crate::hash::{gram_bit_positions, or_gram_into, positions_hit};
use crate::ngram::{gram_count, grams_of, GramMultiset};
use crate::params::optimal_t;

/// Signature bytes failed validation during estimation.
///
/// The estimator is fed raw bytes scanned from on-disk vector lists, so a
/// truncated or mangled element must surface as a recoverable error, never
/// a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigError {
    /// The signature slice was empty (no length byte).
    Empty,
    /// The signature is shorter than its length byte declares.
    Truncated {
        /// Bytes the declared geometry requires (including the length byte).
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::Empty => write!(f, "empty signature"),
            SigError::Truncated { need, got } => {
                write!(f, "truncated signature: need {need} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for SigError {}

/// Precomputed signature geometry for one `(α, n)` configuration.
///
/// ```
/// use iva_text::{edit_distance, PreparedMatcher, SigCodec};
///
/// let codec = SigCodec::new(0.2, 2); // the paper's defaults
/// let sig = codec.encode_to_vec(b"canon");
///
/// // The estimator never exceeds the true edit distance:
/// let matcher = PreparedMatcher::new(&codec, b"cannon");
/// let est = matcher.estimate(&sig).unwrap();
/// assert!(est <= edit_distance("cannon", "canon") as f64);
///
/// // Identical strings always estimate zero:
/// let same = PreparedMatcher::new(&codec, b"canon");
/// assert_eq!(same.estimate(&sig).unwrap(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SigCodec {
    n: usize,
    alpha: f64,
    /// Indexed by the clamped length byte: `(cH bytes, l bits, t)`.
    table: Vec<(u16, u16, u8)>,
}

impl SigCodec {
    /// Build the codec for gram length `n` (≥ 2) and relative vector length
    /// `α ∈ (0, 1]`.
    pub fn new(alpha: f64, n: usize) -> Self {
        assert!(n >= 2, "gram length must be >= 2");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        let table = (0..=255usize)
            .map(|len| {
                let grams = gram_count(len, n) as u32;
                let ch_bytes = ((alpha * grams as f64).ceil() as u16).max(1);
                let l_bits = ch_bytes * 8;
                let t = optimal_t(u32::from(l_bits), grams) as u8;
                (ch_bytes, l_bits, t)
            })
            .collect();
        Self { n, alpha, table }
    }

    /// Gram length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Relative vector length `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The length byte stored for a string of `len` bytes.
    pub fn clamp_len(len: usize) -> u8 {
        len.min(255) as u8
    }

    /// `cH` size in bytes for a given length byte.
    pub fn ch_bytes(&self, len_byte: u8) -> usize {
        self.table
            .get(usize::from(len_byte))
            .map_or(0, |e| usize::from(e.0))
    }

    /// Total encoded signature size (`cL` + `cH`) for a given length byte.
    pub fn encoded_len(&self, len_byte: u8) -> usize {
        1 + self.ch_bytes(len_byte)
    }

    /// The largest encoded signature size any length byte can produce.
    pub fn max_encoded_len(&self) -> usize {
        self.encoded_len(255)
    }

    /// `(l bits, t)` for a given length byte.
    pub fn geometry(&self, len_byte: u8) -> (u32, u32) {
        self.table
            .get(usize::from(len_byte))
            .map_or((0, 0), |&(_, l, t)| (u32::from(l), u32::from(t)))
    }

    /// Encode the nG-signature of `s`, appending `[cL][cH...]` to `out`.
    /// Returns the number of bytes written.
    pub fn encode(&self, s: &[u8], out: &mut Vec<u8>) -> usize {
        let len_byte = Self::clamp_len(s.len());
        let (l, t) = self.geometry(len_byte);
        let ch = self.ch_bytes(len_byte);
        out.push(len_byte);
        let start = out.len();
        out.resize(start + ch, 0);
        let mut scratch = Vec::with_capacity(t as usize);
        for gram in grams_of(s, self.n) {
            let dst = out.get_mut(start..).unwrap_or(&mut []);
            or_gram_into(&gram, l, t, dst, &mut scratch);
        }
        1 + ch
    }

    /// Encode into a fresh vector.
    pub fn encode_to_vec(&self, s: &[u8]) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode(s, &mut v);
        v
    }
}

/// Query-side gram extraction for one query string: the *build step* of
/// estimation. Holds the distinct grams and their multiset counts; call
/// [`QueryStringMatcher::prepare`] to bake them into the immutable
/// word-level kernel used on the scan hot path, or
/// [`QueryStringMatcher::estimate_scalar`] for the slow reference
/// evaluation.
#[derive(Debug, Clone)]
pub struct QueryStringMatcher {
    sq: Box<[u8]>,
    n: usize,
    /// Distinct query grams.
    grams: Vec<Vec<u8>>,
    /// Multiset count of each distinct gram (parallel to `grams`).
    counts: Vec<u32>,
}

impl QueryStringMatcher {
    /// Extract the gram multiset of query string `sq`.
    pub fn new(codec: &SigCodec, sq: &[u8]) -> Self {
        let ms = GramMultiset::new(sq, codec.n);
        let grams: Vec<Vec<u8>> = ms.iter().map(|(g, _)| g.to_vec()).collect();
        let counts: Vec<u32> = ms.iter().map(|(_, c)| c).collect();
        Self {
            sq: sq.into(),
            n: codec.n,
            grams,
            counts,
        }
    }

    /// Query string length in bytes.
    pub fn query_len(&self) -> usize {
        self.sq.len()
    }

    /// Bake the packed-mask tables for every possible length byte and
    /// return the immutable estimation kernel.
    pub fn prepare(&self, codec: &SigCodec) -> PreparedMatcher {
        PreparedMatcher::build(codec, self)
    }

    /// Reference implementation of the estimate: per-call gram hashing,
    /// byte-level hit tests. Bit-identical to
    /// [`PreparedMatcher::estimate`]; kept as the property-test oracle and
    /// for one-off evaluations that do not amortize a `prepare` call.
    pub fn estimate_scalar(&self, codec: &SigCodec, sig: &[u8]) -> Result<f64, SigError> {
        let Some((&len_byte, rest)) = sig.split_first() else {
            return Err(SigError::Empty);
        };
        let ch_bytes = codec.ch_bytes(len_byte);
        let ch = rest.get(..ch_bytes).ok_or(SigError::Truncated {
            need: 1 + ch_bytes,
            got: sig.len(),
        })?;
        let (l, t) = codec.geometry(len_byte);
        let mut pos = Vec::with_capacity(t as usize);
        let mut hg = 0u64;
        for (g, &c) in self.grams.iter().zip(&self.counts) {
            gram_bit_positions(g, l, t, &mut pos);
            if positions_hit(&pos, ch) {
                hg += u64::from(c);
            }
        }
        Ok(finish_estimate(self.sq.len(), len_byte, hg, self.n))
    }
}

/// Eq. 3 itself: `(max(|sq|, |sd|) − |hg| − 1)/n + 1`, clamped at 0. The
/// quantity the paper analyses (Proposition 3.3, the appendix's false-hit
/// model); the query path uses the tighter [`finish_estimate`].
#[inline]
fn eq3(q_len: usize, len_byte: u8, hg: u64, n: usize) -> f64 {
    let m = q_len.max(usize::from(len_byte)) as f64;
    ((m - hg as f64 - 1.0) / n as f64 + 1.0).max(0.0)
}

/// The estimate every scan path reports, as the scalar reference computes
/// it (the kernel's [`PreparedMatcher::finish`] reaches the same value by
/// table, and the property suite holds the two bit-identical):
/// `max(⌈Eq. 3⌉, ||sq| − |sd||)`. Both tightenings are free — an edit
/// distance is a whole number, so a lower bound on it may be rounded *up*,
/// and no edit script is shorter than the length difference, which `cL`
/// already stores. A clamped `cL = 255` only says `|sd| ≥ 255`, so the
/// length term is dropped when `|sq|` is that long too.
#[inline]
fn finish_estimate(q_len: usize, len_byte: u8, hg: u64, n: usize) -> f64 {
    let d_len = usize::from(len_byte);
    // ⌈(m − hg − 1)/n + 1⌉ = ⌈(m + n − 1 − hg)/n⌉, in integers; `hg`
    // never exceeds the query's gram count `|sq| + n − 1 ≤ m + n − 1`.
    let short = (q_len.max(d_len) + n - 1).saturating_sub(hg as usize);
    let by_grams = short.div_ceil(n.max(1));
    by_grams.max(length_floor(q_len, d_len)) as f64
}

/// The first 8 bytes of `b` as a little-endian word, if it has them.
#[inline]
fn le_word(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

/// Fewer than 8 bytes as the low bytes of a little-endian word.
#[inline]
fn short_word(b: &[u8]) -> u64 {
    b.iter().rev().fold(0, |word, &x| word << 8 | u64::from(x))
}

/// `||sq| − |sd||` as far as `cL = d_len` tells it.
fn length_floor(q_len: usize, d_len: usize) -> usize {
    if d_len == 255 && q_len >= 255 {
        0
    } else {
        q_len.abs_diff(d_len)
    }
}

/// Entries per step of the one-word hit loop. Every geometry's pack is
/// padded to a multiple of this, so the loop has no remainder and its trip
/// count takes one or two values per query instead of one per `cL`.
const LANES: usize = 8;

/// Per-length-byte kernel geometry: where this length's gram masks live
/// and the parts of the estimate that depend on `cL` alone.
#[derive(Debug, Clone, Copy)]
struct LenPlan {
    /// `cH` bytes of this geometry.
    ch_bytes: u32,
    /// `⌈ch_bytes/8⌉` — `u64` words per gram mask.
    words: u32,
    /// Offset of this length's first gram mask in [`PreparedMatcher::masks`].
    mask_off: u32,
    /// One-word path (`words == 1` only): offset/length of this geometry's
    /// padded pack in [`PreparedMatcher::pack_masks`] / `pack_counts`.
    pack_off: u32,
    pack_len: u32,
    /// Hit-gram count contributed unconditionally by grams whose mask is
    /// empty under this geometry (they hit every signature).
    pack_base: u64,
    /// `max(|sq|, cL) + n − 1`: `top − |hg|` is Eq. 3's numerator.
    top: usize,
    /// The length floor `||sq| − cL|` (0 when both are clamped), as the
    /// estimate's own type: a float `max` compiles without a branch.
    by_length: f64,
}

/// Immutable fixed-shape estimation kernel for one query string.
///
/// Construction hashes every distinct query gram once per distinct
/// signature geometry `(l, t)` and packs the `t` bit positions into
/// little-endian `u64` words; the paper's hit test `h[l,t](ω) AND cH =
/// h[l,t](ω)` becomes `mask & !sig == 0` over `⌈l/64⌉` words per gram,
/// with no per-signature allocation.
///
/// The one-word path (`cH ≤ 8` bytes: every string under 40 bytes at the
/// paper's α = 0.2) is the one a scan lives in, and nothing in it depends
/// on the signature it reads (DESIGN.md §8):
///
/// * *Fixed trip count.* Each geometry's distinct masks and their summed
///   counts are two parallel arrays padded to a multiple of 8 (`LANES`) with
///   `(mask = !0, count = 0)` entries — an all-ones signature word "hits"
///   a pad and adds 0 — so the hit loop runs whole 8-wide steps,
///   vectorises without a scalar tail, and does not branch per `cL`.
/// * *One load.* A mask has bits only below `l = 8·ch_bytes`, so whatever
///   follows the signature in the loaded word cannot change a hit test:
///   given 8 readable bytes the word is one unaligned load, with no
///   length-dependent copy and no masking.
/// * *No division, no jump.* `⌈(top − |hg|)/n⌉` is a table lookup and the
///   length floor is baked per `cL`, both as floats.
///
/// [`QueryStringMatcher::estimate_scalar`] stays the oracle; every value is
/// bit-identical to it. The matcher is `Sync`: one instance is shared by
/// reference across all segmented-scan workers of a query. It carries the
/// query string's [`PreparedPattern`] too, so whatever holds the matcher
/// computes exact distances without building match masks per call.
#[derive(Debug, Clone)]
pub struct PreparedMatcher {
    q_len: usize,
    n: usize,
    /// Multiset count of each distinct gram.
    counts: Vec<u64>,
    /// One entry per possible length byte.
    plans: Vec<LenPlan>,
    /// Concatenated gram masks; `plans[len].mask_off` indexes the first
    /// word of the first gram's mask for that length's geometry. Lengths
    /// sharing a geometry share one table.
    masks: Vec<u64>,
    /// One-word geometries: the distinct masks (grams that collide into
    /// the same word are indistinguishable to the hit test) and, parallel
    /// to them, their summed counts; each geometry's run is padded to a
    /// multiple of [`LANES`].
    pack_masks: Vec<u64>,
    pack_counts: Vec<u64>,
    /// `ceil_div[x] = ⌈x/n⌉` for every `x` up to the largest `top`.
    ceil_div: Vec<f64>,
    pattern: PreparedPattern,
}

/// Baked per-geometry offsets: `(mask_off, pack_off, pack_len, pack_base)`.
type Baked = (u32, u32, u32, u64);

impl PreparedMatcher {
    /// Build the kernel for query string `sq` — shorthand for
    /// [`QueryStringMatcher::new`] + [`QueryStringMatcher::prepare`].
    pub fn new(codec: &SigCodec, sq: &[u8]) -> Self {
        QueryStringMatcher::new(codec, sq).prepare(codec)
    }

    fn build(codec: &SigCodec, query: &QueryStringMatcher) -> Self {
        let (q_len, n) = (query.sq.len(), query.n);
        let mut plans = Vec::with_capacity(256);
        let mut masks: Vec<u64> = Vec::new();
        let mut pack_masks: Vec<u64> = Vec::new();
        let mut pack_counts: Vec<u64> = Vec::new();
        // Consecutive length bytes frequently share (l, t); dedupe so each
        // distinct geometry hashes the query grams exactly once.
        let mut seen: Vec<((u32, u32), Baked)> = Vec::new();
        let mut pos = Vec::new();
        for len in 0u16..=255 {
            let len_byte = len as u8;
            let (l, t) = codec.geometry(len_byte);
            let ch_bytes = codec.ch_bytes(len_byte);
            let words = ch_bytes.div_ceil(8);
            let (mask_off, pack_off, pack_len, pack_base) =
                match seen.iter().find(|(k, _)| *k == (l, t)) {
                    Some(&(_, baked)) => baked,
                    None => {
                        let off = masks.len() as u32;
                        for g in &query.grams {
                            gram_bit_positions(g, l, t, &mut pos);
                            let base = masks.len();
                            masks.resize(base + words, 0);
                            for &p in &pos {
                                if let Some(w) = masks.get_mut(base + (p / 64) as usize) {
                                    *w |= 1u64 << (p % 64);
                                }
                            }
                        }
                        // One-word geometries additionally get the deduped
                        // pack: counts of colliding grams merge, and empty
                        // masks hit every signature and fold into a constant.
                        let p_off = pack_masks.len();
                        let mut p_base = 0u64;
                        if words == 1 {
                            for (i, &c) in query.counts.iter().enumerate() {
                                let m = masks.get(off as usize + i).copied().unwrap_or(0);
                                let seen_at = pack_masks.iter().skip(p_off).position(|&pm| pm == m);
                                if m == 0 {
                                    p_base += u64::from(c);
                                } else if let Some(slot) =
                                    seen_at.and_then(|j| pack_counts.get_mut(p_off + j))
                                {
                                    *slot += u64::from(c);
                                } else {
                                    pack_masks.push(m);
                                    pack_counts.push(u64::from(c));
                                }
                            }
                            let padded = p_off + (pack_masks.len() - p_off).next_multiple_of(LANES);
                            pack_masks.resize(padded, !0);
                            pack_counts.resize(padded, 0);
                        }
                        let p_len = (pack_masks.len() - p_off) as u32;
                        let baked = (off, p_off as u32, p_len, p_base);
                        seen.push(((l, t), baked));
                        baked
                    }
                };
            let d_len = usize::from(len_byte);
            plans.push(LenPlan {
                ch_bytes: ch_bytes as u32,
                words: words as u32,
                mask_off,
                pack_off,
                pack_len,
                pack_base,
                top: q_len.max(d_len) + n - 1,
                by_length: length_floor(q_len, d_len) as f64,
            });
        }
        let max_top = q_len.max(255) + n - 1;
        Self {
            q_len,
            n,
            counts: query.counts.iter().map(|&c| u64::from(c)).collect(),
            plans,
            masks,
            pack_masks,
            pack_counts,
            ceil_div: (0..=max_top).map(|x| x.div_ceil(n.max(1)) as f64).collect(),
            pattern: PreparedPattern::new(&query.sq),
        }
    }

    /// The query string's exact-distance pattern, built with the matcher.
    pub fn pattern(&self) -> &PreparedPattern {
        &self.pattern
    }

    /// Query string length in bytes.
    pub fn query_len(&self) -> usize {
        self.q_len
    }

    /// The baked plan for a length byte. `plans` has a row per `u8` value,
    /// so the lookup never fails.
    #[inline]
    fn plan_of(&self, len_byte: u8) -> Result<&LenPlan, SigError> {
        self.plans.get(usize::from(len_byte)).ok_or(SigError::Empty)
    }

    /// Lower-bound `ed(sq, sd)` from an encoded signature (`[cL][cH...]`,
    /// as produced by [`SigCodec::encode`]): Eq. 3 rounded up to a whole
    /// number of edits and floored by the length difference `cL` implies.
    /// Never above the true edit distance (Proposition 3.3 plus the two
    /// facts above), never below [`PreparedMatcher::eq3`].
    ///
    /// Trailing bytes beyond the declared geometry are ignored (block scans
    /// hand in stride-sized cells); missing bytes are a corruption error.
    pub fn estimate(&self, sig: &[u8]) -> Result<f64, SigError> {
        let Some((&len_byte, rest)) = sig.split_first() else {
            return Err(SigError::Empty);
        };
        self.estimate_parts(len_byte, rest)
    }

    /// [`PreparedMatcher::estimate`] for callers that already consumed the
    /// length byte from the element stream (the vector-list cursors, which
    /// must read `cL` first to learn how many `cH` bytes to view). `ch` may
    /// run past the signature's own bytes; a caller that can hand in 8 or
    /// more readable bytes gets the one-load path on one-word geometries.
    #[inline]
    pub fn estimate_parts(&self, len_byte: u8, ch: &[u8]) -> Result<f64, SigError> {
        let plan = self.plan_of(len_byte)?;
        let hg = self.hit_grams_of(plan, ch)?;
        Ok(self.finish(plan, hg))
    }

    /// `est(sq, c(sd))` exactly as Eq. 3 writes it — the same hit count as
    /// [`PreparedMatcher::estimate`] without the rounding and the length
    /// floor. What the paper's analysis is about (`est ≤ est′`, the
    /// appendix's false-hit prediction); not on the query path.
    pub fn eq3(&self, sig: &[u8]) -> Result<f64, SigError> {
        let Some((&len_byte, rest)) = sig.split_first() else {
            return Err(SigError::Empty);
        };
        let hg = self.hit_grams_of(self.plan_of(len_byte)?, rest)?;
        Ok(eq3(self.q_len, len_byte, hg, self.n))
    }

    /// [`finish_estimate`] without its division or its branch: the
    /// quotient from the table, the length floor from the plan. `|hg| ≤
    /// top`, so the lookup is in range; the fallback is the same arithmetic.
    #[inline]
    fn finish(&self, plan: &LenPlan, hg: u64) -> f64 {
        let short = plan.top.saturating_sub(hg as usize);
        let by_grams = match self.ceil_div.get(short) {
            Some(&q) => q,
            None => short.div_ceil(self.n.max(1)) as f64,
        };
        by_grams.max(plan.by_length)
    }

    /// `|hg|` on a one-word geometry, from the signature word `s` (bits at
    /// and above `8·ch_bytes` may hold anything — no mask has them set).
    /// Whole [`LANES`]-wide steps over the padded pack.
    #[inline]
    fn one_word_hits(&self, plan: &LenPlan, s: u64) -> u64 {
        let (off, len) = (plan.pack_off as usize, plan.pack_len as usize);
        let masks = self.pack_masks.get(off..off + len).unwrap_or(&[]);
        let counts = self.pack_counts.get(off..off + len).unwrap_or(&[]);
        let mut lanes = [0u64; LANES];
        for (ms, cs) in masks.chunks_exact(LANES).zip(counts.chunks_exact(LANES)) {
            for ((lane, &m), &c) in lanes.iter_mut().zip(ms).zip(cs) {
                *lane += if s & m == m { c } else { 0 };
            }
        }
        plan.pack_base + lanes.iter().sum::<u64>()
    }

    /// `|hg|`: the query grams (with multiplicity) whose every hashed bit
    /// is set in the signature under `plan` that `ch` starts with. `ch` may
    /// run on past it.
    #[inline]
    fn hit_grams_of(&self, plan: &LenPlan, ch: &[u8]) -> Result<u64, SigError> {
        let ch_bytes = plan.ch_bytes as usize;
        let Some(own) = ch.get(..ch_bytes) else {
            return Err(SigError::Truncated {
                need: 1 + ch_bytes,
                got: 1 + ch.len(),
            });
        };
        Ok(match (plan.words, le_word(ch)) {
            (1, Some(word)) => self.one_word_hits(plan, word),
            (1, None) => self.one_word_hits(plan, short_word(own)),
            _ => self.hit_grams(plan, own),
        })
    }

    /// Estimate a contiguous block of `out.len()` encoded signatures, each
    /// occupying `stride` bytes starting at `sigs[i * stride]` (trailing
    /// padding within a cell is ignored); no per-element allocation. On a
    /// one-word geometry the
    /// signature word is one load that may run into the next cell (never
    /// past `sigs`).
    pub fn estimate_block(
        &self,
        sigs: &[u8],
        stride: usize,
        out: &mut [f64],
    ) -> Result<(), SigError> {
        if out.is_empty() {
            return Ok(());
        }
        if stride == 0 || sigs.len() < (out.len() - 1) * stride + 1 {
            return Err(SigError::Truncated {
                need: if stride == 0 {
                    1
                } else {
                    (out.len() - 1) * stride + 1
                },
                got: sigs.len(),
            });
        }
        for (i, slot) in out.iter_mut().enumerate() {
            let Some((&len_byte, rest)) = sigs.get(i * stride..).and_then(|c| c.split_first())
            else {
                return Err(SigError::Empty);
            };
            let plan = self.plan_of(len_byte)?;
            // A signature wider than its cell is truncated, whatever the
            // next cell holds.
            let ch = match plan.ch_bytes as usize >= stride {
                true => rest.get(..stride - 1).unwrap_or(rest),
                false => rest,
            };
            *slot = self.finish(plan, self.hit_grams_of(plan, ch)?);
        }
        Ok(())
    }

    /// Count hit grams with one pass over every gram's mask — the general
    /// path of multi-word geometries, over exactly the signature's `cH`
    /// bytes, staged as words on the stack. Out of line, so that the
    /// one-word path around it stays small enough to inline into a scan.
    #[inline(never)]
    fn hit_grams(&self, plan: &LenPlan, own: &[u8]) -> u64 {
        // 64 words = 512 `cH` bytes: α ≤ 1 and |s| ≤ 255 stay under this
        // for all n ≤ 258; wider geometries stage on the heap.
        let (mut stack, mut heap) = ([0u64; 64], Vec::new());
        let words = plan.words as usize;
        let sig = match stack.get_mut(..words) {
            Some(sig) => sig,
            None => {
                heap.resize(words, 0);
                &mut heap
            }
        };
        let whole = own.chunks_exact(8);
        let last = short_word(whole.remainder());
        for (slot, word) in sig.iter_mut().zip(whole.filter_map(le_word).chain([last])) {
            *slot = word;
        }
        // One mask of `words` words per distinct gram, from `mask_off` on.
        let masks = self.masks.get(plan.mask_off as usize..).unwrap_or(&[]);
        let mut hg = 0u64;
        for (mask, &c) in masks.chunks_exact(words.max(1)).zip(&self.counts) {
            let mut miss = 0u64;
            for (&m, &s) in mask.iter().zip(sig.iter()) {
                miss |= m & !s;
            }
            hg += u64::from(miss == 0) * c;
        }
        hg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance::edit_distance_bytes;
    use crate::ngram::est_prime;

    fn codec() -> SigCodec {
        SigCodec::new(0.2, 2)
    }

    #[test]
    fn encoded_layout() {
        let c = codec();
        let sig = c.encode_to_vec(b"digital camera");
        let len_byte = sig[0];
        assert_eq!(usize::from(len_byte), 14);
        assert_eq!(sig.len(), c.encoded_len(len_byte));
        // cH bytes = ceil(0.2 * (14 + 1)) = 3.
        assert_eq!(c.ch_bytes(len_byte), 3);
        assert_eq!(c.max_encoded_len(), c.encoded_len(255));
    }

    #[test]
    fn long_strings_clamp_length() {
        let c = codec();
        let s = vec![b'x'; 400];
        let sig = c.encode_to_vec(&s);
        assert_eq!(sig[0], 255);
        assert_eq!(sig.len(), c.encoded_len(255));
    }

    #[test]
    fn identical_strings_estimate_zero() {
        let c = codec();
        for s in [
            &b"ok"[..],
            b"digital camera",
            b"a",
            b"some longer value here",
        ] {
            let sig = c.encode_to_vec(s);
            let m = PreparedMatcher::new(&c, s);
            assert_eq!(m.estimate(&sig).unwrap(), 0.0, "{s:?}");
        }
    }

    #[test]
    fn estimate_never_exceeds_est_prime() {
        // Eq. 3 uses |hg| >= |cg|, hence est <= est'; the reported
        // estimate only adds facts est' does not use, and stays <= ed.
        let c = codec();
        let data: &[&[u8]] = &[b"canon", b"sony", b"digital camera", b"google base", b"x"];
        let queries: &[&[u8]] = &[b"cannon", b"sonny", b"digital kamera", b"googel", b"xyz"];
        for &d in data {
            let sig = c.encode_to_vec(d);
            for &q in queries {
                let m = PreparedMatcher::new(&c, q);
                let eq3 = m.eq3(&sig).unwrap();
                let estp = est_prime(q, d, 2);
                assert!(eq3 <= estp + 1e-9, "est({q:?},{d:?})={eq3} > est'={estp}");
                let est = m.estimate(&sig).unwrap();
                assert!(eq3 <= est && est <= edit_distance_bytes(q, d) as f64);
            }
        }
    }

    #[test]
    fn estimate_rounds_up_and_floors_by_length() {
        let c = codec();
        // One substitution: at most two of the six grams miss, so Eq. 3 is
        // at most (5 - 4 - 1)/2 + 1 = 1 and there is nothing to round.
        let m = PreparedMatcher::new(&c, b"canon");
        let sig = c.encode_to_vec(b"caxon");
        assert!(m.eq3(&sig).unwrap() <= 1.0);
        assert!(m.estimate(&sig).unwrap() <= 1.0);
        // Against the empty query Eq. 3 gives about |sd|/n; the length
        // floor gives |sd|.
        let m = PreparedMatcher::new(&c, b"");
        let sig = c.encode_to_vec(b"abcdefgh");
        assert_eq!(m.estimate(&sig).unwrap(), 8.0);
        assert!(m.eq3(&sig).unwrap() < 8.0);
        // Clamped cL = 255 says only |sd| >= 255: the floor holds against
        // a shorter query and is dropped against one as long.
        let long = vec![b'x'; 400];
        let sig = c.encode_to_vec(&long);
        assert!(PreparedMatcher::new(&c, b"xxxxx").estimate(&sig).unwrap() >= 250.0);
        let same = PreparedMatcher::new(&c, &long).estimate(&sig).unwrap();
        assert_eq!(same, 0.0);
        let longer = PreparedMatcher::new(&c, &vec![b'x'; 300])
            .estimate(&sig)
            .unwrap();
        assert!(longer <= 100.0, "{longer}");
    }

    #[test]
    fn kernel_matches_scalar_reference_bit_for_bit() {
        for (alpha, n) in [(0.1, 2), (0.2, 2), (0.3, 3), (0.7, 4)] {
            let c = SigCodec::new(alpha, n);
            let q = QueryStringMatcher::new(&c, b"digital camera");
            let prepared = q.prepare(&c);
            for len in [0usize, 1, 2, 5, 14, 40, 255, 400] {
                let s: Vec<u8> = (0..len).map(|i| b'a' + (i % 23) as u8).collect();
                let sig = c.encode_to_vec(&s);
                let kernel = prepared.estimate(&sig).unwrap();
                let scalar = q.estimate_scalar(&c, &sig).unwrap();
                assert_eq!(
                    kernel.to_bits(),
                    scalar.to_bits(),
                    "alpha={alpha} n={n} len={len}"
                );
            }
        }
    }

    #[test]
    fn mangled_signatures_error_not_panic() {
        let c = codec();
        let m = PreparedMatcher::new(&c, b"digital camera");
        let q = QueryStringMatcher::new(&c, b"digital camera");

        // Empty slice: no length byte at all.
        assert_eq!(m.estimate(&[]), Err(SigError::Empty));
        assert_eq!(q.estimate_scalar(&c, &[]), Err(SigError::Empty));

        // A bare length byte with the whole cH missing.
        let sig = c.encode_to_vec(b"some value");
        assert!(matches!(
            m.estimate(&sig[..1]),
            Err(SigError::Truncated { .. })
        ));

        // Every proper prefix of a valid signature is truncated.
        for cut in 1..sig.len() {
            let err = m.estimate(&sig[..cut]).unwrap_err();
            assert_eq!(
                err,
                SigError::Truncated {
                    need: sig.len(),
                    got: cut
                },
                "cut={cut}"
            );
            assert_eq!(q.estimate_scalar(&c, &sig[..cut]), Err(err));
        }

        // A length byte mangled upward declares a wider geometry than the
        // remaining bytes provide.
        let mut mangled = sig.clone();
        mangled[0] = 255;
        assert!(matches!(
            m.estimate(&mangled),
            Err(SigError::Truncated { .. })
        ));

        // estimate_parts mirrors the checks for cursors that pre-read cL.
        assert!(matches!(
            m.estimate_parts(sig[0], &sig[1..sig.len() - 1]),
            Err(SigError::Truncated { .. })
        ));

        // Extra trailing bytes are fine (stride padding).
        let mut padded = sig.clone();
        padded.extend_from_slice(&[0xAB; 7]);
        assert_eq!(
            m.estimate(&padded).unwrap().to_bits(),
            m.estimate(&sig).unwrap().to_bits()
        );
    }

    #[test]
    fn estimate_block_matches_single() {
        let c = codec();
        let m = PreparedMatcher::new(&c, b"product listing number 42");
        let values: Vec<String> = (0..64)
            .map(|i| format!("product listing number {i}"))
            .collect();
        let stride = c.max_encoded_len();
        let mut block = vec![0u8; values.len() * stride];
        let mut singles = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let sig = c.encode_to_vec(v.as_bytes());
            block[i * stride..i * stride + sig.len()].copy_from_slice(&sig);
            singles.push(m.estimate(&sig).unwrap());
        }
        let mut out = vec![0.0f64; values.len()];
        m.estimate_block(&block, stride, &mut out).unwrap();
        for (a, b) in out.iter().zip(&singles) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Short blocks are rejected, not sliced out of bounds.
        assert!(m
            .estimate_block(&block[..stride], stride, &mut [0.0; 2])
            .is_err());
        assert!(m.estimate_block(&block, 0, &mut [0.0; 2]).is_err());
        // An empty output slice asks for nothing.
        m.estimate_block(&[], 16, &mut []).unwrap();
    }

    /// The one-word fast path must be bit-identical to per-cell
    /// `estimate`, including when the stride padding holds garbage (the
    /// contract says trailing bytes are ignored) and across varied
    /// lengths, alphas, and gram sizes (exercising deduped and empty
    /// masks and the narrow final cell).
    #[test]
    fn estimate_block_fast_path_ignores_padding_and_matches_single() {
        for (alpha, n) in [(0.15, 2usize), (0.3, 3), (0.45, 2)] {
            let c = SigCodec::new(alpha, n);
            let m = PreparedMatcher::new(&c, b"aaab repeated grams aaab");
            let values: Vec<String> = (0..48)
                .map(|i| "x".repeat(i % 23 + 1) + &i.to_string())
                .collect();
            let stride = c.max_encoded_len();
            // Poison every padding byte; a correct kernel never reads it.
            let mut block = vec![0xA5u8; values.len() * stride];
            let mut singles = Vec::new();
            for (i, v) in values.iter().enumerate() {
                let sig = c.encode_to_vec(v.as_bytes());
                block[i * stride..i * stride + sig.len()].copy_from_slice(&sig);
                singles.push(m.estimate(&sig).unwrap());
            }
            // Truncate the buffer to the last cell's real signature so the
            // final cell is narrower than 9 bytes and exercises the
            // fallback path.
            let last_sig = c.encode_to_vec(values[values.len() - 1].as_bytes());
            let tight = (values.len() - 1) * stride + last_sig.len();
            let mut out = vec![0.0f64; values.len()];
            m.estimate_block(&block[..tight], stride, &mut out).unwrap();
            for (i, (a, b)) in out.iter().zip(&singles).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "alpha={alpha} n={n} cell {i}");
            }
        }
    }

    /// Every entry point against the scalar oracle on one signature.
    fn assert_all_paths_match(
        c: &SigCodec,
        q: &QueryStringMatcher,
        m: &PreparedMatcher,
        sig: &[u8],
    ) {
        let want = q.estimate_scalar(c, sig).unwrap().to_bits();
        let what = format!("|sq|={} n={} cL={}", q.sq.len(), q.n, sig[0]);
        assert_eq!(m.estimate(sig).unwrap().to_bits(), want, "{what}");
        assert_eq!(
            m.estimate_parts(sig[0], &sig[1..]).unwrap().to_bits(),
            want,
            "{what}"
        );
        let mut running_on = sig[1..].to_vec();
        running_on.extend_from_slice(&[0x5A; 9]);
        assert_eq!(
            m.estimate_parts(sig[0], &running_on).unwrap().to_bits(),
            want,
            "{what}"
        );
        // Two cells, so the first one's word load runs into the second.
        let stride = c.max_encoded_len();
        let mut block = vec![0x5Au8; 2 * stride];
        block[..sig.len()].copy_from_slice(sig);
        block[stride..stride + sig.len()].copy_from_slice(sig);
        let mut out = [0.0f64; 2];
        m.estimate_block(&block, stride, &mut out).unwrap();
        assert_eq!([out[0].to_bits(), out[1].to_bits()], [want, want], "{what}");
    }

    /// The edges of the fixed-shape path. An all-ones `cH` makes every
    /// mask hit — the pad entries too, which must add 0 — and an all-zero
    /// one makes only the empty masks hit. Queries of 0, 1, 254, 255, 256
    /// and 400 bytes put the pack's pad arithmetic, the `⌈·/n⌉` table's
    /// last rows and the `cL = 255` clamp of the length floor on both
    /// sides of every boundary.
    #[test]
    fn pads_table_bounds_and_clamp_match_scalar() {
        for (alpha, n) in [(0.2, 2usize), (0.2, 3), (0.1, 4), (0.03, 2)] {
            let c = SigCodec::new(alpha, n);
            for q_len in [0usize, 1, 254, 255, 256, 400] {
                let sq: Vec<u8> = (0..q_len).map(|i| b'a' + (i % 7) as u8).collect();
                let q = QueryStringMatcher::new(&c, &sq);
                let m = q.prepare(&c);
                assert_eq!(m.pack_masks.len() % LANES, 0);
                assert_eq!(m.pack_masks.len(), m.pack_counts.len());
                // Miri visits every seventeenth length byte.
                for len_byte in (0..=255u8).step_by(if cfg!(miri) { 17 } else { 1 }) {
                    let plan = m.plan_of(len_byte).unwrap();
                    assert_eq!(plan.pack_len as usize % LANES, 0);
                    for fill in [0xFFu8, 0x00] {
                        let mut sig = vec![len_byte];
                        sig.resize(c.encoded_len(len_byte), fill);
                        assert_all_paths_match(&c, &q, &m, &sig);
                    }
                    // The all-ones word hits everything: every gram counts.
                    if plan.words == 1 {
                        let grams: u64 = m.counts.iter().sum();
                        assert_eq!(m.one_word_hits(plan, !0), grams, "pads must add 0");
                    }
                }
            }
        }
    }

    /// Multi-word geometries (`cH` over 8 bytes: α = 1, or long strings at
    /// any α) have no pack and take the general path — and match the
    /// oracle like the one-word ones.
    #[test]
    fn multi_word_geometries_take_the_general_path() {
        for (alpha, n) in [(1.0, 2usize), (0.2, 2), (0.5, 3)] {
            let c = SigCodec::new(alpha, n);
            let q = QueryStringMatcher::new(&c, b"a fairly long query string, for many grams");
            let m = q.prepare(&c);
            let mut multi = 0;
            for len in (0usize..=255).chain([300]) {
                let d: Vec<u8> = (0..len).map(|i| b'a' + (i * 7 % 26) as u8).collect();
                let sig = c.encode_to_vec(&d);
                let plan = m.plan_of(sig[0]).unwrap();
                assert_eq!(plan.words as usize, c.ch_bytes(sig[0]).div_ceil(8));
                if plan.words > 1 {
                    assert_eq!(plan.pack_len, 0, "no pack beyond one word");
                    multi += 1;
                }
                assert_all_paths_match(&c, &q, &m, &sig);
            }
            assert!(
                multi > 200 || alpha < 1.0,
                "alpha=1 is multi-word from 8 bytes up"
            );
            assert!(multi > 0);
        }
    }

    #[test]
    fn no_false_negatives_exhaustive_small() {
        // Proposition 3.3 over a brute-forced small universe.
        let c = SigCodec::new(0.3, 2);
        let alphabet = [b'a', b'b', b'c'];
        let mut strings: Vec<Vec<u8>> = vec![];
        for l in 1..=3usize {
            let mut idx = vec![0usize; l];
            loop {
                strings.push(idx.iter().map(|&i| alphabet[i]).collect());
                let mut k = 0;
                loop {
                    idx[k] += 1;
                    if idx[k] < alphabet.len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                    if k == l {
                        break;
                    }
                }
                if k == l {
                    break;
                }
            }
        }
        for d in &strings {
            let sig = c.encode_to_vec(d);
            for q in &strings {
                let m = PreparedMatcher::new(&c, q);
                let est = m.estimate(&sig).unwrap();
                let ed = edit_distance_bytes(q, d) as f64;
                assert!(est <= ed + 1e-9, "est({q:?},{d:?})={est} > ed={ed}");
            }
        }
    }

    #[test]
    fn estimate_discriminates_unrelated_strings() {
        // A sanity check on filtering power: a totally different string
        // should get a positive estimate nearly always at reasonable α.
        let c = SigCodec::new(0.3, 2);
        let sig = c.encode_to_vec(b"wide-angle lens");
        let m = PreparedMatcher::new(&c, b"alkaline battery pack");
        assert!(m.estimate(&sig).unwrap() > 0.0);
    }

    #[test]
    fn larger_alpha_estimates_at_least_as_tight_on_average() {
        // Not a strict per-pair guarantee, but across pairs the mean
        // estimate under α = 0.4 must be >= the mean under α = 0.1
        // (longer signatures -> fewer false hits -> larger estimates).
        let lo = SigCodec::new(0.1, 2);
        let hi = SigCodec::new(0.4, 2);
        let data: Vec<String> = (0..50).map(|i| format!("data string number {i}")).collect();
        let query = b"completely different query";
        let mlo = PreparedMatcher::new(&lo, query);
        let mhi = PreparedMatcher::new(&hi, query);
        let (mut sum_lo, mut sum_hi) = (0.0, 0.0);
        for d in &data {
            sum_lo += mlo.estimate(&lo.encode_to_vec(d.as_bytes())).unwrap();
            sum_hi += mhi.estimate(&hi.encode_to_vec(d.as_bytes())).unwrap();
        }
        assert!(sum_hi >= sum_lo, "hi={sum_hi} lo={sum_lo}");
    }

    #[test]
    #[should_panic(expected = "gram length")]
    fn rejects_n_below_two() {
        SigCodec::new(0.2, 1);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        SigCodec::new(0.0, 2);
    }
}
