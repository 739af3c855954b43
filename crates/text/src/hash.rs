//! lint:scope(panic-reachability)
//! The signature hash `h[l,t](ω)` (Definition in Sec. III-B.1).
//!
//! `h[l,t]` maps an n-gram to an `l`-bit vector containing exactly `t` one
//! bits. It must be deterministic across processes and platforms so that
//! signatures written by one run can be probed by another; we therefore
//! build it from FNV-1a seeding a SplitMix64 stream rather than any
//! std hasher.

/// FNV-1a over bytes, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 step: advances the state and returns a well-mixed word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Compute the `t` distinct bit positions of `h[l,t](ω)` for gram `ω`.
///
/// Positions are appended to `out` (cleared first). Requires `0 < t < l`.
pub fn gram_bit_positions(gram: &[u8], l_bits: u32, t: u32, out: &mut Vec<u32>) {
    debug_assert!(t > 0 && t < l_bits, "need 0 < t < l, got t={t} l={l_bits}");
    out.clear();
    let mut state = fnv1a64(gram) ^ (u64::from(l_bits) << 32) ^ u64::from(t).rotate_left(17);
    while out.len() < t as usize {
        let pos = (splitmix64(&mut state) % u64::from(l_bits)) as u32;
        if !out.contains(&pos) {
            out.push(pos);
        }
    }
}

/// Set the bits of `h[l,t](ω)` in a little-endian byte buffer (bit `p` lives
/// in `buf[p/8]`, mask `1 << (p%8)`).
pub fn or_gram_into(gram: &[u8], l_bits: u32, t: u32, buf: &mut [u8], scratch: &mut Vec<u32>) {
    gram_bit_positions(gram, l_bits, t, scratch);
    for &p in scratch.iter() {
        if let Some(b) = buf.get_mut((p / 8) as usize) {
            *b |= 1 << (p % 8);
        }
    }
}

/// True iff every bit of `h[l,t](ω)` (given as positions) is set in `sig` —
/// the paper's *hit* test `h[l,t](ω) AND cH = h[l,t](ω)` (Definition 3.1).
pub fn positions_hit(positions: &[u32], sig: &[u8]) -> bool {
    positions.iter().all(|&p| {
        sig.get((p / 8) as usize)
            .is_some_and(|&b| b & (1 << (p % 8)) != 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_positions() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        gram_bit_positions(b"ok", 64, 3, &mut a);
        gram_bit_positions(b"ok", 64, 3, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&p| p < 64));
        // Distinct positions.
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn positions_depend_on_l_and_t() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        gram_bit_positions(b"ok", 64, 2, &mut a);
        gram_bit_positions(b"ok", 128, 2, &mut b);
        // Not a hard requirement bit-for-bit, but the parametrization should
        // produce different vectors essentially always.
        assert_ne!(a, b);
    }

    #[test]
    fn exactly_t_bits_set() {
        for t in 1..8u32 {
            let mut buf = vec![0u8; 8];
            let mut scratch = Vec::new();
            or_gram_into(b"gram", 64, t, &mut buf, &mut scratch);
            let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
            assert_eq!(ones, t);
        }
    }

    #[test]
    fn self_hit_property() {
        // Property 3.2: any gram OR-ed into a signature hits it.
        let grams: Vec<&[u8]> = vec![b"ab", b"bc", b"cd", b"zz"];
        let mut sig = vec![0u8; 4];
        let mut scratch = Vec::new();
        for g in &grams {
            or_gram_into(g, 32, 2, &mut sig, &mut scratch);
        }
        for g in &grams {
            gram_bit_positions(g, 32, 2, &mut scratch);
            assert!(positions_hit(&scratch, &sig), "self-hit failed for {g:?}");
        }
    }

    #[test]
    fn empty_signature_hits_nothing() {
        let sig = vec![0u8; 4];
        let mut scratch = Vec::new();
        gram_bit_positions(b"ab", 32, 2, &mut scratch);
        assert!(!positions_hit(&scratch, &sig));
    }

    #[test]
    fn fnv_known_values() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
