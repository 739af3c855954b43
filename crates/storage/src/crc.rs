//! CRC32C (Castagnoli) — the page-checksum algorithm of the on-disk format.
//!
//! Polynomial 0x1EDC6F41 (reflected 0x82F63B78), the checksum of iSCSI,
//! ext4 metadata and RocksDB block trailers. Every page frame, commit
//! record and manifest is sealed and verified through the
//! two public functions here, so the kernel below sits under every physical
//! page read and every page write.
//!
//! # Two kernels, one checksum
//!
//! * **Hardware** — on x86-64 CPUs with SSE4.2 the `crc32` instruction
//!   computes exactly this polynomial, 8 bytes per step. One dependent
//!   stream (3-cycle latency per step) checks a 4 KiB page in 0.32–0.39 µs
//!   on the 2.1 GHz reference host: **9–11 GB/s** across runs
//!   (`BENCH_checksum_overhead.json`, `crc32c_gb_per_sec`). Interleaving
//!   three streams would approach the instruction's 1-per-cycle throughput
//!   but needs a carry-less-multiply or table fold to recombine them; at
//!   under half of the `pread` a miss already pays, it is not worth the
//!   code.
//! * **Portable** — slicing-by-8 over eight 256-entry tables, **1.6–2.0
//!   GB/s** on the same host (`crc32c_portable_gb_per_sec`; 2.0–2.5 µs per
//!   page). It stays for two reasons: it is the only kernel on every other
//!   architecture (and on x86-64 parts without SSE4.2), and it is the
//!   oracle the tests check the hardware kernel against, byte for byte, at
//!   every length, alignment and split point.
//!
//! Detection is automatic (`is_x86_feature_detected!`, cached by std after
//! the first call) and nothing selects a kernel: the portable one runs only
//! where the instruction is absent. Both produce the same 32 bits, so the
//! on-disk format does not depend on which one wrote it.

use std::sync::OnceLock;

const POLY: u32 = 0x82F6_3B78;

static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();

fn make_tables() -> Box<[[u32; 256]; 8]> {
    let mut t = Box::new([[0u32; 256]; 8]);
    for i in 0..256usize {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
        }
        t[0][i] = c;
    }
    for i in 0..256usize {
        let mut c = t[0][i];
        for k in 1..8 {
            c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            t[k][i] = c;
        }
    }
    t
}

/// CRC32C of `data` (starting from the empty-message state).
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continue a CRC32C over more data; `crc` is the value returned by a
/// previous [`crc32c`]/[`crc32c_append`] call over the preceding bytes.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    match append_hardware(crc, data) {
        Some(crc) => crc,
        None => crc32c_append_portable(crc, data),
    }
}

/// Name of the kernel [`crc32c_append`] runs on this CPU (`"sse4.2"` or
/// `"portable"`), for benches that state their host.
pub fn crc32c_kernel() -> &'static str {
    match append_hardware(0, &[]) {
        Some(_) => "sse4.2",
        None => "portable",
    }
}

/// [`crc32c_append`] through the `crc32` instruction, or `None` where the
/// CPU does not have it.
#[cfg(target_arch = "x86_64")]
fn append_hardware(crc: u32, data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `append_sse42` is a safe function whose only requirement
    // beyond its signature is the `sse4.2` target feature it is compiled
    // with (it executes `crc32` instructions, which fault on a CPU without
    // them). The runtime check on the line above has just established that
    // this CPU supports SSE4.2, and CPU features do not change while the
    // process runs. The function reads `data` through ordinary slice
    // iteration only — no raw pointers, no alignment requirement.
    Some(unsafe { append_sse42(crc, data) })
}

#[cfg(not(target_arch = "x86_64"))]
fn append_hardware(_crc: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// One `crc32q` per 8 bytes, `crc32b` for the tail. The instruction keeps
/// the same inverted, reflected state as the table kernel, so the two are
/// interchangeable at any byte boundary.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn append_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut state = u64::from(!crc);
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let Ok(word) = <[u8; 8]>::try_from(ch) else {
            continue; // chunks_exact(8) always yields 8-byte chunks
        };
        state = _mm_crc32_u64(state, u64::from_le_bytes(word));
    }
    // `crc32q` zero-extends its 32-bit result, so the cast drops nothing.
    let mut state = state as u32;
    for &b in chunks.remainder() {
        state = _mm_crc32_u8(state, b);
    }
    !state
}

/// [`crc32c_append`] by slicing-by-8 tables: the kernel where the `crc32`
/// instruction is absent, and the oracle the hardware kernel is tested
/// against. Public so benches can report its throughput beside the
/// hardware kernel's; production code calls [`crc32c_append`].
pub fn crc32c_append_portable(crc: u32, data: &[u8]) -> u32 {
    let t = TABLES.get_or_init(make_tables);
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let Ok([b0, b1, b2, b3, b4, b5, b6, b7]) = <[u8; 8]>::try_from(ch) else {
            continue; // chunks_exact(8) always yields 8-byte chunks
        };
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this host can run, each called directly: the portable
    /// one always, the hardware one where the CPU (or Miri) has it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut ks: Vec<(&'static str, Kernel)> = vec![("portable", crc32c_append_portable)];
        if append_hardware(0, &[]).is_some() {
            ks.push(("sse4.2", |crc, data| {
                append_hardware(crc, data).expect("detected above")
            }));
        }
        ks
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (name, k) in kernels() {
            assert_eq!(k(0, b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(k(0, b""), 0, "{name}");
            assert_eq!(k(0, &[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(k(0, &[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(k(0, &ascending), 0x46DD_794E, "{name}");
            assert_eq!(k(0, &descending), 0x113F_DB5C, "{name}");
        }
        // The public entry points are one of the kernels above.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn append_equals_whole() {
        let data: Vec<u8> = (0..255u8).collect();
        for (name, k) in kernels() {
            let whole = k(0, &data);
            for split in [0, 1, 7, 8, 9, 100, 255] {
                let c = k(k(0, &data[..split]), &data[split..]);
                assert_eq!(c, whole, "{name}: split at {split}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        for (name, k) in kernels() {
            let mut data = vec![0xA5u8; 64];
            let base = k(0, &data);
            for byte in 0..64 {
                for bit in 0..8 {
                    data[byte] ^= 1 << bit;
                    assert_ne!(k(0, &data), base, "{name}: flip {byte}.{bit} undetected");
                    data[byte] ^= 1 << bit;
                }
            }
        }
    }

    /// Deterministic filler for the exhaustive sweep (no RNG needed: the
    /// sweep's variable is the geometry, not the bytes).
    fn filler(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8)
            .collect()
    }

    #[test]
    fn hardware_matches_portable_at_every_length_and_alignment() {
        // Every length 0..=8200 (past two pages plus a frame trailer) at
        // every start offset 0..8 of the allocation. Interpreted, the
        // sweep stops after a few 8-byte steps and tails.
        let max_len = if cfg!(miri) { 40 } else { 8_200 };
        let buf = filler(max_len + 8);
        for (name, k) in kernels() {
            for align in 0..8 {
                for len in 0..=max_len {
                    let s = &buf[align..align + len];
                    assert_eq!(
                        k(0, s),
                        crc32c_append_portable(0, s),
                        "{name}: len {len} align {align}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_split_point_appends_to_the_whole() {
        // Every split of a buffer long enough to cross several 8-byte steps
        // on both sides, through the public dispatching entry point.
        let buf = filler(300);
        let whole = crc32c_append_portable(0, &buf);
        for (name, k) in kernels() {
            for split in 0..=buf.len() {
                let (a, b) = buf.split_at(split);
                assert_eq!(k(k(0, a), b), whole, "{name}: split {split}");
                assert_eq!(crc32c_append(crc32c(a), b), whole, "public: split {split}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 256 }))]

        /// Hardware ≡ portable for random bytes, start alignment, length,
        /// seed state and split point.
        #[test]
        fn kernels_agree_on_random_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..8_208),
            align in 0usize..8,
            split_seed in any::<usize>(),
            seed in any::<u32>(),
        ) {
            let s = bytes.get(align.min(bytes.len())..).unwrap_or(&[]);
            let split = split_seed % (s.len() + 1);
            let (a, b) = s.split_at(split);
            let want = crc32c_append_portable(seed, s);
            for (name, k) in kernels() {
                prop_assert_eq!(k(seed, s), want, "{}: whole", name);
                prop_assert_eq!(k(k(seed, a), b), want, "{}: split {}", name, split);
            }
            prop_assert_eq!(crc32c_append(crc32c_append(seed, a), b), want);
        }
    }
}
