//! lint:scope(panic-reachability)
//! The packed vector-list codec: compressed on-disk encodings for the four
//! list organizations of Sec. III-D.
//!
//! A packed list is a sequence of self-describing *frames*, each holding a
//! bounded run of whole elements, and has a *logical length*: the byte
//! size of its elements in the Type I–IV element layout of Sec. III-D (the
//! raw layout), which a reader holds the frames to. An index keeps the
//! length in the list's catalog entry and stores the frames alone; the
//! encoders below hand out a self-contained *image* that carries it in an
//! 8-byte prologue, for tools and tests:
//!
//! ```text
//! image := [logical_len: u64] frame*
//! frame := [kind: u8][elems: u32][payload_len: u32][payload ...]
//! kind 0 (RAW)     payload is `elems` elements in the raw layout
//! kind 1 (PACKED)  org-specific packed payload (below)
//! kind 2 (NDF_RUN) `elems` positional ndf elements, no payload
//! kind 3 (DICT)    a text list's `elems` distinct signatures (below); the
//!                  first frame or absent, never on a numeric list
//! ```
//!
//! PACKED payloads group the per-element fields so each compresses with
//! the transform that fits it — the delta/bit-packing of compression-based
//! inverted indexes for the monotone tuple ids, fixed-width bit-packing
//! for the small relative-domain codes and string counts, and dictionary
//! coding for the signatures:
//!
//! ```text
//! Dict     [lbw u8][cL × D][cH ...]     each distinct signature once
//!          ([D u32][sbw u8][len × D][string bytes ...][D u32][nbw u8][count × D]
//!           ([covered u64][raw u64][D u32][pbw u8][posts × D][position ...])?)?
//! Text I   [first_tid u32][bw u8][Δtid × (elems−1)][cbw u8][code × elems]
//! Text II  [first_tid u32][bw u8][Δtid × (elems−1)][nbw u8][num × elems][cbw u8][code × strings]
//! Text III [nbw u8][num × elems][cbw u8][code × strings]
//! Num I    [first_tid u32][bw u8][Δtid × (elems−1)][cbw u8][code × elems]
//! Num IV   [cbw u8][stored × elems]   stored = 0 for ndf, code+1 otherwise
//! ```
//!
//! Signatures repeat *across* strings — community data repeats its values;
//! a dense attribute's strings are a few percent distinct — so a text list
//! stores each distinct `[cL][cH…]` once, in its DICT frame, and a string
//! as its entry's index, at least one bit wide (so a frame's string count
//! is bounded by its bytes). The `num` (string count) and `cL` (length
//! byte) sections are bit-packed too: byte fields clustered near zero.
//!
//! **Strings where they pay.** Where a list's distinct strings take no more
//! bytes than its codes, the DICT frame also holds each entry's string and
//! the count of values whose *first* string it is, and codes name strings
//! (two can share a signature). A query parses a list's dictionary once and
//! never writes to it ([`Dict`]). A lane keeps what it knows of its
//! string's difference to each entry in one table per list ([`Exact`]),
//! which bounds every fill and decides an admitted value. A 1-value query
//! probes the dictionary before its walk ([`Dict::probe`]) for a bound `B`
//! with enough counted values at or below it ([`Seed`]).
//!
//! **Postings.** On a Type III list coded by strings the DICT frame goes on
//! to invert the codes: `covered`, the positions the list's
//! PACKED and NDF_RUN frames hold, and the raw-layout bytes of those
//! frames; per entry, how many positions hold a value with that string;
//! then those positions, grouped by entry and ascending, at one width of
//! ⌈log₂ covered⌉ bits. A probe that knows which codes pass its limit
//! reads their runs into the query's candidates ([`Leap`]), and the walk
//! leaps from one to the next without loading a list frame.
//!
//! The positional Types III/IV additionally collapse runs of ndf elements
//! into header-only NDF_RUN frames — the run-length framing that replaces
//! re-packing for the already-dense Type IV code pages. RAW frames carry
//! insert-appended tails, so one list can mix frame kinds and still decode
//! with a single cursor; their signatures are inline, not coded.
//!
//! **A PACKED frame is read in place.** [`PackedReader`] holds the list's
//! dictionary — its own, or the query's, whose DICT frame it steps over by
//! its header — and one frame at a time, its sections inflated once into
//! reused arrays ([`Sections`]). A scan's block fill is served by runs
//! ([`PackedReader::fill_run`]): a string is a gather of its code's bound
//! in the lane's table. The walk in [`crate::veclist`] borrows each
//! signature from the dictionary payload, padded by [`SIG_PAD`] bytes so
//! the kernel can load a whole word from any of them;
//! [`PackedReader::decode_to_vec`] is a tool that runs that walk through
//! the raw encoders. RAW tail frames hand the walk raw-layout bytes
//! ([`RawTail`]); NDF_RUN frames are served arithmetically.
//!
//! Every field parsed here came off disk: short frames, bad tags,
//! overflowing deltas, codes past the dictionary and sections that claim
//! more than their payload holds surface as [`IvaError::Corrupt`], never a
//! panic — and before the claim has sized anything.

use std::cmp::{Ordering::Greater, Reverse};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use iva_storage::codec::SliceReader;
use iva_storage::compress::{bit_width, pack_bits, packed_len, unpack_bits, unpack_bytes};
use iva_storage::ListReader;
use iva_text::{PreparedMatcher, PreparedPattern, SigCodec};

use crate::error::{IvaError, Result};
use crate::metric::Metric;
use crate::numeric::NumericCodec;
use crate::query::edits_beyond;
use crate::scan::BLOCK;
use crate::veclist::{text_lower_bound, ListType, SigView};

/// Frame holding raw-layout element bytes (insert-appended tails).
pub(crate) const FRAME_RAW: u8 = 0;
/// Frame holding the org-specific packed payload.
pub(crate) const FRAME_PACKED: u8 = 1;
/// Header-only frame standing for a run of positional ndf elements.
pub(crate) const FRAME_NDF_RUN: u8 = 2;
/// Frame holding a text list's dictionary of distinct signatures.
pub(crate) const FRAME_DICT: u8 = 3;

/// `[kind u8][elems u32][payload_len u32]`.
pub(crate) const FRAME_HEADER_LEN: usize = 9;

/// Elements per packed frame: the decode "block". One frame's sections
/// are the largest buffers the reader ever holds, after the dictionary.
pub(crate) const FRAME_ELEMS: usize = 1024;

/// Zero bytes kept after a dictionary payload, so that an 8-byte load from
/// the first byte of any signature in its `cH` section stays in bounds.
const SIG_PAD: usize = 7;

/// Ceiling on `elems` of a PACKED frame at decode time (a corrupt header
/// must not drive a giant allocation before payload validation).
const MAX_FRAME_ELEMS: usize = 1 << 20;

/// Minimal run of positional ndf elements worth a dedicated run frame (a
/// frame header costs 9 bytes; shorter runs ride inside packed frames).
const NDF_RUN_MIN: usize = 16;

/// Bytes of the logical-length prologue heading a list image.
const PACKED_PROLOGUE_LEN: usize = 8;

/// A probe hands the walk its candidates ([`Leap`]) only while they are at
/// most `1 / LEAP_SHARE` of the positions its postings cover; past that,
/// gathering and sorting them costs more than the seeded walk over every
/// frame (EXPERIMENTS.md "Postings").
const LEAP_SHARE: u64 = 2;

fn corrupt(msg: &str) -> IvaError {
    IvaError::Corrupt(msg.into())
}

/// A list's logical length and its frames, as one image (see the module
/// doc).
fn image((logical, frames): (u64, Vec<u8>)) -> Vec<u8> {
    [logical.to_le_bytes().as_slice(), &frames].concat()
}

/// Read an image's logical-length prologue.
fn read_prologue(reader: &mut ListReader) -> Result<u64> {
    let mut b = [0u8; PACKED_PROLOGUE_LEN];
    reader.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Append one complete frame (header + payload) to `out`. The insert path
/// uses this to frame raw-layout tails and positional gap runs onto
/// packed lists.
pub(crate) fn append_frame(out: &mut Vec<u8>, kind: u8, elems: usize, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&(elems as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// `[first u32][bw u8][packed deltas × (n−1)]` for a non-decreasing run.
fn delta_encode_tids(tids: &[u32], out: &mut Vec<u8>) {
    let first = tids.first().copied().unwrap_or(0);
    out.extend_from_slice(&first.to_le_bytes());
    let deltas: Vec<u64> = tids
        .windows(2)
        .map(|w| {
            let a = w.first().copied().unwrap_or(0);
            let b = w.get(1).copied().unwrap_or(0);
            u64::from(b).saturating_sub(u64::from(a))
        })
        .collect();
    let bw = deltas.iter().map(|&d| bit_width(d)).max().unwrap_or(0);
    out.push(bw as u8);
    pack_bits(&deltas, bw, out);
}

/// `[bw u8][values bit-packed]` for a section of byte-sized fields
/// (string counts, signature `cL` bytes): tiny-range values the raw
/// layout spends a whole byte on.
fn pack_byte_section(vals: &[u8], out: &mut Vec<u8>) {
    let wide: Vec<u64> = vals.iter().map(|&v| u64::from(v)).collect();
    let bw = wide.iter().map(|&v| bit_width(v)).max().unwrap_or(0);
    out.push(bw as u8);
    pack_bits(&wide, bw, out);
}

/// Inverse of [`pack_byte_section`]: `n` byte-sized values into `out`.
fn unpack_byte_section(s: &mut SliceReader<'_>, n: usize, out: &mut Vec<u8>) -> Result<()> {
    let bw = u32::from(s.u8()?);
    if bw > 8 {
        return Err(corrupt("bad packed byte-section width"));
    }
    let bytes = s.take(packed_len(n, bw))?;
    unpack_bytes(bytes, bw, n, out).ok_or_else(|| corrupt("truncated packed byte section"))
}

/// Rebuild a keyed frame's `n` tuple ids from its `first` id and the
/// `bw`-bit `deltas` (`wide` is scratch). They accumulate in u64 with an
/// explicit tuple-id domain check: a corrupt frame must not wrap.
fn inflate_tids(
    (first, bw, deltas): (u32, u32, &[u8]),
    n: usize,
    wide: &mut Vec<u64>,
    tids: &mut Vec<u32>,
) -> Result<()> {
    wide.clear();
    unpack_bits(deltas, bw, n.saturating_sub(1), wide)
        .ok_or_else(|| corrupt("bad tuple-id delta run"))?;
    let mut cur = u64::from(first);
    tids.push(first);
    for &d in wide.iter() {
        cur = cur
            .checked_add(d)
            .filter(|&t| t <= u64::from(u32::MAX))
            .ok_or_else(|| corrupt("overflowing tuple-id delta"))?;
        tids.push(cur as u32);
    }
    Ok(())
}

/// Largest code representable in `cb` bytes.
fn max_code(cb: usize) -> u64 {
    if cb >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * cb as u32)) - 1
    }
}

/// A text list's strings, interned: every string's index among the
/// distinct ones, numbered in order of first appearance — so, in item
/// order, the codes of a dictionary keyed by string.
#[derive(Default)]
pub(crate) struct TextStrings {
    index: HashMap<Vec<u8>, u32>,
    ids: Vec<u32>,
}

impl TextStrings {
    /// Append the list's next string.
    pub(crate) fn push(&mut self, s: &[u8]) {
        let id = match self.index.get(s) {
            Some(&id) => id,
            None => {
                let next = self.index.len() as u32;
                self.index.insert(s.to_vec(), next);
                next
            }
        };
        self.ids.push(id);
    }
}

/// A dictionary entry: a `[cL][cH…]` signature, and the string it stands
/// for when the list is coded by strings.
type Entry<'a> = (&'a [u8], Option<&'a [u8]>);

/// Whether keying `items`' dictionary by string might pass the per-list
/// rule (see [`encode_packed_text`]), from their signatures alone: each
/// distinct signature stands for at least one distinct string of at least
/// `cL` bytes, and there are at most as many distinct strings as strings.
/// A build reads the strings only of the lists that pass; most fail
/// early.
pub(crate) fn strings_may_pay(items: &[(u32, Vec<Vec<u8>>)]) -> bool {
    let n: u64 = items.iter().map(|(_, sigs)| sigs.len() as u64).sum();
    let most = (n * u64::from(bit_width(n.saturating_sub(1)).max(1))).div_ceil(8);
    let (mut distinct, mut least) = (HashSet::new(), 0u64);
    for sig in items.iter().flat_map(|(_, sigs)| sigs) {
        if distinct.insert(sig.as_slice()) {
            least += u64::from(sig.first().copied().unwrap_or(0));
            if least > most {
                return false;
            }
        }
    }
    n > 0
}

/// Dictionary-code a text list: its distinct entries in order of first
/// appearance, keyed by string when `strings` (aligned with `items`) are
/// given and by signature otherwise, and each string's code (its entry's
/// index), in item order.
fn dictionary<'a>(
    items: &'a [(u32, Vec<Vec<u8>>)],
    strings: Option<&'a TextStrings>,
) -> (Vec<Entry<'a>>, Vec<u64>) {
    let sigs = items
        .iter()
        .flat_map(|(_, sigs)| sigs.iter().map(Vec::as_slice));
    if let Some(t) = strings {
        let mut texts: Vec<Option<&[u8]>> = vec![None; t.index.len()];
        for (s, &id) in &t.index {
            if let Some(slot) = texts.get_mut(id as usize) {
                *slot = Some(s);
            }
        }
        // An entry's signature is its string's first one's.
        let mut entries = Vec::with_capacity(texts.len());
        for (sig, &id) in sigs.zip(&t.ids) {
            if id as usize == entries.len() {
                entries.push((sig, texts.get(id as usize).copied().flatten()));
            }
        }
        return (entries, t.ids.iter().map(|&id| u64::from(id)).collect());
    }
    let (mut entries, mut index) = (Vec::new(), HashMap::new());
    let codes = sigs
        .map(|sig| {
            *index.entry(sig).or_insert_with(|| {
                entries.push((sig, None));
                entries.len() as u64 - 1
            })
        })
        .collect();
    (entries, codes)
}

/// `[n u32][bw u8][value × n]` for a string-length or count section.
fn push_section(vals: &[u64], out: &mut Vec<u8>) {
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    let bw = vals.iter().map(|&v| bit_width(v)).max().unwrap_or(0);
    out.push(bw as u8);
    pack_bits(vals, bw, out);
}

/// Inverse of [`push_section`] for a section that must hold `d` values:
/// any other count is a lie, refused before it sizes `out`.
fn take_section(s: &mut SliceReader<'_>, d: usize, out: &mut Vec<u64>) -> Result<()> {
    if s.u32()? as usize != d {
        return Err(corrupt("dictionary section not one entry per string"));
    }
    let bw = u32::from(s.u8()?);
    if bw > 64 {
        return Err(corrupt("bad dictionary section width"));
    }
    out.clear();
    let bytes = s.take(packed_len(d, bw))?;
    unpack_bits(bytes, bw, d, out).ok_or_else(|| corrupt("truncated dictionary section"))
}

/// The DICT frame — none for a list without strings: `[lbw u8][cL × D][cH
/// …]`, then, given `counts` (entries keyed by string), every entry's
/// string and count, and the `postings` section where there is one.
fn push_dict_frame(
    entries: &[Entry<'_>],
    counts: Option<&[u64]>,
    postings: &[u8],
    out: &mut Vec<u8>,
) {
    if entries.is_empty() {
        return;
    }
    let lens: Vec<u8> = entries
        .iter()
        .map(|(sig, _)| sig.first().copied().unwrap_or(0))
        .collect();
    let mut payload = Vec::new();
    pack_byte_section(&lens, &mut payload);
    for (sig, _) in entries {
        payload.extend_from_slice(sig.get(1..).unwrap_or(&[]));
    }
    if let Some(counts) = counts {
        let texts = entries.iter().map(|(_, text)| text.unwrap_or(&[]));
        push_section(
            &texts.clone().map(|t| t.len() as u64).collect::<Vec<_>>(),
            &mut payload,
        );
        texts.for_each(|t| payload.extend_from_slice(t));
        push_section(counts, &mut payload);
        payload.extend_from_slice(postings);
    }
    append_frame(out, FRAME_DICT, entries.len(), &payload);
}

/// The postings section of a Type III list coded by strings, whose
/// position `p` holds the strings coded `pos_codes[p]` and whose frames
/// take `raw` bytes in the raw layout: `[covered u64][raw u64]`, per entry
/// of `d` how many positions hold it (a `[D u32][bw u8][n × D]` section),
/// then those positions, entry by entry and ascending, bit-packed at one
/// width wide enough for `covered − 1`.
fn postings_section(pos_codes: &[&[u64]], d: usize, raw: u64) -> Vec<u8> {
    let mut runs: Vec<Vec<u64>> = vec![Vec::new(); d];
    for (p, codes) in (0u64..).zip(pos_codes) {
        for &c in *codes {
            // A value holding one string twice is one position.
            if let Some(run) = runs.get_mut(c as usize).filter(|r| r.last() != Some(&p)) {
                run.push(p);
            }
        }
    }
    let covered = pos_codes.len() as u64;
    let mut out = [covered.to_le_bytes(), raw.to_le_bytes()].concat();
    push_section(
        &runs.iter().map(|r| r.len() as u64).collect::<Vec<_>>(),
        &mut out,
    );
    pack_bits(
        &runs.concat(),
        bit_width(covered.saturating_sub(1)),
        &mut out,
    );
    out
}

/// `[cbw u8][code × n]`, at least one bit wide.
fn push_codes(codes: &[u64], out: &mut Vec<u8>) {
    let cbw = codes.iter().map(|&c| bit_width(c)).max().unwrap_or(0);
    out.push(cbw.max(1) as u8);
    pack_bits(codes, cbw.max(1), out);
}

/// Encode a text attribute's vector list as a packed image. Inputs
/// mirror [`crate::veclist::encode_text_list`]; the image decodes to the
/// byte-identical raw layout.
pub fn encode_packed_text_list(
    ty: ListType,
    items: &[(u32, Vec<Vec<u8>>)],
    all_tids: &[u32],
) -> Vec<u8> {
    image(encode_packed_text(ty, items, None, all_tids))
}

/// The logical length and frames of [`encode_packed_text_list`], given
/// each item's strings too: its DICT frame then carries the string and
/// count sections where the list's distinct strings take no more bytes
/// than its codes (see the module doc), and is signature-only elsewhere.
pub(crate) fn encode_packed_text(
    ty: ListType,
    items: &[(u32, Vec<Vec<u8>>)],
    strings: Option<&TextStrings>,
    all_tids: &[u32],
) -> (u64, Vec<u8>) {
    let sig_bytes: u64 = items
        .iter()
        .flat_map(|(_, sigs)| sigs.iter())
        .map(|s| s.len() as u64)
        .sum();
    let logical: u64 = match ty {
        // Raw Type I: `[tid u32]` before every string's `[len][cH]`.
        ListType::I => {
            let strings: u64 = items.iter().map(|(_, s)| s.len() as u64).sum();
            strings * 4 + sig_bytes
        }
        // Raw Type II: `[tid u32][num u8]` per tuple, then its strings.
        ListType::II => items.len() as u64 * 5 + sig_bytes,
        // Raw Type III: `[num u8]` per position, then its strings.
        ListType::III => all_tids.len() as u64 + sig_bytes,
        ListType::IV => 0,
    };
    let (mut entries, mut codes) = dictionary(items, strings);
    let text_bytes: usize = entries.iter().map(|(_, t)| t.map_or(0, <[u8]>::len)).sum();
    let width = bit_width(entries.len().saturating_sub(1) as u64).max(1);
    let n: usize = items.iter().map(|(_, sigs)| sigs.len()).sum();
    // Every string interned, every distinct one an entry: the rule.
    let pays = strings.is_some_and(|t| t.index.len() == entries.len() && t.ids.len() == n)
        && text_bytes as u64 <= (n as u64 * u64::from(width)).div_ceil(8);
    if !pays {
        (entries, codes) = dictionary(items, None);
    }
    // Each item's `(tid, codes of its strings)`.
    let mut rest = codes.as_slice();
    let coded: Vec<(u32, &[u64])> = items
        .iter()
        .map(|(tid, sigs)| {
            let own = rest.get(..sigs.len()).unwrap_or(rest);
            rest = rest.get(own.len()..).unwrap_or(&[]);
            (*tid, own)
        })
        .collect();
    // A value is counted once, under its first string.
    let counts = pays.then(|| {
        let mut counts = vec![0u64; entries.len()];
        for c in coded.iter().filter_map(|(_, c)| c.first()) {
            if let Some(n) = counts.get_mut(*c as usize) {
                *n += 1;
            }
        }
        counts
    });
    // A positional list's codes, position by position.
    let mut pos_codes: Vec<&[u64]> = Vec::new();
    if ty == ListType::III {
        pos_codes.reserve(all_tids.len());
        let mut it = coded.iter().peekable();
        for &tid in all_tids {
            pos_codes.push(it.next_if(|(t, _)| *t == tid).map_or(&[], |(_, c)| *c));
        }
        debug_assert!(it.peek().is_none(), "items not aligned with tuple list");
    }
    let postings = match pays && ty == ListType::III {
        true => postings_section(&pos_codes, entries.len(), logical),
        false => Vec::new(),
    };
    let mut out = Vec::new();
    match ty {
        ListType::I => {
            let strings: Vec<(u32, u64)> = coded
                .iter()
                .flat_map(|&(t, codes)| codes.iter().map(move |&c| (t, c)))
                .collect();
            for chunk in strings.chunks(FRAME_ELEMS) {
                let (tids, codes): (Vec<u32>, Vec<u64>) = chunk.iter().copied().unzip();
                let mut payload = Vec::new();
                delta_encode_tids(&tids, &mut payload);
                push_codes(&codes, &mut payload);
                append_frame(&mut out, FRAME_PACKED, chunk.len(), &payload);
            }
        }
        ListType::II => {
            for chunk in coded.chunks(FRAME_ELEMS) {
                let tids: Vec<u32> = chunk.iter().map(|(t, _)| *t).collect();
                let mut payload = Vec::new();
                delta_encode_tids(&tids, &mut payload);
                let nums: Vec<u8> = chunk.iter().map(|(_, c)| c.len() as u8).collect();
                pack_byte_section(&nums, &mut payload);
                let codes: Vec<u64> = chunk.iter().flat_map(|(_, c)| c.iter()).copied().collect();
                push_codes(&codes, &mut payload);
                append_frame(&mut out, FRAME_PACKED, chunk.len(), &payload);
            }
        }
        ListType::III => {
            encode_positional(&pos_codes, &mut out, |chunk, payload| {
                let nums: Vec<u8> = chunk.iter().map(|c| c.len() as u8).collect();
                pack_byte_section(&nums, payload);
                push_codes(&chunk.concat(), payload);
            });
        }
        ListType::IV => debug_assert!(false, "Type IV is numeric-only"),
    }
    let mut frames = Vec::new();
    push_dict_frame(&entries, counts.as_deref(), &postings, &mut frames);
    frames.extend_from_slice(&out);
    (logical, frames)
}

/// Encode a numeric attribute's vector list as a packed image. Inputs
/// mirror [`crate::veclist::encode_num_list`].
pub fn encode_packed_num_list(
    ty: ListType,
    items: &[(u32, u64)],
    all_tids: &[u32],
    codec: &NumericCodec,
) -> Vec<u8> {
    image(encode_packed_num(ty, items, all_tids, codec))
}

/// The logical length and frames of [`encode_packed_num_list`].
pub(crate) fn encode_packed_num(
    ty: ListType,
    items: &[(u32, u64)],
    all_tids: &[u32],
    codec: &NumericCodec,
) -> (u64, Vec<u8>) {
    let logical: u64 = match ty {
        // Raw Type I: `[tid u32][code]` per defined value.
        ListType::I => items.len() as u64 * (4 + codec.code_bytes() as u64),
        // Raw Type IV: one code per tuple-list position.
        ListType::IV => all_tids.len() as u64 * codec.code_bytes() as u64,
        _ => 0,
    };
    let mut out = Vec::new();
    match ty {
        ListType::I => {
            for chunk in items.chunks(FRAME_ELEMS) {
                let tids: Vec<u32> = chunk.iter().map(|(t, _)| *t).collect();
                let codes: Vec<u64> = chunk.iter().map(|(_, c)| *c).collect();
                let mut payload = Vec::new();
                delta_encode_tids(&tids, &mut payload);
                let cbw = codes.iter().map(|&c| bit_width(c)).max().unwrap_or(0);
                payload.push(cbw as u8);
                pack_bits(&codes, cbw, &mut payload);
                append_frame(&mut out, FRAME_PACKED, chunk.len(), &payload);
            }
        }
        ListType::IV => {
            let mut pos_codes: Vec<Option<u64>> = Vec::with_capacity(all_tids.len());
            let mut it = items.iter().peekable();
            for &tid in all_tids {
                match it.peek() {
                    Some((t, code)) if *t == tid => {
                        pos_codes.push(Some(*code));
                        it.next();
                    }
                    _ => pos_codes.push(None),
                }
            }
            debug_assert!(it.peek().is_none(), "items not aligned with tuple list");
            encode_positional(&pos_codes, &mut out, |chunk, payload| {
                // ndf ↦ 0, code ↦ code+1: short ndf runs inside a frame stay
                // one bit wide instead of forcing the full code width.
                let stored: Vec<u64> = chunk
                    .iter()
                    .map(|c| c.map_or(0, |v| v.saturating_add(1)))
                    .collect();
                let cbw = stored.iter().map(|&v| bit_width(v)).max().unwrap_or(0);
                payload.push(cbw as u8);
                pack_bits(&stored, cbw, payload);
            });
            let _ = codec; // raw layout width is implied by the codec at decode
        }
        _ => debug_assert!(false, "text-only list type for numeric attribute"),
    }
    (logical, out)
}

/// Shared positional segmentation: runs of ndf elements at least
/// [`NDF_RUN_MIN`] long (or trailing) become NDF_RUN frames; everything
/// else goes through `emit` in blocks of at most [`FRAME_ELEMS`].
fn encode_positional<T: PositionalElem>(
    positions: &[T],
    out: &mut Vec<u8>,
    emit: impl Fn(&[T], &mut Vec<u8>),
) {
    let mut i = 0usize;
    while i < positions.len() {
        if positions.get(i).is_some_and(|p| p.is_ndf()) {
            let mut j = i;
            while j < positions.len() && positions.get(j).is_some_and(|p| p.is_ndf()) {
                j += 1;
            }
            if j - i >= NDF_RUN_MIN || j == positions.len() {
                append_frame(out, FRAME_NDF_RUN, j - i, &[]);
                i = j;
                continue;
            }
        }
        let start = i;
        let mut end = i;
        while end < positions.len() && end - start < FRAME_ELEMS {
            if positions.get(end).is_some_and(|p| p.is_ndf()) {
                let mut j = end;
                while j < positions.len() && positions.get(j).is_some_and(|p| p.is_ndf()) {
                    j += 1;
                }
                if j - end >= NDF_RUN_MIN || j == positions.len() {
                    break;
                }
                end = j;
            } else {
                end += 1;
            }
        }
        let chunk = positions.get(start..end).unwrap_or(&[]);
        let mut payload = Vec::new();
        // lint:allow(panic-reachability, "dynamic edge: `emit` is one of the two in-module frame encoders below, both total over arbitrary position slices")
        emit(chunk, &mut payload);
        append_frame(out, FRAME_PACKED, chunk.len(), &payload);
        i = end;
    }
}

/// An element of a positional (Type III/IV) list, for run segmentation.
trait PositionalElem {
    fn is_ndf(&self) -> bool;
}

impl PositionalElem for &[u64] {
    fn is_ndf(&self) -> bool {
        self.is_empty()
    }
}

impl PositionalElem for Option<u64> {
    fn is_ndf(&self) -> bool {
        self.is_none()
    }
}

/// Which organization a packed list holds, with the codec state the raw
/// layout leaves implicit.
#[derive(Clone)]
pub(crate) enum Org {
    Text(ListType, SigCodec),
    Num(ListType, NumericCodec),
}

impl Org {
    pub(crate) fn list_type(&self) -> ListType {
        match self {
            Org::Text(ty, _) | Org::Num(ty, _) => *ty,
        }
    }

    /// Raw-layout bytes of one positional *ndf* element.
    fn ndf_elem_len(&self) -> u64 {
        match self {
            Org::Text(..) => 1,
            Org::Num(_, codec) => codec.code_bytes() as u64,
        }
    }
}

/// The payload of a RAW tail frame: raw-layout element bytes, which the
/// walk parses field by field.
#[derive(Default)]
pub(crate) struct RawTail {
    buf: Vec<u8>,
    pos: usize,
}

impl RawTail {
    /// The next `n` bytes, as a borrowed view.
    pub(crate) fn take(&mut self, n: usize) -> Result<&[u8]> {
        let start = self.pos;
        let bytes = start
            .checked_add(n)
            .and_then(|end| self.buf.get(start..end))
            .ok_or_else(|| corrupt("packed frame underrun"))?;
        self.pos = start + n;
        Ok(bytes)
    }
}

/// A text list's dictionary: its DICT frame's entries, parsed and checked
/// once, then only read.
#[derive(Default)]
pub(crate) struct Dict {
    /// The DICT payload followed by [`SIG_PAD`] zero bytes.
    payload: Vec<u8>,
    lens: Vec<u8>,
    /// Entry `i`'s `cH` bytes are `payload[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// With a string section, entry `i`'s string is
    /// `payload[texts[i]..texts[i + 1]]`; empty without one.
    texts: Vec<usize>,
    /// With a string section, how many values have entry `i` as their
    /// first string; empty without one.
    counts: Vec<u64>,
    /// With a postings section, the positions it covers and their frames'
    /// raw-layout bytes; entry `i`'s positions are
    /// `posts[runs[i]..runs[i + 1]]`. Both empty without one.
    covered: Option<(u64, u64)>,
    runs: Vec<usize>,
    posts: Vec<u64>,
}

fn past_dictionary() -> IvaError {
    corrupt("signature code past the end of the dictionary")
}

/// A 1-value text query's threshold before the walk over one list
/// ([`Dict::probe`]), and what passes it.
pub(crate) struct Seed {
    /// The probe's table, under the seed's rule: the query's lane starts
    /// its own from a copy.
    pub(crate) exact: Exact,
    /// `combine(λ·B)`: at least the values asked for lie at or below it.
    pub(crate) limit: f64,
    /// Edit distances the probe computed.
    pub(crate) distances: u64,
    /// The candidates, where the list has postings and few enough pass.
    pub(crate) leap: Option<Leap>,
}

/// A seeded query's candidates ([`Dict::probe`]): every position
/// below `covered` whose value holds a string that passes the limit, once
/// per such string, with its code, ascending. The min over those codes'
/// bounds is the min over all of the value's (one that fails has a larger
/// bound). The walk over `[0, covered)` then needs no list frame.
pub(crate) struct Leap {
    /// `position << 32 | code`, ascending.
    keys: Vec<u64>,
    /// The positions the postings cover, and the raw-layout bytes of the
    /// frames that hold them.
    pub(crate) covered: u64,
    raw: u64,
}

impl Leap {
    /// Candidate `i`: its position and code.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<(u64, u64)> {
        let k = *self.keys.get(i)?;
        Some((k >> 32, k & u64::from(u32::MAX)))
    }
}

/// A block's candidate mask ([`crate::scan::Bounds`]) as a fill narrows
/// it, from the fill's first position, `at`, on. The default is empty, and
/// changes nothing.
#[derive(Default)]
pub(crate) struct Cands<'m> {
    pub(crate) bits: &'m mut [u64],
    pub(crate) at: usize,
}

/// What an [`Exact`] table's bound for a code is: its estimate, its edit
/// distance, or a cap its computation stopped at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Known {
    Unseen,
    Past,
    Exact,
}

/// One lane's table for one query string over one text list's dictionary:
/// per code, a lower bound on the difference from the query string to the
/// code's string, and what it is ([`Known`]); the rule by which a fill over
/// it lets a value through; and, where the dictionary holds strings, the
/// codes of the values the block's fill served, which the decision reads
/// only for a position it admits.
#[derive(Clone, Default)]
pub(crate) struct Exact {
    /// The query's one copy of the dictionary.
    dict: Arc<Dict>,
    pub(crate) lb: Vec<f64>,
    pub(crate) known: Vec<Known>,
    /// A fill lets through a value whose bound is at most `cut`, and an
    /// *ndf* one where `ndf`: a seed's rule ([`Dict::probe`]), everything
    /// elsewhere. No bound rises across the cut — a distance past it is
    /// kept as past it — so a seeded fill lets through what the probe's
    /// table does.
    pub(crate) cut: f64,
    pub(crate) ndf: bool,
    /// Block position `j`'s codes are `codes[spans[j].0..spans[j].1]`.
    spans: Vec<(u32, u32)>,
    pub(crate) codes: Vec<u64>,
}

impl Exact {
    /// Every code of `dict` unseen at its estimate under `matcher`,
    /// computed by the one kernel the walk runs.
    pub(crate) fn new(dict: &Arc<Dict>, matcher: &PreparedMatcher) -> Result<Self> {
        let mut lb = Vec::with_capacity(dict.lens.len());
        for (&len_byte, &start) in dict.lens.iter().zip(&dict.starts) {
            let window = dict.payload.get(start..).ok_or_else(past_dictionary)?;
            lb.push(matcher.estimate_parts(len_byte, window)?);
        }
        let (known, cut, ndf) = (vec![Known::Unseen; lb.len()], f64::INFINITY, true);
        Ok(Self {
            dict: Arc::clone(dict),
            lb,
            known,
            cut,
            ndf,
            ..Self::default()
        })
    }

    /// Forget the last block's codes.
    pub(crate) fn clear(&mut self) {
        if !self.codes.is_empty() || self.spans.is_empty() {
            self.spans.clear();
            self.spans.resize(BLOCK, (0, 0));
            self.codes.clear();
        }
    }

    /// Block position `j`'s value holds `codes` (too, after a record of
    /// `j`'s).
    pub(crate) fn one(&mut self, j: usize, codes: &[u64]) {
        let end = self.codes.len() as u32;
        self.codes.extend_from_slice(codes);
        if let Some(s) = self.spans.get_mut(j) {
            let start = if s.1 == end && s.0 < end { s.0 } else { end };
            *s = (start, self.codes.len() as u32);
        }
    }

    /// Whether the fill recorded block position `j`'s codes.
    pub(crate) fn holds(&self, j: usize) -> bool {
        self.spans.get(j).is_some_and(|(a, b)| a < b)
    }

    /// Code `c`'s edit distance to `q`, capped at `cap(max(|q|,
    /// |string|))`, counted in `distances` and kept —
    /// `None`, kept as [`Known::Past`], where it is at or past the cap or
    /// the table's cut; a bound at or below the cut stays there.
    fn measure(
        &mut self,
        c: usize,
        q: &PreparedPattern,
        cap: impl FnOnce(usize) -> usize,
        distances: &mut u64,
    ) -> Result<Option<usize>> {
        let text = self.dict.text_of(c)?;
        // lint:allow(panic-reachability, "dynamic edge: both callers, the probe and `Lane::decide`, pass a closure over `query::edits_beyond`, which is total")
        let cap = cap(q.bytes().len().max(text.len()));
        let d = q.distance(text, cap);
        *distances += 1;
        let (Some(state), Some(bound)) = (self.known.get_mut(c), self.lb.get_mut(c)) else {
            return Err(past_dictionary());
        };
        let (cut, risen) = (self.cut, if d < cap { d } else { cap } as f64);
        *state = match d >= cap || risen > cut {
            true => Known::Past,
            false => Known::Exact,
        };
        *bound = bound.max(risen).min(cut.max(*bound));
        Ok((*state == Known::Exact).then_some(d))
    }

    /// The difference of block position `j`'s value, whose codes the fill
    /// recorded, to `q` (see [`Exact::measure`]): the min over its codes'
    /// distances, as [`crate::query::attr_difference`] takes it. A code
    /// is measured at its first need, and only while its bound is below
    /// the least distance found and not past the table's cut; one past a
    /// cap — the caller's, which only fall, or the cut in a seeded table —
    /// is left out, so `None` where every code is: whatever such a code
    /// gives the value, the lane does not admit it.
    pub(crate) fn decide(
        &mut self,
        j: usize,
        q: &PreparedPattern,
        mut cap: impl FnMut(usize) -> usize,
        distances: &mut u64,
    ) -> Result<Option<usize>> {
        let &(a, b) = self.spans.get(j).ok_or_else(misaligned)?;
        let code = |e: &Self, i: u32| e.codes.get(i as usize).map(|&c| c as usize);
        let mut best = f64::INFINITY;
        for i in a..b {
            let c = code(self, i).ok_or_else(misaligned)?;
            if self.known.get(c) == Some(&Known::Exact) {
                best = best.min(self.lb.get(c).copied().unwrap_or(best));
            }
        }
        for i in a..b {
            let c = code(self, i).ok_or_else(misaligned)?;
            let unseen = self.known.get(c) == Some(&Known::Unseen);
            let open = |&lb: &f64| lb < best && lb <= self.cut;
            if unseen && self.lb.get(c).is_some_and(open) {
                if let Some(d) = self.measure(c, q, &mut cap, distances)? {
                    best = best.min(d as f64);
                }
            }
        }
        Ok(best.is_finite().then_some(best as usize))
    }
}

impl Cands<'_> {
    /// The fill's positions `js` cannot pass.
    pub(crate) fn reject(&mut self, js: Range<usize>) {
        let (mut i, end) = (self.at + js.start, self.at + js.end);
        while i < end {
            let n = (64 - i % 64).min(end - i);
            if let Some(word) = self.bits.get_mut(i / 64) {
                *word &= !(u64::MAX >> (64 - n) << (i % 64));
            }
            i += n;
        }
    }
}

impl Dict {
    /// Parse the `d`-entry payload in `self.payload` of a list of type
    /// `ty` under `codec` into a fresh dictionary.
    fn load(&mut self, d: usize, ty: ListType, codec: &SigCodec) -> Result<()> {
        let body = self.payload.len().saturating_sub(SIG_PAD);
        let mut s = SliceReader::new(self.payload.get(..body).unwrap_or(&[]), "dictionary frame");
        // Every entry has at least one `cH` byte: more entries than the
        // payload has bytes is a lie, caught before it sizes anything.
        if d > s.remaining() {
            return Err(corrupt("dictionary claims more entries than bytes"));
        }
        unpack_byte_section(&mut s, d, &mut self.lens)?;
        let ch_start = body - s.remaining();
        let mut at = ch_start;
        self.starts.push(at);
        for &len_byte in &self.lens {
            at += codec.ch_bytes(len_byte);
            self.starts.push(at);
        }
        s.take(at - ch_start)?;
        if s.remaining() > 0 {
            // The string section — its lengths inflate through `counts` —
            // then the count section.
            take_section(&mut s, d, &mut self.counts)?;
            let mut at = body - s.remaining();
            self.texts.push(at);
            for &len in &self.counts {
                at = usize::try_from(len)
                    .ok()
                    .and_then(|len| at.checked_add(len))
                    .filter(|&end| end <= body)
                    .ok_or_else(|| corrupt("dictionary string past its payload"))?;
                self.texts.push(at);
            }
            s.take(at - (body - s.remaining()))?;
            take_section(&mut s, d, &mut self.counts)?;
            if ty == ListType::III && s.remaining() > 0 {
                let covered = load_postings(&mut s, d, &mut self.runs, &mut self.posts)?;
                self.covered = Some(covered);
            }
        }
        Ok(s.finish()?)
    }

    /// The candidates of a seed whose codes pass where their bound in
    /// `exact` is at most `cut` (see [`Leap`]): `None` without postings,
    /// or where more than `1 / LEAP_SHARE` of the covered positions hold a
    /// string that passes.
    fn leap(&self, exact: &Exact, cut: f64) -> Option<Leap> {
        let (covered, raw) = self.covered?;
        let run = |c: usize| {
            let (&a, &b) = self.runs.get(c).zip(self.runs.get(c + 1))?;
            self.posts.get(a..b)
        };
        let passing = exact.lb.iter().enumerate().filter(|(_, &b)| b <= cut);
        let codes: Vec<usize> = passing.map(|(c, _)| c).collect();
        let total: usize = codes.iter().filter_map(|&c| run(c)).map(<[u64]>::len).sum();
        if total as u64 > covered / LEAP_SHARE {
            return None;
        }
        let mut keys = Vec::with_capacity(total);
        for &c in &codes {
            keys.extend(run(c).unwrap_or(&[]).iter().map(|&p| p << 32 | c as u64));
        }
        if codes.len() > 1 {
            keys.sort_unstable();
        }
        Some(Leap { keys, covered, raw })
    }

    /// Entry `code`'s string.
    fn text_of(&self, code: usize) -> Result<&[u8]> {
        let span = self.texts.get(code..).ok_or_else(past_dictionary)?;
        let (&start, &end) = span.first().zip(span.get(1)).ok_or_else(past_dictionary)?;
        self.payload.get(start..end).ok_or_else(past_dictionary)
    }

    /// Entry `code`: its `cL` and where its `cH` bytes start and end.
    fn entry(&self, code: u64) -> Option<(u8, usize, usize)> {
        let i = usize::try_from(code).ok()?;
        let span = self.starts.get(i..)?;
        Some((*self.lens.get(i)?, *span.first()?, *span.get(1)?))
    }

    /// Entry `code` as the walk hands a signature out.
    fn view(&self, code: u64) -> Result<SigView<'_>> {
        let (len_byte, start, end) = self.entry(code).ok_or_else(past_dictionary)?;
        let window = self.payload.get(start..).ok_or_else(past_dictionary)?;
        let ch = window.get(..end - start).ok_or_else(past_dictionary)?;
        Ok(SigView {
            len_byte,
            ch,
            window,
        })
    }

    /// Raw-layout bytes of the signatures `codes` name — which checks that
    /// each names an entry.
    fn raw_len(&self, codes: &[u64]) -> Result<u64> {
        codes.iter().try_fold(0u64, |sum, &code| {
            let (_, start, end) = self.entry(code).ok_or_else(past_dictionary)?;
            Ok(sum + 1 + (end - start) as u64)
        })
    }

    /// Values the count section counts (0 without one).
    pub(crate) fn counted(&self) -> u64 {
        (self.counts.iter()).fold(0, |sum, &n| sum.saturating_add(n))
    }

    /// The probe (see the module doc): measure the dictionary's strings
    /// against the matcher's query string into a fresh [`Exact`] table, in
    /// ascending estimate order — uncapped until a bound `B` exists, then
    /// where weight `lambda` puts them past `combine(λ·B)` under `metric`
    /// ([`edits_beyond`]). `B` is the smallest distance at which the values
    /// counted so far reach `k + deleted`; the visit ends at the first
    /// estimate above the one at which they reach `k` (`B` itself with no
    /// tombstones). Which codes, and whether *ndf* (penalty `ndf`), pass its
    /// limit is then decided once. `None` without a string
    /// section or enough counted values; `Corrupt` for counts above the
    /// list's `values`, or postings whose frames' bytes the list's
    /// `logical` length cannot hold — or does not equal, where they cover
    /// all `tuples` positions and a leap reads no frame to find out.
    pub(crate) fn probe<M: Metric>(
        self: &Arc<Self>,
        matcher: &PreparedMatcher,
        (k, deleted, values, tuples, logical): (u64, u64, u64, u64, u64),
        (lambda, ndf, metric): (f64, f64, &M),
    ) -> Result<Option<Seed>> {
        let (counted, need) = (self.counted(), k.saturating_add(deleted));
        if counted > values {
            return Err(corrupt("dictionary counts more values than the list holds"));
        }
        if let Some((covered, raw)) = self.covered {
            let whole = covered >= tuples;
            if raw > logical || covered > tuples || (whole && raw != logical) {
                return Err(corrupt("postings cover other frames than the list holds"));
            }
        }
        if self.counts.is_empty() || counted < need {
            return Ok(None);
        }
        let (mut exact, q) = (Exact::new(self, matcher)?, matcher.pattern());
        // Estimates are ≥ 0, and such floats order as their bits do.
        let mut order: BinaryHeap<_> = (exact.lb.iter().enumerate())
            .map(|(c, e)| Reverse((e.to_bits(), c)))
            .collect();
        // `(distance, code)` of the exact strings; `(B for k, B)`.
        let (mut found, mut b, mut distances) = (Vec::new(), None, 0u64);
        while let Some(Reverse((est, c))) = order.pop() {
            let est = f64::from_bits(est);
            if b.is_some_and(|(bk, _)| est > bk as f64) {
                break;
            }
            let past = |b: usize| metric.combine(&[lambda * b as f64]);
            let cap = |longest| {
                let beyond = |(_, b)| edits_beyond(&mut [0.0], 0, lambda, longest, metric, past(b));
                b.map_or(usize::MAX, beyond)
            };
            let Some(d) = exact.measure(c, q, cap, &mut distances)? else {
                continue;
            };
            found.push((d, c));
            found.sort_unstable();
            let (mut reached, mut bk) = (0u64, None);
            b = found.iter().find_map(|&(d, c)| {
                reached = reached.saturating_add(self.counts.get(c).copied().unwrap_or(0));
                bk = bk.or((reached >= k).then_some(d));
                bk.zip((reached >= need).then_some(d))
            });
        }
        let Some((_, b)) = b else { return Ok(None) };
        let limit = metric.combine(&[lambda * b as f64]);
        // The walk's own test, `est > limit`, failed (`NaN` included).
        let passes = |b: f64| metric.combine(&[lambda * b]).partial_cmp(&limit) != Some(Greater);
        // The cut is the largest bound of the table that passes, so under a
        // monotone metric a bound passes exactly when it is at most the cut,
        // and an edit count past it fails too — unless `B + 1` passes (a
        // weight of 0), where nothing is cut.
        let none = passes(b as f64 + 1.0);
        exact.cut = (exact.lb.iter().copied())
            .filter(|&b| passes(b))
            .fold(if none { f64::MAX } else { 0.0 }, f64::max);
        // Where *ndf* passes, every *ndf* position is a candidate too.
        exact.ndf = passes(ndf);
        let leap = (!exact.ndf).then(|| self.leap(&exact, exact.cut)).flatten();
        Ok(Some(Seed {
            exact,
            limit,
            distances,
            leap,
        }))
    }
}

/// Parse and check the postings section (see the module doc): no run
/// longer than `covered`, runs that fill the section exactly, and
/// positions below `covered`, strictly ascending within a run. Entry
/// `i`'s run goes to `posts[runs[i]..runs[i + 1]]`; returns `covered`
/// and the raw-layout bytes of its frames.
fn load_postings(
    s: &mut SliceReader<'_>,
    d: usize,
    runs: &mut Vec<usize>,
    posts: &mut Vec<u64>,
) -> Result<(u64, u64)> {
    let (covered, raw) = (s.u64()?, s.u64()?);
    // Positions are tuple-list positions, which u32 tids number.
    if covered > 1 << 32 {
        return Err(corrupt("postings cover more positions than tids"));
    }
    let mut lens = Vec::new();
    take_section(s, d, &mut lens)?;
    runs.push(0);
    for &n in &lens {
        // A run of at most `covered` positions: the total stays below
        // `d · 2^32`, and width 0 (`covered ≤ 1`) below `d`.
        let n = usize::try_from(n).ok().filter(|&n| n as u64 <= covered);
        let end = n.and_then(|n| runs.last()?.checked_add(n));
        runs.push(end.ok_or_else(|| corrupt("postings run past its list"))?);
    }
    let total = runs.last().copied().unwrap_or(0);
    let width = bit_width(covered.saturating_sub(1));
    let bits = total.checked_mul(width as usize);
    if bits.is_none_or(|b| b.div_ceil(8) != s.remaining()) {
        return Err(corrupt("postings do not fill their section"));
    }
    let bytes = s.take(s.remaining())?;
    unpack_bits(bytes, width, total, posts).ok_or_else(|| corrupt("truncated postings"))?;
    for run in runs.windows(2) {
        let (&a, &b) = run.first().zip(run.get(1)).ok_or_else(past_dictionary)?;
        let posts = posts.get(a..b).ok_or_else(past_dictionary)?;
        let ascending = posts.windows(2).all(|w| w.first() < w.get(1));
        if !ascending || posts.last().is_some_and(|&p| p >= covered) {
            return Err(corrupt("postings not ascending below their cover"));
        }
    }
    Ok((covered, raw))
}

/// One PACKED frame, read in place: its sections unpacked into arrays, and
/// one cursor per section — beside the list's dictionary, which a text
/// frame's codes index. A frame is validated whole when it is loaded (the
/// string counts add up to the code section, every code names a
/// dictionary entry, nothing is left over), so the cursors stay in step.
#[derive(Default)]
pub(crate) struct Sections {
    payload: Vec<u8>,
    tids: Vec<u32>,
    nums: Vec<u8>,
    /// A numeric frame's codes, or a text frame's dictionary codes (one
    /// per string).
    codes: Vec<u64>,
    /// Scratch the bit-packed sections inflate through.
    wide: Vec<u64>,
    dict: Arc<Dict>,
    tid_i: usize,
    num_i: usize,
    code_i: usize,
    /// Fields (of any section) not yet handed out.
    left: usize,
}

fn misaligned() -> IvaError {
    corrupt("packed frame read out of step with its sections")
}

/// The min over `codes` of their entries in `bounds`, an [`Exact`]
/// table's.
#[inline(always)]
fn least(codes: &[u64], bounds: &[f64]) -> Result<f64> {
    let mut best = f64::INFINITY;
    for &code in codes {
        best = best.min(*bounds.get(code as usize).ok_or_else(misaligned)?);
    }
    Ok(best)
}

/// The next value of one section, stepping its cursor.
fn next_of<T: Copy>(section: &[T], at: &mut usize, left: &mut usize) -> Result<T> {
    let v = section.get(*at).copied().ok_or_else(misaligned)?;
    *at += 1;
    *left -= 1;
    Ok(v)
}

impl Sections {
    /// The next keyed element's tuple id.
    pub(crate) fn tid(&mut self) -> Result<u32> {
        next_of(&self.tids, &mut self.tid_i, &mut self.left)
    }

    /// The next element's string count.
    pub(crate) fn string_count(&mut self) -> Result<u8> {
        next_of(&self.nums, &mut self.num_i, &mut self.left)
    }

    /// The next numeric code.
    pub(crate) fn code(&mut self) -> Result<u64> {
        next_of(&self.codes, &mut self.code_i, &mut self.left)
    }

    /// The next signature, borrowed from the dictionary.
    #[inline]
    pub(crate) fn sig(&mut self) -> Result<SigView<'_>> {
        let code = next_of(&self.codes, &mut self.code_i, &mut self.left)?;
        self.dict.view(code)
    }

    /// Put back `tid`, the keyed header the walk read last and holds as
    /// its frozen pointer, so that a run starts at the element it heads.
    pub(crate) fn unread_tid(&mut self, tid: u32) -> Result<()> {
        let at = self.tid_i.checked_sub(1);
        self.tid_i = at
            .filter(|&i| self.tids.get(i) == Some(&tid))
            .ok_or_else(misaligned)?;
        self.left += 1;
        Ok(())
    }

    /// Serve block positions from this frame of a list of type `ty` (see
    /// [`PackedReader::fill_run`]): on a positional list each element is
    /// the next position's; a keyed list's tid section is merged against
    /// `tids`. A text value's bound is the min over its strings' codes of
    /// the lane's table, which records its codes where the dictionary
    /// holds strings; what the table's rule does not let through is
    /// rejected. A merge stops where the frame runs out, and before a
    /// Type I text value whose strings reach the frame's end — the value
    /// may go on in the next frame, so the walk serves it. Returns the
    /// positions served.
    fn fill(
        &mut self,
        ty: ListType,
        bound: Bound<'_>,
        tids: &[u32],
        out: &mut [f64],
        mut cands: Cands<'_>,
    ) -> Result<usize> {
        let (strings, at, c0) = (!self.dict.texts.is_empty(), cands.at, self.code_i);
        let (mut bounds, mut cut, mut ndf, mut numeric): (&[f64], _, _, _) =
            (&[], f64::INFINITY, true, None);
        let (mut spans, mut recorded, mut base): (&mut [(u32, u32)], _, _) = (&mut [], None, 0);
        match bound {
            Bound::Text(e) => {
                (bounds, cut, ndf) = (&e.lb, e.cut, e.ndf);
                if strings {
                    (spans, base, recorded) = (&mut e.spans, e.codes.len(), Some(&mut e.codes));
                }
            }
            Bound::Num(codec, q) => numeric = Some((codec, q)),
        }
        // What the fill writes for a value of bound `lb` (`None`: *ndf*, by
        // `text_lower_bound`'s rule) — its bound, `NaN` for *ndf* — or
        // `None` where the table's rule rejects it.
        let pass = |lb: Option<f64>| match lb {
            None => ndf.then_some(f64::NAN),
            Some(lb) => (lb <= cut).then_some(lb),
        };
        let mut mark = |j: usize, a: usize, b: usize| {
            if let Some(s) = spans.get_mut(at + j) {
                *s = ((base + a - c0) as u32, (base + b - c0) as u32);
            }
        };
        let (mut tid_i, mut num_i, mut code_i, mut j) = (self.tid_i, self.num_i, self.code_i, 0);
        if ty == ListType::III {
            // The dense lists' run, kept to its bones: a count, its codes.
            // It rejects the spans between the values that pass.
            let nums = self.nums.get(num_i..).unwrap_or(&[]);
            let nums = nums.get(..tids.len().min(out.len())).unwrap_or(nums);
            let mut from = 0;
            for (slot, &num) in out.iter_mut().zip(nums) {
                let codes = self.codes.get(code_i..code_i + usize::from(num));
                let codes = codes.ok_or_else(misaligned)?;
                mark(j, code_i, code_i + codes.len());
                (code_i, j) = (code_i + codes.len(), j + 1);
                let lb = text_lower_bound(ty, codes.len(), least(codes, bounds)?);
                if let Some(lb) = pass(lb) {
                    cands.reject(from..j - 1);
                    (*slot, from) = (lb, j);
                }
            }
            cands.reject(from..j);
            num_i += j;
        } else {
            while let (Some(&t), Some(slot)) = (tids.get(j), out.get_mut(j)) {
                let next = match (ty.is_positional(), self.tids.get(tid_i)) {
                    // A Type IV frame runs while its codes do.
                    (true, _) if code_i < self.codes.len() => t,
                    (false, Some(&next)) => next,
                    _ => break,
                };
                let (elems, lb) = match numeric {
                    // The list holds nothing for `t`.
                    _ if next > t => (0, pass(None)),
                    Some((codec, q)) => {
                        let code = *self.codes.get(code_i).ok_or_else(misaligned)?;
                        code_i += 1;
                        match ty == ListType::IV && code == codec.ndf_code() {
                            true => (0, pass(None)),
                            false => (
                                usize::from(ty == ListType::I),
                                Some(codec.lower_bound_dist(code, q)),
                            ),
                        }
                    }
                    // `next`'s value: one Type II element, or Type I's run of
                    // one-string elements.
                    None => {
                        let num = match ty {
                            ListType::I => {
                                let run = self.tids.get(tid_i..).unwrap_or(&[]);
                                let run = run.iter().take_while(|&&x| x == next).count();
                                if next == t && tid_i + run == self.tids.len() {
                                    break;
                                }
                                run
                            }
                            _ => usize::from(*self.nums.get(num_i).ok_or_else(misaligned)?),
                        };
                        num_i += usize::from(ty != ListType::I);
                        let codes = self
                            .codes
                            .get(code_i..code_i + num)
                            .ok_or_else(misaligned)?;
                        let lb = pass(text_lower_bound(ty, num, least(codes, bounds)?));
                        if next == t {
                            mark(j, code_i, code_i + num);
                        }
                        code_i += num;
                        let elems = if ty == ListType::I { num } else { 1 };
                        (elems, lb)
                    }
                };
                tid_i += elems;
                if next >= t {
                    match lb {
                        Some(lb) => *slot = lb,
                        None => cands.reject(j..j + 1),
                    }
                    j += 1;
                }
            }
        }
        if let Some(recorded) = recorded {
            recorded.extend_from_slice(self.codes.get(c0..code_i).unwrap_or(&[]));
        }
        // Every field passed counts as handed out.
        let passed = (tid_i - self.tid_i) + (num_i - self.num_i) + (code_i - self.code_i);
        self.left = self.left.saturating_sub(passed);
        (self.tid_i, self.num_i, self.code_i) = (tid_i, num_i, code_i);
        Ok(j)
    }

    /// Parse the `elems`-element payload in `self.payload` under `org`.
    /// Returns the raw-layout size of the frame's elements.
    fn load(&mut self, org: &Org, elems: usize) -> Result<u64> {
        let Self {
            payload,
            tids,
            nums,
            codes,
            wide,
            dict,
            ..
        } = self;
        tids.clear();
        nums.clear();
        codes.clear();
        self.left = 0;
        let mut s = SliceReader::new(payload.as_slice(), "packed frame");
        // Every section is located (and found to fit the payload) before
        // any of them sizes a buffer: the tid run inflates last.
        let tid_run = match org.list_type().is_positional() {
            false => {
                let (first, bw) = (s.u32()?, u32::from(s.u8()?));
                Some((first, bw, s.take(packed_len(elems - 1, bw))?))
            }
            true => None,
        };
        let mut raw_len = 0u64;
        match org {
            Org::Text(ty, _) => {
                let strings = if *ty == ListType::I {
                    elems
                } else {
                    unpack_byte_section(&mut s, elems, nums)?;
                    nums.iter().map(|&n| usize::from(n)).sum()
                };
                // A code is at least one bit wide, so a frame cannot claim
                // more strings than its code section has bits.
                let cbw = u32::from(s.u8()?);
                if cbw == 0 {
                    return Err(corrupt("zero-width signature codes"));
                }
                let cbytes = s.take(packed_len(strings, cbw))?;
                s.finish()?;
                unpack_bits(cbytes, cbw, strings, codes)
                    .ok_or_else(|| corrupt("bad signature code width"))?;
                raw_len += nums.len() as u64 + dict.raw_len(codes)?;
            }
            Org::Num(ty, codec) => {
                let cbw = u32::from(s.u8()?);
                let cbytes = s.take(packed_len(elems, cbw))?;
                s.finish()?;
                unpack_bits(cbytes, cbw, elems, codes).ok_or_else(|| corrupt("bad code width"))?;
                let ndf = codec.ndf_code();
                let cap = match ty {
                    ListType::IV => ndf,
                    _ => max_code(codec.code_bytes()),
                };
                if codes.iter().any(|&c| c > cap) {
                    return Err(corrupt("numeric code out of domain"));
                }
                if *ty == ListType::IV {
                    // Stored 0 is ndf, anything else the code plus one.
                    for c in codes.iter_mut() {
                        *c = c.checked_sub(1).unwrap_or(ndf);
                    }
                }
                raw_len += (codes.len() * codec.code_bytes()) as u64;
            }
        }
        if let Some(run) = tid_run {
            inflate_tids(run, elems, wide, tids)?;
            raw_len += 4 * elems as u64;
        }
        (self.tid_i, self.num_i, self.code_i) = (0, 0, 0);
        self.left = self.tids.len() + self.nums.len() + self.codes.len();
        Ok(raw_len)
    }
}

/// How a value's lower bound is computed: a text list's from its lane's
/// table, under the table's rule; a numeric list's from the query
/// number against its codes.
pub(crate) enum Bound<'a> {
    Text(&'a mut Exact),
    Num(&'a NumericCodec, f64),
}

/// What the walk reads its next element field from: the current frame.
pub(crate) enum Frame<'a> {
    /// A RAW tail frame's raw-layout bytes.
    Raw(&'a mut RawTail),
    /// An NDF_RUN frame: positional *ndf* elements not yet served.
    NdfRun(&'a mut u64),
    /// A PACKED frame's sections.
    Packed(&'a mut Sections),
}

/// Frame-wise reader over a packed list: holds one frame at a time and
/// hands the walk in `veclist.rs` its element fields (see the module doc).
pub struct PackedReader {
    inner: ListReader,
    /// Where the list's frames start in `inner`.
    start: u64,
    org: Org,
    kind: u8,
    raw: RawTail,
    ndf_left: u64,
    sections: Sections,
    /// Whether the dictionary was handed to the reader, which then steps
    /// over the DICT frame by its header.
    handed: bool,
    /// Raw-layout bytes of the frames not yet loaded: the list's logical
    /// length, less what the frames loaded so far decode to. The last
    /// frame must bring it to exactly zero.
    remaining: u64,
}

impl PackedReader {
    /// Reader over a packed text list's image (see the module doc).
    /// Consumes its logical-length prologue.
    pub fn new_text(mut reader: ListReader, ty: ListType, codec: &SigCodec) -> Result<Self> {
        let logical = read_prologue(&mut reader)?;
        Self::text_frames(reader, ty, codec, logical)
    }

    /// Reader over a packed numeric list's image. Consumes its
    /// logical-length prologue.
    pub fn new_num(mut reader: ListReader, ty: ListType, codec: &NumericCodec) -> Result<Self> {
        let logical = read_prologue(&mut reader)?;
        Self::num_frames(reader, ty, codec, logical)
    }

    /// Reader over the frames at `reader` of a text list whose logical
    /// length is `logical` — how an index stores a list.
    pub(crate) fn text_frames(
        reader: ListReader,
        ty: ListType,
        codec: &SigCodec,
        logical: u64,
    ) -> Result<Self> {
        if ty == ListType::IV {
            return Err(IvaError::InvalidArgument(
                "text decoder on numeric-only Type IV list".into(),
            ));
        }
        Self::over(reader, Org::Text(ty, codec.clone()), logical)
    }

    /// [`PackedReader::text_frames`] for a numeric list.
    pub(crate) fn num_frames(
        reader: ListReader,
        ty: ListType,
        codec: &NumericCodec,
        logical: u64,
    ) -> Result<Self> {
        if !matches!(ty, ListType::I | ListType::IV) {
            return Err(IvaError::InvalidArgument(
                "numeric decoder on text-only list type".into(),
            ));
        }
        Self::over(reader, Org::Num(ty, *codec), logical)
    }

    fn over(inner: ListReader, org: Org, logical: u64) -> Result<Self> {
        if inner.at_end() && logical != 0 {
            return Err(corrupt("list of no frames claims a logical length"));
        }
        Ok(Self {
            start: inner.tell(),
            inner,
            org,
            kind: FRAME_RAW,
            raw: RawTail::default(),
            ndf_left: 0,
            sections: Sections::default(),
            handed: false,
            remaining: logical,
        })
    }

    /// The reader over `dict`, the list's dictionary, parsed elsewhere.
    pub(crate) fn with_dict(mut self, dict: &Arc<Dict>) -> Self {
        (self.sections.dict, self.handed) = (Arc::clone(dict), true);
        self
    }

    /// The list's dictionary, which a fresh reader first reads from its
    /// first frame (empty where that is no DICT frame).
    pub(crate) fn load_dict(&mut self) -> Result<Arc<Dict>> {
        if self.inner.tell() == self.start && !self.inner.at_end() {
            self.read_frame()?;
        }
        Ok(Arc::clone(&self.sections.dict))
    }

    /// The organization this reader decodes.
    pub(crate) fn org(&self) -> &Org {
        &self.org
    }

    /// Raw-layout bytes of the frames not yet loaded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Move a fresh reader past the frames `leap` covers, by their headers
    /// alone — its DICT frame, then PACKED and NDF_RUN frames holding
    /// exactly `covered` positions — charging their raw-layout bytes, so
    /// that the walk goes on at position `covered`, in the RAW tail.
    pub(crate) fn skip_covered(&mut self, leap: &Leap) -> Result<()> {
        let mismatch = || corrupt("postings cover other frames than the list holds");
        if self.inner.tell() != self.start {
            return Err(mismatch());
        }
        let (mut left, mut dict) = (leap.covered, true);
        while dict || left > 0 {
            let (kind, elems) = (self.inner.read_u8()?, u64::from(self.inner.read_u32()?));
            let payload_len = u64::from(self.inner.read_u32()?);
            match kind {
                FRAME_DICT if dict => dict = false,
                FRAME_PACKED | FRAME_NDF_RUN if !dict && elems <= left => left -= elems,
                _ => return Err(mismatch()),
            }
            self.inner.skip(payload_len)?;
        }
        self.charge(leap.raw)
    }

    /// Take `raw` bytes, what the frames just loaded or skipped decode
    /// to, off the logical length left: the frames must add up to it
    /// exactly, so frames past it, or a last frame short of it, are
    /// corrupt.
    fn charge(&mut self, raw: u64) -> Result<()> {
        let left = self.remaining.checked_sub(raw);
        self.remaining = left.ok_or_else(|| corrupt("list frames past its logical length"))?;
        if self.inner.at_end() && self.remaining != 0 {
            return Err(corrupt("list frames short of its logical length"));
        }
        Ok(())
    }

    /// True while the current frame has nothing left to hand out (a DICT
    /// frame never has: it comes before any PACKED frame).
    fn drained(&self) -> bool {
        match self.kind {
            FRAME_RAW => self.raw.pos >= self.raw.buf.len(),
            FRAME_NDF_RUN => self.ndf_left == 0,
            _ => self.sections.left == 0,
        }
    }

    /// True once the compressed stream and the current frame drain.
    pub fn at_end(&self) -> bool {
        self.drained() && self.inner.at_end()
    }

    /// The frame holding the next element field, loading frames as the
    /// current one drains. Reading past the last frame is corruption.
    #[inline]
    pub(crate) fn frame(&mut self) -> Result<Frame<'_>> {
        while self.drained() {
            if self.inner.at_end() {
                return Err(corrupt("packed list read past end"));
            }
            self.read_frame()?;
        }
        Ok(match self.kind {
            FRAME_RAW => Frame::Raw(&mut self.raw),
            FRAME_NDF_RUN => Frame::NdfRun(&mut self.ndf_left),
            _ => Frame::Packed(&mut self.sections),
        })
    }

    /// Serve lower bounds for a block of consecutive tuple-list positions
    /// (`out[i]` for `tids[i]`, `NaN` = *ndf*) from the front, as far as
    /// the current frame reaches: a PACKED frame from its sections
    /// ([`Sections::fill`]), an NDF_RUN
    /// frame and the end of the list (a positional list's lazy tail, a
    /// keyed list's last element passed) by arithmetic. `peek` is the
    /// walk's frozen keyed header, which a PACKED frame takes back. A text
    /// fill rejects in `cands` what its table's rule does not let
    /// through, *ndf* positions included. Returns the positions served; 0 — a
    /// RAW tail frame, or a keyed value that may run on into the next
    /// frame — leaves the next one to the walk, which rejects nothing.
    pub(crate) fn fill_run(
        &mut self,
        peek: &mut Option<u32>,
        bound: Bound<'_>,
        tids: &[u32],
        out: &mut [f64],
        mut cands: Cands<'_>,
    ) -> Result<usize> {
        let ty = self.org.list_type();
        let n = match self.at_end() {
            true => out.len(),
            false => match self.frame()? {
                Frame::Packed(s) => {
                    if let Some(tid) = peek.take() {
                        s.unread_tid(tid)?;
                    }
                    return s.fill(ty, bound, tids, out, cands);
                }
                Frame::NdfRun(left) => {
                    let n = out.len().min(usize::try_from(*left).unwrap_or(usize::MAX));
                    *left -= n as u64;
                    n
                }
                Frame::Raw(_) => return Ok(0),
            },
        };
        // *ndf* positions: an NDF_RUN frame's, or past the list's end.
        out.iter_mut().take(n).for_each(|slot| *slot = f64::NAN);
        if matches!(bound, Bound::Text(e) if !e.ndf) {
            cands.reject(0..n);
        }
        Ok(n)
    }

    fn read_frame(&mut self) -> Result<()> {
        let kind = self.inner.read_u8()?;
        let elems = self.inner.read_u32()? as usize;
        let payload_len = self.inner.read_u32()? as usize;
        if payload_len as u64 > self.inner.remaining() {
            return Err(corrupt("truncated list frame"));
        }
        let raw_len = match kind {
            FRAME_RAW => {
                self.raw.buf.clear();
                self.raw.buf.resize(payload_len, 0);
                self.inner.read_exact(&mut self.raw.buf)?;
                self.raw.pos = 0;
                payload_len as u64
            }
            FRAME_PACKED => {
                if elems == 0 || elems > MAX_FRAME_ELEMS {
                    return Err(corrupt("bad packed frame element count"));
                }
                let payload = &mut self.sections.payload;
                payload.clear();
                payload.resize(payload_len, 0);
                self.inner.read_exact(payload)?;
                self.sections.load(&self.org, elems)?
            }
            FRAME_DICT => {
                let Org::Text(ty, codec) = &self.org else {
                    return Err(corrupt("dictionary frame in a numeric list"));
                };
                // The dictionary heads the list's frames, or there is none.
                if self.inner.tell() != self.start + FRAME_HEADER_LEN as u64 {
                    return Err(corrupt("dictionary frame after the first frame"));
                }
                if self.handed {
                    self.inner.skip(payload_len as u64)?;
                } else {
                    let mut dict = Dict::default();
                    dict.payload.resize(payload_len + SIG_PAD, 0);
                    self.inner
                        .read_exact(dict.payload.get_mut(..payload_len).unwrap_or(&mut []))?;
                    let loaded = dict.load(elems, *ty, codec);
                    self.sections.dict = Arc::new(dict);
                    loaded?;
                }
                0
            }
            FRAME_NDF_RUN => {
                if payload_len != 0 {
                    return Err(corrupt("ndf run frame with payload"));
                }
                if !self.org.list_type().is_positional() {
                    return Err(corrupt("ndf run frame in a keyed list"));
                }
                if elems == 0 {
                    return Err(corrupt("empty ndf run frame"));
                }
                // The logical length came off disk too: a run claiming more
                // raw bytes than the list has left is corruption, and
                // checking here keeps a lying header from driving giant
                // expansions.
                let span = (elems as u64).saturating_mul(self.org.ndf_elem_len());
                if span > self.remaining {
                    return Err(corrupt("ndf run beyond logical length"));
                }
                self.ndf_left = elems as u64;
                span
            }
            other => return Err(IvaError::Corrupt(format!("bad list frame kind {other}"))),
        };
        self.kind = kind;
        self.charge(raw_len)
    }

    /// Inflate the rest of the list into one raw-layout buffer — the whole
    /// image at once, for tools and tests that compare it with the raw
    /// encoder's output (scans and exports read the frames in place
    /// through the cursors). It is the cursors' walk, written back out
    /// through the raw element encoders. Strict: the decoded size must
    /// equal the declared logical length.
    pub fn decode_to_vec(self) -> Result<Vec<u8>> {
        crate::veclist::raw_image(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::veclist::{encode_num_list, encode_text_list};
    use iva_storage::{write_contiguous_list, IoStats, Pager, PagerOptions};
    use std::sync::Arc;

    fn pager() -> Arc<Pager> {
        Pager::create_mem(
            &PagerOptions {
                page_size: 128,
                cache_bytes: 8192,
            },
            IoStats::new(),
        )
    }

    fn reader_for(p: &Arc<Pager>, data: &[u8]) -> ListReader {
        let h = write_contiguous_list(p, data).unwrap();
        ListReader::open(Arc::clone(p), h).unwrap()
    }

    fn text_items(codec: &SigCodec, tids: &[u32]) -> Vec<(u32, Vec<Vec<u8>>)> {
        tids.iter()
            .map(|&t| {
                let n = (t as usize % 3) + 1;
                let sigs = (0..n)
                    .map(|i| codec.encode_to_vec(format!("value-{t}-{i}").as_bytes()))
                    .collect();
                (t, sigs)
            })
            .collect()
    }

    #[test]
    fn text_roundtrips_to_identical_raw_bytes() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let defined: Vec<u32> = (0..400u32).filter(|t| t % 7 == 0 || *t < 10).collect();
        let all_tids: Vec<u32> = (0..400).collect();
        let items = text_items(&codec, &defined);
        for ty in [ListType::I, ListType::II, ListType::III] {
            let raw = encode_text_list(ty, &items, &all_tids).unwrap();
            let packed = encode_packed_text_list(ty, &items, &all_tids);
            assert_eq!(
                packed
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
                Some(raw.len() as u64),
                "prologue must hold the raw length"
            );
            let r = reader_for(&p, &packed);
            let pr = PackedReader::new_text(r, ty, &codec).unwrap();
            assert_eq!(pr.decode_to_vec().unwrap(), raw, "type {ty}");
        }
    }

    #[test]
    fn num_roundtrips_to_identical_raw_bytes() {
        let codec = NumericCodec::new(0.0, 1000.0, 2);
        let p = pager();
        let defined: Vec<u32> = (0..500u32).filter(|t| t % 11 == 0).collect();
        let all_tids: Vec<u32> = (0..500).collect();
        let items: Vec<(u32, u64)> = defined
            .iter()
            .map(|&t| (t, codec.encode(f64::from(t))))
            .collect();
        for ty in [ListType::I, ListType::IV] {
            let raw = encode_num_list(ty, &items, &all_tids, &codec).unwrap();
            let packed = encode_packed_num_list(ty, &items, &all_tids, &codec);
            assert_eq!(
                packed
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
                Some(raw.len() as u64),
                "prologue must hold the raw length"
            );
            let r = reader_for(&p, &packed);
            let pr = PackedReader::new_num(r, ty, &codec).unwrap();
            assert_eq!(pr.decode_to_vec().unwrap(), raw, "type {ty}");
        }
    }

    #[test]
    fn packing_shrinks_sorted_dense_lists() {
        // Sorted near-consecutive tids delta-pack to a couple of bits each;
        // small codes bit-pack far below their byte width; ndf runs vanish.
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let defined: Vec<u32> = (0..2000u32).filter(|t| t % 2 == 0).collect();
        let all_tids: Vec<u32> = (0..4000).collect();
        let items: Vec<(u32, u64)> = defined
            .iter()
            .map(|&t| (t, codec.encode(f64::from(t % 100))))
            .collect();
        let raw = encode_num_list(ListType::I, &items, &all_tids, &codec).unwrap();
        let packed = encode_packed_num_list(ListType::I, &items, &all_tids, &codec);
        assert!(
            packed.len() * 2 < raw.len(),
            "packed {} vs raw {}",
            packed.len(),
            raw.len()
        );
        // Positional list with a long ndf tail.
        let head: Vec<(u32, u64)> = (0..500u32).map(|t| (t, codec.encode(5.0))).collect();
        let raw4 = encode_num_list(ListType::IV, &head, &all_tids, &codec).unwrap();
        let packed4 = encode_packed_num_list(ListType::IV, &head, &all_tids, &codec);
        assert!(
            packed4.len() * 2 < raw4.len(),
            "packed {} vs raw {}",
            packed4.len(),
            raw4.len()
        );
    }

    #[test]
    fn mixed_raw_tail_frames_decode() {
        // A packed list followed by a RAW tail frame (the insert path's
        // appends) decodes to the concatenated raw layout.
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let p = pager();
        let items: Vec<(u32, u64)> = (0..50u32).map(|t| (t, codec.encode(1.0))).collect();
        let raw = encode_num_list(ListType::I, &items, &[], &codec).unwrap();
        let mut packed = encode_packed_num_list(ListType::I, &items, &[], &codec);
        let mut tail = Vec::new();
        tail.extend_from_slice(&777u32.to_le_bytes());
        codec.write_code(codec.encode(42.0), &mut tail);
        append_frame(&mut packed, FRAME_RAW, 1, &tail);
        let mut expect = raw.clone();
        expect.extend_from_slice(&tail);
        // The appended tail grows the logical length, which the image
        // carries in its prologue.
        packed[..8].copy_from_slice(&(expect.len() as u64).to_le_bytes());
        let r = reader_for(&p, &packed);
        let pr = PackedReader::new_num(r, ListType::I, &codec).unwrap();
        assert_eq!(pr.decode_to_vec().unwrap(), expect);
    }

    #[test]
    fn corrupt_frames_error_not_panic() {
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let scodec = SigCodec::new(0.3, 2);
        let p = pager();
        let items: Vec<(u32, u64)> = (0..40u32).map(|t| (t, codec.encode(2.0))).collect();
        let good = encode_packed_num_list(ListType::I, &items, &[], &codec);

        // Bad frame kind (first byte past the prologue).
        let mut bad = good.clone();
        if let Some(b) = bad.get_mut(PACKED_PROLOGUE_LEN) {
            *b = 9;
        }
        let pr = PackedReader::new_num(reader_for(&p, &bad), ListType::I, &codec).unwrap();
        assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));

        // Truncated payload (shorten the list mid-frame).
        let cut = good.len() - 3;
        let pr = PackedReader::new_num(
            reader_for(&p, good.get(..cut).unwrap()),
            ListType::I,
            &codec,
        )
        .unwrap();
        assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));

        // Overflowing tuple-id delta: first tid near u32::MAX with wide deltas.
        let overflow_items: Vec<(u32, u64)> = vec![(u32::MAX - 1, 1), (u32::MAX, 1)];
        let mut of = encode_packed_num_list(ListType::I, &overflow_items, &[], &codec);
        // Bump the stored first tid so the accumulated run overflows.
        let at = PACKED_PROLOGUE_LEN + FRAME_HEADER_LEN;
        if let Some(window) = of.get_mut(at..at + 4) {
            window.copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let pr = PackedReader::new_num(reader_for(&p, &of), ListType::I, &codec).unwrap();
        let err = pr.decode_to_vec();
        assert!(matches!(err, Err(IvaError::Corrupt(_))), "{err:?}");

        // NDF_RUN frame inside a keyed list.
        let mut keyed = 10u64.to_le_bytes().to_vec();
        append_frame(&mut keyed, FRAME_NDF_RUN, 5, &[]);
        let pr = PackedReader::new_text(reader_for(&p, &keyed), ListType::I, &scodec).unwrap();
        assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));
    }

    /// The allocation half of `robustness.rs`'s
    /// `frames_claiming_more_than_their_payload_are_corrupt`: after a
    /// lying frame is refused, the reader's arrays hold no more than the
    /// payloads could back — nothing was sized by the claim.
    #[test]
    fn lying_frames_size_nothing_by_their_claims() {
        let scodec = SigCodec::new(0.2, 2);
        let ncodec = NumericCodec::new(0.0, 100.0, 2);
        let p = Pager::create_mem(
            &PagerOptions {
                page_size: 4096,
                cache_bytes: 1 << 20,
            },
            IoStats::new(),
        );
        let list = |frames: &[(u8, usize, &[u8])]| {
            let mut l = (1u64 << 40).to_le_bytes().to_vec();
            for &(kind, elems, payload) in frames {
                append_frame(&mut l, kind, elems, payload);
            }
            reader_for(&p, &l)
        };
        let one = |elems: usize, payload: &[u8]| list(&[(FRAME_PACKED, elems, payload)]);
        // 65,536 string counts of 255 over a zero-width code section.
        let mut counts = vec![8u8];
        counts.extend_from_slice(&[0xFF; 65_536]);
        counts.push(0);
        let mut keyed_counts = vec![0u8; 5];
        keyed_counts.extend_from_slice(&counts);
        // ... and over one-bit codes, under a one-entry dictionary.
        let mut coded_counts = counts.clone();
        coded_counts.pop();
        coded_counts.extend_from_slice(&[1, 0, 0]);
        let dict: &[u8] = &[0, 0xAB];
        // One entry, then a string section claiming 2^30 strings, and one
        // whose single string claims 2^60 bytes (width 61).
        let mut many = dict.to_vec();
        many.extend_from_slice(&(1u32 << 30).to_le_bytes());
        many.extend_from_slice(&[1, 0xFF]);
        let mut long = dict.to_vec();
        long.extend_from_slice(&1u32.to_le_bytes());
        long.push(61);
        long.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let readers = [
            PackedReader::new_text(list(&[(FRAME_DICT, 1, &many)]), ListType::I, &scodec),
            PackedReader::new_text(list(&[(FRAME_DICT, 1, &long)]), ListType::I, &scodec),
            PackedReader::new_text(one(65_536, &counts), ListType::III, &scodec),
            PackedReader::new_text(one(65_536, &keyed_counts), ListType::II, &scodec),
            PackedReader::new_text(one(MAX_FRAME_ELEMS, &[0; 6]), ListType::I, &scodec),
            PackedReader::new_text(
                list(&[(FRAME_DICT, 1, dict), (FRAME_PACKED, 65_536, &coded_counts)]),
                ListType::III,
                &scodec,
            ),
            // A dictionary of 65,536 entries in three bytes.
            PackedReader::new_text(
                list(&[(FRAME_DICT, 65_536, &[0, 1, 2])]),
                ListType::I,
                &scodec,
            ),
            PackedReader::new_num(
                one(MAX_FRAME_ELEMS, &[0, 0, 0, 0, 0, 64]),
                ListType::I,
                &ncodec,
            ),
            PackedReader::new_num(one(MAX_FRAME_ELEMS, &[64]), ListType::IV, &ncodec),
        ];
        for (i, reader) in readers.into_iter().enumerate() {
            let mut reader = reader.unwrap();
            assert!(reader.frame().is_err_and(|e| e.is_corruption()), "list {i}");
            let (s, d) = (&reader.sections, &reader.sections.dict);
            let held = s.tids.capacity() * 4
                + s.nums.capacity()
                + d.lens.capacity()
                + (s.codes.capacity() + s.wide.capacity() + d.starts.capacity()) * 8
                + (d.texts.capacity() + d.counts.capacity()) * 8
                + (d.runs.capacity() + d.posts.capacity()) * 8;
            // At most the payloads' own values, inflated to a word each.
            assert!(
                held <= 9 * (s.payload.len() + d.payload.len()),
                "list {i}: {held} bytes of arrays"
            );
        }
    }

    /// The probe over a list coded by strings: `B` is the smallest
    /// distance at which the values counted by their first string reach
    /// `need`; the table holds each string it visited at its distance and
    /// the rest at their estimates, so a value whose *second* string is
    /// within `B` is bounded by that string's distance; the fill writes
    /// those bounds, never below zero; too few counted values seed
    /// nothing, and counts above the list's values are `Corrupt`.
    #[test]
    fn probe_bounds_by_first_strings() {
        use crate::metric::MetricKind;
        use crate::veclist::TextListCursor;
        let codec = SigCodec::new(0.3, 2);
        let kinds: [&[&str]; 3] = [&["canon"], &["cannon"], &["nikon", "canon"]];
        let values: Vec<&[&str]> = (0..200).map(|i| kinds[[0, 0, 1, 2][i % 4]]).collect();
        let mut strings = TextStrings::default();
        values
            .iter()
            .flat_map(|v| v.iter())
            .for_each(|s| strings.push(s.as_bytes()));
        let items: Vec<(u32, Vec<Vec<u8>>)> = (0..200u32)
            .zip(&values)
            .map(|(t, v)| {
                (
                    t,
                    v.iter()
                        .map(|s| codec.encode_to_vec(s.as_bytes()))
                        .collect(),
                )
            })
            .collect();
        let all_tids: Vec<u32> = (0..200).collect();
        let packed = image(encode_packed_text(
            ListType::III,
            &items,
            Some(&strings),
            &all_tids,
        ));
        let p = pager();
        let matcher = PreparedMatcher::new(&codec, b"canon");
        let probe = |k: u64, deleted: u64, values: u64| {
            let mut r = PackedReader::new_text(reader_for(&p, &packed), ListType::III, &codec)?;
            let logical = r.remaining();
            r.load_dict()?.probe(
                &matcher,
                (k, deleted, values, 200, logical),
                (1.0, 20.0, &MetricKind::L1),
            )
        };
        // Codes in first-appearance order: canon, cannon, nikon.
        let seed = probe(120, 0, 200).unwrap().unwrap();
        assert_eq!(seed.limit, 1.0, "L1 at λ = 1: B edits");
        let (lb, known) = (&seed.exact.lb, &seed.exact.known);
        assert_eq!(
            (&lb[..2], &known[..2]),
            (&[0.0, 1.0][..], &[Known::Exact; 2][..])
        );
        assert!(
            lb[2] > 1.0,
            "nikon is 3 edits away: {} {:?}",
            lb[2],
            known[2]
        );
        assert_eq!(probe(100, 0, 200).unwrap().unwrap().limit, 0.0);
        // Tombstones count against the bound, not against the table.
        let deleted = probe(100, 20, 200).unwrap().unwrap();
        assert_eq!(
            (
                deleted.limit,
                &deleted.exact.lb[..2],
                &deleted.exact.known[..2]
            ),
            (1.0, &seed.exact.lb[..2], &seed.exact.known[..2])
        );
        assert!(probe(181, 20, 200).unwrap().is_none());
        assert!(probe(10, 0, 199).is_err_and(|e| e.is_corruption()));
        // The fill: canon, canon, cannon, nikon + canon.
        let fill = |seed: &Seed, out: &mut [f64; 4]| {
            let r = PackedReader::new_text(reader_for(&p, &packed), ListType::III, &codec).unwrap();
            let (mut bits, mut exact) = ([u64::MAX], seed.exact.clone());
            let cands = Cands {
                bits: &mut bits,
                at: 1,
            };
            let tids = &all_tids[..4];
            TextListCursor::new(r, ListType::III)
                .fill(tids, &codec, &matcher, &mut exact, out, cands)
                .unwrap();
            bits[0]
        };
        assert!(
            seed.leap.is_none(),
            "every position passes: the frames are walked"
        );
        let mut out = [0.0; 4];
        assert_eq!(fill(&seed, &mut out), u64::MAX, "B = 1: every value passes");
        assert_eq!(out, [0.0, 0.0, 1.0, 0.0]);
        // At B = 0 cannon cannot pass: its bit (position 2, from bit 1 on)
        // is cleared and its slot left as it was.
        let mut out = [7.0; 4];
        let tight = probe(100, 0, 200).unwrap().unwrap();
        assert_eq!(fill(&tight, &mut out), !(1 << 3));
        assert_eq!(out, [0.0, 0.0, 7.0, 0.0]);
    }

    /// A Type III list coded by strings carries postings: a probe whose
    /// codes pass at few positions gets them as candidates, each with the
    /// code that passes, at its distance (a value holding the needle
    /// second included).
    /// A fresh reader then skips the covered frames by header and reads on
    /// in the RAW tail, its raw-layout bytes exact; a leap whose cover or
    /// bytes the frames do not hold is `Corrupt`.
    #[test]
    fn postings_give_candidates_and_skip_to_the_raw_tail() {
        use crate::metric::MetricKind;
        let codec = SigCodec::new(0.3, 2);
        let values: Vec<Vec<&str>> = (0..300)
            .map(|i| match i {
                7 => vec!["needle"],
                100 => vec!["hay", "needle"],
                _ => vec![["hay", "straw", "stack"][i % 3]],
            })
            .collect();
        let mut strings = TextStrings::default();
        values
            .iter()
            .flatten()
            .for_each(|s| strings.push(s.as_bytes()));
        let sigs = |v: &[&str]| {
            v.iter()
                .map(|s| codec.encode_to_vec(s.as_bytes()))
                .collect()
        };
        let items: Vec<(u32, Vec<Vec<u8>>)> = (0..300u32)
            .zip(&values)
            .map(|(t, v)| (t, sigs(v)))
            .collect();
        let all_tids: Vec<u32> = (0..300).collect();
        let mut packed = image(encode_packed_text(
            ListType::III,
            &items,
            Some(&strings),
            &all_tids,
        ));
        let covered_raw = u64::from_le_bytes(packed[..8].try_into().unwrap());
        let mut tail = vec![1u8];
        tail.extend_from_slice(&codec.encode_to_vec(b"needle"));
        append_frame(&mut packed, FRAME_RAW, 1, &tail);
        packed[..8].copy_from_slice(&(covered_raw + tail.len() as u64).to_le_bytes());
        let p = pager();
        let matcher = PreparedMatcher::new(&codec, b"needle");
        let mut r = PackedReader::new_text(reader_for(&p, &packed), ListType::III, &codec).unwrap();
        let counts = (1, 0, 301, 301, r.remaining());
        let seed = (r.load_dict().unwrap())
            .probe(&matcher, counts, (1.0, 20.0, &MetricKind::L1))
            .unwrap()
            .unwrap();
        let leap = seed.leap.as_ref().expect("two candidates of 300");
        let cands: Vec<(u64, u64)> = (0..).map_while(|i| leap.get(i)).collect();
        let pos: Vec<u64> = cands.iter().map(|&(p, _)| p).collect();
        assert_eq!(
            (pos, leap.covered, leap.raw),
            (vec![7, 100], 300, covered_raw)
        );
        for (_, code) in cands {
            let code = code as usize;
            assert_eq!(
                (seed.exact.lb[code], seed.exact.known[code]),
                (0.0, Known::Exact)
            );
        }
        let fresh =
            || PackedReader::new_text(reader_for(&p, &packed), ListType::III, &codec).unwrap();
        let mut r = fresh();
        r.skip_covered(leap).unwrap();
        assert_eq!(r.remaining(), tail.len() as u64);
        assert!(matches!(r.frame(), Ok(Frame::Raw(_))));
        for (covered, raw) in [
            (299, covered_raw),
            (301, covered_raw),
            (300, covered_raw + 2 + tail.len() as u64),
        ] {
            let lie = Leap {
                keys: Vec::new(),
                covered,
                raw,
            };
            assert!(
                fresh().skip_covered(&lie).is_err_and(|e| e.is_corruption()),
                "{covered} {raw}"
            );
        }
    }

    /// A reader handed the list's dictionary steps over the DICT frame by
    /// its header and decodes the rest as one that parsed it; a second
    /// DICT frame, or one after the first frame, is still `Corrupt` to it.
    #[test]
    fn a_handed_dictionary_steps_over_only_the_first_frame() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let all_tids: Vec<u32> = (0..50).collect();
        let items = text_items(&codec, &all_tids);
        let good = encode_packed_text_list(ListType::II, &items, &all_tids);
        let raw = encode_text_list(ListType::II, &items, &all_tids).unwrap();
        let open =
            |image: &[u8]| PackedReader::new_text(reader_for(&p, image), ListType::II, &codec);
        let dict = open(&good).unwrap().load_dict().unwrap();
        let at = PACKED_PROLOGUE_LEN + 5;
        let len = u32::from_le_bytes(good[at..at + 4].try_into().unwrap()) as usize;
        let (head, frame, rest) = (&good[..8], &good[8..at + 4 + len], &good[at + 4 + len..]);
        let handed = |image: &[u8]| open(image).unwrap().with_dict(&dict).decode_to_vec();
        assert_eq!(handed(&good).unwrap(), raw);
        for lie in [
            [head, frame, frame, rest].concat(),
            [head, rest, frame].concat(),
        ] {
            assert!(handed(&lie).is_err_and(|e| e.is_corruption()));
        }
    }

    #[test]
    fn logical_length_mismatch_is_corrupt() {
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let p = pager();
        let items: Vec<(u32, u64)> = (0..10u32).map(|t| (t, codec.encode(2.0))).collect();
        let raw_len = encode_num_list(ListType::I, &items, &[], &codec)
            .unwrap()
            .len() as u64;
        let packed = encode_packed_num_list(ListType::I, &items, &[], &codec);
        for wrong in [raw_len - 1, raw_len + 1] {
            let mut lying = packed.clone();
            lying[..8].copy_from_slice(&wrong.to_le_bytes());
            let pr = PackedReader::new_num(reader_for(&p, &lying), ListType::I, &codec).unwrap();
            assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));
        }
    }
}
