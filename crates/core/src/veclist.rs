//! lint:scope(panic-reachability)
//! Vector lists: the four element organizations of Sec. III-D.
//!
//! Every attribute gets one vector list holding the approximation vectors
//! of its values, ordered by tuple id. Three organizations suit text
//! attributes and two suit numerical ones; the paper selects per attribute
//! whichever the size formulas make smallest (with `ltid` the tuple-id
//! width and `lnum` the string-count width):
//!
//! ```text
//! Text:     LI  = ltid·str + L          <tid, vector> per string
//!           LII = (ltid+lnum)·df + L    <tid, num, vector...> per tuple
//!           LIII= lnum·|T| + L          <num, vector...> for every tuple
//! Numeric:  LI  = (ltid + |vec|)·df     <tid, vector> per defined tuple
//!           LIV = |vec|·|T|             <vector> for every tuple (ndf code)
//! ```
//!
//! Types III/IV are *positional*: the tuple owning an element is inferred
//! by counting, so they store elements for every tuple. Types I/II are
//! *keyed* by tid and skip ndf tuples entirely.
//!
//! This module is the one owner of that element layout. Every list is
//! stored as packed frames ([`crate::packed`]), which compress it; the
//! layout itself lives on as the lists' logical length, as the RAW tail
//! frames an insert appends — written by [`push_text_elem`] /
//! [`push_num_elem`] and parsed by the two cursors' walk — and as the
//! size formulas below. The walk serves [`crate::export_index`], and the
//! scan wherever a frame cannot serve it a run; the frames answer the
//! walk's field reads, and the scan's block fills
//! ([`TextListCursor::fill_block`]), from a frame's sections in place,
//! never by rebuilding the raw bytes.
//!
//! **What a list contains is what the walk sees.** A walk visits the
//! tuple-list tids in order, so two kinds of malformed list get one
//! verdict each, whoever is walking:
//!
//! * a *keyed* element whose tid is not in the tuple list (or is out of
//!   order) is invisible — the scan steps over it and an export does not
//!   carry it, wherever in the list it sits;
//! * a walk over the whole tuple list that ends with list bytes left over
//!   — a *positional* list with more elements than the tuple list — is
//!   [`IvaError::Corrupt`] to the cursors' `finish`, which an export
//!   ([`TextListCursor::postings`] / [`NumListCursor::postings`]) ends
//!   with. A positional list *shorter* than the tuple list is legal: the
//!   lazy tail reads as *ndf*.

use iva_storage::codec::le_u32;
use iva_text::{PreparedMatcher, SigCodec};

use crate::error::{IvaError, Result};
use crate::numeric::NumericCodec;
use crate::packed::{Bound, Cands, Exact, Frame, Leap, Org, PackedReader, RawTail};

/// Width of a tuple id in list elements (the paper's `ltid`).
pub const LTID: usize = 4;
/// Width of a string-count field (the paper's `lnum`).
pub const LNUM: usize = 1;

/// The four vector-list organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListType {
    /// `<tid, vector>` per string (text) or per defined tuple (numeric).
    I,
    /// `<tid, num, vector₁, vector₂, …>` per defined tuple (text only).
    II,
    /// `<num, vector₁, …>` for **all** tuples, positional (text only).
    III,
    /// `<vector>` for **all** tuples, positional, with a reserved ndf code
    /// (numeric only).
    IV,
}

impl ListType {
    /// True for the organizations that store one element per tuple-list
    /// position (III/IV) instead of keying elements by tid (I/II).
    pub(crate) fn is_positional(self) -> bool {
        matches!(self, ListType::III | ListType::IV)
    }

    /// Stable on-disk code.
    pub fn code(self) -> u8 {
        match self {
            ListType::I => 1,
            ListType::II => 2,
            ListType::III => 3,
            ListType::IV => 4,
        }
    }

    /// Decode an on-disk code.
    pub fn from_code(c: u8) -> Result<Self> {
        Ok(match c {
            1 => ListType::I,
            2 => ListType::II,
            3 => ListType::III,
            4 => ListType::IV,
            x => return Err(IvaError::Corrupt(format!("bad list type code {x}"))),
        })
    }
}

impl std::fmt::Display for ListType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ListType::I => "I",
            ListType::II => "II",
            ListType::III => "III",
            ListType::IV => "IV",
        };
        write!(f, "{s}")
    }
}

/// Text list sizes `(LI, LII, LIII)` from the paper's formulas. `sig_total`
/// is `L`: the total bytes of all signatures on the attribute.
pub fn text_list_sizes(str_count: u64, df: u64, tuples: u64, sig_total: u64) -> (u64, u64, u64) {
    (
        LTID as u64 * str_count + sig_total,
        (LTID + LNUM) as u64 * df + sig_total,
        LNUM as u64 * tuples + sig_total,
    )
}

/// Pick the smallest text organization (ties break toward the lower type).
pub fn choose_text_type(str_count: u64, df: u64, tuples: u64) -> ListType {
    // L is common to all three candidates and cancels.
    let (l1, l2, l3) = text_list_sizes(str_count, df, tuples, 0);
    if l1 <= l2 && l1 <= l3 {
        ListType::I
    } else if l2 <= l3 {
        ListType::II
    } else {
        ListType::III
    }
}

/// Numeric list sizes `(LI, LIV)`.
pub fn num_list_sizes(code_bytes: usize, df: u64, tuples: u64) -> (u64, u64) {
    (
        ((LTID + code_bytes) as u64) * df,
        code_bytes as u64 * tuples,
    )
}

/// Pick the smaller numeric organization.
pub fn choose_num_type(code_bytes: usize, df: u64, tuples: u64) -> ListType {
    let (l1, l4) = num_list_sizes(code_bytes, df, tuples);
    if l1 <= l4 {
        ListType::I
    } else {
        ListType::IV
    }
}

/// The one encoder of a text element: the value `sigs` of tuple `tid` (one
/// `[cL][cH…]` blob per string) in organization `ty`, appended to `out`.
/// Empty `sigs` on the positional Type III is its *ndf* element. Returns
/// the number of list elements written — Type I stores one per string.
pub(crate) fn push_text_elem(
    ty: ListType,
    tid: u32,
    sigs: &[Vec<u8>],
    out: &mut Vec<u8>,
) -> Result<u64> {
    match ty {
        ListType::I => {
            for sig in sigs {
                out.extend_from_slice(&tid.to_le_bytes());
                out.extend_from_slice(sig);
            }
            Ok(sigs.len() as u64)
        }
        ListType::II | ListType::III => {
            if ty == ListType::II {
                out.extend_from_slice(&tid.to_le_bytes());
            }
            out.push(sigs.len() as u8);
            for sig in sigs {
                out.extend_from_slice(sig);
            }
            Ok(1)
        }
        ListType::IV => Err(text_on_iv()),
    }
}

/// The one encoder of a numeric element: `code` of tuple `tid` in
/// organization `ty`. The codec's *ndf* code is Type IV's *ndf* element.
pub(crate) fn push_num_elem(
    ty: ListType,
    tid: u32,
    code: u64,
    codec: &NumericCodec,
    out: &mut Vec<u8>,
) -> Result<()> {
    match ty {
        ListType::I => out.extend_from_slice(&tid.to_le_bytes()),
        ListType::IV => {}
        ListType::II | ListType::III => return Err(num_on_text_type()),
    }
    codec.write_code(code, out);
    Ok(())
}

/// Encode a text attribute's vector list. `items` are `(tid, signatures)`
/// in strictly increasing tid order; `all_tids` is the full tuple-list tid
/// sequence (needed by the positional Type III).
pub fn encode_text_list(
    ty: ListType,
    items: &[(u32, Vec<Vec<u8>>)],
    all_tids: &[u32],
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    if ty.is_positional() {
        let mut it = items.iter().peekable();
        for &tid in all_tids {
            let hit = it.next_if(|(t, _)| *t == tid);
            let sigs = hit.map(|(_, s)| s.as_slice()).unwrap_or_default();
            push_text_elem(ty, tid, sigs, &mut out)?;
        }
        debug_assert!(it.peek().is_none(), "items not aligned with tuple list");
    } else {
        for (tid, sigs) in items {
            push_text_elem(ty, *tid, sigs, &mut out)?;
        }
    }
    Ok(out)
}

/// Encode a numeric attribute's vector list. `items` are `(tid, code)` in
/// strictly increasing tid order.
pub fn encode_num_list(
    ty: ListType,
    items: &[(u32, u64)],
    all_tids: &[u32],
    codec: &NumericCodec,
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    if ty.is_positional() {
        let mut it = items.iter().peekable();
        for &tid in all_tids {
            let code = it
                .next_if(|(t, _)| *t == tid)
                .map_or(codec.ndf_code(), |(_, c)| *c);
            push_num_elem(ty, tid, code, codec, &mut out)?;
        }
        debug_assert!(it.peek().is_none(), "items not aligned with tuple list");
    } else {
        for (tid, code) in items {
            push_num_elem(ty, *tid, *code, codec, &mut out)?;
        }
    }
    Ok(out)
}

fn short_elem() -> IvaError {
    IvaError::Corrupt("vector list element cut short".into())
}

/// Raw layout: a keyed element's `[tid u32]` header.
fn raw_tid(src: &mut RawTail) -> Result<u32> {
    le_u32(src.take(LTID)?, 0).ok_or_else(short_elem)
}

/// Raw layout: a Type II/III element's `[num u8]` string count, or a
/// signature's `[cL u8]`.
fn raw_byte(src: &mut RawTail) -> Result<u8> {
    src.take(LNUM)?.first().copied().ok_or_else(short_elem)
}

/// Raw layout: one `[cL][cH…]` signature, visited or stepped over.
#[inline]
fn raw_sig<V: SigVisitor>(
    src: &mut RawTail,
    codec: &SigCodec,
    v: &mut Option<&mut V>,
) -> Result<()> {
    let len_byte = raw_byte(src)?;
    let ch = src.take(codec.ch_bytes(len_byte))?;
    match v {
        Some(v) => v.sig(SigView {
            len_byte,
            ch,
            window: ch,
        }),
        None => Ok(()),
    }
}

/// Raw layout: one numeric code, read when `want`ed.
fn raw_code(src: &mut RawTail, codec: &NumericCodec, want: bool) -> Result<Option<u64>> {
    let bytes = src.take(codec.code_bytes())?;
    match want {
        true => codec.read_code(bytes).map(Some),
        false => Ok(None),
    }
}

/// An NDF_RUN frame holds no keyed header and no signature.
fn in_ndf_run() -> IvaError {
    IvaError::Corrupt("misaligned read in ndf run".into())
}

/// The walk's element fields. It asks for an element *header* field (a
/// keyed tid, a string count) or a *value* field (one signature, one
/// numeric code), and the list's current frame answers — a PACKED frame
/// from its sections, an NDF_RUN frame from its count, a RAW tail frame by
/// parsing its raw-layout bytes — so the cursors below read every frame
/// alike.
impl PackedReader {
    /// Header: the next keyed element's tid.
    fn tid(&mut self) -> Result<u32> {
        match self.frame()? {
            Frame::Raw(tail) => raw_tid(tail),
            Frame::Packed(sections) => sections.tid(),
            Frame::NdfRun(_) => Err(in_ndf_run()),
        }
    }

    /// Header: the next Type II/III element's string count.
    #[inline]
    fn string_count(&mut self) -> Result<u8> {
        match self.frame()? {
            Frame::Raw(tail) => raw_byte(tail),
            Frame::Packed(sections) => sections.string_count(),
            Frame::NdfRun(left) => {
                *left -= 1;
                Ok(0)
            }
        }
    }

    /// Value: the next signature, handed to `v` as a zero-copy view or
    /// stepped over unread.
    #[inline]
    fn sig<V: SigVisitor>(&mut self, codec: &SigCodec, v: &mut Option<&mut V>) -> Result<()> {
        match self.frame()? {
            Frame::Raw(tail) => raw_sig(tail, codec, v),
            Frame::Packed(sections) => {
                let view = sections.sig()?;
                v.as_mut().map_or(Ok(()), |v| v.sig(view))
            }
            Frame::NdfRun(_) => Err(in_ndf_run()),
        }
    }

    /// Value: the next numeric code (`None` when not `want`ed).
    #[inline]
    fn code(&mut self, codec: &NumericCodec, want: bool) -> Result<Option<u64>> {
        match self.frame()? {
            Frame::Raw(tail) => raw_code(tail, codec, want),
            Frame::Packed(sections) => sections.code().map(|c| want.then_some(c)),
            Frame::NdfRun(left) => {
                *left -= 1;
                Ok(want.then_some(codec.ndf_code()))
            }
        }
    }

    /// The header of the next keyed element, read once and held in `peek`
    /// until the element is consumed (the "frozen" pointer of Sec. IV-A);
    /// `None` at the end of the list.
    fn peek_tid(&mut self, peek: &mut Option<u32>) -> Result<Option<u32>> {
        if peek.is_none() && !self.at_end() {
            *peek = Some(self.tid()?);
        }
        Ok(*peek)
    }

    /// The end of a walk over the whole tuple list: every element must
    /// have been consumed (see the module doc).
    fn finish(&self) -> Result<()> {
        if self.at_end() && self.remaining() == 0 {
            Ok(())
        } else {
            Err(leftover())
        }
    }
}

/// One stored signature as a walk hands it out. `window` starts at the
/// `cH` bytes like `ch` and runs on as far as the source has bytes at
/// hand: through the rest of a packed list's padded dictionary, so the
/// estimation kernel can load a whole word from it.
#[derive(Clone, Copy)]
pub(crate) struct SigView<'a> {
    /// The signature's `cL`.
    pub(crate) len_byte: u8,
    /// Exactly its `cH` bytes.
    pub(crate) ch: &'a [u8],
    /// The `cH` bytes and whatever readable bytes follow them.
    pub(crate) window: &'a [u8],
}

/// What a walk does with the value it stops on: called once per string
/// with the signature, borrowed from the buffer-pool page, a RAW frame or
/// the list's dictionary. A trait, not a closure, so every consumer is a monomorphized,
/// statically resolved call.
pub(crate) trait SigVisitor {
    /// One signature of the visited value.
    fn sig(&mut self, sig: SigView<'_>) -> Result<()>;
}

/// Visits nothing: the visitor type of a walk that only moves.
impl SigVisitor for () {
    fn sig(&mut self, _: SigView<'_>) -> Result<()> {
        Ok(())
    }
}

/// The scan's visitor: the minimum estimated difference over the strings.
struct MinEstimate<'a> {
    matcher: &'a PreparedMatcher,
    best: f64,
}

impl SigVisitor for MinEstimate<'_> {
    #[inline]
    fn sig(&mut self, sig: SigView<'_>) -> Result<()> {
        let est = self.matcher.estimate_parts(sig.len_byte, sig.window)?;
        self.best = self.best.min(est);
        Ok(())
    }
}

/// The export's visitor: each signature as its stored `[cL][cH…]` blob.
#[derive(Default)]
struct CollectSigs(Vec<Vec<u8>>);

impl SigVisitor for CollectSigs {
    fn sig(&mut self, sig: SigView<'_>) -> Result<()> {
        let mut blob = Vec::with_capacity(1 + sig.ch.len());
        blob.push(sig.len_byte);
        blob.extend_from_slice(sig.ch);
        self.0.push(blob);
        Ok(())
    }
}

/// The whole raw-layout image of a packed list
/// ([`PackedReader::decode_to_vec`]): every element the frames hold, read
/// field by field as the cursors read them and written back out by the
/// raw element encoders. Strict about the list's logical length, which
/// sizes nothing: it came off disk.
pub(crate) fn raw_image(mut r: PackedReader) -> Result<Vec<u8>> {
    let (expected, org) = (r.remaining(), r.org().clone());
    let mut out = Vec::new();
    let mut sigs = CollectSigs::default();
    // Text values, for the dictionary's count section to be held to.
    let (mut values, mut last_tid) = (0u64, None);
    while !r.at_end() && out.len() as u64 <= expected {
        let keyed = !org.list_type().is_positional();
        let tid = if keyed { r.tid()? } else { 0 };
        match &org {
            Org::Text(ty, codec) => {
                let num = if *ty == ListType::I {
                    1
                } else {
                    r.string_count()?
                };
                // A Type I value is a run of elements under one tid.
                let new_value = num > 0 && (*ty != ListType::I || last_tid != Some(tid));
                (values, last_tid) = (values + u64::from(new_value), Some(tid));
                sigs.0.clear();
                for _ in 0..num {
                    r.sig(codec, &mut Some(&mut sigs))?;
                }
                push_text_elem(*ty, tid, &sigs.0, &mut out)?;
            }
            Org::Num(ty, codec) => {
                let code = r.code(codec, true)?.unwrap_or(codec.ndf_code());
                push_num_elem(*ty, tid, code, codec, &mut out)?;
            }
        }
    }
    if out.len() as u64 != expected || !r.at_end() {
        let msg = "packed list does not decode to its logical length";
        return Err(IvaError::Corrupt(msg.into()));
    }
    if r.load_dict()?.counted() > values {
        let msg = "dictionary counts more values than the list holds";
        return Err(IvaError::Corrupt(msg.into()));
    }
    Ok(out)
}

/// The lower bound a text value contributes, from the min-fold `best` over
/// its `n_sigs` visited strings: *ndf* when there were none, and — Type II
/// only — when no string gave a finite estimate.
pub(crate) fn text_lower_bound(ty: ListType, n_sigs: usize, best: f64) -> Option<f64> {
    let ndf = n_sigs == 0 || (ty == ListType::II && !best.is_finite());
    (!ndf).then_some(best)
}

/// Scanning cursor over a text vector list, implementing the synchronized
/// `MoveTo(currentTuple)` / freeze semantics of Sec. IV-A.
///
/// Signature payloads are consumed as borrowed views straight from the
/// list's dictionary or a RAW tail frame, so the hot estimation path
/// copies no element bytes; the shared immutable [`PreparedMatcher`]
/// kernel evaluates each view in place.
pub struct TextListCursor {
    reader: PackedReader,
    ty: ListType,
    /// For keyed types: tid of the element whose header has been read but
    /// whose payload has not yet been consumed ("frozen" pointer).
    peek_tid: Option<u32>,
}

impl TextListCursor {
    /// Open a cursor at the head of a list.
    pub fn new(reader: PackedReader, ty: ListType) -> Self {
        debug_assert!(matches!(ty, ListType::I | ListType::II | ListType::III));
        Self {
            reader,
            ty,
            peek_tid: None,
        }
    }

    /// Consume `num` signatures, handing each to `v` as a zero-copy view
    /// or stepping over it unread.
    #[inline]
    fn strings<V: SigVisitor>(
        &mut self,
        num: u8,
        codec: &SigCodec,
        v: &mut Option<&mut V>,
    ) -> Result<()> {
        for _ in 0..num {
            self.reader.sig(codec, v)?;
        }
        Ok(())
    }

    /// The one walk: move to `tid` — past every keyed element below it,
    /// or one positional element on — and hand the strings of `tid`'s own
    /// value to `v`, or step over them unread when `v` is `None`. Returns
    /// the number of strings the value has (0 = *ndf*: no element, a
    /// zero-string element, or the lazy positional tail).
    ///
    /// Must be called exactly once per tuple-list element, in tid order.
    #[inline]
    fn walk<V: SigVisitor>(
        &mut self,
        tid: u32,
        codec: &SigCodec,
        mut v: Option<&mut V>,
    ) -> Result<usize> {
        let mut n_sigs = 0usize;
        match self.ty {
            ListType::I | ListType::II => {
                while let Some(t) = self.reader.peek_tid(&mut self.peek_tid)? {
                    if t > tid {
                        break; // freeze
                    }
                    let num = match self.ty {
                        ListType::II => self.reader.string_count()?,
                        _ => 1,
                    };
                    if t == tid {
                        self.strings(num, codec, &mut v)?;
                        n_sigs += usize::from(num);
                    } else {
                        self.strings::<V>(num, codec, &mut None)?;
                    }
                    self.peek_tid = None;
                    if t == tid && self.ty == ListType::II {
                        break; // a Type II element is the tuple's whole value
                    }
                }
            }
            ListType::III => {
                // Past the last element: tuples appended since the last
                // value on this attribute (lazy positional padding).
                if !self.reader.at_end() {
                    let num = self.reader.string_count()?;
                    self.strings(num, codec, &mut v)?;
                    n_sigs = usize::from(num);
                }
            }
            ListType::IV => return Err(text_on_iv()),
        }
        Ok(n_sigs)
    }

    /// Move to `tid` and return the estimated difference lower bound
    /// (minimum `est` over the value's strings), or `None` for *ndf*.
    ///
    /// Must be called exactly once per tuple-list element, in tid order.
    #[inline]
    pub fn advance(
        &mut self,
        tid: u32,
        codec: &SigCodec,
        matcher: &PreparedMatcher,
    ) -> Result<Option<f64>> {
        let mut fold = MinEstimate {
            matcher,
            best: f64::INFINITY,
        };
        let n_sigs = self.walk(tid, codec, Some(&mut fold))?;
        Ok(text_lower_bound(self.ty, n_sigs, fold.best))
    }

    /// Fill `out[i]` with the lower bound of `tids[i]`'s value (`NaN` for
    /// *ndf*) for a block of consecutive tuple-list elements — as many as
    /// the shorter of the two holds: bit for bit what
    /// [`TextListCursor::advance`] returns one element at a time, in runs
    /// where the list's frames can serve them and through the walk where
    /// they cannot — a RAW tail frame.
    pub fn fill_block(
        &mut self,
        tids: &[u32],
        codec: &SigCodec,
        matcher: &PreparedMatcher,
        out: &mut [f64],
    ) -> Result<()> {
        let mut exact = Exact::new(&self.reader.load_dict()?, matcher)?;
        self.fill(tids, codec, matcher, &mut exact, out, Cands::default())
    }

    /// [`TextListCursor::fill_block`] by `exact`, the lane's table of the
    /// list's dictionary: a value the frames serve is bounded by the min
    /// over its codes' bounds, its codes recorded in `exact` where the
    /// dictionary holds strings, and what the table's rule does not let
    /// through is rejected in `cands`. What the walk serves is estimated,
    /// and kept.
    pub(crate) fn fill(
        &mut self,
        tids: &[u32],
        codec: &SigCodec,
        matcher: &PreparedMatcher,
        exact: &mut Exact,
        out: &mut [f64],
        cands: Cands<'_>,
    ) -> Result<()> {
        let mut done = 0;
        let tids = tids.get(..out.len()).unwrap_or(tids);
        while let (Some(rest), Some(slots)) = (tids.get(done..), out.get_mut(done..)) {
            let Some(&tid) = rest.first() else { break };
            let cands = Cands {
                bits: &mut *cands.bits,
                at: cands.at + done,
            };
            let bound = Bound::Text(&mut *exact);
            let served = self
                .reader
                .fill_run(&mut self.peek_tid, bound, rest, slots, cands)?;
            done += match served {
                0 => {
                    let lb = self.advance(tid, codec, matcher)?;
                    if let Some(slot) = out.get_mut(done) {
                        *slot = lb.unwrap_or(f64::NAN);
                    }
                    1
                }
                n => n,
            };
        }
        Ok(())
    }

    /// Position a fresh cursor past the frames `leap` covers, by their
    /// headers ([`PackedReader::skip_covered`]).
    pub(crate) fn skip_covered(&mut self, leap: &Leap) -> Result<()> {
        self.reader.skip_covered(leap)
    }

    /// Position a fresh cursor past the first `n` positional elements, so
    /// a scan can start mid-list (segmented parallel filtering). Keyed
    /// types (I/II) need no seek — their walk steps over lower tids
    /// lazily — so this is a no-op for them. Must be called before the
    /// first `advance`/`skip`.
    pub fn seek_elements(&mut self, n: u64, codec: &SigCodec) -> Result<()> {
        if self.ty.is_positional() {
            for _ in 0..n {
                if self.reader.at_end() {
                    break; // lazy positional tail: the rest reads as ndf
                }
                self.walk::<()>(0, codec, None)?;
            }
        }
        Ok(())
    }

    /// End a walk that visited every tuple-list tid. Keyed elements past
    /// the last tuple are stepped over like any other the tuple list does
    /// not name; bytes still left after that are [`IvaError::Corrupt`]
    /// (see the module doc).
    fn finish(mut self, codec: &SigCodec) -> Result<()> {
        if !self.ty.is_positional() {
            self.walk::<()>(u32::MAX, codec, None)?;
        }
        self.reader.finish()
    }

    /// The list's logical content: `(tid, signatures)` for every tuple of
    /// `tids` (the whole tuple list, in order) with a value here. Ends the
    /// walk: list bytes left over are [`IvaError::Corrupt`].
    pub fn postings(mut self, codec: &SigCodec, tids: &[u32]) -> Result<Vec<(u32, Vec<Vec<u8>>)>> {
        let mut out = Vec::new();
        for &tid in tids {
            let mut sigs = CollectSigs(Vec::new());
            if self.walk(tid, codec, Some(&mut sigs))? > 0 {
                out.push((tid, sigs.0));
            }
        }
        self.finish(codec)?;
        Ok(out)
    }
}

/// A text operation can never meet the numeric-only Type IV — cursor
/// constructors debug-assert the type domain; a release-mode violation is
/// an argument error, not a panic.
fn text_on_iv() -> IvaError {
    IvaError::InvalidArgument("text vector list of numeric-only Type IV".into())
}

/// List bytes left over when a walk has visited the whole tuple list.
fn leftover() -> IvaError {
    IvaError::Corrupt("vector list holds more than the tuple list accounts for".into())
}

/// A numeric-list domain violation, mirroring [`text_on_iv`].
fn num_on_text_type() -> IvaError {
    IvaError::InvalidArgument("numeric vector list of a text-only list type".into())
}

/// Scanning cursor over a numeric vector list.
pub struct NumListCursor {
    reader: PackedReader,
    ty: ListType,
    peek_tid: Option<u32>,
}

impl NumListCursor {
    /// Open a cursor at the head of a list.
    pub fn new(reader: PackedReader, ty: ListType) -> Self {
        debug_assert!(matches!(ty, ListType::I | ListType::IV));
        Self {
            reader,
            ty,
            peek_tid: None,
        }
    }

    /// The one walk: move to `tid` — past every keyed element below it,
    /// or one positional element on — and return `tid`'s own code when
    /// `want`ed (`None` for *ndf*), stepping over it unread otherwise.
    #[inline]
    fn walk(&mut self, tid: u32, codec: &NumericCodec, want: bool) -> Result<Option<u64>> {
        match self.ty {
            ListType::I => {
                while let Some(t) = self.reader.peek_tid(&mut self.peek_tid)? {
                    if t > tid {
                        break; // freeze
                    }
                    self.peek_tid = None;
                    let code = self.reader.code(codec, t == tid && want)?;
                    if t == tid {
                        return Ok(code);
                    }
                }
                Ok(None)
            }
            // Past the last element: the lazy positional tail.
            ListType::IV if self.reader.at_end() => Ok(None),
            ListType::IV => Ok(self
                .reader
                .code(codec, want)?
                .filter(|&code| code != codec.ndf_code())),
            ListType::II | ListType::III => Err(num_on_text_type()),
        }
    }

    /// Move to `tid` and return the stored code, or `None` for *ndf*.
    #[inline]
    pub fn advance(&mut self, tid: u32, codec: &NumericCodec) -> Result<Option<u64>> {
        self.walk(tid, codec, true)
    }

    /// [`TextListCursor::fill_block`] for a numeric list: `out[i]` is the
    /// lower bound on `|q − v|` for `tids[i]`'s value `v`
    /// ([`NumericCodec::lower_bound_dist`] of what
    /// [`NumListCursor::advance`] returns), `NaN` for *ndf*.
    pub fn fill_block(
        &mut self,
        tids: &[u32],
        codec: &NumericCodec,
        q: f64,
        out: &mut [f64],
    ) -> Result<()> {
        let mut done = 0;
        let tids = tids.get(..out.len()).unwrap_or(tids);
        while let (Some(rest), Some(slots)) = (tids.get(done..), out.get_mut(done..)) {
            let Some(&tid) = rest.first() else { break };
            let (bound, cands) = (Bound::Num(codec, q), Cands::default());
            let served = self
                .reader
                .fill_run(&mut self.peek_tid, bound, rest, slots, cands)?;
            done += match served {
                0 => {
                    let code = self.advance(tid, codec)?;
                    if let Some(slot) = out.get_mut(done) {
                        *slot = code.map_or(f64::NAN, |c| codec.lower_bound_dist(c, q));
                    }
                    1
                }
                n => n,
            };
        }
        Ok(())
    }

    /// Position a fresh cursor past the first `n` positional elements (see
    /// [`TextListCursor::seek_elements`]). No-op for the keyed Type I.
    pub fn seek_elements(&mut self, n: u64, codec: &NumericCodec) -> Result<()> {
        match self.ty {
            ListType::I => Ok(()),
            ListType::IV => {
                for _ in 0..n {
                    if self.reader.at_end() {
                        break; // lazy positional tail
                    }
                    self.reader.code(codec, false)?;
                }
                Ok(())
            }
            _ => Err(num_on_text_type()),
        }
    }

    /// End a walk that visited every tuple-list tid (see the module doc).
    fn finish(mut self, codec: &NumericCodec) -> Result<()> {
        if !self.ty.is_positional() {
            self.walk(u32::MAX, codec, false)?;
        }
        self.reader.finish()
    }

    /// The list's logical content: `(tid, code)` for every tuple of `tids`
    /// (the whole tuple list, in order) with a value here. Ends the walk
    /// like [`TextListCursor::postings`].
    pub fn postings(mut self, codec: &NumericCodec, tids: &[u32]) -> Result<Vec<(u32, u64)>> {
        let mut out = Vec::new();
        for &tid in tids {
            if let Some(code) = self.advance(tid, codec)? {
                out.push((tid, code));
            }
        }
        self.finish(codec)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{encode_packed_num_list, encode_packed_text_list};
    use iva_storage::{write_contiguous_list, IoStats, ListReader, Pager, PagerOptions};
    use std::sync::Arc;

    fn pager() -> Arc<Pager> {
        Pager::create_mem(
            &PagerOptions {
                page_size: 128,
                cache_bytes: 4096,
            },
            IoStats::new(),
        )
    }

    fn reader_for(p: &Arc<Pager>, data: &[u8]) -> ListReader {
        let h = write_contiguous_list(p, data).unwrap();
        ListReader::open(Arc::clone(p), h).unwrap()
    }

    /// A cursor over the packed image of `items`.
    fn text_cursor(
        p: &Arc<Pager>,
        ty: ListType,
        items: &[(u32, Vec<Vec<u8>>)],
        all_tids: &[u32],
        codec: &SigCodec,
    ) -> TextListCursor {
        let image = encode_packed_text_list(ty, items, all_tids);
        let reader = PackedReader::new_text(reader_for(p, &image), ty, codec).unwrap();
        TextListCursor::new(reader, ty)
    }

    /// [`text_cursor`] for a numeric list.
    fn num_cursor(
        p: &Arc<Pager>,
        ty: ListType,
        items: &[(u32, u64)],
        all_tids: &[u32],
        codec: &NumericCodec,
    ) -> NumListCursor {
        let image = encode_packed_num_list(ty, items, all_tids, codec);
        let reader = PackedReader::new_num(reader_for(p, &image), ty, codec).unwrap();
        NumListCursor::new(reader, ty)
    }

    #[test]
    fn type_codes_roundtrip() {
        for t in [ListType::I, ListType::II, ListType::III, ListType::IV] {
            assert_eq!(ListType::from_code(t.code()).unwrap(), t);
        }
        assert!(ListType::from_code(0).is_err());
        assert!(ListType::from_code(9).is_err());
    }

    #[test]
    fn selection_matches_formulas() {
        // Dense attribute with one string per value: Type III wins when
        // lnum·|T| < (ltid+lnum)·df, i.e. df > |T|/5.
        assert_eq!(choose_text_type(900, 900, 1000), ListType::III);
        // Sparse attribute: Type II wins over I when str > df (multi-string)
        // and over III when df small.
        assert_eq!(choose_text_type(40, 20, 1000), ListType::II);
        // One string per tuple, sparse: I and II tie at str == df except
        // lnum; LI = 4·str, LII = 5·df; str == df => I wins.
        assert_eq!(choose_text_type(20, 20, 1000), ListType::I);
        // Numeric: IV wins when code·|T| < (4+code)·df.
        assert_eq!(choose_num_type(2, 900, 1000), ListType::IV);
        assert_eq!(choose_num_type(2, 100, 1000), ListType::I);
    }

    #[test]
    fn encoded_sizes_match_formulas() {
        let codec = SigCodec::new(0.2, 2);
        let items: Vec<(u32, Vec<Vec<u8>>)> = vec![
            (
                0,
                vec![
                    codec.encode_to_vec(b"wide-angle"),
                    codec.encode_to_vec(b"telephoto"),
                ],
            ),
            (3, vec![codec.encode_to_vec(b"white")]),
            (7, vec![codec.encode_to_vec(b"red")]),
        ];
        let all_tids: Vec<u32> = (0..10).collect();
        let sig_total: u64 = items
            .iter()
            .flat_map(|(_, sigs)| sigs.iter())
            .map(|s| s.len() as u64)
            .sum();
        let (l1, l2, l3) = text_list_sizes(4, 3, 10, sig_total);
        assert_eq!(
            encode_text_list(ListType::I, &items, &all_tids)
                .unwrap()
                .len() as u64,
            l1
        );
        assert_eq!(
            encode_text_list(ListType::II, &items, &all_tids)
                .unwrap()
                .len() as u64,
            l2
        );
        assert_eq!(
            encode_text_list(ListType::III, &items, &all_tids)
                .unwrap()
                .len() as u64,
            l3
        );

        let ncodec = NumericCodec::new(0.0, 100.0, 2);
        let nitems: Vec<(u32, u64)> = vec![
            (1, ncodec.encode(5.0)),
            (4, ncodec.encode(50.0)),
            (9, ncodec.encode(99.0)),
        ];
        let (n1, n4) = num_list_sizes(2, 3, 10);
        assert_eq!(
            encode_num_list(ListType::I, &nitems, &all_tids, &ncodec)
                .unwrap()
                .len() as u64,
            n1
        );
        assert_eq!(
            encode_num_list(ListType::IV, &nitems, &all_tids, &ncodec)
                .unwrap()
                .len() as u64,
            n4
        );
    }

    fn text_roundtrip(ty: ListType) {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let strings: Vec<(u32, Vec<&str>)> = vec![
            (0, vec!["wide-angle", "telephoto"]),
            (3, vec!["white"]),
            (7, vec!["red"]),
        ];
        let items: Vec<(u32, Vec<Vec<u8>>)> = strings
            .iter()
            .map(|(t, ss)| {
                (
                    *t,
                    ss.iter()
                        .map(|s| codec.encode_to_vec(s.as_bytes()))
                        .collect(),
                )
            })
            .collect();
        let all_tids: Vec<u32> = (0..10).collect();
        let mut cur = text_cursor(&p, ty, &items, &all_tids, &codec);

        let matcher = PreparedMatcher::new(&codec, b"white");
        for tid in 0..10u32 {
            let got = cur.advance(tid, &codec, &matcher).unwrap();
            let expect_defined = strings.iter().any(|(t, _)| *t == tid);
            assert_eq!(got.is_some(), expect_defined, "type {ty} tid {tid}");
            if tid == 3 {
                // Exact match on one of the strings: estimate must be 0.
                assert_eq!(got, Some(0.0));
            }
        }
    }

    #[test]
    fn text_cursor_type_i() {
        text_roundtrip(ListType::I);
    }

    #[test]
    fn text_cursor_type_ii() {
        text_roundtrip(ListType::II);
    }

    #[test]
    fn text_cursor_type_iii() {
        text_roundtrip(ListType::III);
    }

    #[test]
    fn multi_string_takes_min_estimate() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let items: Vec<(u32, Vec<Vec<u8>>)> = vec![(
            0,
            vec![
                codec.encode_to_vec(b"alkaline battery"),
                codec.encode_to_vec(b"white"),
            ],
        )];
        let all_tids = vec![0u32];
        for ty in [ListType::I, ListType::II, ListType::III] {
            let mut cur = text_cursor(&p, ty, &items, &all_tids, &codec);
            let matcher = PreparedMatcher::new(&codec, b"white");
            let got = cur.advance(0, &codec, &matcher).unwrap().unwrap();
            assert_eq!(got, 0.0, "type {ty}");
        }
    }

    fn num_roundtrip(ty: ListType) {
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let p = pager();
        let items: Vec<(u32, u64)> = vec![
            (1, codec.encode(10.0)),
            (4, codec.encode(50.0)),
            (9, codec.encode(90.0)),
        ];
        let all_tids: Vec<u32> = (0..10).collect();
        let mut cur = num_cursor(&p, ty, &items, &all_tids, &codec);
        for tid in 0..10u32 {
            let got = cur.advance(tid, &codec).unwrap();
            let expect = items.iter().find(|(t, _)| *t == tid).map(|(_, c)| *c);
            assert_eq!(got, expect, "type {ty} tid {tid}");
        }
    }

    #[test]
    fn num_cursor_type_i() {
        num_roundtrip(ListType::I);
    }

    #[test]
    fn num_cursor_type_iv() {
        num_roundtrip(ListType::IV);
    }

    /// A block filled after single-element moves lands on the same
    /// elements: the fill and the walk share one position.
    #[test]
    fn fill_block_continues_the_walk() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let items: Vec<(u32, Vec<Vec<u8>>)> = (0..5u32)
            .map(|t| (t, vec![codec.encode_to_vec(format!("val{t}").as_bytes())]))
            .collect();
        let all_tids: Vec<u32> = (0..5).collect();
        for ty in [ListType::I, ListType::II, ListType::III] {
            let mut cur = text_cursor(&p, ty, &items, &all_tids, &codec);
            let matcher = PreparedMatcher::new(&codec, b"val3");
            cur.advance(0, &codec, &matcher).unwrap();
            let mut lbs = [f64::NAN; 3];
            cur.fill_block(&[1, 2, 3], &codec, &matcher, &mut lbs)
                .unwrap();
            assert_eq!(lbs[2], 0.0, "type {ty}");
            // A block is as long as the shorter of `tids` and `out`.
            lbs = [f64::NAN; 3];
            cur.fill_block(&[4, 5], &codec, &matcher, &mut lbs[..1])
                .unwrap();
            assert!(!lbs[0].is_nan() && lbs[1].is_nan(), "type {ty}");
        }
    }

    #[test]
    fn seek_elements_positions_mid_list() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let items: Vec<(u32, Vec<Vec<u8>>)> = (0..6u32)
            .map(|t| (t, vec![codec.encode_to_vec(format!("val{t}").as_bytes())]))
            .collect();
        let all_tids: Vec<u32> = (0..6).collect();
        for ty in [ListType::I, ListType::II, ListType::III] {
            let mut cur = text_cursor(&p, ty, &items, &all_tids, &codec);
            cur.seek_elements(4, &codec).unwrap();
            let matcher = PreparedMatcher::new(&codec, b"val4");
            // Keyed types seek lazily inside advance; positional types
            // must land exactly on element 4.
            let got = cur.advance(4, &codec, &matcher).unwrap();
            assert_eq!(got, Some(0.0), "type {ty}");
        }

        let ncodec = NumericCodec::new(0.0, 100.0, 2);
        let nitems: Vec<(u32, u64)> = (0..6u32)
            .map(|t| (t, ncodec.encode(f64::from(t))))
            .collect();
        for ty in [ListType::I, ListType::IV] {
            let mut cur = num_cursor(&p, ty, &nitems, &all_tids, &ncodec);
            cur.seek_elements(4, &ncodec).unwrap();
            assert_eq!(
                cur.advance(4, &ncodec).unwrap(),
                Some(nitems[4].1),
                "type {ty}"
            );
        }
    }

    #[test]
    fn seek_elements_past_lazy_tail_is_ok() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let items: Vec<(u32, Vec<Vec<u8>>)> = vec![(0, vec![codec.encode_to_vec(b"x")])];
        let mut cur = text_cursor(&p, ListType::III, &items, &[0], &codec);
        cur.seek_elements(5, &codec).unwrap();
        let matcher = PreparedMatcher::new(&codec, b"x");
        assert!(cur.advance(5, &codec, &matcher).unwrap().is_none());

        let ncodec = NumericCodec::new(0.0, 10.0, 1);
        let nitems: Vec<(u32, u64)> = vec![(0, ncodec.encode(1.0))];
        let mut cur = num_cursor(&p, ListType::IV, &nitems, &[0], &ncodec);
        cur.seek_elements(5, &ncodec).unwrap();
        assert!(cur.advance(5, &ncodec).unwrap().is_none());
    }

    #[test]
    fn positional_cursor_lazy_tail_is_ndf() {
        // Type III/IV lists shorter than the tuple list: the tail reads as
        // ndf (tuples appended after the last element on this attribute).
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let items: Vec<(u32, Vec<Vec<u8>>)> = vec![(0, vec![codec.encode_to_vec(b"x")])];
        let mut cur = text_cursor(&p, ListType::III, &items, &[0], &codec);
        let matcher = PreparedMatcher::new(&codec, b"x");
        assert!(cur.advance(0, &codec, &matcher).unwrap().is_some());
        assert!(cur.advance(1, &codec, &matcher).unwrap().is_none());
        assert!(cur.advance(2, &codec, &matcher).unwrap().is_none());
    }

    /// The walk and one-element fills, interleaved, give each tuple the
    /// bound its elements give — the min estimate over its strings, its
    /// code — bit for bit, under two matchers in turn: the dictionary's
    /// estimates are its matcher's.
    #[test]
    fn cursors_give_each_element_its_bound_bit_for_bit() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let all_tids: Vec<u32> = (0..64).collect();
        let items: Vec<(u32, Vec<Vec<u8>>)> = (0..64u32)
            .filter(|t| t % 3 != 1)
            .map(|t| {
                (
                    t,
                    (0..(t as usize % 2) + 1)
                        .map(|i| codec.encode_to_vec(format!("v{t}-{i}").as_bytes()))
                        .collect(),
                )
            })
            .collect();
        let matchers = [b"v7-0", b"v9-1"].map(|q| PreparedMatcher::new(&codec, q));
        for ty in [ListType::I, ListType::II, ListType::III] {
            let mut cur = text_cursor(&p, ty, &items, &all_tids, &codec);
            for tid in 0..64u32 {
                let matcher = &matchers[(tid / 5) as usize % 2];
                let sigs = items.iter().find(|(t, _)| *t == tid).map(|(_, s)| s);
                let best = sigs.into_iter().flatten().fold(f64::INFINITY, |b, sig| {
                    b.min(matcher.estimate(sig).unwrap())
                });
                let n = sigs.map_or(0, Vec::len);
                let want = text_lower_bound(ty, n, best);
                let got = match tid % 5 {
                    4 => {
                        let mut lb = [0.0];
                        cur.fill_block(&[tid], &codec, matcher, &mut lb).unwrap();
                        Some(lb[0]).filter(|v: &f64| !v.is_nan())
                    }
                    _ => cur.advance(tid, &codec, matcher).unwrap(),
                };
                let bits = |v: Option<f64>| v.map(f64::to_bits);
                assert_eq!(bits(got), bits(want), "type {ty} tid {tid}");
            }
        }

        let ncodec = NumericCodec::new(0.0, 500.0, 2);
        let nitems: Vec<(u32, u64)> = (0..64u32)
            .filter(|t| t % 4 != 2)
            .map(|t| (t, ncodec.encode(f64::from(t * 7 % 500))))
            .collect();
        for ty in [ListType::I, ListType::IV] {
            let mut cur = num_cursor(&p, ty, &nitems, &all_tids, &ncodec);
            for tid in 0..64u32 {
                let want = nitems.iter().find(|(t, _)| *t == tid).map(|(_, c)| *c);
                if tid % 5 == 4 {
                    let mut lb = [0.0];
                    cur.fill_block(&[tid], &ncodec, 100.0, &mut lb).unwrap();
                    let want = want.map_or(f64::NAN, |c| ncodec.lower_bound_dist(c, 100.0));
                    assert_eq!(lb[0].to_bits(), want.to_bits(), "type {ty} tid {tid}");
                    continue;
                }
                assert_eq!(
                    cur.advance(tid, &ncodec).unwrap(),
                    want,
                    "type {ty} tid {tid}"
                );
            }
        }
    }

    #[test]
    fn keyed_cursor_with_gaps_in_tids() {
        // Tuple list tids need not be consecutive (deletions/updates).
        let codec = NumericCodec::new(0.0, 10.0, 1);
        let p = pager();
        let items: Vec<(u32, u64)> = vec![(5, codec.encode(1.0)), (20, codec.encode(9.0))];
        let mut cur = num_cursor(&p, ListType::I, &items, &[], &codec);
        for tid in [2u32, 5, 11, 20, 30] {
            let got = cur.advance(tid, &codec).unwrap();
            assert_eq!(got.is_some(), tid == 5 || tid == 20, "tid {tid}");
        }
    }

    /// One verdict per malformed list, whoever walks it (the module doc):
    /// keyed elements whose tid the tuple list does not name are
    /// invisible — between two tuples or past the last one — to the scan
    /// and the export's postings alike.
    #[test]
    fn unmatched_keyed_elements_are_invisible_to_every_walker() {
        let p = pager();
        let codec = SigCodec::new(0.3, 2);
        let sig = |s: &str| vec![codec.encode_to_vec(s.as_bytes())];
        let items = vec![(5, sig("kept")), (7, sig("between")), (11, sig("past"))];
        let tids = vec![5u32, 9];
        let matcher = PreparedMatcher::new(&codec, b"kept");
        for ty in [ListType::I, ListType::II] {
            let mut scan = text_cursor(&p, ty, &items, &[], &codec);
            assert_eq!(scan.advance(5, &codec, &matcher).unwrap(), Some(0.0));
            assert_eq!(scan.advance(9, &codec, &matcher).unwrap(), None);
            let export = text_cursor(&p, ty, &items, &[], &codec);
            assert_eq!(export.postings(&codec, &tids).unwrap(), items[..1]);
        }
        let ncodec = NumericCodec::new(0.0, 100.0, 2);
        let nitems: Vec<(u32, u64)> = vec![(5, 1), (7, 2), (11, 3)];
        let mut scan = num_cursor(&p, ListType::I, &nitems, &[], &ncodec);
        assert_eq!(scan.advance(5, &ncodec).unwrap(), Some(1));
        assert_eq!(scan.advance(9, &ncodec).unwrap(), None);
        let export = num_cursor(&p, ListType::I, &nitems, &[], &ncodec);
        assert_eq!(export.postings(&ncodec, &tids).unwrap(), nitems[..1]);
    }

    /// The other verdict: a positional list with more elements than the
    /// tuple list is `Corrupt` to the export (the scan, which stops with
    /// the tuple list, never reaches them); a shorter one is the legal
    /// lazy tail.
    #[test]
    fn positional_list_longer_than_tuple_list_is_corrupt_to_every_walker() {
        let p = pager();
        let corrupt = |e: IvaError| matches!(e, IvaError::Corrupt(_));
        let codec = SigCodec::new(0.3, 2);
        let items = vec![(0, vec![codec.encode_to_vec(b"a")])];
        let ncodec = NumericCodec::new(0.0, 100.0, 2);
        let nitems: Vec<(u32, u64)> = vec![(0, 4)];
        for (tids, ok) in [
            (&[0u32, 1][..], false),
            (&[0, 1, 2], true),
            (&[0, 1, 2, 3], true),
        ] {
            let text = text_cursor(&p, ListType::III, &items, &[0, 1, 2], &codec);
            let text = text.postings(&codec, tids);
            let num = num_cursor(&p, ListType::IV, &nitems, &[0, 1, 2], &ncodec);
            let num = num.postings(&ncodec, tids);
            assert_eq!((text.is_ok(), num.is_ok()), (ok, ok), "{tids:?}");
            if !ok {
                assert!(text.err().is_some_and(corrupt) && num.err().is_some_and(corrupt));
            }
        }
    }
}
