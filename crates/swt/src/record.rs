//! lint:scope(panic-reachability)
//! The interpreted record format.
//!
//! Beckmann et al. concluded "the best option is to store the data
//! horizontally in an interpreted format" (Sec. II-A), and the paper's
//! table file "adopts the row-wise storage structure, such as the
//! interpreted schema" (Sec. III-D). A record is a self-describing sequence
//! of `(attribute id, type, payload)` fields — undefined attributes simply
//! do not appear, which is what makes the format efficient for sparse data.
//!
//! Layout (little-endian):
//!
//! ```text
//! [n_fields: u16]
//!   per field: [attr_id: u32][tag: u8]
//!     tag 0 (numeric): [f64: 8B]
//!     tag 1 (text):    [n_strings: u8] per string: [len: u16][bytes]
//! ```
//!
//! # Reading in place
//!
//! [`RecordView`] is the one walker of this layout. It borrows the stored
//! bytes — typically straight out of a pinned page — and never allocates:
//! numbers come back as `f64`, strings as sub-slices. The refine step of a
//! query reads the one or two attributes it names through
//! [`RecordView::locate`] and computes its distance on those slices;
//! [`decode_record`] walks the same view to build an owned [`Tuple`].
//!
//! Wire-format contract the view relies on: [`encode_record`] writes fields
//! in strictly ascending attribute-id order (a [`Tuple`] is sorted), so
//! `locate` stops at the first id past the last one wanted. A hand-built
//! buffer with ids out of order still *decodes* — `decode_record` places
//! every field by id — but `locate` may report a late, out-of-order field
//! as *ndf*. Every length is checked against the buffer before use:
//! arbitrary bytes yield [`SwtError::Corrupt`], never a panic or an
//! out-of-bounds read.

use crate::error::{Result, SwtError};
use crate::schema::AttrId;
use crate::value::{Tuple, Value};
use iva_storage::codec::{le_u16, le_u32, le_u64};

const TAG_NUM: u8 = 0;
const TAG_TEXT: u8 = 1;

/// Smallest encoded field (`attr_id`, tag, one string count, one empty
/// string): bounds what a field count read from the bytes may reserve.
const MIN_FIELD_LEN: usize = 4 + 1 + 1 + 2;

/// Encode a tuple into the interpreted format, appending to `out`.
pub fn encode_record(tuple: &Tuple, out: &mut Vec<u8>) -> Result<()> {
    tuple.validate()?;
    if tuple.arity() > u16::MAX as usize {
        return Err(SwtError::InvalidArgument(
            "tuple with more than 65535 fields".into(),
        ));
    }
    out.extend_from_slice(&(tuple.arity() as u16).to_le_bytes());
    for (attr, value) in tuple.iter() {
        out.extend_from_slice(&attr.0.to_le_bytes());
        match value {
            Value::Num(v) => {
                out.push(TAG_NUM);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Text(strings) => {
                out.push(TAG_TEXT);
                out.push(strings.len() as u8);
                for s in strings {
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    Ok(())
}

/// Encoded size of a tuple in the interpreted format.
pub fn record_len(tuple: &Tuple) -> usize {
    let mut len = 2;
    for (_, value) in tuple.iter() {
        len += 4 + 1;
        match value {
            Value::Num(_) => len += 8,
            Value::Text(strings) => {
                len += 1;
                for s in strings {
                    len += 2 + s.len();
                }
            }
        }
    }
    len
}

fn corrupt(m: &str) -> SwtError {
    SwtError::Corrupt(format!("record: {m}"))
}

/// A defined cell read in place from a record's bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// Numerical value.
    Num(f64),
    /// Non-empty set of strings.
    Text(TextRef<'a>),
}

/// The strings of one text value, borrowed from the record's bytes. The
/// span was length-checked when the field was parsed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextRef<'a> {
    n_strings: usize,
    /// Exactly the `[len: u16][bytes]` run of the value's strings.
    span: &'a [u8],
}

impl<'a> TextRef<'a> {
    /// Number of strings (at least 1).
    pub fn n_strings(&self) -> usize {
        self.n_strings
    }

    /// An upper bound on the byte length of every string of the value
    /// (the length of the encoded run that holds them all).
    pub fn max_len_bound(&self) -> usize {
        self.span.len()
    }

    /// The strings as raw bytes, in stored order. Not UTF-8 validated:
    /// distances are computed over bytes; [`decode_record`] validates
    /// when it builds owned `String`s.
    pub fn strings(&self) -> impl Iterator<Item = &'a [u8]> {
        let mut rest = self.span;
        (0..self.n_strings).map_while(move |_| {
            let len = le_u16(rest, 0)? as usize;
            let (s, tail) = rest.get(2..)?.split_at_checked(len)?;
            rest = tail;
            Some(s)
        })
    }
}

/// Where [`RecordView::locate`] found a wanted attribute's field in the
/// record (or that it is *ndf*). Opaque; resolve with
/// [`RecordView::value_at`] on the view that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldLoc(u32);

impl FieldLoc {
    /// The attribute is undefined on the tuple.
    pub const NDF: FieldLoc = FieldLoc(u32::MAX);
}

/// A borrowed, allocation-free reader over one encoded record.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    buf: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// View `buf` as a record. Nothing is parsed yet; walking the fields
    /// validates them.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// The bytes the view was built over.
    pub fn bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// Walk the fields in stored order.
    pub fn fields(&self) -> Result<Fields<'a>> {
        let left = le_u16(self.buf, 0).ok_or_else(|| corrupt("truncated field count"))?;
        Ok(Fields {
            buf: self.buf,
            pos: 2,
            left: left as usize,
        })
    }

    /// Find every attribute of `wanted` — ascending ids, the order a
    /// query iterates in — in one pass over the fields, pushing one
    /// [`FieldLoc`] per wanted id onto the cleared `out`. Stops reading at
    /// the first stored id past the last wanted one (stored ids ascend;
    /// see the module doc).
    pub fn locate(
        &self,
        wanted: impl IntoIterator<Item = AttrId>,
        out: &mut Vec<FieldLoc>,
    ) -> Result<()> {
        out.clear();
        let mut fields = self.fields()?;
        let mut cur = fields.next_located()?;
        for want in wanted {
            while cur.is_some_and(|(attr, _)| attr < want) {
                cur = fields.next_located()?;
            }
            out.push(match cur {
                Some((attr, loc)) if attr == want => loc,
                _ => FieldLoc::NDF,
            });
        }
        Ok(())
    }

    /// The value [`RecordView::locate`] found at `loc`; `None` for *ndf*
    /// (and for a location this view did not produce).
    pub fn value_at(&self, loc: FieldLoc) -> Option<ValueRef<'a>> {
        if loc == FieldLoc::NDF {
            return None;
        }
        parse_field(self.buf, loc.0 as usize)
            .ok()
            .map(|(_, v, _)| v)
    }
}

/// Parse the field starting at `pos`: its id, its value, and the offset
/// of the next field. The only place the field layout is interpreted.
fn parse_field(buf: &[u8], pos: usize) -> Result<(AttrId, ValueRef<'_>, usize)> {
    let attr = AttrId(le_u32(buf, pos).ok_or_else(|| corrupt("truncated field header"))?);
    let tag = *buf
        .get(pos + 4)
        .ok_or_else(|| corrupt("truncated field header"))?;
    let pos = pos + 5;
    match tag {
        TAG_NUM => {
            let bits = le_u64(buf, pos).ok_or_else(|| corrupt("truncated numeric payload"))?;
            Ok((attr, ValueRef::Num(f64::from_bits(bits)), pos + 8))
        }
        TAG_TEXT => {
            let n_strings =
                *buf.get(pos)
                    .ok_or_else(|| corrupt("truncated string count"))? as usize;
            if n_strings == 0 {
                return Err(corrupt("empty text value"));
            }
            let start = pos + 1;
            let mut end = start;
            for _ in 0..n_strings {
                let slen =
                    le_u16(buf, end).ok_or_else(|| corrupt("truncated string length"))? as usize;
                end += 2 + slen;
            }
            let span = buf
                .get(start..end)
                .ok_or_else(|| corrupt("truncated string bytes"))?;
            Ok((attr, ValueRef::Text(TextRef { n_strings, span }), end))
        }
        x => Err(corrupt(&format!("unknown field tag {x}"))),
    }
}

/// Iterator over a record's `(attribute, value)` fields in stored order.
/// After an error it yields nothing more.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    buf: &'a [u8],
    pos: usize,
    left: usize,
}

impl Fields<'_> {
    /// The next field's id and where it starts.
    fn next_located(&mut self) -> Result<Option<(AttrId, FieldLoc)>> {
        let at = u32::try_from(self.pos).map_err(|_| corrupt("record over 4 GiB"))?;
        Ok(self
            .next()
            .transpose()?
            .map(|(attr, _)| (attr, FieldLoc(at))))
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Result<(AttrId, ValueRef<'a>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        match parse_field(self.buf, self.pos) {
            Ok((attr, value, next)) => {
                self.pos = next;
                Some(Ok((attr, value)))
            }
            Err(e) => {
                self.left = 0;
                Some(Err(e))
            }
        }
    }
}

/// Decode a record produced by [`encode_record`]. Returns the tuple and the
/// number of bytes consumed.
pub fn decode_record(buf: &[u8]) -> Result<(Tuple, usize)> {
    let mut fields = RecordView::new(buf).fields()?;
    let mut tuple = Tuple::with_capacity(fields.left.min(buf.len() / MIN_FIELD_LEN));
    for field in &mut fields {
        let (attr, value) = field?;
        let value = match value {
            ValueRef::Num(v) => Value::Num(v),
            ValueRef::Text(text) => Value::Text(
                text.strings()
                    .map(|s| std::str::from_utf8(s).map(str::to_string))
                    .collect::<std::result::Result<_, _>>()
                    .map_err(|_| corrupt("non-utf8 string"))?,
            ),
        };
        // Ascending ids (every stored record) append; anything else is
        // placed by id.
        tuple.set(attr, value);
    }
    // `pos` is past the last field: the record's encoded length.
    Ok((tuple, fields.pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tuple() -> Tuple {
        Tuple::new()
            .with(AttrId(0), Value::text("Digital Camera"))
            .with(AttrId(3), Value::num(230.0))
            .with(AttrId(4), Value::text("Canon"))
            .with(AttrId(6), Value::num(10_000_000.0))
            .with(AttrId(9), Value::texts(["Computer", "Software"]))
    }

    #[test]
    fn roundtrip() {
        let t = sample_tuple();
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), record_len(&t));
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back, t);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::new();
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(used, 2);
        assert!(back.is_empty());
    }

    #[test]
    fn trailing_bytes_ignored() {
        let t = sample_tuple();
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let n = buf.len();
        buf.extend_from_slice(b"garbage-after-record");
        let (back, used) = decode_record(&buf).unwrap();
        assert_eq!(used, n);
        assert_eq!(back, t);
    }

    #[test]
    fn special_floats_roundtrip() {
        // Negative zero and subnormals must survive bit-exactly.
        let t = Tuple::new()
            .with(AttrId(0), Value::num(-0.0))
            .with(AttrId(1), Value::num(f64::MIN_POSITIVE / 2.0));
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let (back, _) = decode_record(&buf).unwrap();
        match back.get(AttrId(0)) {
            Some(Value::Num(v)) => assert!(v.is_sign_negative() && *v == 0.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn utf8_multibyte_strings() {
        let t = Tuple::new().with(AttrId(0), Value::texts(["数码相机", "カメラ"]));
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let (back, _) = decode_record(&buf).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[1, 0]).is_err()); // one field promised, none present
                                                  // Valid header, bad tag.
        let buf = [1u8, 0, 0, 0, 0, 0, 99];
        assert!(decode_record(&buf).is_err());
        // Non-utf8 string bytes.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.push(TAG_TEXT);
        buf.push(1);
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn rejects_invalid_values_at_encode() {
        let t = Tuple::new().with(AttrId(0), Value::num(f64::NAN));
        let mut buf = Vec::new();
        assert!(encode_record(&t, &mut buf).is_err());
    }
}
