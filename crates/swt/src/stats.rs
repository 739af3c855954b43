//! lint:scope(panic-reachability)
//! Per-attribute table statistics.
//!
//! The iVA-file's attribute list carries `df` (tuples defining the
//! attribute) and `str` (total strings on the attribute) to drive the
//! vector-list type selection (Sec. III-D), and the relative-domain numeric
//! encoding needs each numerical attribute's `[min, max]` (Sec. III-C).
//! These are maintained incrementally on insert and recomputed on rebuild
//! (deletions intentionally do not decrement — the paper leaves vector
//! lists untouched until the periodic cleanup).

use crate::schema::AttrId;
use crate::value::{Tuple, Value};
use iva_storage::codec::{le_f64, le_u32, le_u64};

/// Statistics for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// Number of tuples with a defined value (the paper's `df`).
    pub df: u64,
    /// Total number of strings over all defined values (the paper's `str`;
    /// 0 for numerical attributes).
    pub str_count: u64,
    /// Minimum numerical value seen (`+inf` when none).
    pub min: f64,
    /// Maximum numerical value seen (`-inf` when none).
    pub max: f64,
}

impl Default for AttrStats {
    fn default() -> Self {
        Self {
            df: 0,
            str_count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl AttrStats {
    /// True if at least one numerical value has been observed.
    pub fn has_domain(&self) -> bool {
        self.min <= self.max
    }
}

/// Statistics for the whole table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    per_attr: Vec<AttrStats>,
    /// Total tuples inserted (including later-deleted ones, until rebuild).
    pub tuple_count: u64,
}

impl TableStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure the per-attribute vector covers `n` attributes.
    pub fn ensure_attrs(&mut self, n: usize) {
        if self.per_attr.len() < n {
            self.per_attr.resize_with(n, AttrStats::default);
        }
    }

    /// Account for an inserted tuple.
    pub fn observe_insert(&mut self, tuple: &Tuple) {
        self.tuple_count += 1;
        for (attr, value) in tuple.iter() {
            self.ensure_attrs(attr.index() + 1);
            let Some(s) = self.per_attr.get_mut(attr.index()) else {
                continue;
            };
            s.df += 1;
            match value {
                Value::Num(v) => {
                    s.min = s.min.min(*v);
                    s.max = s.max.max(*v);
                }
                Value::Text(strings) => {
                    s.str_count += strings.len() as u64;
                }
            }
        }
    }

    /// Statistics of one attribute (default if never observed).
    pub fn attr(&self, attr: AttrId) -> AttrStats {
        self.per_attr.get(attr.index()).cloned().unwrap_or_default()
    }

    /// Number of attributes covered.
    pub fn attr_count(&self) -> usize {
        self.per_attr.len()
    }

    /// Serialize (manual codec).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.per_attr.len() * 32);
        out.extend_from_slice(&self.tuple_count.to_le_bytes());
        out.extend_from_slice(&(self.per_attr.len() as u32).to_le_bytes());
        for s in &self.per_attr {
            out.extend_from_slice(&s.df.to_le_bytes());
            out.extend_from_slice(&s.str_count.to_le_bytes());
            out.extend_from_slice(&s.min.to_bits().to_le_bytes());
            out.extend_from_slice(&s.max.to_bits().to_le_bytes());
        }
        out
    }

    /// Deserialize bytes from [`TableStats::encode`].
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let tuple_count = le_u64(buf, 0)?;
        let n = le_u32(buf, 8)? as usize;
        if buf.len() != 12 + n.checked_mul(32)? {
            return None;
        }
        let mut per_attr = Vec::with_capacity(n);
        for i in 0..n {
            let base = 12 + i * 32;
            per_attr.push(AttrStats {
                df: le_u64(buf, base)?,
                str_count: le_u64(buf, base + 8)?,
                min: le_f64(buf, base + 16)?,
                max: le_f64(buf, base + 24)?,
            });
        }
        Some(Self {
            per_attr,
            tuple_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_updates_counts_and_domain() {
        let mut st = TableStats::new();
        st.observe_insert(
            &Tuple::new()
                .with(AttrId(0), Value::texts(["a", "b"]))
                .with(AttrId(2), Value::num(5.0)),
        );
        st.observe_insert(
            &Tuple::new()
                .with(AttrId(0), Value::text("c"))
                .with(AttrId(2), Value::num(-3.0)),
        );
        assert_eq!(st.tuple_count, 2);
        assert_eq!(st.attr(AttrId(0)).df, 2);
        assert_eq!(st.attr(AttrId(0)).str_count, 3);
        let a2 = st.attr(AttrId(2));
        assert_eq!((a2.min, a2.max), (-3.0, 5.0));
        assert!(a2.has_domain());
        // Never-seen attribute.
        let a1 = st.attr(AttrId(1));
        assert_eq!(a1.df, 0);
        assert!(!a1.has_domain());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut st = TableStats::new();
        st.observe_insert(
            &Tuple::new()
                .with(AttrId(1), Value::num(1.25))
                .with(AttrId(3), Value::text("x")),
        );
        let bytes = st.encode();
        let back = TableStats::decode(&bytes).unwrap();
        assert_eq!(back, st);
        assert!(TableStats::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(TableStats::decode(&[]).is_none());
    }

    #[test]
    fn empty_domain_survives_roundtrip() {
        let mut st = TableStats::new();
        st.ensure_attrs(2);
        let back = TableStats::decode(&st.encode()).unwrap();
        assert!(!back.attr(AttrId(0)).has_domain());
    }
}
