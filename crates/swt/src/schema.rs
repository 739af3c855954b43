//! lint:scope(panic-reachability)
//! Attribute catalog.
//!
//! A sparse wide table has a single, ever-growing set of attributes `A`
//! (thousands in real CWMS datasets — Sec. I-A reports 1,147 for the Google
//! Base subset). Each attribute is either *text* (a value is a non-empty set
//! of finite-length strings) or *numerical* (Sec. III-A). Attributes are
//! "rarely deleted" (Sec. III-D), so ids are dense and positional.

use std::collections::HashMap;

use crate::error::{Result, SwtError};
use iva_storage::codec::{le_u16, le_u32};

/// Dense positional attribute identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

impl AttrId {
    /// Index into catalog-aligned arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AttrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Attribute domain type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// A non-empty set of strings per defined cell.
    Text,
    /// A single f64 per defined cell.
    Numeric,
}

/// One attribute definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Human-readable attribute name (unique).
    pub name: String,
    /// Domain type.
    pub ty: AttrType,
}

/// The table's attribute catalog: name ↔ id ↔ type.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    attrs: Vec<AttrDef>,
    by_name: HashMap<String, AttrId>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define an attribute, or return the existing id if an attribute of
    /// the same name and type already exists. Redefining with a different
    /// type is an error.
    pub fn define(&mut self, name: &str, ty: AttrType) -> Result<AttrId> {
        if let Some(&id) = self.by_name.get(name) {
            let existing = self
                .attrs
                .get(id.index())
                .ok_or_else(|| SwtError::Corrupt("catalog name map out of sync".into()))?;
            if existing.ty != ty {
                return Err(SwtError::TypeMismatch {
                    attr: name.to_string(),
                    expected: match existing.ty {
                        AttrType::Text => "text",
                        AttrType::Numeric => "numerical",
                    },
                });
            }
            return Ok(id);
        }
        let id = AttrId(self.attrs.len() as u32);
        self.attrs.push(AttrDef {
            name: name.to_string(),
            ty,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Look up an attribute id by name.
    pub fn id_of(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Attribute definition by id.
    pub fn def(&self, id: AttrId) -> Option<&AttrDef> {
        self.attrs.get(id.index())
    }

    /// Attribute type by id (None if out of range).
    pub fn attr_type(&self, id: AttrId) -> Option<AttrType> {
        self.def(id).map(|d| d.ty)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if no attributes are defined.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate `(id, def)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrDef)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, d)| (AttrId(i as u32), d))
    }

    /// Serialize to bytes (manual codec: no external format dependency).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.attrs.len() as u32).to_le_bytes());
        for d in &self.attrs {
            out.push(match d.ty {
                AttrType::Text => 0,
                AttrType::Numeric => 1,
            });
            let name = d.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
        }
        out
    }

    /// Deserialize from bytes produced by [`Catalog::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let corrupt = |m: &str| SwtError::Corrupt(format!("catalog: {m}"));
        let count = le_u32(buf, 0).ok_or_else(|| corrupt("truncated header"))? as usize;
        let mut pos = 4;
        let mut cat = Catalog::new();
        for _ in 0..count {
            let ty = match buf.get(pos) {
                Some(0) => AttrType::Text,
                Some(1) => AttrType::Numeric,
                Some(x) => return Err(corrupt(&format!("bad type tag {x}"))),
                None => return Err(corrupt("truncated entry")),
            };
            let nlen = le_u16(buf, pos + 1).ok_or_else(|| corrupt("truncated entry"))? as usize;
            pos += 3;
            let bytes = buf
                .get(pos..pos + nlen)
                .ok_or_else(|| corrupt("truncated name"))?;
            let name = std::str::from_utf8(bytes).map_err(|_| corrupt("non-utf8 name"))?;
            pos += nlen;
            cat.define(name, ty)?;
        }
        Ok(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_lookup() {
        let mut c = Catalog::new();
        let price = c.define("Price", AttrType::Numeric).unwrap();
        let company = c.define("Company", AttrType::Text).unwrap();
        assert_eq!(price, AttrId(0));
        assert_eq!(company, AttrId(1));
        assert_eq!(c.id_of("Price"), Some(price));
        assert_eq!(c.attr_type(company), Some(AttrType::Text));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn redefine_same_type_is_idempotent() {
        let mut c = Catalog::new();
        let a = c.define("Year", AttrType::Numeric).unwrap();
        let b = c.define("Year", AttrType::Numeric).unwrap();
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn redefine_with_other_type_fails() {
        let mut c = Catalog::new();
        c.define("Year", AttrType::Numeric).unwrap();
        assert!(matches!(
            c.define("Year", AttrType::Text),
            Err(SwtError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut c = Catalog::new();
        c.define("Type", AttrType::Text).unwrap();
        c.define("Price", AttrType::Numeric).unwrap();
        c.define("Company", AttrType::Text).unwrap();
        c.define("附加", AttrType::Text).unwrap(); // non-ASCII name
        let bytes = c.encode();
        let back = Catalog::decode(&bytes).unwrap();
        assert_eq!(back.len(), 4);
        for (id, d) in c.iter() {
            assert_eq!(back.def(id).unwrap(), d);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Catalog::decode(&[1, 2]).is_err());
        assert!(Catalog::decode(&[9, 0, 0, 0, 7]).is_err());
    }

    #[test]
    fn unknown_lookups() {
        let c = Catalog::new();
        assert_eq!(c.id_of("nope"), None);
        assert_eq!(c.def(AttrId(0)), None);
        assert!(c.is_empty());
    }
}
