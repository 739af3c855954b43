//! Tuple values.
//!
//! A cell `v(T, A)` is either *ndf* (undefined — simply absent from the
//! tuple), a numerical number, or a non-empty set of finite-length strings
//! (Sec. III-A; Fig. 1's `Industry = {"Computer", "Software"}` is a
//! multi-string text value).

use crate::error::{Result, SwtError};
use crate::schema::AttrId;

/// A defined cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Numerical value.
    Num(f64),
    /// Non-empty set of strings.
    Text(Vec<String>),
}

impl Value {
    /// Single-string text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(vec![s.into()])
    }

    /// Multi-string text value.
    pub fn texts<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Value::Text(strings.into_iter().map(Into::into).collect())
    }

    /// Numerical value.
    pub fn num(v: f64) -> Self {
        Value::Num(v)
    }

    /// Validate invariants (non-empty text set, bounded string length,
    /// finite numbers).
    pub fn validate(&self) -> Result<()> {
        match self {
            Value::Num(v) => {
                if !v.is_finite() {
                    return Err(SwtError::InvalidArgument(
                        "non-finite numerical value".into(),
                    ));
                }
            }
            Value::Text(strings) => {
                if strings.is_empty() {
                    return Err(SwtError::InvalidArgument("empty text value".into()));
                }
                if strings.len() > u8::MAX as usize {
                    return Err(SwtError::InvalidArgument(
                        "more than 255 strings in one text value".into(),
                    ));
                }
                for s in strings {
                    if s.is_empty() {
                        return Err(SwtError::InvalidArgument(
                            "empty string in text value".into(),
                        ));
                    }
                    if s.len() > u16::MAX as usize {
                        return Err(SwtError::InvalidArgument(
                            "string longer than 65535 bytes".into(),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A tuple: the defined `(attribute, value)` pairs, sorted by attribute id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tuple {
    fields: Vec<(AttrId, Value)>,
}

impl Tuple {
    /// Empty tuple (no defined attributes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty tuple with room for `n` fields.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            fields: Vec::with_capacity(n),
        }
    }

    /// Set (or replace) the value of an attribute. Keeps fields sorted;
    /// an id above every present one (how records decode and how most
    /// callers build tuples) appends without a search.
    pub fn set(&mut self, attr: AttrId, value: Value) -> &mut Self {
        if self.fields.last().is_none_or(|(last, _)| *last < attr) {
            self.fields.push((attr, value));
            return self;
        }
        match self.fields.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => {
                if let Some(f) = self.fields.get_mut(i) {
                    f.1 = value;
                }
            }
            Err(i) => self.fields.insert(i, (attr, value)),
        }
        self
    }

    /// Builder-style [`Tuple::set`].
    pub fn with(mut self, attr: AttrId, value: Value) -> Self {
        self.set(attr, value);
        self
    }

    /// Value of an attribute, or `None` if *ndf*.
    pub fn get(&self, attr: AttrId) -> Option<&Value> {
        self.fields
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .and_then(|i| self.fields.get(i))
            .map(|(_, v)| v)
    }

    /// Number of defined attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// True if no attributes are defined.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate `(attr, value)` in attribute-id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Value)> {
        self.fields.iter().map(|(a, v)| (*a, v))
    }

    /// Validate every value.
    pub fn validate(&self) -> Result<()> {
        for (_, v) in self.iter() {
            v.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_sorted() {
        let mut t = Tuple::new();
        t.set(AttrId(5), Value::num(1.0));
        t.set(AttrId(1), Value::text("x"));
        t.set(AttrId(3), Value::texts(["a", "b"]));
        let attrs: Vec<u32> = t.iter().map(|(a, _)| a.0).collect();
        assert_eq!(attrs, vec![1, 3, 5]);
        assert_eq!(t.get(AttrId(5)), Some(&Value::Num(1.0)));
        assert_eq!(t.get(AttrId(2)), None); // ndf
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn set_replaces() {
        let mut t = Tuple::new();
        t.set(AttrId(0), Value::num(1.0));
        t.set(AttrId(0), Value::num(2.0));
        assert_eq!(t.arity(), 1);
        assert_eq!(t.get(AttrId(0)), Some(&Value::Num(2.0)));
    }

    #[test]
    fn validation() {
        assert!(Value::num(f64::NAN).validate().is_err());
        assert!(Value::num(f64::INFINITY).validate().is_err());
        assert!(Value::Text(vec![]).validate().is_err());
        assert!(Value::text("").validate().is_err());
        assert!(Value::text("ok").validate().is_ok());
        assert!(Value::num(3.5).validate().is_ok());
        let long = "x".repeat(70000);
        assert!(Value::text(long).validate().is_err());
    }

    #[test]
    fn tuple_validate_propagates() {
        let t = Tuple::new().with(AttrId(0), Value::Text(vec![]));
        assert!(t.validate().is_err());
    }
}
