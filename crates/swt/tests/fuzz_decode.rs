//! Fuzz-style decoder hardening: every deserializer of the table layer
//! must reject arbitrary and mutated bytes with a typed error — never a
//! panic, never an out-of-bounds slice.

use proptest::prelude::*;

use iva_swt::{
    decode_record, encode_record, AttrId, AttrType, Catalog, FieldLoc, RecordView, Tuple, Value,
    ValueRef,
};

fn sample_tuple() -> Tuple {
    Tuple::new()
        .with(AttrId(0), Value::text("Digital Camera"))
        .with(AttrId(3), Value::num(230.0))
        .with(AttrId(9), Value::texts(["Computer", "Software"]))
}

fn sample_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.define("name", AttrType::Text).unwrap();
    c.define("price", AttrType::Numeric).unwrap();
    c.define("company", AttrType::Text).unwrap();
    c
}

/// Strings mixing ASCII with 2-, 3- and 4-byte UTF-8 sequences.
fn utf8_string() -> impl Strategy<Value = String> {
    let chars = vec!['a', 'Z', ' ', '7', 'é', 'ß', '数', '码', 'カ', '🦀'];
    proptest::collection::vec(prop::sample::select(chars), 1..12)
        .prop_map(|cs| cs.into_iter().collect())
}

fn view_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1e9f64..1e9).prop_map(Value::num),
        Just(Value::num(-0.0)),
        proptest::collection::vec(utf8_string(), 1..4).prop_map(Value::texts),
    ]
}

/// Tuples over ids `0, 3, 6, …` so that between, below and above every
/// present id there are absent ones to ask for. Includes the empty tuple.
fn view_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec((0u32..20, view_value()), 0..8).prop_map(|fields| {
        let mut t = Tuple::new();
        for (a, v) in fields {
            t.set(AttrId(a * 3), v);
        }
        t
    })
}

/// What `Tuple::get` says, in the view's vocabulary.
fn owned(v: ValueRef<'_>) -> Value {
    match v {
        ValueRef::Num(x) => Value::Num(x),
        ValueRef::Text(t) => Value::Text(
            t.strings()
                .map(|s| String::from_utf8(s.to_vec()).unwrap())
                .collect(),
        ),
    }
}

/// Every read a `RecordView` offers, on bytes that may be anything.
fn walk_view(bytes: &[u8]) {
    let view = RecordView::new(bytes);
    if let Ok(fields) = view.fields() {
        for (_, v) in fields.flatten() {
            if let ValueRef::Text(t) = v {
                assert!(t.strings().all(|s| s.len() <= t.max_len_bound()));
            }
        }
    }
    let mut locs = Vec::new();
    if view.locate((0..64).map(AttrId), &mut locs).is_ok() {
        for &loc in &locs {
            if let Some(ValueRef::Text(t)) = view.value_at(loc) {
                assert_eq!(t.strings().count(), t.n_strings());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reading a record in place agrees with decoding it: every present
    /// id resolves to the tuple's value (bit-exact numbers, so −0.0 stays
    /// −0.0), every absent id — below the first, between two, beyond the
    /// last — to *ndf*, for any ascending set of wanted ids.
    #[test]
    fn record_view_lookups_equal_tuple_get(
        t in view_tuple(),
        wanted in proptest::collection::vec(0u32..70, 0..12),
    ) {
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        let (decoded, used) = decode_record(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        let view = RecordView::new(&buf);

        let walked: Vec<(AttrId, Value)> = view
            .fields()
            .unwrap()
            .map(|f| f.map(|(a, v)| (a, owned(v))).unwrap())
            .collect();
        let stored: Vec<(AttrId, Value)> = decoded.iter().map(|(a, v)| (a, v.clone())).collect();
        prop_assert_eq!(walked, stored);

        let mut wanted: Vec<AttrId> = wanted.into_iter().map(AttrId).collect();
        wanted.sort();
        wanted.dedup();
        let mut locs = vec![FieldLoc::NDF; 3]; // stale content must be cleared
        view.locate(wanted.iter().copied(), &mut locs).unwrap();
        prop_assert_eq!(locs.len(), wanted.len());
        for (&attr, &loc) in wanted.iter().zip(&locs) {
            let got = view.value_at(loc).map(owned);
            match (decoded.get(attr), &got) {
                (Some(Value::Num(a)), Some(Value::Num(b))) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits())
                }
                (want, got) => prop_assert_eq!(want, got.as_ref()),
            }
        }
    }

    /// The view on damaged bytes: every truncation and every single-bit
    /// flip of a valid record reads as a value or a typed error — never a
    /// panic, never a string outside its field.
    #[test]
    fn record_view_never_panics_on_damage(t in view_tuple()) {
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        for cut in 0..buf.len() {
            walk_view(&buf[..cut]);
        }
        for bit in 0..buf.len() * 8 {
            let mut flipped = buf.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            walk_view(&flipped);
            let _ = decode_record(&flipped);
        }
    }

    /// And on bytes that never were a record.
    #[test]
    fn record_view_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        walk_view(&bytes);
    }

    /// Arbitrary bytes through every decoder: a `Result`/`Option`, never
    /// a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_record(&bytes);
        let _ = Catalog::decode(&bytes);
    }

    /// A valid record with one mutated byte either still decodes to *a*
    /// tuple or errors — it must never panic. Mutations penetrate much
    /// deeper into the field loop than random bytes do.
    #[test]
    fn mutated_record_never_panics(
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
        cut in any::<prop::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        encode_record(&sample_tuple(), &mut buf).unwrap();
        let mut mutated = buf.clone();
        let at = at.index(mutated.len());
        mutated[at] ^= xor;
        let _ = decode_record(&mutated);
        // And every truncation of the valid encoding.
        let cut = cut.index(buf.len());
        let _ = decode_record(&buf[..cut]);
    }

    /// Same for the catalog bytes a table's commit record carries.
    #[test]
    fn mutated_catalog_never_panics(
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
        cut in any::<prop::sample::Index>(),
    ) {
        let buf = sample_catalog().encode();
        let mut mutated = buf.clone();
        let at = at.index(mutated.len());
        mutated[at] ^= xor;
        let _ = Catalog::decode(&mutated);
        let cut = cut.index(buf.len());
        let _ = Catalog::decode(&buf[..cut]);
    }
}
