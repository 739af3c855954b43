//! Property tests for the sparse wide table: the interpreted record codec
//! and the table file must round-trip arbitrary tuples, and compaction
//! must preserve exactly the live records.

use proptest::prelude::*;

use iva_storage::{IoStats, PagerOptions};
use iva_swt::{decode_record, encode_record, record_len, AttrId, TableFile, Tuple, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1e12f64..1e12).prop_map(Value::num),
        proptest::collection::vec("[ -~]{1,40}", 1..4).prop_map(Value::texts),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec((0u32..500, arb_value()), 0..10).prop_map(|fields| {
        let mut t = Tuple::new();
        for (a, v) in fields {
            t.set(AttrId(a), v);
        }
        t
    })
}

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 256,
        cache_bytes: 4096,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_roundtrip(t in arb_tuple()) {
        let mut buf = Vec::new();
        encode_record(&t, &mut buf).unwrap();
        prop_assert_eq!(buf.len(), record_len(&t));
        let (back, used) = decode_record(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back, t);
    }

    #[test]
    fn record_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        // Arbitrary bytes must decode cleanly or error — never panic.
        let _ = decode_record(&bytes);
    }

    #[test]
    fn table_file_is_a_faithful_log(
        tuples in proptest::collection::vec(arb_tuple(), 1..25),
        delete_mask in proptest::collection::vec(any::<bool>(), 25),
    ) {
        let mut table = TableFile::create_mem(&opts(), IoStats::new()).unwrap();
        let mut ptrs = Vec::new();
        for t in &tuples {
            ptrs.push(table.append(t).unwrap());
        }
        // Random deletions.
        let mut deleted = vec![false; tuples.len()];
        for (i, &(tid, _)) in ptrs.iter().enumerate() {
            if delete_mask[i % delete_mask.len()] && tid % 2 == 0 {
                prop_assert!(table.delete(tid).unwrap());
                deleted[i] = true;
            }
        }
        // Random access agrees.
        for (i, &(tid, ptr)) in ptrs.iter().enumerate() {
            let rec = table.get(ptr).unwrap();
            prop_assert_eq!(rec.tid, tid);
            prop_assert_eq!(rec.deleted, deleted[i]);
            prop_assert_eq!(&rec.tuple, &tuples[i]);
        }
        // Scan agrees, in order.
        let scanned: Vec<_> = table.scan().collect::<Result<Vec<_>, _>>().unwrap();
        prop_assert_eq!(scanned.len(), tuples.len());
        for (i, (ptr, rec)) in scanned.iter().enumerate() {
            prop_assert_eq!(*ptr, ptrs[i].1);
            prop_assert_eq!(&rec.tuple, &tuples[i]);
        }
        prop_assert_eq!(table.live_records() as usize,
            deleted.iter().filter(|d| !**d).count());
    }
}
