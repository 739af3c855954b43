//! Property tests for the hot tier: promoting an attribute's signatures
//! into the in-RAM columnar tier is an execution strategy, never a
//! semantic. For any randomized dataset covering all four vector-list
//! organizations, any (α, n) signature geometry, and any interleaving of
//! writer mutations and budget changes, a tiered index must answer every
//! query bit-identically to an index that never tiers — same tids, same
//! distance bits, same `table_accesses` — whether the tier is cold,
//! warm, budget-evicted mid-run, disabled, or re-enabled.

use proptest::prelude::*;

mod common;

use common::{all_list_types_table, assert_same_plan, small_pages as opts};
use iva_core::{
    build_index, IndexTarget, IvaConfig, IvaIndex, ListType, MetricKind, Query, QueryOptions,
    WeightScheme,
};
use iva_storage::IoStats;
use iva_swt::{AttrId, SwtTable, Tuple, Value};

fn row_for(i: u32) -> Tuple {
    let mut tup = Tuple::new();
    tup.set(AttrId(0), Value::text(format!("product listing {i:04}")));
    if i % 2 == 0 {
        tup.set(AttrId(1), Value::texts([format!("note {i}")]));
    }
    tup.set(AttrId(2), Value::num(f64::from(i % 89)));
    if i % 3 == 0 {
        tup.set(AttrId(3), Value::num(f64::from(i)));
    }
    tup
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The full tier lifecycle — cold, warming, warm, invalidated by
    /// mutations, re-warmed, budget-evicted, disabled, re-enabled — under
    /// randomized data and signature geometry, serial and parallel.
    #[test]
    fn tier_is_bit_identical_through_its_lifecycle(
        rows in 150u32..400,
        alpha in 0.1f64..0.5,
        gram_n in 2usize..5,
        k in 1usize..12,
        n_extra in 1u32..8,
        del_stride in 3u64..9,
    ) {
        let cfg = IvaConfig { alpha, n: gram_n, ..Default::default() };
        let mut table = all_list_types_table(rows);
        // `reference` keeps the default zero budget (tier permanently
        // disabled); `tiered` gets a generous budget at runtime.
        let mut reference =
            build_index(&table, IndexTarget::Mem, &opts(), IoStats::new(), cfg.clone()).unwrap();
        let mut tiered =
            build_index(&table, IndexTarget::Mem, &opts(), IoStats::new(), cfg.clone()).unwrap();
        tiered.set_runtime_knobs(cfg.search_threads, 1 << 20);

        // The density split must actually materialize all four
        // organizations, or this test silently weakens.
        let types: Vec<ListType> = (0..4u32)
            .map(|a| tiered.attr_entry(AttrId(a)).unwrap().list_type)
            .collect();
        prop_assert_eq!(types[0], ListType::III);
        prop_assert!(matches!(types[1], ListType::I | ListType::II));
        prop_assert_eq!(types[2], ListType::IV);
        prop_assert_eq!(types[3], ListType::I);

        let q = Query::new()
            .text(AttrId(0), "product listing 0042")
            .text(AttrId(1), "note 33")
            .num(AttrId(2), 42.0)
            .num(AttrId(3), 26.0);
        let run = |idx: &IvaIndex, table: &SwtTable, threads: usize| {
            let o = QueryOptions { threads: Some(threads), measured: false };
            idx.query_opts(table, &q, k, &MetricKind::L2, WeightScheme::Equal, &o)
                .unwrap()
        };

        // The reference index never tiers — its scans are all cold.
        prop_assert_eq!(run(&reference, &table, 1).stats.hot_tier_attrs, 0);

        // Phase 1 — warming: repeated queries drive the access EWMA past
        // the admission bar; every round must already be bit-identical.
        let mut saw_hot = false;
        for round in 0..8 {
            let cold = run(&reference, &table, 1);
            let hot = run(&tiered, &table, 1);
            assert_same_plan(&cold, &hot, &format!("warming round {round}"));
            saw_hot |= hot.stats.hot_tier_attrs > 0;
        }
        prop_assert!(saw_hot, "tier never engaged during warmup");

        // Parallel plans read through the same tier.
        for threads in [2usize, 3] {
            let cold = run(&reference, &table, threads);
            let hot = run(&tiered, &table, threads);
            assert_same_plan(&cold, &hot, &format!("warm parallel threads={threads}"));
        }

        // Phase 2 — writer mutations invalidate: inserts append to vector
        // lists, deletes rewrite the tuple list in place. Both indexes see
        // the same mutations; the tiered one must drop its stale columns.
        for i in 0..n_extra {
            let tup = row_for(rows + i);
            let (tid, ptr) = table.insert(&tup).unwrap();
            reference.insert(tid, ptr, &tup, table.catalog()).unwrap();
            tiered.insert(tid, ptr, &tup, table.catalog()).unwrap();
        }
        for tid in (0..u64::from(rows)).step_by(del_stride as usize) {
            if let Some(ptr) = reference.lookup_ptr(tid).unwrap() {
                table.delete(ptr).unwrap();
                reference.delete(tid).unwrap();
                tiered.delete(tid).unwrap();
            }
        }
        for round in 0..6 {
            let cold = run(&reference, &table, 1);
            let hot = run(&tiered, &table, 1);
            assert_same_plan(&cold, &hot, &format!("post-mutation round {round}"));
        }

        // Phase 3 — budget squeeze mid-run: a budget too small for any
        // column evicts everything and refuses re-admission.
        tiered.set_runtime_knobs(cfg.search_threads, 64);
        for round in 0..3 {
            let cold = run(&reference, &table, 1);
            let hot = run(&tiered, &table, 1);
            assert_same_plan(&cold, &hot, &format!("squeezed round {round}"));
            prop_assert_eq!(hot.stats.hot_tier_attrs, 0, "64-byte budget admitted a column");
        }

        // Phase 4 — disabled entirely, then re-enabled and re-warmed.
        tiered.set_runtime_knobs(cfg.search_threads, 0);
        let cold = run(&reference, &table, 1);
        let hot = run(&tiered, &table, 1);
        assert_same_plan(&cold, &hot, "disabled");
        prop_assert_eq!(hot.stats.hot_tier_attrs, 0);

        tiered.set_runtime_knobs(cfg.search_threads, 1 << 20);
        let mut saw_hot_again = false;
        for round in 0..8 {
            let cold = run(&reference, &table, 1);
            let hot = run(&tiered, &table, 1);
            assert_same_plan(&cold, &hot, &format!("re-enabled round {round}"));
            saw_hot_again |= hot.stats.hot_tier_attrs > 0;
        }
        prop_assert!(saw_hot_again, "tier never re-engaged after re-enable");
    }
}
