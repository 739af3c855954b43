//! Fig. 17: average update time vs the cleaning trigger threshold β
//! (1%..5%), iVA vs SII vs DST.
//!
//! Methodology follows Sec. V-C exactly: measure the average per-deletion
//! time `td` over random deletions; measure the full rebuild time `tr`
//! (table file + index file) and derive the per-insertion time `ti =
//! tr/|T|`; then the amortized cost of one update under threshold β is
//! `td + ti + tr/(β·|T|)`.
//!
//! One departure from Sec. IV-B: an iVA-file delete does not rewrite the
//! tuple list's `ptr`. It looks the tid up in the tuple list, as the
//! paper's delete does, and adds it to the table's resident tombstone
//! set, which the next flush commits; the β rebuild bounds that set. So
//! iVA's `td` is that lookup plus the set insert every system pays.
//!
//! Paper result: "update is around 10² faster [than queries]. The
//! iVA-file's average update time is very close to that of SII and DST."

use std::time::Instant;

use iva_baselines::SiiIndex;
use iva_bench::{bench_pager_options, report, scale_config};
use iva_core::{build_index, IndexTarget, IvaConfig};
use iva_storage::IoStats;
use iva_swt::SwtTable;
use iva_workload::Dataset;

fn main() {
    let workload = scale_config();
    let config = IvaConfig::default();
    report::banner(
        "Fig. 17",
        "average update time vs cleaning threshold beta",
        &workload,
        &config,
    );
    let opts = bench_pager_options();
    let dataset = Dataset::generate(&workload);
    let mut table = dataset.build_table(&opts, IoStats::new()).expect("table");
    let iva = build_index(&table, IndexTarget::Mem, &opts, IoStats::new(), config).expect("iva");
    let mut sii = SiiIndex::build(&table, &opts, IoStats::new(), config.ndf_penalty).expect("sii");
    let n = table.file().total_records();

    // --- td: average deletion time per system. ---
    let deletions = (n / 100).clamp(50, 2_000);
    let mut lcg = 0x5EEDu64;
    let mut pick = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % n
    };
    let victims: Vec<u64> = (0..deletions).map(|_| pick()).collect();

    let t0 = Instant::now();
    for &tid in &victims {
        let _ = iva
            .lookup_ptr(tid, table.file().deleted())
            .expect("iva lookup");
    }
    let td_iva = t0.elapsed().as_secs_f64() * 1e3 / deletions as f64;

    let t0 = Instant::now();
    for &tid in &victims {
        let _ = sii.delete(tid).expect("sii delete");
    }
    let td_sii = t0.elapsed().as_secs_f64() * 1e3 / deletions as f64;

    let t0 = Instant::now();
    for &tid in &victims {
        table.delete(tid).expect("table delete");
    }
    let td_table = t0.elapsed().as_secs_f64() * 1e3 / deletions as f64;
    // Every system tombstones the table file too: a set insert.
    let td_iva = td_iva + td_table;
    let td_sii = td_sii + td_table;
    let td_dst = td_table;

    // --- tr: rebuild time per system (compact table + rebuild index). ---
    let t0 = Instant::now();
    let mut fresh = SwtTable::create_mem(&opts, IoStats::new()).expect("fresh table");
    fresh.adopt_catalog(table.catalog().clone());
    fresh.copy_live_from(&[&table]).expect("compact");
    fresh.flush().expect("flush");
    let tr_table = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let _ = build_index(&fresh, IndexTarget::Mem, &opts, IoStats::new(), config).expect("iva");
    let tr_iva = tr_table + t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let _ = SiiIndex::build(&fresh, &opts, IoStats::new(), config.ndf_penalty).expect("sii");
    let tr_sii = tr_table + t0.elapsed().as_secs_f64() * 1e3;
    let tr_dst = tr_table;

    let nt = n as f64;
    println!(
        "td (per deletion): iVA {:.3} ms, SII {:.3} ms, DST {:.3} ms",
        td_iva, td_sii, td_dst
    );
    println!(
        "tr (full rebuild): iVA {:.0} ms, SII {:.0} ms, DST {:.0} ms  (ti = tr/|T|)",
        tr_iva, tr_sii, tr_dst
    );
    println!();
    report::header(&["beta", "iVA upd ms", "SII upd ms", "DST upd ms"]);
    for beta in [0.01f64, 0.02, 0.03, 0.04, 0.05] {
        let upd = |td: f64, tr: f64| td + tr / nt + tr / (beta * nt);
        report::row(&[
            format!("{:.0}%", beta * 100.0),
            report::f(upd(td_iva, tr_iva)),
            report::f(upd(td_sii, tr_sii)),
            report::f(upd(td_dst, tr_dst)),
        ]);
    }
    println!(
        "\npaper: iVA update cost is very close to SII and DST, and ~100x cheaper than a query"
    );
}
