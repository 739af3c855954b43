//! Update-path write cost: monolithic rebuild vs memtable + compaction.
//!
//! The companion of `fig17_update_cost`: where Fig. 17 reports the
//! paper's *amortized formula* `td + ti + tr/(β·|T|)`, this bench runs
//! the two engines' actual write paths and records what each update
//! really writes, per table size. The quantity under test is the
//! **foreground** cost — the bytes an `insert`/`delete` pair puts on the
//! write path of the calling thread, which in the serving layer is
//! exactly what happens under `Writer::apply`'s write lock:
//!
//! * **monolithic-rebuild** (`IvaDb`, the "before"): updates tombstone in
//!   place, and the update that pushes the deleted fraction past β pays a
//!   full compacting rebuild — table file plus iVA-file — inline. Its
//!   bytes grow linearly with the table.
//! * **lsm** (`LsmDb`, the "after"): updates land in the memtable (plus a
//!   one-page tombstone in whichever tier holds the old version); seals
//!   and merges run off the foreground path (`Writer::maintain` prepares
//!   them under a read snapshot), so foreground bytes are bounded by the
//!   record, not the table. Maintenance bytes are recorded separately
//!   and honestly — they are the background price of the flat foreground.
//!
//! Every number is an `IoStats` byte counter, so the run is deterministic
//! and CI-assertable; no wall clock anywhere. The sweep doubles the table
//! size over a 4-point ladder and fits the growth exponent of the
//! worst-case foreground update, `alpha = d ln(max bytes) / d ln(|T|)`:
//! the monolith must come out (super)linear and the LSM sublinear.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p iva-bench --bench update_path
//! cargo bench -p iva-bench --bench update_path -- --tuples 2000 --updates 24   # CI smoke
//! ```
//!
//! Flags (after `--`): `--tuples <n>` largest table in the ladder
//! (default 8000), `--updates <n>` update-count floor per point (default
//! 48; each point runs `max(updates, n/50)` so every size trips at least
//! one rebuild at β = 1%). Results land in `BENCH_update_path.json`,
//! with the host (cores, arch, OS) as `serving_envelope` records it.
//! The growth-exponent and tail-ratio envelopes are asserted only at
//! full size (`--tuples` ≥ 8000); smoke runs just record.

use iva_bench::report;
use iva_file::{IvaDb, IvaDbOptions, LsmDb, LsmOptions};
use iva_storage::{write_vec, PagerOptions, RealVfs};
use iva_swt::AttrType;
use iva_workload::{Dataset, WorkloadConfig};

/// Cleaning trigger β for the monolithic baseline (Sec. V-C; Fig. 17
/// sweeps 1%..5% — the cheapest end is the fairest baseline).
const BETA: f64 = 0.01;
/// Memtable seal threshold (records incl. tombstones) for the LSM side.
const MEMTABLE_LIMIT: u64 = 32;
/// Sealed-segment count that triggers a full merge.
const COMPACT_FANOUT: usize = 4;

/// Growth measurement needs tuple-dominated bytes, so this bench narrows
/// the catalog (the paper-shaped 1,147-attr catalog puts ~1 page of list
/// padding behind every attribute, a fixed cost that swamps the
/// tuple-proportional part at ladder sizes) and shrinks pages to match.
/// Query behaviour is out of scope here — the differential suite covers
/// that on the full-width shape.
fn update_workload(n: usize) -> WorkloadConfig {
    WorkloadConfig {
        n_tuples: n,
        n_attrs: 96,
        text_fraction: 0.75,
        mean_defined: 12.0,
        vocab_per_attr: (n / 50).clamp(20, 1_000),
        ..WorkloadConfig::paper_full()
    }
}

/// Small pages for the same reason: per-attribute page padding must not
/// flatten the curve.
fn update_pager() -> PagerOptions {
    PagerOptions {
        page_size: 256,
        cache_bytes: 256 * 1024,
    }
}

struct Args {
    tuples: usize,
    updates: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        tuples: 8_000,
        updates: 48,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1);
        match (flag, value) {
            ("--tuples", Some(v)) => {
                args.tuples = v.parse().expect("--tuples takes a number");
                i += 2;
            }
            ("--updates", Some(v)) => {
                args.updates = v.parse().expect("--updates takes a number");
                i += 2;
            }
            _ => i += 1,
        }
    }
    args
}

/// Deterministic victim picker (same LCG as `fig17_update_cost`).
struct Lcg(u64);

impl Lcg {
    fn pick(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// Total bytes the monolith has written, across both of its files.
fn mono_bytes(db: &IvaDb) -> u64 {
    db.table_io().snapshot().bytes_written + db.index_io().snapshot().bytes_written
}

/// Total bytes the segmented store has written, across every tier.
/// Tier identity only changes inside seal/compact, which the update loop
/// runs between (never inside) foreground measurement windows.
fn lsm_bytes(db: &LsmDb) -> u64 {
    let mut total = db.manifest_io().snapshot().bytes_written
        + db.maintenance_io().snapshot().bytes_written
        + db.memtable()
            .table()
            .file()
            .io_stats()
            .snapshot()
            .bytes_written
        + db.memtable().index().io_stats().snapshot().bytes_written;
    for seg in db.segments() {
        total += seg.table_io().snapshot().bytes_written;
        total += seg.index_io().snapshot().bytes_written;
    }
    total
}

/// Seal/merge bytes only (segment files + manifest commits).
fn lsm_maintenance_bytes(db: &LsmDb) -> u64 {
    db.manifest_io().snapshot().bytes_written + db.maintenance_io().snapshot().bytes_written
}

/// One sweep point for one system.
#[derive(Default)]
struct Point {
    n_tuples: u64,
    updates: u64,
    /// Worst single foreground update (monolith: includes the inline
    /// rebuild of the update that trips β, because `IvaDb::delete` runs
    /// `maybe_clean` on the caller's thread).
    max_update_bytes: u64,
    /// All foreground bytes / updates.
    mean_update_bytes: f64,
    /// Off-foreground bytes (LSM seals+merges; always 0 for the
    /// monolith, whose only maintenance is the inline rebuild).
    maintenance_bytes: u64,
    rebuilds: u64,
    seals: u64,
    compactions: u64,
}

/// Run the update stream against both engines at one table size.
///
/// The monolith is configured with `cleaning_threshold: 2.0` and the
/// rebuild is invoked manually at β — semantically identical to the
/// built-in trigger (same check `IvaDb::maybe_clean` performs after
/// every delete), but it keeps the byte attribution exact: `rebuild()`
/// installs fresh `IoStats`, so its counters afterwards hold precisely
/// the rebuild's writes, which are then charged to the update that
/// tripped the threshold.
fn run_point(n: usize, updates: usize) -> (Point, Point) {
    let workload = update_workload(n);
    let dataset = Dataset::generate(&workload);
    let pager = update_pager();

    let mut mono = IvaDb::create_mem(IvaDbOptions {
        pager: pager.clone(),
        cleaning_threshold: 2.0,
        ..IvaDbOptions::default()
    })
    .expect("create monolith");
    let mut lsm = LsmDb::create_mem(LsmOptions {
        pager: pager.clone(),
        memtable_limit: MEMTABLE_LIMIT,
        compact_fanout: COMPACT_FANOUT,
        ..LsmOptions::default()
    })
    .expect("create lsm");

    for (i, ty) in dataset.attr_types.iter().enumerate() {
        let name = format!("a{i}");
        match ty {
            AttrType::Text => {
                mono.define_text(&name).expect("define");
                lsm.define_text(&name).expect("define");
            }
            AttrType::Numeric => {
                mono.define_numeric(&name).expect("define");
                lsm.define_numeric(&name).expect("define");
            }
        }
    }

    // Base load, then seal the LSM's bulk into its first segment so the
    // update stream starts from the steady state: big immutable base,
    // empty memtable.
    let mut live: Vec<(u64, usize)> = Vec::with_capacity(dataset.tuples.len());
    for (i, tuple) in dataset.tuples.iter().enumerate() {
        let a = mono.insert(tuple).expect("mono insert");
        let b = lsm.insert(tuple).expect("lsm insert");
        assert_eq!(a, b, "engines diverged on tid assignment");
        live.push((a, i));
    }
    lsm.seal().expect("seal base");
    // Charge the update stream only for its own maintenance, not the
    // one-off bulk seal of the base load.
    let maint_base = lsm_maintenance_bytes(&lsm);

    let mut mono_pt = Point {
        n_tuples: n as u64,
        updates: updates as u64,
        ..Point::default()
    };
    let mut lsm_pt = Point {
        n_tuples: n as u64,
        updates: updates as u64,
        ..Point::default()
    };
    let mut mono_total_fg = 0u64;
    let mut lsm_total_fg = 0u64;
    let mut lcg = Lcg(0x5EED ^ n as u64);

    for _ in 0..updates {
        let slot = lcg.pick(live.len());
        let (tid, row) = live[slot];
        let tuple = &dataset.tuples[row];

        // Monolith: delete + reinsert, plus the inline rebuild when the
        // update trips β — all on the foreground path.
        let b0 = mono_bytes(&mono);
        assert!(mono.delete(tid).expect("mono delete"));
        let new_mono = mono.insert(tuple).expect("mono reinsert");
        let mut op = mono_bytes(&mono) - b0;
        if mono.deleted_fraction() >= BETA {
            mono.rebuild().expect("rebuild");
            op += mono_bytes(&mono); // fresh counters == the rebuild's writes
            mono_pt.rebuilds += 1;
        }
        mono_pt.max_update_bytes = mono_pt.max_update_bytes.max(op);
        mono_total_fg += op;

        // LSM: the same update is memtable-bound; maintenance runs
        // between updates (in serving: prepared off the write lock).
        let b0 = lsm_bytes(&lsm);
        assert!(lsm.delete(tid).expect("lsm delete"));
        let new_lsm = lsm.insert(tuple).expect("lsm reinsert");
        let op = lsm_bytes(&lsm) - b0;
        lsm_pt.max_update_bytes = lsm_pt.max_update_bytes.max(op);
        lsm_total_fg += op;

        if lsm.memtable().total_records() >= MEMTABLE_LIMIT {
            lsm.seal().expect("seal");
            lsm_pt.seals += 1;
        }
        if lsm.segments().len() >= COMPACT_FANOUT {
            lsm.compact().expect("compact");
            lsm_pt.compactions += 1;
        }

        assert_eq!(new_mono, new_lsm, "engines diverged on reinsert tid");
        live[slot] = (new_mono, row);
    }

    mono_pt.mean_update_bytes = mono_total_fg as f64 / updates as f64;
    lsm_pt.mean_update_bytes = lsm_total_fg as f64 / updates as f64;
    lsm_pt.maintenance_bytes = lsm_maintenance_bytes(&lsm) - maint_base;
    assert_eq!(mono.len(), lsm.len(), "engines diverged on live count");
    (mono_pt, lsm_pt)
}

/// Growth exponent of the worst-case foreground update across the
/// ladder: slope of `ln(max bytes)` against `ln(n)` between the
/// endpoints.
fn growth_exponent(points: &[Point]) -> f64 {
    let (first, last) = (&points[0], &points[points.len() - 1]);
    let dy = (last.max_update_bytes.max(1) as f64 / first.max_update_bytes.max(1) as f64).ln();
    let dx = (last.n_tuples as f64 / first.n_tuples as f64).ln();
    dy / dx
}

fn point_json(p: &Point) -> String {
    format!(
        "      {{\"n_tuples\": {}, \"updates\": {}, \"max_update_bytes\": {}, \
         \"mean_update_bytes\": {:.1}, \"maintenance_bytes\": {}, \
         \"rebuilds\": {}, \"seals\": {}, \"compactions\": {}}}",
        p.n_tuples,
        p.updates,
        p.max_update_bytes,
        p.mean_update_bytes,
        p.maintenance_bytes,
        p.rebuilds,
        p.seals,
        p.compactions,
    )
}

fn main() {
    let args = parse_args();
    let workload = update_workload(args.tuples);
    let config = iva_core::IvaConfig::default();
    report::banner(
        "update_path",
        "foreground update bytes: monolithic rebuild vs memtable + compaction",
        &workload,
        &config,
    );

    // 4-point doubling ladder ending at --tuples.
    let sizes: Vec<usize> = (0..4).rev().map(|s| (args.tuples >> s).max(125)).collect();

    let mut mono_points = Vec::new();
    let mut lsm_points = Vec::new();
    for &n in &sizes {
        let updates = args.updates.max(n / 50);
        let (m, l) = run_point(n, updates);
        mono_points.push(m);
        lsm_points.push(l);
    }

    report::header(&[
        "tuples",
        "updates",
        "mono max B/upd",
        "mono mean B/upd",
        "rebuilds",
        "lsm max B/upd",
        "lsm mean B/upd",
        "lsm maint B",
        "seals+merges",
    ]);
    for (m, l) in mono_points.iter().zip(&lsm_points) {
        report::row(&[
            m.n_tuples.to_string(),
            m.updates.to_string(),
            m.max_update_bytes.to_string(),
            format!("{:.0}", m.mean_update_bytes),
            m.rebuilds.to_string(),
            l.max_update_bytes.to_string(),
            format!("{:.0}", l.mean_update_bytes),
            l.maintenance_bytes.to_string(),
            format!("{}+{}", l.seals, l.compactions),
        ]);
    }

    let mono_alpha = growth_exponent(&mono_points);
    let lsm_alpha = growth_exponent(&lsm_points);
    let full_ratio = mono_points.last().unwrap().max_update_bytes as f64
        / lsm_points.last().unwrap().max_update_bytes.max(1) as f64;
    println!(
        "\nworst-case foreground update growth: monolith alpha {mono_alpha:.2} \
         (linear rebuild inline), lsm alpha {lsm_alpha:.2} (memtable-bound)"
    );
    println!(
        "at {} tuples the monolith's worst update writes {full_ratio:.0}x the lsm's",
        sizes[sizes.len() - 1]
    );

    let full = args.tuples >= 8_000;
    if full {
        assert!(
            lsm_alpha < 0.5,
            "satellite acceptance: lsm foreground update cost must be sublinear in table \
             size, got alpha {lsm_alpha:.2}"
        );
        assert!(
            mono_alpha > 0.6,
            "baseline sanity: the monolith's inline rebuild should scale ~linearly, got \
             alpha {mono_alpha:.2}"
        );
        assert!(
            full_ratio >= 4.0,
            "satellite acceptance: expected >=4x worst-case foreground reduction at full \
             size, got {full_ratio:.1}x"
        );
    }

    let systems_json = [("monolithic-rebuild", &mono_points), ("lsm", &lsm_points)]
        .iter()
        .map(|(name, points)| {
            format!(
                "    {{\"system\": \"{name}\", \"points\": [\n{}\n    ]}}",
                points
                    .iter()
                    .map(point_json)
                    .collect::<Vec<_>>()
                    .join(",\n")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"update_path\",\n  \"sizes\": [{}],\n  \"beta\": {BETA},\n  \
         \"host\": {{\"cores\": {cores}, \"arch\": \"{}\", \"os\": \"{}\"}},\n  \
         \"memtable_limit\": {MEMTABLE_LIMIT},\n  \"compact_fanout\": {COMPACT_FANOUT},\n  \
         \"growth_exponent_monolithic\": {mono_alpha:.4},\n  \
         \"growth_exponent_lsm\": {lsm_alpha:.4},\n  \
         \"max_foreground_ratio_at_full\": {full_ratio:.2},\n  \
         \"passes_threshold\": {},\n  \"systems\": [\n{systems_json}\n  ]\n}}\n",
        sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        std::env::consts::ARCH,
        std::env::consts::OS,
        full,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_update_path.json");
    write_vec(&RealVfs, std::path::Path::new(path), json).expect("write BENCH_update_path.json");
    println!("recorded {path}");
}
