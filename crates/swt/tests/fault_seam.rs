//! Regression tests for the VFS seam: a table created under `MemVfs` and
//! reopened through a fault injector must actually *see* injected faults
//! on every filesystem operation of the open/read path. Before the seam
//! fix, `SwtTable` could hold a stray `RealVfs` next to a mem-backed table
//! file, so parts of the table's I/O silently skipped the injector.

use std::path::Path;
use std::sync::Arc;

use iva_storage::vfs::{MemVfs, Vfs};
use iva_storage::{FaultKind, FaultVfs, IoStats, PagerOptions, PlannedFault};
use iva_swt::{SwtTable, Tuple, Value};

fn opts() -> PagerOptions {
    PagerOptions {
        page_size: 256,
        cache_bytes: 4096,
    }
}

/// Build a small table on `vfs` at `base` and flush it.
fn build_table(vfs: Arc<dyn Vfs>, base: &Path) {
    let mut t = SwtTable::create_with_vfs(vfs, base, &opts(), IoStats::new()).unwrap();
    let name = t.define_text("Name").unwrap();
    let year = t.define_numeric("Year").unwrap();
    for i in 0..20 {
        t.insert(
            &Tuple::new()
                .with(name, Value::text(format!("album number {i}")))
                .with(year, Value::num(1980.0 + i as f64)),
        )
        .unwrap();
    }
    t.flush().unwrap();
}

/// Open the table through `vfs` and scan every record.
fn open_and_scan(vfs: Arc<dyn Vfs>, base: &Path) -> iva_swt::Result<usize> {
    let t = SwtTable::open_with_vfs(vfs, base, &opts(), IoStats::new())?;
    let mut n = 0;
    for item in t.scan() {
        let _ = item?;
        n += 1;
    }
    Ok(n)
}

#[test]
fn faultvfs_adopts_memvfs_table_and_open_goes_through_it() {
    let mem = MemVfs::new();
    let base = Path::new("t");
    build_table(Arc::new(mem.clone()), base);

    // A passthrough injector seeded from the MemVfs image must open the
    // table cleanly — and its op counter must have moved, proving every
    // byte of the open/scan path flowed through the injector. The path is
    // 9 ops: the table file's commit record (which carries the catalog)
    // and the data file's recovery and page reads.
    let fault = FaultVfs::adopt(&mem, 7, Vec::new());
    let ops_before = fault.op_count();
    let n = open_and_scan(Arc::new(fault.clone()), base).unwrap();
    assert_eq!(n, 20);
    assert!(
        fault.op_count() > ops_before + 8,
        "open+scan performed only {} vfs ops — table I/O is bypassing the seam",
        fault.op_count() - ops_before
    );
}

#[test]
fn injected_faults_reach_every_open_scan_operation() {
    let mem = MemVfs::new();
    let base = Path::new("t");
    build_table(Arc::new(mem.clone()), base);

    // Dry run: count the ops an open+scan performs.
    let dry = FaultVfs::adopt(&mem, 7, Vec::new());
    open_and_scan(Arc::new(dry.clone()), base).unwrap();
    let total_ops = dry.op_count();

    // Injecting EIO at *any* single operation index must surface as an
    // error (never a panic, never silently-wrong data). If some index
    // succeeded, that operation would be running outside the injector.
    let mut fired = 0u64;
    for at in 0..total_ops {
        let vfs = FaultVfs::adopt(
            &mem,
            7,
            vec![PlannedFault {
                at,
                kind: FaultKind::Eio,
            }],
        );
        if open_and_scan(Arc::new(vfs), base).is_err() {
            fired += 1;
        }
    }
    assert_eq!(
        fired,
        total_ops,
        "EIO was swallowed at {} of {} op indices — some table I/O skips the fault injector",
        total_ops - fired,
        total_ops
    );
}
