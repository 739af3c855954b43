//! Property tests for the storage substrate: chained lists and the byte
//! log must behave exactly like an in-memory byte vector under arbitrary
//! operation sequences.

use std::path::Path;
use std::sync::Arc;

use proptest::prelude::*;

use iva_storage::{
    overwrite_in_list, sidecar_path, write_contiguous_list, ByteLog, IoStats, ListReader,
    ListWriter, MemVfs, Pager, PagerOptions,
};

fn small_pager() -> Arc<Pager> {
    Pager::create_mem(
        &PagerOptions {
            page_size: 96,
            cache_bytes: 96 * 4,
        },
        IoStats::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn list_append_read_roundtrip(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200), 0..20)) {
        let p = small_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        let mut model = Vec::new();
        for c in &chunks {
            w.append(c).unwrap();
            model.extend_from_slice(c);
        }
        let h = w.finish().unwrap();
        prop_assert_eq!(h.len, model.len() as u64);
        let mut r = ListReader::open(p, h).unwrap();
        let mut out = vec![0u8; model.len()];
        r.read_exact(&mut out).unwrap();
        prop_assert_eq!(out, model);
        prop_assert!(r.at_end());
    }

    #[test]
    fn list_resume_appending_matches_model(
        first in proptest::collection::vec(any::<u8>(), 0..300),
        second in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let p = small_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        w.append(&first).unwrap();
        let h1 = w.finish().unwrap();
        let mut w = ListWriter::append_to(Arc::clone(&p), h1).unwrap();
        w.append(&second).unwrap();
        let h2 = w.finish().unwrap();

        let mut model = first.clone();
        model.extend_from_slice(&second);
        let mut r = ListReader::open(p, h2).unwrap();
        let mut out = vec![0u8; model.len()];
        r.read_exact(&mut out).unwrap();
        prop_assert_eq!(out, model);
    }

    #[test]
    fn list_skip_equals_read(
        data in proptest::collection::vec(any::<u8>(), 1..400),
        cut in any::<prop::sample::Index>(),
    ) {
        let p = small_pager();
        let h = write_contiguous_list(&p, &data).unwrap();
        let cut = cut.index(data.len());
        let mut r = ListReader::open(Arc::clone(&p), h).unwrap();
        r.skip(cut as u64).unwrap();
        let mut rest = vec![0u8; data.len() - cut];
        r.read_exact(&mut rest).unwrap();
        prop_assert_eq!(&rest[..], &data[cut..]);
    }

    #[test]
    fn list_overwrite_matches_model(
        data in proptest::collection::vec(any::<u8>(), 1..400),
        patch in proptest::collection::vec(any::<u8>(), 1..50),
        at in any::<prop::sample::Index>(),
    ) {
        let p = small_pager();
        let h = write_contiguous_list(&p, &data).unwrap();
        let max_start = data.len().saturating_sub(patch.len());
        let at = at.index(max_start + 1);
        let mut model = data.clone();
        if at + patch.len() <= data.len() {
            model[at..at + patch.len()].copy_from_slice(&patch);
            overwrite_in_list(&p, h, at as u64, &patch).unwrap();
        } else {
            prop_assert!(overwrite_in_list(&p, h, at as u64, &patch).is_err());
        }
        let mut r = ListReader::open(p, h).unwrap();
        let mut out = vec![0u8; model.len()];
        r.read_exact(&mut out).unwrap();
        prop_assert_eq!(out, model);
    }

    #[test]
    fn bytelog_matches_model(
        appends in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..150), 1..15),
        reads in proptest::collection::vec((any::<prop::sample::Index>(), 0usize..60), 0..10),
    ) {
        let opts = PagerOptions { page_size: 64, cache_bytes: 64 * 4 };
        let mut log = ByteLog::create_mem(&opts, IoStats::new()).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for a in &appends {
            let off = log.append(a).unwrap();
            prop_assert_eq!(off, model.len() as u64);
            model.extend_from_slice(a);
        }
        // Random reads.
        for (at, len) in &reads {
            if model.is_empty() { continue; }
            let at = at.index(model.len());
            let len = (*len).min(model.len() - at);
            let mut buf = vec![0u8; len];
            log.read_at(at as u64, &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &model[at..at + len]);
        }
        // Full read.
        let mut all = vec![0u8; model.len()];
        log.read_at(0, &mut all).unwrap();
        prop_assert_eq!(all, model);
    }

    /// Torn-tail recovery: commit some records, append more without
    /// committing, then truncate the data file at *every* byte offset
    /// inside its last two page frames. Reopening must never panic; when
    /// it succeeds the log holds exactly the committed prefix, and when
    /// the cut eats committed data the open reports corruption.
    #[test]
    fn bytelog_truncated_tail_recovers_committed_prefix(
        committed_recs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 1..10),
        torn_recs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 0..5),
    ) {
        let path = Path::new("trunc.log");
        let opts = PagerOptions { page_size: 96, cache_bytes: 96 * 4 };
        let base = MemVfs::new();
        let mut log = ByteLog::create_with_vfs(
            Arc::new(base.clone()), path, &opts, IoStats::new()).unwrap();
        let mut committed = Vec::new();
        for r in &committed_recs {
            log.append(r).unwrap();
            committed.extend_from_slice(r);
        }
        log.flush().unwrap();
        // Uncommitted work after the last flush: fair game for truncation.
        for r in &torn_recs {
            log.append(r).unwrap();
        }
        drop(log);

        let full = base.contents(path).unwrap();
        let sidecar = base.contents(&sidecar_path(path)).unwrap();
        let frame = opts.page_size + 8;
        let start = full.len().saturating_sub(2 * frame);
        for cut in start..=full.len() {
            let disk = MemVfs::new();
            disk.set_contents(path, full[..cut].to_vec());
            disk.set_contents(&sidecar_path(path), sidecar.clone());
            match ByteLog::open_with_vfs(Arc::new(disk), path, &opts, IoStats::new()) {
                Ok(log) => {
                    prop_assert_eq!(log.len(), committed.len() as u64,
                        "cut at {} of {}", cut, full.len());
                    let mut buf = vec![0u8; committed.len()];
                    log.read_at(0, &mut buf).unwrap();
                    prop_assert_eq!(&buf, &committed, "cut at {}", cut);
                }
                // A cut inside the committed region is unrecoverable from
                // this file alone; the error must say so.
                Err(e) => prop_assert!(e.is_corruption(),
                    "cut at {} of {}: non-corruption error {}", cut, full.len(), e),
            }
        }
    }
}
