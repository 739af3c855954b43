//! The filesystem the benchmark's stores live on: `RealVfs` with every
//! file `sync` counted instead of carried out.
//!
//! The sandbox's flush latency is not a device's, and it does not
//! repeat: the same five seals and merges of one `mixed_lsm` repetition
//! took 0.25 s with their files on tmpfs and between 0.33 s and 0.78 s
//! on the scratch disk, minutes apart, which moved `update_ops_per_s` by
//! a quartile spread of 0.34 over ten runs. A flush is therefore
//! reported as what it is on any host, a count (`storage.syncs_per_update`
//! and `storage.syncs_in_setup`, exact), and the timings cover the
//! program's own work: CPU and `write` calls into the page cache. Every
//! workload runs on this filesystem, so the flush policy is the same on
//! both sides of any comparison. Renames go to `RealVfs` unchanged.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iva_storage::{RealVfs, Vfs, VfsFile};

/// `RealVfs` minus the flushes, which it counts.
#[derive(Debug, Default)]
pub struct NoSyncVfs {
    syncs: Arc<AtomicU64>,
}

impl NoSyncVfs {
    /// File syncs asked for so far.
    pub fn syncs(&self) -> u64 {
        // Relaxed: a statistic, read after the writer thread is done.
        self.syncs.load(Ordering::Relaxed)
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(NoSyncFile {
            file,
            syncs: Arc::clone(&self.syncs),
        })
    }
}

struct NoSyncFile {
    file: Box<dyn VfsFile>,
    syncs: Arc<AtomicU64>,
}

impl VfsFile for NoSyncFile {
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<usize> {
        self.file.read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> io::Result<usize> {
        self.file.write_at(buf, off)
    }
    fn len(&self) -> io::Result<u64> {
        self.file.len()
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
    fn sync(&self) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl Vfs for NoSyncVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealVfs.create(path).map(|f| self.wrap(f))
    }
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        RealVfs.open(path).map(|f| self.wrap(f))
    }
    fn exists(&self, path: &Path) -> bool {
        RealVfs.exists(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_dir_all(path)
    }
}
