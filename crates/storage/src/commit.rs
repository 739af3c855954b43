//! lint:scope(panic-reachability)
//! Atomic shadow-commit for file metadata.
//!
//! A commit record is a small sidecar file updated with the classic
//! write-new → fsync → rename protocol: the payload is written to
//! `<path>.new`, fsynced, then renamed onto `<path>`. The rename is the
//! commit point — it is atomic, and the [`Vfs`] contract treats a returned
//! rename as durable (the real implementation fsyncs the parent
//! directory). A crash at any step leaves either the old record or the new
//! one, never a mix, and the record's own header + CRC32C reject a record
//! that somehow is neither.
//!
//! [`ByteLog`](crate::ByteLog) uses this as its commit record (committed
//! length, user bytes and tail-page shadow; a table keeps its counters,
//! tombstone set and catalog in the user bytes). The segmented store's
//! manifest is the other user.

use std::path::{Path, PathBuf};

use crate::codec;
use crate::crc::crc32c;
use crate::error::{Result, StorageError};
use crate::vfs::{read_to_vec, write_full_at, Vfs};

const META_MAGIC: [u8; 4] = *b"IVAM";
const META_VERSION: u32 = 1;
/// magic + version + payload_len + reserved.
const META_HEADER: usize = 16;

/// The temporary path a pending commit record is staged at.
pub fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".new");
    PathBuf::from(name)
}

/// Atomically replace the commit record at `path` with `payload`.
///
/// Durability: when this returns `Ok`, a crash at any later point will
/// recover exactly this payload (or a newer committed one) from `path`.
pub fn write_commit_record(vfs: &dyn Vfs, path: &Path, payload: &[u8]) -> Result<()> {
    let mut buf = Vec::with_capacity(META_HEADER + payload.len() + 4);
    buf.extend_from_slice(&META_MAGIC);
    buf.extend_from_slice(&META_VERSION.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]);
    buf.extend_from_slice(payload);
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    let staged = staging_path(path);
    let file = vfs.create(&staged)?;
    write_full_at(file.as_ref(), &buf, 0)?;
    file.sync()?;
    drop(file);
    vfs.rename(&staged, path)?;
    Ok(())
}

/// Read and validate the commit record at `path`, returning its payload.
///
/// A missing record surfaces as [`StorageError::Format`] mentioning
/// "missing commit record" (the caller decides whether that means "never
/// created" or "corrupt"); a malformed one as `Format`/`Corrupt`.
pub fn read_commit_record(vfs: &dyn Vfs, path: &Path) -> Result<Vec<u8>> {
    let expected = format!("commit record (magic \"IVAM\" v{META_VERSION})");
    let bytes = match read_to_vec(vfs, path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StorageError::Format {
                expected,
                found: format!("missing commit record {}", path.display()),
            })
        }
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < META_HEADER + 4 {
        return Err(StorageError::Format {
            expected,
            found: format!("{}-byte record, too short for a header", bytes.len()),
        });
    }
    if bytes.get(0..4) != Some(META_MAGIC.as_slice()) {
        return Err(StorageError::Format {
            expected,
            found: format!("magic {:02x?}", bytes.get(0..4).unwrap_or_default()),
        });
    }
    let corrupt = |m: &str| StorageError::Corrupt(format!("commit record: {m}"));
    let version = codec::le_u32(&bytes, 4).ok_or_else(|| corrupt("short header"))?;
    if version != META_VERSION {
        return Err(StorageError::Format {
            expected,
            found: format!("commit-record version {version}"),
        });
    }
    let payload_len = codec::le_u32(&bytes, 8).ok_or_else(|| corrupt("short header"))? as usize;
    let total = META_HEADER + payload_len + 4;
    if bytes.len() < total {
        return Err(StorageError::Corrupt(format!(
            "commit record truncated: header claims {payload_len}-byte payload, file has {} bytes",
            bytes.len()
        )));
    }
    let stored = codec::le_u32(&bytes, total - 4).ok_or_else(|| corrupt("short trailer"))?;
    let computed = crc32c(bytes.get(..total - 4).unwrap_or_default());
    if stored != computed {
        return Err(StorageError::Corrupt(format!(
            "commit record checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    bytes
        .get(META_HEADER..META_HEADER + payload_len)
        .map(<[u8]>::to_vec)
        .ok_or_else(|| corrupt("payload out of bounds"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn roundtrip_and_replace() {
        let vfs = MemVfs::new();
        let p = Path::new("x.meta");
        write_commit_record(&vfs, p, b"first").unwrap();
        assert_eq!(read_commit_record(&vfs, p).unwrap(), b"first");
        write_commit_record(&vfs, p, b"second, longer payload").unwrap();
        assert_eq!(
            read_commit_record(&vfs, p).unwrap(),
            b"second, longer payload"
        );
        // The staging file never lingers after a successful commit.
        assert!(!vfs.exists(&staging_path(p)));
    }

    #[test]
    fn missing_and_garbage_records_rejected() {
        let vfs = MemVfs::new();
        let p = Path::new("x.meta");
        assert!(matches!(
            read_commit_record(&vfs, p),
            Err(StorageError::Format { .. })
        ));
        vfs.set_contents(p, vec![0u8; 3]);
        assert!(matches!(
            read_commit_record(&vfs, p),
            Err(StorageError::Format { .. })
        ));
        vfs.set_contents(p, vec![0xEEu8; 64]);
        assert!(matches!(
            read_commit_record(&vfs, p),
            Err(StorageError::Format { .. })
        ));
    }

    #[test]
    fn bit_flip_in_record_detected() {
        let vfs = MemVfs::new();
        let p = Path::new("x.meta");
        write_commit_record(&vfs, p, &[7u8; 40]).unwrap();
        let mut bytes = vfs.contents(p).unwrap();
        for victim in [16, 30, bytes.len() - 5] {
            let mut flipped = bytes.clone();
            flipped[victim] ^= 0x40;
            vfs.set_contents(p, flipped);
            assert!(
                matches!(read_commit_record(&vfs, p), Err(StorageError::Corrupt(_))),
                "flip at {victim} undetected"
            );
        }
        bytes.truncate(bytes.len() - 10);
        vfs.set_contents(p, bytes);
        assert!(matches!(
            read_commit_record(&vfs, p),
            Err(StorageError::Corrupt(_))
        ));
    }
}
