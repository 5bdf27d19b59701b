//! The **disk tier**: a content-addressed, restart-surviving store for
//! canonical payload bytes, keyed by the same stable 128-bit identity the
//! in-memory caches use (circuit hash, machine+config fingerprint).
//!
//! Because every compile is deterministic — byte-identical output for the
//! same key, the contract proven by the umbrella differential suites — a
//! payload written by any process at any time is a valid answer for that
//! key forever (within a format version). That makes the on-disk format
//! trivial: one file per key, named by the key, holding the payload
//! verbatim behind a small self-checking header.
//!
//! # File format (version [`DISK_FORMAT_VERSION`])
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PLXCACHE"
//! 8       4     format version, u32 LE
//! 12      8     payload length in bytes, u64 LE
//! 20      8     FNV-1a 64 checksum of the payload, u64 LE
//! 28      n     payload bytes, verbatim
//! ```
//!
//! Files are named `{key_a:016x}-{key_b:016x}.plx` in a flat directory.
//!
//! # Durability and corruption discipline
//!
//! Writes go to a unique temporary file in the same directory, are
//! `fsync`'d, and then atomically renamed over the final name — a reader
//! never observes a partially written entry under its final name, and a
//! crash mid-write leaves only a stray `.tmp` that is ignored. Reads
//! validate magic, version, length, and checksum; **any** failure —
//! missing file, truncation, garbage, version skew, bit rot — degrades to
//! a structured miss (`None`), never a panic or an error the caller must
//! handle. A file that fails validation is deleted best-effort so the
//! next write replaces it.

use parallax_hardware::StableHasher;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version. Bump on any incompatible change to the header
/// or payload encoding; readers treat version skew as a miss, so mixed
/// fleets simply recompile rather than misparse.
pub const DISK_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"PLXCACHE";
const HEADER_LEN: usize = 28;

/// Upper bound accepted for a single payload (guards against reading a
/// corrupt length field as a multi-gigabyte allocation).
const MAX_PAYLOAD_BYTES: u64 = 1 << 32;

/// A directory of content-addressed payload files. Cheap to clone-open
/// from multiple threads/processes: atomic rename makes concurrent writers
/// of the same key last-writer-wins with no torn state, and readers of a
/// mid-replacement key see either the old or the new complete file.
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, a: u64, b: u64) -> PathBuf {
        self.dir.join(format!("{a:016x}-{b:016x}.plx"))
    }

    /// Read the payload stored for key `(a, b)`. Every failure mode —
    /// absent, truncated, wrong magic, version skew, length mismatch,
    /// checksum mismatch — returns `None`; invalid files are deleted
    /// best-effort so a later [`store`](Self::store) starts clean.
    pub fn load(&self, a: u64, b: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(a, b);
        let mut file = fs::File::open(&path).ok()?;
        match read_validated(&mut file) {
            Some(payload) => Some(payload),
            None => {
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Durably store `payload` under key `(a, b)`: write to a unique
    /// temporary file, `fsync`, then atomically rename over the final
    /// name. On return the entry is visible to any reader of the
    /// directory and survives process death.
    pub fn store(&self, a: u64, b: u64, payload: &[u8]) -> io::Result<()> {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".{a:016x}-{b:016x}.{}.{}.tmp",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            let mut header = [0u8; HEADER_LEN];
            header[..8].copy_from_slice(MAGIC);
            header[8..12].copy_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
            header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            let checksum = StableHasher::new().write_bytes(payload).finish();
            header[20..28].copy_from_slice(&checksum.to_le_bytes());
            file.write_all(&header)?;
            file.write_all(payload)?;
            file.sync_all()?;
            fs::rename(&tmp, self.entry_path(a, b))
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        // Durability of the *name* needs the directory synced too; best
        // effort — not every filesystem supports fsync on a directory.
        if result.is_ok() {
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        result
    }

    /// Number of complete entries currently on disk (`.plx` files; stray
    /// temporaries are not counted).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "plx"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store currently holds no complete entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parse one entry file, returning the payload only if every validation
/// passes.
fn read_validated(file: &mut fs::File) -> Option<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header).ok()?;
    if &header[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if version != DISK_FORMAT_VERSION {
        return None;
    }
    let len = u64::from_le_bytes(header[12..20].try_into().expect("8-byte slice"));
    if len > MAX_PAYLOAD_BYTES {
        return None;
    }
    let checksum = u64::from_le_bytes(header[20..28].try_into().expect("8-byte slice"));
    let mut payload = Vec::new();
    file.read_to_end(&mut payload).ok()?;
    let actual = StableHasher::new().write_bytes(&payload).finish();
    if payload.len() as u64 != len || actual != checksum {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "parallax-persist-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_survives_reopen() {
        let dir = temp_dir("roundtrip");
        let payload = b"{\"ok\":true,\"id\":7}".to_vec();
        {
            let store = DiskStore::open(&dir).unwrap();
            assert!(store.load(1, 2).is_none(), "empty store misses");
            store.store(1, 2, &payload).unwrap();
            assert_eq!(store.load(1, 2).unwrap(), payload);
        }
        // A fresh open over the same directory — the restart case.
        let store = DiskStore::open(&dir).unwrap();
        assert_eq!(store.load(1, 2).unwrap(), payload);
        assert_eq!(store.len(), 1);
        assert!(store.load(1, 3).is_none(), "different key misses");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_the_payload() {
        let dir = temp_dir("overwrite");
        let store = DiskStore::open(&dir).unwrap();
        store.store(9, 9, b"first").unwrap();
        store.store(9, 9, b"second, longer payload").unwrap();
        assert_eq!(store.load(9, 9).unwrap(), b"second, longer payload");
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_miss_and_are_removed() {
        let dir = temp_dir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        store.store(5, 5, b"good payload").unwrap();
        let path = store.entry_path(5, 5);
        let good = fs::read(&path).unwrap();

        // Truncated mid-header.
        fs::write(&path, &good[..10]).unwrap();
        assert!(store.load(5, 5).is_none());
        assert!(!path.exists(), "invalid file is cleaned up");

        // Garbage magic.
        let mut bad = good.clone();
        bad[..8].copy_from_slice(b"GARBAGE!");
        fs::write(&path, &bad).unwrap();
        assert!(store.load(5, 5).is_none());

        // Future format version.
        let mut skew = good.clone();
        skew[8..12].copy_from_slice(&(DISK_FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &skew).unwrap();
        assert!(store.load(5, 5).is_none());

        // Flipped payload bit fails the checksum.
        let mut rot = good.clone();
        let last = rot.len() - 1;
        rot[last] ^= 0x01;
        fs::write(&path, &rot).unwrap();
        assert!(store.load(5, 5).is_none());

        // Truncated payload fails the length check.
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(store.load(5, 5).is_none());

        // After cleanup, a fresh store repairs the key.
        store.store(5, 5, b"good payload").unwrap();
        assert_eq!(store.load(5, 5).unwrap(), b"good payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absurd_length_field_is_rejected_without_allocating() {
        let dir = temp_dir("length");
        let store = DiskStore::open(&dir).unwrap();
        store.store(3, 3, b"x").unwrap();
        let path = store.entry_path(3, 3);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(3, 3).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_payload_round_trips() {
        let dir = temp_dir("empty");
        let store = DiskStore::open(&dir).unwrap();
        store.store(0, 0, b"").unwrap();
        assert_eq!(store.load(0, 0).unwrap(), Vec::<u8>::new());
        let _ = fs::remove_dir_all(&dir);
    }
}
