//! Crash-safe file persistence primitives.
//!
//! Everything the sweep writes to disk that must survive a crash goes
//! through this module:
//!
//! * [`atomic_write`] — the classic tmp-file + fsync + rename dance, so
//!   a reader (or a resumed run) never observes a half-written
//!   `results_regenerated.txt`, trace export, metrics exposition, or
//!   compacted journal. The rename is atomic on POSIX; the directory is
//!   fsynced afterwards so the new name itself is durable.
//! * [`crc32`] — the IEEE CRC-32 that checksums each journal line's
//!   payload. CRC-32 detects *every* single-byte corruption (and all
//!   burst errors up to 32 bits), which is exactly the property the
//!   journal property test pins down.
//! * [`fnv1a`] — the 64-bit FNV-1a hash under every value that must be
//!   identical across processes and runs: seeded fault draws, client
//!   backoff jitter, and the shard ring.
//! * [`frame_line`] / [`unframe_line`] and [`JournalFile`] — the one
//!   journal-line codec (`<tag> <crc32> <payload>`) and the append /
//!   fsync file both journals write through: the cell journal with tag
//!   `v2`, the campaign journal with tag `c1`.
//! * [`WriteDamage`] — the I/O-layer fault model: how an injected
//!   `torn-write` or `journal-corrupt` fault mangles the bytes the
//!   journal was about to append, so recovery from real-world disk
//!   failures is testable from `--inject` like simulator faults already
//!   are.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::harness::lock;

/// The IEEE CRC-32 lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of some bytes followed by `bytes`, given `crc`, the CRC-32
/// of the first part: `crc32_extend(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for b in bytes {
        c = CRC32_TABLE[((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// 64-bit FNV-1a of `bytes`. Callers add their own finalizer; the bare
/// hash is pinned by the standard test vectors below.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Frames one journal line: `<tag> <crc32 of payload, 8 lowercase hex
/// digits> <payload>`, with the trailing newline.
pub fn frame_line(tag: &str, payload: &str) -> String {
    format!("{tag} {:08x} {payload}\n", crc32(payload.as_bytes()))
}

/// What [`unframe_line`] found on one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unframed<'a> {
    /// The line does not carry this tag.
    Foreign,
    /// The checksum holds over this payload.
    Payload(&'a str),
    /// The cut-off final line of a writer killed mid-append.
    Torn,
    /// Damaged framing or a checksum mismatch.
    Corrupt,
}

/// Checks one line written by [`frame_line`] with `tag`. `is_last`
/// enables the torn-tail verdict: only the final line of a file can be
/// an expected crash artifact; the same damage mid-file is corruption.
pub fn unframe_line<'a>(tag: &str, line: &'a str, is_last: bool) -> Unframed<'a> {
    let Some(rest) = line.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')) else {
        return Unframed::Foreign;
    };
    let damaged = |torn: bool| if is_last && torn { Unframed::Torn } else { Unframed::Corrupt };
    // `<crc8hex> <payload>`; anything structurally short on the final
    // line is a torn write.
    let Some((crc_hex, payload)) = rest.split_once(' ') else {
        return damaged(true);
    };
    // The writer emits exactly 8 lowercase hex digits; accepting
    // case-insensitive hex would let a one-bit flip ('a' -> 'A') produce
    // a different byte that still parses to the same checksum, breaking
    // the every-single-byte-corruption-detected property.
    let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
    let declared = match u32::from_str_radix(crc_hex, 16) {
        Ok(crc) if crc_hex.len() == 8 && crc_hex.bytes().all(lower_hex) => crc,
        _ => return damaged(true),
    };
    if crc32(payload.as_bytes()) != declared {
        // A torn tail is a *prefix* of a valid line, so it cannot end in
        // the closing brace; a bit-flip keeps the brace.
        return damaged(!payload.ends_with('}'));
    }
    Unframed::Payload(payload)
}

/// The write side of a line journal: an append-only file. Every line
/// goes straight to the OS (no user-space buffer), so a SIGKILL loses
/// at most the line in flight, and [`JournalFile::sync`] fsyncs so a
/// power loss cannot roll back past a sync.
#[derive(Debug)]
pub struct JournalFile(Mutex<File>);

impl JournalFile {
    /// Opens (or creates) the journal at `path` for appending and
    /// returns the text already in it. A file without content gets
    /// `header` as its first line.
    pub fn open(path: &Path, header: &str) -> io::Result<(JournalFile, String)> {
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        if text.is_empty() {
            file.write_all(format!("{header}\n").as_bytes())?;
        }
        Ok((JournalFile(Mutex::new(file)), text))
    }

    /// Appends `bytes`.
    pub fn append(&self, bytes: &[u8]) -> io::Result<()> {
        lock(&self.0).write_all(bytes)
    }

    /// Fsyncs the file.
    pub fn sync(&self) -> io::Result<()> {
        lock(&self.0).sync_data()
    }
}

/// The temporary sibling `atomic_write` stages into before renaming.
fn staging_path(path: &Path) -> PathBuf {
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("out");
    path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()))
}

/// Durably replaces the file at `path` with `bytes`: write to a
/// temporary sibling, fsync it, rename it over `path`, then fsync the
/// containing directory. A crash at any point leaves either the old
/// file or the new one — never a torn mixture — and after a clean
/// return the data and the rename both survive power loss.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path);
    let result = (|| {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync makes the rename itself durable. Some
            // filesystems refuse to open directories for writing; a
            // failure here downgrades durability, not atomicity.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// How an injected I/O fault mangles a journal append. Applied to the
/// encoded line *after* the in-memory copy is stored, so only the
/// on-disk durability is damaged — exactly what a torn disk write does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteDamage {
    /// Write only a prefix of the line and no trailing newline (a torn
    /// write from a crash mid-append).
    Torn,
    /// Write the full line but with one payload byte flipped (silent
    /// media corruption); the checksum no longer matches.
    BitFlip,
}

impl WriteDamage {
    /// Applies the damage to an encoded journal line (which includes its
    /// trailing newline), returning the bytes that actually reach disk.
    pub fn apply(self, line: &str) -> Vec<u8> {
        let bytes = line.as_bytes();
        match self {
            WriteDamage::Torn => bytes[..bytes.len() * 2 / 3].to_vec(),
            WriteDamage::BitFlip => {
                let mut out = bytes.to_vec();
                // Flip a bit in the middle of the payload, away from the
                // newline, so the line still reads as one line.
                let i = out.len() / 2;
                out[i] ^= 0x01;
                if out[i] == b'\n' {
                    out[i] ^= 0x03;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_extend_continues_a_checksum() {
        let text = b"The quick brown fox jumps over the lazy dog";
        for cut in 0..=text.len() {
            let (head, tail) = text.split_at(cut);
            assert_eq!(crc32_extend(crc32(head), tail), 0x414F_A339, "cut at {cut}");
        }
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        // Standard 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn crc32_detects_every_single_byte_change() {
        let payload = b"{\"cell\":\"a/b/c\",\"seed\":3,\"kind\":\"num\",\"v\":[1.5]}";
        let clean = crc32(payload);
        let mut mutated = payload.to_vec();
        for i in 0..mutated.len() {
            let original = mutated[i];
            mutated[i] = original.wrapping_add(1);
            assert_ne!(crc32(&mutated), clean, "byte {i}");
            mutated[i] = original;
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("spectrebench-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No staging litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_shapes_are_distinct() {
        let line = "v2 deadbeef {\"cell\":\"x\",\"seed\":0,\"kind\":\"num\",\"v\":[2]}\n";
        let torn = WriteDamage::Torn.apply(line);
        assert!(torn.len() < line.len());
        assert!(!torn.ends_with(b"\n"));
        let flipped = WriteDamage::BitFlip.apply(line);
        assert_eq!(flipped.len(), line.len());
        assert_ne!(flipped, line.as_bytes());
        assert_eq!(flipped.iter().filter(|b| **b == b'\n').count(), 1);
    }
}
