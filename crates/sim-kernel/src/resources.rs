//! Kernel-side resources: pipes and in-memory files.

use std::collections::VecDeque;

/// Default pipe capacity in bytes (Linux default is 64 KiB).
pub const PIPE_CAPACITY: usize = 65536;

/// A unidirectional byte pipe.
#[derive(Debug, Default)]
pub struct Pipe {
    /// Buffered bytes.
    pub buf: VecDeque<u8>,
    /// Pid of a reader blocked on this pipe, if any.
    pub blocked_reader: Option<u64>,
}

impl Pipe {
    /// Creates an empty pipe.
    pub fn new() -> Pipe {
        Pipe::default()
    }

    /// Writes up to capacity; returns bytes accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        let room = PIPE_CAPACITY.saturating_sub(self.buf.len());
        let n = room.min(data.len());
        self.buf.extend(&data[..n]);
        n
    }

    /// Reads up to `len` bytes.
    pub fn read(&mut self, len: usize) -> Vec<u8> {
        let n = len.min(self.buf.len());
        self.buf.drain(..n).collect()
    }

    /// Bytes currently buffered.
    pub fn available(&self) -> usize {
        self.buf.len()
    }
}

/// The largest size a file may grow to. It sits far above the largest
/// file any workload writes (768 KiB), and it bounds what a guest can make
/// the host allocate. A `write` or `ftruncate` past it fails with
/// `EFBIG`, as one past Linux's file-size limit does.
pub const MAX_FILE_SIZE: u64 = 16 << 20;

/// A write or resize that would take a file past [`MAX_FILE_SIZE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileTooLarge;

/// An in-memory file.
#[derive(Debug, Default)]
pub struct File {
    /// File contents.
    pub data: Vec<u8>,
}

impl File {
    /// Creates an empty file.
    pub fn new() -> File {
        File::default()
    }

    /// Reads up to `len` bytes from `offset`.
    pub fn read_at(&self, offset: u64, len: usize) -> &[u8] {
        let start = offset.min(self.size()) as usize;
        let end = start.saturating_add(len).min(self.data.len());
        &self.data[start..end]
    }

    /// Writes `data` at `offset`, growing the file as needed, unless that
    /// would take it past [`MAX_FILE_SIZE`].
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FileTooLarge> {
        let end = offset.checked_add(data.len() as u64).ok_or(FileTooLarge)?;
        if end > self.size() {
            self.set_len(end)?;
        }
        self.data[offset as usize..end as usize].copy_from_slice(data);
        Ok(())
    }

    /// Truncates or zero-extends the file to `len` bytes, unless that is
    /// past [`MAX_FILE_SIZE`].
    pub fn set_len(&mut self, len: u64) -> Result<(), FileTooLarge> {
        if len > MAX_FILE_SIZE {
            return Err(FileTooLarge);
        }
        self.data.resize(len as usize, 0);
        Ok(())
    }

    /// Current size in bytes.
    pub fn size(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_fifo_order() {
        let mut p = Pipe::new();
        assert_eq!(p.write(b"hello"), 5);
        assert_eq!(p.write(b" world"), 6);
        assert_eq!(p.read(5), b"hello");
        assert_eq!(p.read(100), b" world");
        assert_eq!(p.available(), 0);
    }

    #[test]
    fn pipe_respects_capacity() {
        let mut p = Pipe::new();
        let big = vec![0u8; PIPE_CAPACITY + 100];
        assert_eq!(p.write(&big), PIPE_CAPACITY);
        assert_eq!(p.write(b"x"), 0);
        p.read(10);
        assert_eq!(p.write(b"0123456789ab"), 10);
    }

    #[test]
    fn file_sparse_write_grows() {
        let mut f = File::new();
        f.write_at(10, b"abc").unwrap();
        assert_eq!(f.size(), 13);
        assert_eq!(f.read_at(0, 5), &[0, 0, 0, 0, 0]);
        assert_eq!(f.read_at(10, 3), b"abc");
        assert_eq!(f.read_at(12, 100), b"c");
        assert_eq!(f.read_at(100, 10), b"");
    }
}
