//! The spill-file page store behind [`crate::PagedIndex`].
//!
//! Rows are serialized `u32` word runs (a row's level-grouped targets and
//! level ends, `SparseRow::words`) written into **fixed-size
//! pages** (default 64 KiB) of an anonymous temp file. The allocator is
//! log-structured at page granularity:
//!
//! * A row short enough to fit in one page never crosses a page boundary:
//!   it packs into the current *open* page, or seals it and starts a new
//!   one. Reading a small row therefore touches exactly one page.
//! * A row longer than a page takes a run of fresh pages at the file tail.
//! * Rewriting a dirty row is **append + free**: the new image goes to the
//!   open page (or fresh pages), the old extent's bytes are released, and
//!   any page whose live bytes drop to zero joins the **free list** for
//!   reuse as a future open page — so update-heavy workloads recycle pages
//!   instead of growing the file without bound.
//!
//! The file is created in the OS temp directory and unlinked immediately
//! on Unix (the kernel reclaims the space when the last handle drops, even
//! on crash); elsewhere it is removed on `Drop`. Page-touch counters feed
//! the cache/IO statistics the serving layer surfaces per tick.

use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default page size: 64 KiB.
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

/// Bytes per serialized row word: one `u32`, little-endian.
pub(crate) const WORD_BYTES: usize = 4;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Pages overlapped by the byte extent `[start, start + bytes)` of a file
/// with `page_size`-byte pages, with the byte share each page carries.
fn overlap(page_size: usize, start: u64, bytes: u64) -> impl Iterator<Item = (u64, u64)> {
    let ps = page_size as u64;
    let first = start / ps;
    let last = (start + bytes - 1) / ps;
    (first..=last).map(move |p| {
        let lo = start.max(p * ps);
        let hi = (start + bytes).min((p + 1) * ps);
        (p, hi - lo)
    })
}

/// Where one row currently lives in the spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowLoc {
    /// Absolute byte offset of the first word.
    pub start: u64,
    /// Number of `u32` words (`0` = no disk extent).
    pub words: u32,
}

impl RowLoc {
    #[inline]
    pub(crate) fn bytes(&self) -> u64 {
        self.words as u64 * WORD_BYTES as u64
    }
}

/// The spill file plus its page allocator and IO counters.
#[derive(Debug)]
pub(crate) struct PageFile {
    file: File,
    /// Retained for `Drop` cleanup on platforms without unlink-while-open.
    path: Option<PathBuf>,
    page_size: usize,
    /// Total pages ever allocated (the file's high-water mark).
    pages: u64,
    /// Page currently accepting small-row appends, with its fill level.
    open_page: Option<u64>,
    open_off: usize,
    /// Live bytes per page; a sealed page at zero is reusable.
    live: Vec<u32>,
    /// Fully-dead pages awaiting reuse as open pages.
    free: Vec<u64>,
    /// Reusable serialization buffer for writes.
    write_buf: Vec<u8>,
    /// Page touches — atomics so the `&self` read path can count.
    pages_read: AtomicU64,
    pages_written: AtomicU64,
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    while !buf.is_empty() {
        let n = std::os::windows::fs::FileExt::seek_read(file, buf, offset)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf = &mut buf[n..];
        offset += n as u64;
    }
    Ok(())
}

#[cfg(windows)]
fn write_at(file: &File, mut buf: &[u8], mut offset: u64) -> std::io::Result<()> {
    while !buf.is_empty() {
        let n = std::os::windows::fs::FileExt::seek_write(file, buf, offset)?;
        buf = &buf[n..];
        offset += n as u64;
    }
    Ok(())
}

impl PageFile {
    /// Create a fresh spill file in the OS temp directory.
    pub(crate) fn create(page_size: usize) -> PageFile {
        assert!(
            page_size >= WORD_BYTES,
            "page size must hold at least one word"
        );
        let dir = std::env::temp_dir();
        let (file, path) = loop {
            // RELAXED: process-global name uniquifier; only atomicity
            // matters, the value orders nothing.
            let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("gpnm-paged-{}-{seq}.spill", std::process::id()));
            match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => break (file, path),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("creating spill file {}: {e}", path.display()),
            }
        };
        // Unlink immediately where the OS supports open-but-deleted files:
        // the space is reclaimed when the handle drops, crash included.
        let path = if cfg!(unix) {
            let _ = std::fs::remove_file(&path);
            None
        } else {
            Some(path)
        };
        PageFile {
            file,
            path,
            page_size,
            pages: 0,
            open_page: None,
            open_off: 0,
            live: Vec::new(),
            free: Vec::new(),
            write_buf: Vec::new(),
            pages_read: AtomicU64::new(0),
            pages_written: AtomicU64::new(0),
        }
    }

    pub(crate) fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total pages the file has grown to (its size high-water mark).
    pub(crate) fn page_count(&self) -> u64 {
        self.pages
    }

    /// Pages currently on the free list.
    #[cfg(test)]
    pub(crate) fn free_pages(&self) -> usize {
        self.free.len()
    }

    pub(crate) fn pages_read(&self) -> u64 {
        // RELAXED: monitoring snapshot of an I/O counter.
        self.pages_read.load(Ordering::Relaxed)
    }

    pub(crate) fn pages_written(&self) -> u64 {
        // RELAXED: monitoring snapshot of an I/O counter.
        self.pages_written.load(Ordering::Relaxed)
    }

    /// Heap footprint of the allocator metadata (not the file itself).
    pub(crate) fn meta_bytes(&self) -> usize {
        self.live.capacity() * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<u64>()
            + self.write_buf.capacity()
    }

    /// Drop every extent and start over with an empty (truncated) file.
    pub(crate) fn reset(&mut self) {
        self.pages = 0;
        self.open_page = None;
        self.open_off = 0;
        self.live.clear();
        self.free.clear();
        let _ = self.file.set_len(0);
    }

    fn fresh_page(&mut self) -> u64 {
        let p = self.pages;
        self.pages += 1;
        self.live.push(0);
        p
    }

    /// Seal the open page; if everything on it already died, recycle it.
    fn seal_open(&mut self) {
        if let Some(p) = self.open_page.take() {
            self.open_off = 0;
            if self.live[p as usize] == 0 {
                self.free.push(p);
            }
        }
    }

    /// Serialize `words` and append them, returning the row's location.
    /// Small rows pack into the open page; oversized rows take fresh pages.
    pub(crate) fn write_row(&mut self, words: &[u32]) -> RowLoc {
        if words.is_empty() {
            return RowLoc { start: 0, words: 0 };
        }
        let bytes = words.len() * WORD_BYTES;
        let start = if bytes <= self.page_size {
            // In-page placement: current open page if it fits, else a
            // recycled or fresh page becomes the open page.
            let fits = self
                .open_page
                .is_some_and(|_| self.page_size - self.open_off >= bytes);
            if !fits {
                self.seal_open();
                let p = self.free.pop().unwrap_or_else(|| self.fresh_page());
                self.open_page = Some(p);
                self.open_off = 0;
            }
            let p = self.open_page.expect("open page just ensured");
            let start = p * self.page_size as u64 + self.open_off as u64;
            self.open_off += bytes;
            start
        } else {
            // Multi-page extent: always fresh tail pages, kept contiguous.
            let npages = bytes.div_ceil(self.page_size);
            let first = self.pages;
            for _ in 0..npages {
                self.fresh_page();
            }
            first * self.page_size as u64
        };
        let mut touched = 0u64;
        for (p, share) in overlap(self.page_size, start, bytes as u64) {
            self.live[p as usize] += share as u32;
            touched += 1;
        }
        // RELAXED: I/O counter; read only by monitoring snapshots.
        self.pages_written.fetch_add(touched, Ordering::Relaxed);
        // Seal only after the live accounting above: sealing a just-filled
        // page earlier would see zero live bytes and recycle it in error.
        if self.open_off == self.page_size {
            self.seal_open();
        }
        self.write_buf.clear();
        self.write_buf.reserve(bytes);
        for &w in words {
            self.write_buf.extend_from_slice(&w.to_le_bytes());
        }
        write_at(&self.file, &self.write_buf, start).expect("spill write");
        RowLoc {
            start,
            words: words.len() as u32,
        }
    }

    /// Read the row at `loc` back into its words.
    pub(crate) fn read_row(&self, loc: RowLoc) -> Vec<u32> {
        if loc.words == 0 {
            return Vec::new();
        }
        let bytes = loc.bytes() as usize;
        let mut buf = vec![0u8; bytes];
        read_at(&self.file, &mut buf, loc.start).expect("spill read");
        let touched = overlap(self.page_size, loc.start, bytes as u64).count() as u64;
        // RELAXED: I/O counter; read only by monitoring snapshots.
        self.pages_read.fetch_add(touched, Ordering::Relaxed);
        buf.chunks_exact(WORD_BYTES)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Release the extent at `loc`; fully-dead sealed pages join the
    /// free list.
    pub(crate) fn free_row(&mut self, loc: RowLoc) {
        if loc.words == 0 {
            return;
        }
        let mut dead = Vec::new();
        for (p, share) in overlap(self.page_size, loc.start, loc.bytes()) {
            let live = &mut self.live[p as usize];
            debug_assert!(*live >= share as u32, "double free");
            *live -= share as u32;
            if *live == 0 && self.open_page != Some(p) {
                dead.push(p);
            }
        }
        self.free.extend(dead);
    }
}

impl Drop for PageFile {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `2n` words: the shape of a one-level row is irrelevant here.
    fn row(n: u32, base: u32) -> Vec<u32> {
        (0..n).flat_map(|i| [base + i, i]).collect()
    }

    #[test]
    fn round_trips_rows() {
        let mut f = PageFile::create(64);
        let a = f.write_row(&row(3, 10));
        let b = f.write_row(&row(5, 100));
        assert_eq!(f.read_row(a), row(3, 10));
        assert_eq!(f.read_row(b), row(5, 100));
        assert_eq!(f.read_row(RowLoc { start: 0, words: 0 }), vec![]);
    }

    #[test]
    fn small_rows_pack_into_one_page() {
        let mut f = PageFile::create(64);
        // 16 words/page: two 8-word rows share page 0.
        let a = f.write_row(&row(4, 0));
        let b = f.write_row(&row(4, 50));
        assert_eq!(a.start / 64, 0);
        assert_eq!(b.start / 64, 0);
        assert_eq!(f.page_count(), 1);
        // A 10-word row no longer fits the remainder: new page.
        let c = f.write_row(&row(5, 90));
        assert_eq!(c.start / 64, 1);
    }

    #[test]
    fn oversized_rows_span_contiguous_pages() {
        let mut f = PageFile::create(64);
        let big = row(20, 0); // 160 bytes = 3 pages of 64
        let loc = f.write_row(&big);
        assert_eq!(loc.start % 64, 0, "large rows start page-aligned");
        assert_eq!(f.page_count(), 3);
        assert_eq!(f.read_row(loc), big);
    }

    #[test]
    fn freed_pages_are_recycled() {
        let mut f = PageFile::create(64);
        let a = f.write_row(&row(8, 0)); // fills page 0 exactly
        let pages_after_a = f.page_count();
        f.free_row(a);
        assert_eq!(f.free_pages(), 1);
        let b = f.write_row(&row(8, 50));
        assert_eq!(f.page_count(), pages_after_a, "page 0 was reused");
        assert_eq!(b.start, a.start);
        assert_eq!(f.free_pages(), 0);
    }

    #[test]
    fn io_counters_track_page_touches() {
        let mut f = PageFile::create(64);
        let loc = f.write_row(&row(20, 0)); // 3 pages
        assert_eq!(f.pages_written(), 3);
        f.read_row(loc);
        assert_eq!(f.pages_read(), 3);
    }

    #[test]
    fn reset_empties_the_allocator() {
        let mut f = PageFile::create(64);
        f.write_row(&row(8, 0));
        f.reset();
        assert_eq!(f.page_count(), 0);
        assert_eq!(f.free_pages(), 0);
        let loc = f.write_row(&row(2, 0));
        assert_eq!(loc.start, 0);
    }
}
